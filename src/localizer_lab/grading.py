"""Graded finite-dimensional operators and spectral calculus.

A grading splits C^n into a positive and a negative sector, with the grading
involution gamma = diag(+1, ..., +1, -1, ..., -1).  Operators carry an optional
parity label: even operators commute with gamma (block diagonal), odd operators
anticommute (block off-diagonal).  Parity is enforced at the level of exact
block sparsity, not up to rounding.  Even and odd operators are diagonalized
through their blocks (one eigh per sector, or one SVD of the odd block; a
sector built from its diagonal, and a monomial odd block, with at most one
nonzero per row and per column and built from those entries, need neither), and
func_calc forms f(T) block by block from that data: the blocks the parity
of f(T) forbids are never computed, so no result needs snapping to a parity.
For an odd T = [[0, B^H], [B, 0]] with B = W S V^H, the sector basis
diag(V, W) keeps gamma diagonal, every even operator block diagonal and
every even function of T diagonal; an even H in it is the two sector
products V^H H_+ V and W^H H_- W, phased gathers when B is monomial.  The
n x n eigenframe of a graded operator, and the V and W of a monomial B, are
assembled only when read.

A space may carry a symmetry S, a phased permutation that maps each sector
to itself.  symmetry_blocks compresses an operator, a sector block of it,
or its odd block, to the eigenspaces of S in the orbit basis, whose vectors
have at most N entries for S^N a scalar.  It measures ||S M S^-1 - M||_F on
the way, and keeps the blocks only when the Weyl bound that this gives is
far below the zero band of a signature.  A space without a symmetry, or a
matrix that fails that bound, gives the matrix itself as one whole block
with Weyl bound 0, so every caller takes one route.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    NotInvertibleError,
    ParityError,
)

EPS_EIG = 1e-10
EPS_INV = 1e-10
# an eigenvalue within EPS_EDGE_REL * ||D|| of a hard cut |x| = rho is refused
EPS_EDGE_REL = 1e-8
# half-width of the zero band of a signature, relative to ||T||
TAU_SIG = 1e-8
# largest Weyl bound of a symmetry block route, relative to ||M||_2: a
# thousandth of the zero band
SYM_TOL = 1e-3 * TAU_SIG

_PARITIES = ("even", "odd", "none")


@functools.cache
def _blas_threads_setter():
    """OpenBLAS's setter of the calling thread's BLAS thread count, looked up
    through numpy.linalg's LAPACK module; None for any other BLAS."""
    try:
        from numpy.linalg import _umath_linalg
        setter = ctypes.CDLL(_umath_linalg.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@contextlib.contextmanager
def one_blas_thread():
    """Run the calling thread's numpy.linalg calls on one BLAS thread.

    Restores the previous count on exit.  Does nothing when numpy's BLAS is
    not an OpenBLAS with a per-thread setting (0.3.27 and later).
    """
    setter = _blas_threads_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


def eigenvalue_at_cut(w: np.ndarray, rho: float):
    """(eigenvalue, eps) for the eigenvalue in w nearest the hard cut |x| = rho
    when it lies within eps = EPS_EDGE_REL * max |w| of it; None otherwise."""
    eps = EPS_EDGE_REL * max(float(np.abs(w).max(initial=0.0)), 1e-300)
    dist = np.abs(np.abs(w) - rho)
    if not np.any(dist <= eps):
        return None
    return w[int(np.argmin(dist))], eps


@dataclass(frozen=True, eq=False)
class PhasedPermutation:
    """The unitary S e_j = phase[j] e_perm[j] on C^n, with S^order = power.

    Its eigenvalues are the order-th roots of the scalar power.  The orbit
    basis of its eigenspaces is built on first use and kept.
    """

    perm: np.ndarray
    phase: np.ndarray
    order: int
    power: complex

    def __post_init__(self):
        n = len(self.perm)
        if not np.array_equal(np.sort(self.perm), np.arange(n)) or len(self.phase) != n:
            raise ValueError("perm must be a permutation with one phase per index")
        if np.abs(np.abs(self.phase) - 1.0).max(initial=0.0) > 1e-12 \
                or abs(abs(self.power) - 1.0) > 1e-12 or self.order < 1:
            raise ValueError("phases and power must have modulus 1, order at least 1")

    @functools.cached_property
    def orbits(self) -> "_Orbits":
        return _Orbits(self)


class _Orbits:
    """The orbit basis of a phased permutation S of order N.

    An orbit is walked from its smallest index r: I_k = perm^k(r) and
    S^k e_r = Phi_k e_(I_k) for k < N, the walk of an orbit of size m < N
    repeating itself.  For each eigenvalue mu of S the orbit gives the unit
    vector w sum_k mu^(-k) Phi_k e_(I_k), w = sqrt(m) / N, which is zero
    unless mu^m = Phi_m; so every basis vector has at most N entries, and
    every orbit of size N gives one vector to each eigenvalue.
    """

    def __init__(self, sym: PhasedPermutation):
        n, order = len(sym.perm), sym.order
        walk = np.empty((n, order), dtype=np.intp)
        walk[:, 0] = np.arange(n)
        cum = np.ones((n, order + 1), dtype=complex)
        for k in range(order):
            cum[:, k + 1] = cum[:, k] * sym.phase[walk[:, k]]
            if k + 1 < order:
                walk[:, k + 1] = sym.perm[walk[:, k]]
        if (not np.array_equal(sym.perm[walk[:, -1]], walk[:, 0])
                or np.abs(cum[:, order] - sym.power).max(initial=0.0) > 1e-12):
            raise ValueError(f"S^{order} is not {sym.power} times the identity")
        reps = np.flatnonzero(walk.min(axis=1) == walk[:, 0])
        hits = walk[reps, 1:] == reps[:, None]
        size = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, order)
        root = np.exp(1j * np.angle(sym.power) / order)
        self.mu = root * np.exp(2j * np.pi * np.arange(order) / order)
        self.order, self.power = order, complex(sym.power)
        self.index = walk[reps]
        self.phi = cum[reps, :order]
        self.size = size
        self.allowed = np.abs(self.mu[None, :] ** size[:, None]
                              - cum[reps, size][:, None]) < 1e-6

    def part(self, lo: int, hi: int):
        """(index - lo, Phi, size, allowed) of the orbits inside [lo, hi)."""
        keep = (self.index[:, 0] >= lo) & (self.index[:, 0] < hi)
        return self.index[keep] - lo, self.phi[keep], self.size[keep], self.allowed[keep]


@dataclass(frozen=True)
class GradedSpace:
    """Dimensions of the positive and negative sector of a graded C^n.

    A space may carry a symmetry S that maps each sector to itself; it is
    left out of == and hash, and symmetry_blocks uses it.
    """

    n_plus: int
    n_minus: int
    symmetry: PhasedPermutation | None = field(default=None, compare=False,
                                               repr=False)

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("sector dimensions must be nonnegative")
        if self.n_plus + self.n_minus < 1:
            raise ValueError("graded space must have dimension at least 1")
        if self.symmetry is not None:
            if len(self.symmetry.perm) != self.n:
                raise ValueError("symmetry acts on a space of another dimension")
            if np.any(self.symmetry.perm[:self.n_plus] >= self.n_plus):
                raise ValueError("the symmetry does not preserve the sectors")

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def gamma_diag(self) -> np.ndarray:
        g = np.ones(self.n)
        g[self.n_plus:] = -1.0
        return g


def _ix(m: np.ndarray, ri: np.ndarray, ci: np.ndarray) -> np.ndarray:
    """m[np.ix_(ri, ci)], by one take of flat indices when m is C-contiguous
    (half the time of the two-index gather)."""
    if not m.flags.c_contiguous:
        return m[np.ix_(ri, ci)]
    return m.reshape(-1)[ri[:, None] * m.shape[1] + ci]


def _hermitize(m: np.ndarray) -> np.ndarray:
    # (m + m^H)/2 entrywise: the result satisfies a[i,j] == conj(a[j,i])
    # bit-exactly because IEEE addition is commutative.
    return (m + m.conj().T) / 2.0


def _dead_blocks_zero(m: np.ndarray, space: GradedSpace, parity: str) -> bool:
    k = space.n_plus
    if parity == "even":
        return not (np.any(m[:k, k:]) or np.any(m[k:, :k]))
    if parity == "odd":
        return not (np.any(m[:k, :k]) or np.any(m[k:, k:]))
    return True


@dataclass
class SpectralDecomposition:
    """Validated eigendecomposition T = U diag(w) U^H of a hermitian operator.

    Eigenvalues are sorted.  An even operator is decomposed sector by sector:
    ``sectors`` holds the (w, U) pair of each diagonal block.  An odd one
    keeps the singular values sigma of its odd block B = W S V^H, and either
    its SVD frames (V, W) in ``odd_frames`` or, when B is monomial,
    ``monomial`` = ((v_idx, v_val), (w_idx, w_val)), column j of V being
    v_val[j] e_(v_idx[j]); ``svd`` reads (V, W, sigma), building a monomial
    V and W on first read.  Either way ``order`` sorts the unsorted
    eigenvalues, and the n x n U is only assembled when ``vectors`` is read.
    ``compress``, ``compress_diagonal``, ``window_spectrum`` and ``columns``
    give an even H, a block built on it and the basis itself on a window S
    of the sector basis diag(V, W), so no caller unpacks either form of the
    frame.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray | None
    residual: float
    orth_defect: float
    sectors: tuple | None = None
    order: np.ndarray | None = None
    singular_values: np.ndarray | None = None
    odd_frames: tuple | None = None
    monomial: tuple | None = None

    @property
    def svd(self) -> tuple | None:
        """(V, W, sigma) of an odd operator's odd block; None otherwise."""
        if self.singular_values is None:
            return None
        if self.odd_frames is None:
            (v_idx, v_val), (w_idx, w_val) = self.monomial
            self.odd_frames = (_monomial_matrix(v_idx, v_val),
                               _monomial_matrix(w_idx, w_val))
        return (*self.odd_frames, self.singular_values)

    def compress(self, H: "GradedOperator", s_plus: np.ndarray,
                 s_minus: np.ndarray) -> tuple:
        """(V_S^H H_+ V_S, W_S^H H_- W_S) for the window S = (s_plus, s_minus)
        of the sector basis, each hermitian bit-exactly.

        A monomial frame gives the gather h[idx_S, idx_S] times
        conj(val_i) val_j, skipped when all are 1 and formed by _phased.  An
        SVD frame takes the whole sector product, hermitized, then S.
        """
        out = []
        for s, cols, frame in zip("+-", (s_plus, s_minus), self.monomial or self.odd_frames):
            h = H.block(s, s)
            if self.monomial is None:
                out.append(_hermitize(frame.conj().T @ h @ frame)[np.ix_(cols, cols)])
                continue
            idx, val = frame[0][cols], frame[1][cols]
            t = h[np.ix_(idx, idx)]
            out.append(t if np.all(val == 1.0) else _phased(t, val[:, None], val))
        return tuple(out)

    def compress_diagonal(self, H: "GradedOperator", s_plus: np.ndarray,
                          s_minus: np.ndarray) -> np.ndarray | None:
        """The diagonals of compress(H, s_plus, s_minus), concatenated, when
        both products are diagonal by structure; None otherwise.

        That is the pair test: a monomial frame and both sector blocks of H
        built from their diagonals (_even_diagonal).  The gathered sites are
        distinct, so no entry of the site diagonal lands off the diagonal,
        and a phase keeps a zero zero.  Only h[idx_S] is gathered from the
        diagonal h, phased by the operations of compress: conj(val_i) val_i.
        """
        diagonals = _even_diagonal(H, "+"), _even_diagonal(H, "-")
        if self.monomial is None or any(h is None for h in diagonals):
            return None
        out = []
        for h, cols, (idx, val) in zip(diagonals, (s_plus, s_minus), self.monomial):
            idx, val = idx[cols], val[cols]
            out.append(h[idx] if np.all(val == 1.0) else _phased(h[idx], val, val))
        return np.concatenate(out)

    def sector_values(self) -> np.ndarray:
        """x_j = sigma_j on the j-th columns of V and W, and 0 on the kernel
        columns of the larger sector past them, as long as that sector."""
        sv = self.singular_values
        return np.concatenate([sv, np.zeros(len(self.eigenvalues) - 2 * len(sv))])

    def window_spectrum(self, H: "GradedOperator", inside: np.ndarray, f: np.ndarray,
                        shift: np.ndarray, couple: np.ndarray) -> tuple:
        """(eigenvalues, (s_plus, s_minus, block), pairs) of the block
        L_S = F gamma_S compress(H) F - gamma_S diag(shift), plus couple_i
        between v_i and w_i, on the columns S where inside holds; inside,
        f, shift and couple are given on sector_values().  When the pair
        test passes (compress_diagonal), L_S is a direct sum of 2 x 2 pair
        blocks and unpaired 1 x 1 blocks: its spectrum is one stacked
        eigvalsh, block is None and pairs keeps (diag, couple) of L_S, all
        O(|S|).  Otherwise L_S is formed whole, solved, and kept as block
        = L_S + gamma_S, with pairs None.
        """
        s_plus = np.flatnonzero(inside[:H.space.n_plus])
        s_minus = np.flatnonzero(inside[:H.space.n_minus])
        a, b = len(s_plus), len(s_minus)
        support = np.concatenate([s_plus, s_minus])
        g = np.concatenate([np.ones(a), -np.ones(b)])  # gamma on S
        f = f[support]
        # the pairs i < r in S lead both S_+ and S_-: they hold the same sigma_i
        pairs = s_plus[s_plus < len(self.singular_values)]
        p = len(pairs)
        couple = couple[pairs]

        h_diag = self.compress_diagonal(H, s_plus, s_minus)
        if h_diag is None:
            block = np.zeros((a + b, a + b), dtype=complex)
            block[:a, :a], block[a:, a:] = self.compress(H, s_plus, s_minus)
            block *= (g * f)[:, None]
            block *= f
            block[np.diag_indices(a + b)] -= g * shift[support]
            eigs = np.linalg.eigvalsh(_coupled(block, a, couple))
            block[np.diag_indices(a + b)] += g  # L_S + gamma_S, all that L needs
            return eigs, (s_plus, s_minus, block), None
        diag = h_diag * (g * f)
        diag *= f
        diag -= g * shift[support]
        two = np.empty((p, 2, 2), dtype=complex)
        two[:, 0, 0], two[:, 0, 1] = diag[:p], couple
        two[:, 1, 0], two[:, 1, 1] = couple, diag[a:a + p]
        real = diag.real
        eigs = np.concatenate([np.linalg.eigvalsh(two).ravel(), real[p:a], real[a + p:]])
        return eigs, (s_plus, s_minus, None), (diag, couple)

    def columns(self, s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
        """U_S, the columns S = (s_plus, s_minus) of diag(V, W), as an n x |S|
        array; a monomial frame places their entries with no n x n V or W."""
        parts = []
        for cols, frame in zip((s_plus, s_minus), self.monomial or self.odd_frames):
            if self.monomial is None:
                parts.append(frame[:, cols])
                continue
            part = np.zeros((len(frame[0]), len(cols)), dtype=complex)
            part[frame[0][cols], np.arange(len(cols))] = frame[1][cols]
            parts.append(part)
        (top, bottom), k, a = parts, len(parts[0]), len(s_plus)
        u = np.zeros((k + len(bottom), a + len(s_minus)), dtype=complex)
        u[:k, :a], u[k:, a:] = top, bottom
        return u

    @property
    def vectors(self) -> np.ndarray:
        """U, sorted by ``order`` from the unsorted frame.

        Even operators stack their sector frames.  For an odd operator the
        unsorted eigenvalues are -sigma, the kernel, then +sigma: the pair
        -+sigma_i has columns (v_i; -+w_i) / sqrt(2), and the unpaired
        columns of V or of W span the kernel.
        """
        if self.frame is None:
            n = len(self.eigenvalues)
            u = np.zeros((n, n), dtype=complex)
            if self.sectors is not None:
                (w_plus, u_plus), (_, u_minus) = self.sectors
                k = len(w_plus)
                u[:k, :k] = u_plus
                u[k:, k:] = u_minus
            else:
                v, w_left, sv = self.svd
                k, r = v.shape[0], len(sv)
                s = 1.0 / np.sqrt(2.0)
                u[:k, :r] = u[:k, n - r:] = v[:, :r] * s
                u[k:, :r] = w_left[:, :r] * -s
                u[k:, n - r:] = w_left[:, :r] * s
                # only the larger sector has kernel columns, past its r paired ones
                u[:k, r:k] = v[:, r:]
                u[k:, r:n - k] = w_left[:, r:]
            self.frame = u[:, self.order]
        return self.frame


def _phased(t: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """t times conj(left) right, broadcast, in real arithmetic: a complex
    multiply may fuse one of its two products (FMA) and break hermiticity."""
    x, y, u, w = left.real, left.imag, right.real, right.imag
    p_re, p_im = x * u + y * w, x * w - y * u
    return (t.real * p_re - t.imag * p_im) + 1j * (t.real * p_im + t.imag * p_re)


def _coupled(block: np.ndarray, a: int, couple: np.ndarray) -> np.ndarray:
    """block, with the pair couplings set in place at (a + i, i) and (i, a + i)."""
    i = np.arange(len(couple))
    block[a + i, i] = block[i, a + i] = couple
    return block


def _frame_defects(m: np.ndarray, w: np.ndarray, u: np.ndarray):
    """Frobenius norms of T U - U diag(w) and U^H U - 1."""
    residual = np.linalg.norm(m @ u - u * w)
    orth = np.linalg.norm(u.conj().T @ u - np.eye(len(w)))
    return residual, orth


def _pin_phases(cols: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """cols with column j times conj(t_j) / |t_j|, t_j the largest entry of ref[:, j].

    Multiplying before dividing makes t_j conj(t_j) / |t_j| exactly real.
    """
    if ref.shape[1] == 0:
        return cols
    top = ref[np.argmax(np.abs(ref), axis=0), np.arange(ref.shape[1])]
    return cols * np.conj(top) / np.abs(top)


class GradedOperator:
    """A matrix on a graded space with parity and hermiticity bookkeeping.

    An operator keeps the structure its constructor knows, and forms the
    n x n ``matrix`` only when that is read, which then holds every block:
    - a dense matrix (the public constructor).  Hermitian inputs are
      symmetrized, so ``matrix`` equals its own conjugate transpose
      bit-exactly whenever ``hermitian`` is set, and parity labels are
      checked against exact block sparsity;
    - the two sector blocks of an even operator, one array when they are
      equal (_even_built);
    - the lower block of an odd operator, and its upper block unless that is
      +-(lower block)^H by construction (_odd_built, odd_from_block);
    - the entries (rows, cols, z) of a block, at most one per row and per
      column: a monomial lower block (_monomial_built) or diagonal sector
      blocks (_diagonal_built);
    - for an operator that is a formula in others, a gather of each sector
      block, and the entries of the blocks that are monomial (_gathered).
    ``block`` and ``gather`` read every form without the n x n matrix.  A
    block formed from entries or a gather is formed for each read and not
    kept.  Only an entries record marks a block as monomial or diagonal: a
    dense block of that shape takes the routes of any other block.
    """

    __slots__ = ("_matrix", "_blocks", "_adjoint", "_take", "space", "parity",
                 "hermitian", "_eig", "_eigvals_cache", "_entries", "_splits")

    def __init__(self, matrix, space: GradedSpace, parity: str = "none",
                 hermitian: bool = False):
        m = np.array(matrix, dtype=complex)
        if m.shape != (space.n, space.n):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {space.n}")
        if parity not in _PARITIES:
            raise ValueError(f"unknown parity {parity!r}")
        if hermitian:
            m = _hermitize(m)
        if not _dead_blocks_zero(m, space, parity):
            raise ParityError(
                f"operator declared {parity} has nonzero forbidden blocks"
            )
        self._init(space, parity, bool(hermitian), matrix=m)

    def _init(self, space: GradedSpace, parity: str, hermitian: bool, matrix=None,
              blocks=None, adjoint: int = 0, entries=None, take=None):
        self._matrix = matrix
        self._blocks = {} if take is not None else blocks
        self._adjoint = adjoint
        self._take = take
        self.space = space
        self.parity = parity
        self.hermitian = hermitian
        self._eig = None
        self._eigvals_cache = None
        self._entries = entries or {}
        self._splits = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _new(cls, space: GradedSpace, parity: str, hermitian: bool,
             **storage) -> "GradedOperator":
        op = cls.__new__(cls)
        op._init(space, parity, hermitian, **storage)
        return op

    @classmethod
    def _even_built(cls, space: GradedSpace, top: np.ndarray, bottom: np.ndarray,
                    hermitian: bool = True) -> "GradedOperator":
        """Even operator kept as its complex sector blocks, which have by
        construction the hermiticity its label claims: no copy, no
        symmetrization.  One array passed twice stays one."""
        if top.shape != (space.n_plus,) * 2 or bottom.shape != (space.n_minus,) * 2:
            raise ValueError("sector blocks do not match the space")
        return cls._new(space, "even", hermitian,
                        blocks={("+", "+"): top, ("-", "-"): bottom})

    @classmethod
    def _odd_built(cls, space: GradedSpace, lower: np.ndarray,
                   upper: np.ndarray | None = None, adjoint: int = 1,
                   hermitian: bool = True) -> "GradedOperator":
        """Odd operator kept as its complex lower block (positive to negative
        sector) and its upper block, or, when upper is None, with the upper
        block adjoint * lower^H formed only when read: adjoint 1 for a
        hermitian operator, -1 for an anti-hermitian one."""
        if lower.shape != (space.n_minus, space.n_plus):
            raise ValueError(
                f"lower block must be {space.n_minus} x {space.n_plus}, got {lower.shape}"
            )
        blocks = {("-", "+"): lower}
        if upper is not None:
            blocks[("+", "-")] = upper
        return cls._new(space, "odd", hermitian, blocks=blocks,
                        adjoint=0 if upper is not None else adjoint)

    @classmethod
    def _monomial_built(cls, space: GradedSpace, rows: np.ndarray, cols: np.ndarray,
                        z: np.ndarray, adjoint: int = 1) -> "GradedOperator":
        """Odd operator whose lower block B is monomial, kept as the entries
        B[rows, cols] = z: at most one per row and per column.  The upper
        block is adjoint * B^H: adjoint 1 for a hermitian operator, -1 for an
        anti-hermitian one.

        The zero entries are dropped and the rest put in row order, the
        order np.nonzero(B) lists them in.  This record is the only way an
        operator is known to be monomial (_odd_monomial, _odd_entries).
        """
        z = np.asarray(z, dtype=complex)
        keep = np.flatnonzero(z != 0)
        keep = keep[np.argsort(rows[keep], kind="stable")]
        return cls._new(space, "odd", adjoint > 0, blocks={}, adjoint=adjoint,
                        entries={("-", "+"): (rows[keep], cols[keep], z[keep])})

    @classmethod
    def _diagonal_built(cls, space: GradedSpace, top: np.ndarray,
                        bottom: np.ndarray) -> "GradedOperator":
        """Hermitian even operator with sector blocks diag(top) and
        diag(bottom), top and bottom real, kept as entries: the only way an
        operator is known to be diagonal (_even_diagonal)."""
        if len(top) != space.n_plus or len(bottom) != space.n_minus:
            raise ValueError("sector diagonals do not match the space")
        entries = {}
        for s, diag in (("+", top), ("-", bottom)):
            idx = np.arange(len(diag))
            entries[s, s] = (idx, idx, np.asarray(diag, dtype=complex))
        return cls._new(space, "even", True, blocks={}, entries=entries)

    @classmethod
    def _gathered(cls, space: GradedSpace, parity: str, hermitian: bool,
                  take: Callable, entries: dict | None = None) -> "GradedOperator":
        """Operator kept as the entries (rows, cols, z) of the sector blocks
        listed in entries, monomial ones, and take(row, col, ri, ci) for the
        others: the block (row, col) at np.ix_(ri, ci) as a fresh complex
        array, the whole block when ri is None."""
        return cls._new(space, parity, hermitian, take=take, entries=entries)

    @classmethod
    def even_from_blocks(cls, space: GradedSpace, top, bottom, hermitian=False):
        """Even operator with diagonal blocks top and bottom, copied.

        A hermitian one symmetrizes each block: the off-diagonal blocks are
        zero, so this gives the full-size (m + m^H) / 2 bit for bit.
        """
        top, bottom = (_hermitize(np.asarray(b, dtype=complex)) if hermitian
                       else np.array(b, dtype=complex) for b in (top, bottom))
        return cls._even_built(space, top, bottom, bool(hermitian))

    @classmethod
    def odd_from_block(cls, space: GradedSpace, lower):
        """Hermitian odd operator from its lower-left block (positive to
        negative sector); the upper block is its adjoint.
        """
        return cls._odd_built(space, np.array(lower, dtype=complex, order="C"))

    # -- block access ------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The n x n matrix, formed from the kept structure on first read."""
        if self._matrix is None:
            self._matrix = self._form()
            self._blocks = None  # the matrix holds every block now
        return self._matrix

    def formed(self) -> np.ndarray:
        """The n x n matrix for one read: ``matrix`` when that is held, else
        formed afresh from the kept structure and not kept."""
        return self._form() if self._matrix is None else self._matrix

    def _form(self) -> np.ndarray:
        k, n = self.space.n_plus, self.space.n
        span = {"+": slice(0, k), "-": slice(k, n)}
        m = np.zeros((n, n), dtype=complex)
        for r, c in self._cells():
            m[span[r], span[c]] = self.block(r, c)
        return m

    def _cells(self) -> tuple:
        """The sector blocks (row, col) that the parity lets be nonzero."""
        if self.parity == "even":
            return ("+", "+"), ("-", "-")
        if self.parity == "odd":
            return ("-", "+"), ("+", "-")
        return ("+", "+"), ("-", "+"), ("+", "-"), ("-", "-")

    def block(self, row: str, col: str) -> np.ndarray:
        k = self.space.n_plus
        if self._blocks is None:
            r = slice(0, k) if row == "+" else slice(k, self.space.n)
            c = slice(0, k) if col == "+" else slice(k, self.space.n)
            return self.matrix[r, c]
        cell = (row, col)
        if cell in self._blocks:
            return self._blocks[cell]
        size = {"+": k, "-": self.space.n_minus}
        if cell not in self._cells():
            return np.zeros((size[row], size[col]), dtype=complex)
        if cell == ("+", "-") and self._adjoint:
            upper = self.block("-", "+").conj().T
            block = np.ascontiguousarray(upper if self._adjoint > 0 else -upper)
            if ("-", "+") in self._blocks:
                self._blocks[cell] = block  # kept beside the kept lower block
            return block
        if cell in self._entries:
            rows, cols, z = self._entries[cell]
            block = np.zeros((size[row], size[col]), dtype=complex)
            block[rows, cols] = z
            return block
        return self._take(row, col, None, None)

    def gather(self, ri: np.ndarray, ci: np.ndarray, row: str, col: str) -> np.ndarray:
        """M[np.ix_(ri, ci)] as a fresh C-contiguous array, for M the block
        (row, col), read from the structure the operator keeps.

        A gather of an upper block adjoint * lower^H, or of a block's
        entries, is formed entry by entry, with the operations that forming
        the block would take.
        """
        if self._blocks is None:
            return _ix(self.block(row, col), ri, ci)
        cell = (row, col)
        if cell in self._blocks:
            return _ix(self._blocks[cell], ri, ci)
        if cell not in self._cells():
            return np.zeros((len(ri), len(ci)), dtype=complex)
        if cell == ("+", "-") and self._adjoint:
            # entry (i, j) of adjoint * lower^H is adjoint * conj(lower[j, i])
            upper = self.gather(ci, ri, "-", "+").T.conj()
            return np.ascontiguousarray(upper if self._adjoint > 0 else -upper)
        if cell not in self._entries:
            return self._take(row, col, ri, ci)
        rows, cols, z = self._entries[cell]
        n_row = self.space.n_plus if row == "+" else self.space.n_minus
        col_of = np.full(n_row, -1)
        col_of[rows] = cols
        entry = np.zeros(n_row, dtype=complex)
        entry[rows] = z
        return np.where(col_of[ri][:, None] == ci[None, :], entry[ri][:, None], 0)

    @property
    def odd_block(self) -> np.ndarray:
        """Lower-left block, the part mapping the positive into the negative sector."""
        return self.block("-", "+")

    def _frobenius(self) -> float:
        """||M||_F from the structure the operator keeps: a block's entries
        have its norm, and an upper block adjoint * lower^H the lower's."""
        if self._blocks is None:
            return float(np.linalg.norm(self.matrix))

        def norm(cell):
            entries = self._entries.get(cell)
            return np.linalg.norm(self.block(*cell) if entries is None else entries[2])
        if self._adjoint:
            lower = norm(("-", "+"))
            return float(np.hypot(lower, lower))
        return float(functools.reduce(np.hypot, map(norm, self._cells())))

    # -- spectral data -----------------------------------------------------

    def eig(self) -> SpectralDecomposition:
        """Eigendecomposition with residual validation, cached after first use.

        Even operators take one eigh per sector, odd ones one SVD of the odd
        block; only parity "none" diagonalizes the full matrix.
        """
        if not self.hermitian:
            raise DomainError("eigendecomposition requires a hermitian operator")
        if self._eig is None:
            if self.parity == "even":
                self._sector_eig()
            elif self.parity == "odd":
                self._odd_eig()
            else:
                w, u = np.linalg.eigh(self.matrix)
                residual, orth = _frame_defects(self.matrix, w, u)
                self._check_frame(residual, orth)
                self._eig = SpectralDecomposition(w, u, residual, orth)
        return self._eig

    def _sector_eig(self):
        """Per-sector eigendecomposition of an even operator.

        U is block diagonal, so T U - U diag(w) and U^H U - 1 vanish off the
        diagonal blocks and their Frobenius norms are the root sum of squares
        of the per-block norms: the combined values face the same bounds as a
        full-size decomposition.
        """
        sectors, residuals, orths = [], [], []
        for s in "+-":
            block = self.block(s, s)
            w, u = np.linalg.eigh(block)
            residual, orth = _frame_defects(block, w, u)
            sectors.append((w, u))
            residuals.append(residual)
            orths.append(orth)
        residual, orth = float(np.hypot(*residuals)), float(np.hypot(*orths))
        self._check_frame(residual, orth)
        w_all = np.concatenate([w for w, _ in sectors])
        order = np.argsort(w_all, kind="stable")
        self._eig = SpectralDecomposition(w_all[order], None, residual, orth,
                                          sectors=tuple(sectors), order=order)

    def _odd_eig(self):
        """Eigendecomposition of an odd operator [[0, B^H], [B, 0]] from B = W S V^H.

        The eigendata is kept as (V, W, sigma): the windowed localizer works
        in the sector basis diag(V, W), and the sorted eigenframe is built
        from it only when ``vectors`` is read.  Phases are pinned: the
        largest-magnitude entry of every column of V, and of every unpaired
        column of W, is real and positive, and each paired w_i takes the
        phase of its v_i.  A monomial B (at most one nonzero per row and per
        column, recorded by _monomial_built and read by _odd_monomial) needs
        no SVD: V and W are phased permutations (_monomial_frame), kept as
        their indices and phases, and formed as matrices only when ``svd`` or
        ``vectors`` is read.  Every other B takes one SVD.  The defects
        ||B V - W S|| and ||B^H W - V S^T||, and ||V^H V - 1|| and
        ||W^H W - 1||, combine as a root sum of squares to the full-matrix
        Frobenius defects.  For the monomial frame each
        product has at most one nonzero per column, so every defect is the
        same Frobenius norm taken over O(n) entries (_product_defect,
        _gram_defect).
        """
        n_plus, n_minus = self.space.n_plus, self.space.n_minus
        mono = _odd_monomial(self)
        odd_frames = monomial = None
        if mono is None:
            b = self.odd_block
            w_left, sv, vh = np.linalg.svd(b)
            r = len(sv)
            v = vh.conj().T
            w_left = np.hstack([_pin_phases(w_left[:, :r], v[:, :r]),
                                _pin_phases(w_left[:, r:], w_left[:, r:])])
            v = _pin_phases(v, v)
            ws = np.zeros((n_minus, n_plus), dtype=complex)
            ws[:, :r] = w_left[:, :r] * sv
            vs = np.zeros((n_plus, n_minus), dtype=complex)
            vs[:, :r] = v[:, :r] * sv
            residual = float(np.hypot(np.linalg.norm(b @ v - ws),
                                      np.linalg.norm(b.conj().T @ w_left - vs)))
            orth = float(np.hypot(np.linalg.norm(v.conj().T @ v - np.eye(n_plus)),
                                  np.linalg.norm(w_left.conj().T @ w_left
                                                 - np.eye(n_minus))))
            odd_frames = (v, w_left)
        else:
            rows, cols, z = mono
            sv, v_frame, w_frame = _monomial_frame(mono, n_plus, n_minus)
            residual = float(np.hypot(
                _product_defect((rows, cols, z), n_plus, v_frame, w_frame, sv),
                _product_defect((cols, rows, z.conj()), n_minus, w_frame, v_frame, sv)))
            orth = float(np.hypot(_gram_defect(*v_frame), _gram_defect(*w_frame)))
            monomial = (v_frame, w_frame)
        self._check_frame(residual, orth)
        w_all = np.concatenate([-sv, np.zeros(abs(n_plus - n_minus)), sv])
        order = np.argsort(w_all, kind="stable")
        self._eig = SpectralDecomposition(
            w_all[order], None, residual, orth, order=order, singular_values=sv,
            odd_frames=odd_frames, monomial=monomial)

    def _check_frame(self, residual: float, orth: float) -> None:
        scale = self._frobenius()
        if residual > EPS_EIG * max(scale, 1e-300):
            raise InternalConsistencyError(
                f"eigendecomposition residual {residual:.3e} exceeds "
                f"{EPS_EIG:.1e} * ||T|| = {EPS_EIG * scale:.3e}"
            )
        if orth > EPS_EIG * max(1.0, np.sqrt(self.space.n)):
            raise InternalConsistencyError(
                f"eigenvector frame orthonormality defect {orth:.3e} too large"
            )

    def eigenvalues(self) -> np.ndarray:
        """Sorted spectrum; cheaper than eig() when vectors are not needed.

        Even operators take one eigvalsh per sector, or read the spectrum of
        a sector built from its diagonal (_even_diagonal) off it.  An odd hermitian
        [[0, B^H], [B, 0]] has spectrum +-sigma(B) plus |n_+ - n_-| zeros,
        read off one SVD of its odd block B, or, when B was built from its
        entries as a monomial block (_odd_monomial), off the moduli |z| of
        those entries padded with zeros.  The values never come from a
        cached eig(), so they are the same bits whichever of the two ran first.
        """
        if self._eigvals_cache is None:
            if not self.hermitian:
                raise DomainError("eigenvalues require a hermitian operator")
            if self.parity == "even":
                diagonals = _even_diagonal(self, "+"), _even_diagonal(self, "-")
                w = np.concatenate([np.linalg.eigvalsh(self.block(s, s)) if h is None
                                    else h.real for s, h in zip("+-", diagonals)])
            elif self.parity == "odd":
                mono = _odd_monomial(self)
                if mono is None:
                    sv = np.linalg.svd(self.odd_block, compute_uv=False)
                else:
                    z = mono[2]
                    r = min(self.space.n_plus, self.space.n_minus)
                    sv = np.concatenate([np.hypot(z.real, z.imag), np.zeros(r - len(z))])
                zeros = np.zeros(abs(self.space.n_plus - self.space.n_minus))
                w = np.concatenate([-sv, zeros, sv])
            else:
                w = np.linalg.eigvalsh(self.matrix)
            self._eigvals_cache = np.sort(w)
        return self._eigvals_cache


@dataclass
class SymmetryBlocks:
    """Compressions V_mu^H M V_mu of M to the eigenspaces of a symmetry S,
    one per eigenvalue mu, and the Weyl bound of the route.

    They are the diagonal blocks of the pinching M_sym = (1/N) sum_k
    S^k M S^-k.  With delta = ||S M S^-1 - M||_F, telescoping gives
    ||M - M_sym||_2 <= (N - 1) delta / 2 = weyl, so each eigenvalue or
    singular value of M lies within weyl of the blocks' values.  Without
    the symmetry, blocks is [M] and weyl is 0.
    """

    blocks: list
    weyl: float


def symmetry_blocks(op: GradedOperator, row: str | None = None,
                    col: str | None = None) -> SymmetryBlocks:
    """Blocks of M = op.block(row, col), or of the whole op without sectors,
    in the orbit basis of the space's symmetry S (_split).  The split is
    kept on op, one per (row, col), like its spectral data: the projection
    gate and the compressed oracle both read the same sector of P.
    """
    if (row, col) not in op._splits:
        op._splits[row, col] = _split(op, row, col)
    return op._splits[row, col]


def _split(op: GradedOperator, row: str | None, col: str | None) -> SymmetryBlocks:
    """symmetry_blocks, computed.  When the space has no S, or weyl exceeds
    SYM_TOL times ||M||_F / sqrt(min(shape)), a lower bound of ||M||_2, the
    one block is M itself and weyl is 0.

    S maps each sector to itself, so no orbit mixes sectors: a sector block
    is split alone (_split_cell), and the whole op is split one sector block
    at a time, its delta^2 and ||M||_F^2 summed over the four and the block
    of each mu stitched from theirs.  The masks of empty eigenspaces apply
    per sector block.
    """
    def whole():
        return SymmetryBlocks([op.matrix if row is None else op.block(row, col)], 0.0)

    sym = op.space.symmetry
    if sym is None:
        return whole()
    orbits = sym.orbits
    cells = [(row, col)] if row is not None else [(r, c) for r in "+-" for c in "+-"]
    if row is None:
        # allocated before the sector blocks' temporaries, so that these lie
        # above the kept blocks in the heap and go back to the system when
        # freed (stitched after them, a lattice leg kept 30 MB resident)
        count = orbits.part(0, op.space.n)[3].sum(axis=0)
        stitched = [np.empty((c, c), dtype=complex) for c in count]
    parts = [_split_cell(op, orbits, r, c) for r, c in cells]
    delta2 = sum(part[0] for part in parts)
    norm2 = sum(part[1] for part in parts)
    size = {None: op.space.n, "+": op.space.n_plus, "-": op.space.n_minus}
    weyl = (orbits.order - 1) / 2.0 * float(np.sqrt(delta2))
    if weyl > SYM_TOL * np.sqrt(norm2 / max(1, min(size[row], size[col]))):
        return whole()
    if row is not None:
        return SymmetryBlocks([parts[0][2](i) for i in range(orbits.order)], weyl)
    for i, out in enumerate(stitched):
        # one mu at a time, so no more than its four sector blocks are held
        pp, pm, mp, mm = (block(i) for _, _, block in parts)
        a, b = pp.shape
        out[:a, :b], out[:a, b:], out[a:, :b], out[a:, b:] = pp, pm, mp, mm
    return SymmetryBlocks(stitched, weyl)


def _split_cell(op: GradedOperator, orbits: "_Orbits", row: str, col: str):
    """(delta^2, ||M||_F^2, block) for the sector block M = op.block(row,
    col) in the orbit basis; block(i) is the block of mu_i, less the orbits
    that have no vector in its eigenspace.

    Everything comes from N^2 phased gathers of M, one per pair of orbit
    steps (k, l), each with one entry per pair of orbits, so the work is
    O(n^2) and neither M nor a full-size copy of it is formed.  Along
    d = k - l the gathers
    X_l = sqrt(m_p m_q) conj(Phi_(l+d)) Phi_l M[I_(l+d), I_l] / N
    (orbit sizes m, Phi extended by Phi_(k+N) = power Phi_k) close a cycle.
    S M S^-1 - M is, entry by entry and up to phases and the repeats of
    short orbits, X_(l+1) - X_l, so delta^2 = sum ||X_(l+1) - X_l||_F^2;
    and the block of mu is sum_d mu^d A_d / N with A_d = sum_l X_l.
    A block known by its entries (_cell_entries) reads them (_EntrySteps),
    any other block its dense gathers (_GatherSteps).
    """
    k, n = op.space.n_plus, op.space.n
    span = {"+": (0, k), "-": (k, n)}
    r_idx, r_phi, r_size, r_ok = orbits.part(*span[row])
    c_idx, c_phi, c_size, c_ok = orbits.part(*span[col])
    order = orbits.order
    r_phi = r_phi * np.sqrt(r_size)[:, None] / order
    c_phi = c_phi * np.sqrt(c_size)[:, None]
    entries = _cell_entries(op, row, col)
    if entries is None:
        steps = _GatherSteps(op, row, col, r_idx, c_idx)
    else:
        steps = _EntrySteps(entries, r_idx, c_idx, span[row][1] - span[row][0],
                            span[col][1] - span[col][0])
    acc, delta2, norm2 = [], 0.0, 0.0
    for d in range(order):
        total = first = prev = None
        for l in range(order):
            j = (l + d) % order
            lead = r_phi[:, j] if l + d < order else orbits.power * r_phi[:, j]
            x = steps.step(j, l, lead.conj(), c_phi[:, l])
            norm2 += steps.sum_sq(x)
            if prev is None:
                first = x
            else:
                delta2 += steps.sum_sq(x, prev)
            total = steps.add(total, x)
            prev = x
        delta2 += steps.sum_sq(first, prev)
        acc.append(total)

    def block(i: int) -> np.ndarray:
        b = steps.combine(acc, orbits.mu[i], order)
        if not (r_ok[:, i].all() and c_ok[:, i].all()):
            b = b[np.ix_(r_ok[:, i], c_ok[:, i])]
        return b
    return delta2, norm2, block


class _GatherSteps:
    """The X_l of a sector block as dense phased gathers (op.gather).

    The phases and a difference are formed in buffers and A_d in place, so
    a step allocates no more than its gather and, once per d, A_d."""

    def __init__(self, op: GradedOperator, row: str, col: str, r_idx: np.ndarray,
                 c_idx: np.ndarray):
        self.op, self.row, self.col = op, row, col
        self.r_idx, self.c_idx = r_idx, c_idx
        self.phase = np.empty((len(r_idx), len(c_idx)), dtype=complex)
        self.diff = np.empty_like(self.phase)

    def step(self, j: int, l: int, lead: np.ndarray, phi: np.ndarray) -> np.ndarray:
        x = self.op.gather(self.r_idx[:, j], self.c_idx[:, l], self.row, self.col)
        x *= np.outer(lead, phi, out=self.phase)
        return x

    def sum_sq(self, x: np.ndarray, minus: np.ndarray | None = None) -> float:
        return _sum_sq(x if minus is None else np.subtract(x, minus, out=self.diff))

    @staticmethod
    def add(total: np.ndarray | None, x: np.ndarray) -> np.ndarray:
        return x.copy() if total is None else np.add(total, x, out=total)

    @staticmethod
    def combine(acc: list, mu: complex, order: int) -> np.ndarray:
        return sum(mu**d * a for d, a in enumerate(acc)) / order


class _EntrySteps:
    """The X_l of a sector block known by its entries (rows, cols, z), at
    most one per row, so X_l has at most one nonzero per row: X_l is held
    as (p, q, v, s), its nonzeros v at rows p and columns q, and s their
    slots among the entries that some X_l fills.

    v is z times the phase conj(lead_p) Phi_q, the operations of the dense
    gather on its nonzeros, and A_d, kept at those slots, adds them in the
    same order l; a zero of the dense route is one here too, up to its
    sign, which no result keeps (the sum over d starts from +0).  Squared
    norms are taken of X_l, or of X_l - X_m, placed in a zero buffer of the
    gather's shape: the dot that sums them is the dense route's, over the
    same array.  The block of mu is formed at the slots and is +0
    elsewhere, as the dense sum is there.
    """

    def __init__(self, entries: tuple, r_idx: np.ndarray, c_idx: np.ndarray,
                 n_row: int, n_col: int):
        rows, cols, z = entries
        self.r_idx = r_idx
        col_of = np.full(n_row, -1)
        col_of[rows] = cols
        self.val_of = np.zeros(n_row, dtype=complex)
        self.val_of[rows] = z
        self.buffer = np.zeros((len(r_idx), len(c_idx)), dtype=complex)
        width = self.buffer.shape[1]
        steps = range(c_idx.shape[1])
        # the orbit of each column index at step l; -1 (the extra last slot,
        # which col_of's -1 reads) for an index off step l
        at = np.full((len(steps), n_col + 1), -1)
        for l in steps:
            at[l, c_idx[:, l]] = np.arange(len(c_idx))
        self.hits = {}
        for j in steps:
            for l in steps:
                q = at[l, col_of[r_idx[:, j]]]
                p = np.flatnonzero(q >= 0)
                self.hits[j, l] = p, q[p]
        # sorted by a mask, not np.unique, whose first call imports numpy.ma
        # in the middle of a leg and so holds heap that the leg frees
        mask = np.zeros(self.buffer.size, dtype=bool)
        for p, q in self.hits.values():
            mask[p * width + q] = True
        self.filled = np.flatnonzero(mask)
        self.slots = {key: np.searchsorted(self.filled, p * width + q)
                      for key, (p, q) in self.hits.items()}

    def step(self, j: int, l: int, lead: np.ndarray, phi: np.ndarray) -> tuple:
        p, q = self.hits[j, l]
        return p, q, self.val_of[self.r_idx[p, j]] * (lead[p] * phi[q]), self.slots[j, l]

    def sum_sq(self, x: tuple, minus: tuple | None = None) -> float:
        buffer = self.buffer
        buffer[x[:2]] = x[2]
        if minus is not None:
            buffer[minus[:2]] -= minus[2]
        out = _sum_sq(buffer)
        buffer[x[:2]] = 0
        if minus is not None:
            buffer[minus[:2]] = 0
        return out

    def add(self, total: np.ndarray | None, x: tuple) -> np.ndarray:
        if total is None:
            total = np.zeros(len(self.filled), dtype=complex)
        total[x[3]] += x[2]
        return total

    def combine(self, acc: list, mu: complex, order: int) -> np.ndarray:
        out = np.zeros_like(self.buffer)
        out.reshape(-1)[self.filled] = sum(mu**d * a for d, a in enumerate(acc)) / order
        return out


def _sum_sq(x: np.ndarray) -> float:
    """Squared Frobenius norm of a C-contiguous complex array, by one dot."""
    v = x.reshape(-1).view(np.float64)
    return float(v @ v)


def _cell_entries(op: GradedOperator, row: str, col: str):
    """(rows, cols, z) of the sector block (row, col) of an operator that
    records it by its entries, at most one per row and per column: its own
    record, or, for an upper block adjoint * lower^H, the lower block's with
    rows and columns swapped and z conjugated (negated for adjoint -1), as
    a gather of that block forms them.  None for any other block."""
    entries = op._entries.get((row, col))
    if entries is None and (row, col) == ("+", "-") and op._adjoint:
        lower = op._entries.get(("-", "+"))
        if lower is not None:
            rows, cols, z = lower
            entries = (cols, rows, z.conj() if op._adjoint > 0 else -z.conj())
    return entries


def _odd_monomial(op: GradedOperator):
    """(rows, cols, z) for an odd hermitian operator built from the entries
    of a monomial odd block B (_monomial_built), with at most one nonzero
    entry per row and per column: B[rows, cols] = z, in row order.  None for
    any other operator, whatever its entries.

    The constructor's record is the only source: no dense block is scanned
    for the structure.  The lattice's diag(z), the ladder's shifted
    diagonal and mk's zero D are built from their entries.
    """
    return op._entries.get(("-", "+")) if op.parity == "odd" and op.hermitian else None


def _odd_entries(op: GradedOperator):
    """_odd_monomial for a hermitian or an anti-hermitian operator, such as
    [D, H] of a monomial D and a diagonal H."""
    return op._entries.get(("-", "+")) if op.parity == "odd" else None


def _even_diagonal(op: GradedOperator, s: str):
    """The diagonal of the sector block (s, s) of an operator built from its
    diagonals (_diagonal_built), such as the ladder's H = 1; None for any
    other operator, whatever its entries."""
    entries = op._entries.get((s, s))
    return None if entries is None else entries[2]


def _as_run(idx: np.ndarray):
    """idx as a slice when it is a run of consecutive indices, so that
    indexing with it takes a view, not a gather; else idx itself."""
    if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return idx


def _unused(idx: np.ndarray, n: int) -> np.ndarray:
    """The indices in range(n) missing from idx, in increasing order."""
    free = np.ones(n, dtype=bool)
    free[idx] = False
    return np.flatnonzero(free)


def _monomial_matrix(idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The n x n matrix whose column j is vals[j] e_(idx[j])."""
    m = np.zeros((len(idx), len(idx)), dtype=complex)
    m[idx, np.arange(len(idx))] = vals
    return m


def _monomial_frame(mono: tuple, n_plus: int, n_minus: int):
    """(sigma, (v_idx, v_val), (w_idx, w_val)): the SVD B = W S V^H of a
    monomial odd block with entries mono = (rows, cols, z), B[rows, cols] = z.

    v_i = e_(col_i) and w_i = (z_i / |z_i|) e_(row_i) for the entries sorted
    by |z_i| descending (a stable sort); the unused columns and rows, in
    index order, give the zero singular values and the kernel.
    """
    rows, cols, z = mono
    mod = np.hypot(z.real, z.imag)
    top = np.argsort(-mod, kind="stable")
    sv = np.concatenate([mod[top], np.zeros(min(n_plus, n_minus) - len(z))])
    v_idx = np.concatenate([cols[top], _unused(cols, n_plus)])
    w_idx = np.concatenate([rows[top], _unused(rows, n_minus)])
    v_val = np.ones(n_plus, dtype=complex)
    w_val = np.ones(n_minus, dtype=complex)
    w_val[:len(z)] = z[top] / mod[top]
    return sv, (v_idx, v_val), (w_idx, w_val)


def _product_defect(entries: tuple, n_cols: int, frame: tuple, image: tuple,
                    sv: np.ndarray) -> float:
    """||M F - G S||_F for the monomial M with n_cols columns and entries
    (rows, cols, z), M[rows, cols] = z, the monomial frames F and G given
    as (idx, val), and S = diag(sv) padded with zeros.

    Column j of M F is val_j M[:, idx_j], at most one entry, and column j of
    G S is sv_j g_val_j e_(g_idx_j) for j < len(sv), else zero: the two
    cancel only when they fall on the same row.
    """
    rows, cols, z = entries
    (idx, val), (g_idx, g_val) = frame, image
    r = len(sv)
    at = np.full(n_cols, -1)
    at[cols] = rows
    entry = np.zeros(n_cols, dtype=complex)
    entry[cols] = z
    mf = entry[idx] * val
    gs = np.zeros_like(mf)
    gs[:r] = g_val[:r] * sv
    same = np.zeros(len(idx), dtype=bool)
    same[:r] = at[idx[:r]] == g_idx[:r]
    return float(np.linalg.norm(np.concatenate([mf[same] - gs[same], mf[~same],
                                                gs[~same]])))


def _gram_defect(idx: np.ndarray, val: np.ndarray) -> float:
    """||F^H F - 1||_F for the square frame F whose column j is val[j] e_(idx[j]).

    Columns on different sites are orthogonal; the m columns on one site,
    with values u, give the block conj(u) u^T - 1, of squared norm
    (||u||^2 - 1)^2 + m - 1.
    """
    n = len(idx)
    mass = np.bincount(idx, weights=val.real**2 + val.imag**2, minlength=n)
    count = np.bincount(idx, minlength=n)
    hit = count > 0
    return float(np.sqrt(np.sum((mass[hit] - 1.0) ** 2) + np.sum(count[hit] - 1)))


def _mul_parity(a: str, b: str) -> str:
    if a == "none" or b == "none":
        return "none"
    return "even" if a == b else "odd"


def operator_norm(op) -> float:
    """Largest singular value, exploiting hermiticity and block sparsity.

    A hermitian operator reads it off eigenvalues(), so it inherits that
    method's structure routes (sectors recorded as diagonals, and odd blocks
    recorded as monomial entries).  Any other odd operator whose lower block
    was built from its entries (_odd_entries) has the largest |z|, or 0 for
    no entries, with no SVD.  An odd operator whose upper block is
    +-(lower block)^H by construction, such as the commutator of two
    hermitian operators, has the singular values of its lower block alone
    and takes no second block SVD.
    """
    if not isinstance(op, GradedOperator):
        m = np.asarray(op)
        if m.size == 0:
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[0])
    if op.hermitian:
        w = op.eigenvalues()
        return float(np.abs(w).max(initial=0.0))
    entries = _odd_entries(op)
    if entries is not None:
        z = entries[2]
        return float(np.hypot(z.real, z.imag).max(initial=0.0))
    if op.parity == "none":
        return _top_singular_value(op, None, None)
    cells = op._cells()[:1] if op._adjoint else op._cells()
    return max(_top_singular_value(op, row, col) for row, col in cells)


def _top_singular_value(op: GradedOperator, row: str | None, col: str | None) -> float:
    """Largest singular value of op.block(row, col), or of op.matrix: one
    SVD per block of symmetry_blocks plus their Weyl bound (one SVD of the
    whole when the symmetry is missing or fails), 0 for an empty block."""
    split = symmetry_blocks(op, row, col)
    return max((float(np.linalg.svd(b, compute_uv=False)[0]) for b in split.blocks
                if b.size), default=0.0) + split.weyl


def _from_spectrum(op: GradedOperator, dec: SpectralDecomposition,
                   vals: np.ndarray, parity: str) -> GradedOperator:
    """f(T) from the eigendata of op, given f on its sorted spectrum.

    An even operator rebuilds each diagonal block from its own sector frame.
    An odd [[0, B^H], [B, 0]] with B = W S V^H has
    f(T) = [[V e V^H, V o W^H], [W o V^H, W e W^H]], where e and o are the
    even and odd parts of f on +-sigma, and f(0) extends e over the kernel
    columns of V or W.  Only the blocks ``parity`` allows are formed and
    kept, so the forbidden ones are exactly zero; an odd f(T) is exactly
    hermitian as its lower block and that block's adjoint.  Parity "none"
    uses U diag(f) U^H.
    """
    if dec.sectors is None and dec.singular_values is None:
        out = (dec.vectors * vals) @ dec.vectors.conj().T
        return GradedOperator(out, op.space, hermitian=True)
    unsorted = np.empty_like(vals)
    unsorted[dec.order] = vals
    k = op.space.n_plus
    if dec.sectors is not None:
        (_, u_plus), (_, u_minus) = dec.sectors
        top = (u_plus * unsorted[:k]) @ u_plus.conj().T
        bottom = (u_minus * unsorted[k:]) @ u_minus.conj().T
        return GradedOperator.even_from_blocks(op.space, top, bottom, hermitian=True)
    v, w_left, sv = dec.svd
    r, n = len(sv), op.space.n
    f_minus, f_zero, f_plus = unsorted[:r], unsorted[r:n - r], unsorted[n - r:]
    if parity != "odd":
        # only the larger sector has kernel columns, past its r paired ones
        ext = np.concatenate([(f_plus + f_minus) / 2.0, f_zero])
        top = (v * ext[:k]) @ v.conj().T
        bottom = (w_left * ext[:n - k]) @ w_left.conj().T
        if parity == "even":
            return GradedOperator.even_from_blocks(op.space, top, bottom, hermitian=True)
    lower = (w_left[:, :r] * ((f_plus - f_minus) / 2.0)) @ v[:, :r].conj().T
    if parity == "odd":
        return GradedOperator._odd_built(op.space, lower)
    m = np.zeros((n, n), dtype=complex)
    m[:k, :k], m[k:, k:] = top, bottom
    m[k:, :k], m[:k, k:] = lower, lower.conj().T
    return GradedOperator(m, op.space, hermitian=True)


def func_calc(f: Callable, op: GradedOperator) -> GradedOperator:
    """Apply a scalar function to a hermitian operator through its spectrum.

    The function must return finite real values on every eigenvalue; a nan,
    infinity, or genuinely complex value raises DomainError naming the
    offending eigenvalue.  Parity of the result follows from the parity of the
    operator and the symmetry of f on the spectrum (an even function of an odd
    operator is even).
    """
    dec = op.eig()
    w = dec.eigenvalues
    vals = np.asarray(f(w))
    if vals.shape != w.shape:
        vals = np.broadcast_to(vals, w.shape).copy()
    if np.iscomplexobj(vals):
        if np.abs(vals.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(vals).max()):
            bad = int(np.argmax(np.abs(vals.imag)))
            raise DomainError(
                f"f({w[bad]!r}) = {vals[bad]!r} is not real"
            )
        vals = vals.real
    vals = vals.astype(float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise DomainError(f"f({w[bad]!r}) = {vals[bad]!r} is not finite")

    parity = "none"
    if op.parity == "even":
        parity = "even"
    elif op.parity == "odd":
        scale = max(1.0, np.abs(vals).max(initial=0.0))
        mirrored = np.asarray(f(-w))
        if np.abs(mirrored - vals).max(initial=0.0) <= 1e-12 * scale:
            parity = "even"
        elif np.abs(mirrored + vals).max(initial=0.0) <= 1e-12 * scale:
            parity = "odd"
    return _from_spectrum(op, dec, vals, parity)


def lipschitz_derivative(d_op: GradedOperator, op: GradedOperator) -> GradedOperator:
    """Commutator [D, T] = D T - T D, the discrete derivative of T along D.

    For parity-labelled D and T only the blocks the product parity allows
    are formed, each from the one nonzero block of D and of T it involves.
    The result keeps only those blocks.  When both are hermitian the
    commutator is anti-hermitian, so an odd one keeps its lower block alone,
    its upper block being -(lower block)^H.  An odd hermitian D built from
    the entries B[rows, cols] = z of a monomial odd block (_odd_monomial:
    the lattice's diag(z), the ladder's shifted diagonal) multiplies
    entrywise, with no GEMM: B X puts z_j X[cols_j, :] in row rows_j and
    X B puts X[:, rows_j] z_j in column cols_j.  With T built from its
    diagonals h (_even_diagonal), [D, T] keeps its monomial lower block as
    the entries z_j h_+[cols_j] - h_-[rows_j] z_j, bit for bit those of the
    entrywise route; the ladder's H = 1 gives none.
    """
    if d_op.space != op.space:
        raise ValueError("operators live on different graded spaces")
    parity = _mul_parity(d_op.parity, op.parity)
    if parity == "none":
        m = d_op.matrix @ op.matrix - op.matrix @ d_op.matrix
        return GradedOperator(m, op.space, parity=parity, hermitian=False)

    other = {"+": "-", "-": "+"}
    size = {"+": op.space.n_plus, "-": op.space.n_minus}
    mono = _odd_monomial(d_op)
    d_entries = None
    if mono is not None:
        h_plus, h_minus = _even_diagonal(op, "+"), _even_diagonal(op, "-")
        if h_plus is not None and h_minus is not None:
            rows, cols, z = mono
            return GradedOperator._monomial_built(
                op.space, rows, cols, z * h_plus[cols] - h_minus[rows] * z, adjoint=-1)
        # the nonzero entries (i, j, value) of D's block in row sector s; the
        # lattice's and the ladder's i and j are runs, and index as views
        # (gathered, they raised a lattice pass's peak RSS by 10 MB)
        i, j, z = _as_run(mono[0]), _as_run(mono[1]), mono[2]
        d_entries = {"-": (i, j, z), "+": (j, i, z.conj())}
    anti = d_op.hermitian and op.hermitian
    blocks = {}
    cells = [("+", "+"), ("-", "-")] if parity == "even" else [("-", "+"), ("+", "-")]
    for r, c in cells:
        if (r, c) == ("+", "-") and anti:
            continue  # -(lower block)^H, formed only when read
        via_d = r if d_op.parity == "even" else other[r]
        via_t = r if op.parity == "even" else other[r]
        if d_entries is None:
            blocks[r, c] = (d_op.block(r, via_d) @ op.block(via_d, c)
                            - op.block(r, via_t) @ d_op.block(via_t, c))
            continue
        out = blocks[r, c] = np.zeros((size[r], size[c]), dtype=complex)
        i, j, val = d_entries[r]
        out[i] = val[:, None] * op.block(via_d, c)[j]
        i, j, val = d_entries[via_t]
        out[:, j] -= op.block(r, via_t)[:, i] * val[None, :]
    # fresh, and only the cells the parity allows: no copy, no scan
    if parity == "even":
        return GradedOperator._even_built(op.space, blocks["+", "+"], blocks["-", "-"],
                                          hermitian=False)
    return GradedOperator._odd_built(op.space, blocks["-", "+"], blocks.get(("+", "-")),
                                     adjoint=-1, hermitian=False)


def gap(op: GradedOperator) -> float:
    """Distance from the spectrum to zero; fails if the operator is not invertible."""
    w = op.eigenvalues()
    scale = np.abs(w).max(initial=0.0)
    g = float(np.abs(w).min())
    if g <= EPS_INV * max(scale, 1e-300):
        raise NotInvertibleError(
            f"smallest |eigenvalue| {g:.3e} is within {EPS_INV:.1e} * ||T|| of zero"
        )
    return g
