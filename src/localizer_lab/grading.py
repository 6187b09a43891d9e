"""Graded finite-dimensional operators and spectral calculus.

A grading splits C^n into a positive and a negative sector, with the grading
involution gamma = diag(+1, ..., +1, -1, ..., -1).  Operators carry an optional
parity label: even operators commute with gamma (block diagonal), odd operators
anticommute (block off-diagonal).  Parity is enforced at the level of exact
block sparsity, not up to rounding.  Even and odd operators are diagonalized
through their blocks (one eigh per sector, or one SVD of the odd block), and
func_calc forms f(T) block by block from that data: the blocks the parity of
f(T) forbids are never computed, so no result needs snapping to a parity.
The n x n eigenframe of a graded operator is assembled only when read.
"""
from __future__ import annotations

from dataclasses import dataclass
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

_PARITIES = ("even", "odd", "none")


@dataclass(frozen=True)
class GradedSpace:
    """Dimensions of the positive and negative sector of a graded C^n."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("sector dimensions must be nonnegative")
        if self.n_plus + self.n_minus < 1:
            raise ValueError("graded space must have dimension at least 1")

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def gamma_diag(self) -> np.ndarray:
        g = np.ones(self.n)
        g[self.n_plus:] = -1.0
        return g


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
    keeps the SVD (V, W, sigma) of its odd block in ``svd``.  Either way
    ``order`` sorts the unsorted eigenvalues, and the n x n U is only
    assembled when ``vectors`` is read.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray | None
    residual: float
    orth_defect: float
    sectors: tuple | None = None
    svd: tuple | None = None
    order: np.ndarray | None = None

    @property
    def vectors(self) -> np.ndarray:
        if self.frame is None:
            u = np.zeros((len(self.eigenvalues),) * 2, dtype=complex)
            if self.sectors is not None:
                (w_plus, u_plus), (_, u_minus) = self.sectors
                k = len(w_plus)
                u[:k, :k] = u_plus
                u[k:, k:] = u_minus
            else:
                _odd_frame(u, *self.svd)
            self.frame = u[:, self.order]
        return self.frame


def _odd_frame(u: np.ndarray, v: np.ndarray, w_left: np.ndarray,
               sv: np.ndarray) -> None:
    """Fill u with the unsorted eigenframe of [[0, B^H], [B, 0]], B = W S V^H.

    Columns run over -sigma, the kernel, then +sigma: the pair +-sigma_i has
    eigenvectors (v_i; +-w_i) / sqrt(2), and the unpaired columns of V or of
    W span the kernel.
    """
    k, r = v.shape[0], len(sv)
    z = abs(k - w_left.shape[0])
    s = 1.0 / np.sqrt(2.0)
    u[:k, :r] = v[:, :r] * s
    u[k:, :r] = -w_left[:, :r] * s
    u[:k, r + z:] = v[:, :r] * s
    u[k:, r + z:] = w_left[:, :r] * s
    if k > r:
        u[:k, r:r + z] = v[:, r:]
    else:
        u[k:, r:r + z] = w_left[:, r:]


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

    Hermitian inputs are symmetrized on construction, so ``matrix`` equals its
    own conjugate transpose bit-exactly whenever ``hermitian`` is set.  Parity
    labels are checked against exact block sparsity and rejected otherwise.
    """

    __slots__ = ("matrix", "space", "parity", "hermitian", "_eig", "_eigvals_cache")

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
        self.matrix = m
        self.space = space
        self.parity = parity
        self.hermitian = bool(hermitian)
        self._eig = None
        self._eigvals_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def even_from_blocks(cls, space: GradedSpace, top, bottom, hermitian=False):
        m = np.zeros((space.n, space.n), dtype=complex)
        k = space.n_plus
        m[:k, :k] = top
        m[k:, k:] = bottom
        return cls(m, space, parity="even", hermitian=hermitian)

    @classmethod
    def odd_from_block(cls, space: GradedSpace, lower, upper=None):
        """Odd operator from its lower-left block (positive to negative sector).

        When ``upper`` is omitted the adjoint block is used, giving a hermitian
        odd operator.
        """
        lower = np.asarray(lower, dtype=complex)
        if lower.shape != (space.n_minus, space.n_plus):
            raise ValueError(
                f"lower block must be {space.n_minus} x {space.n_plus}, got {lower.shape}"
            )
        herm = upper is None
        if upper is None:
            upper = lower.conj().T
        m = np.zeros((space.n, space.n), dtype=complex)
        k = space.n_plus
        m[k:, :k] = lower
        m[:k, k:] = upper
        return cls(m, space, parity="odd", hermitian=herm)

    # -- block access ------------------------------------------------------

    def block(self, row: str, col: str) -> np.ndarray:
        k = self.space.n_plus
        r = slice(0, k) if row == "+" else slice(k, self.space.n)
        c = slice(0, k) if col == "+" else slice(k, self.space.n)
        return self.matrix[r, c]

    @property
    def odd_block(self) -> np.ndarray:
        """Lower-left block, the part mapping the positive into the negative sector."""
        return self.block("-", "+")

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

        The eigenframe (see _odd_frame) is kept as (V, W, sigma).  Phases are
        pinned: the largest-magnitude entry of every column of V, and of
        every unpaired column of W, is real and positive, and each paired w_i
        takes the phase of its v_i.  The defects ||B V - W S|| and
        ||B^H W - V S^T||, and ||V^H V - 1|| and ||W^H W - 1||, combine as a
        root sum of squares to the full-matrix Frobenius defects.
        """
        b = self.odd_block
        n_minus, n_plus = b.shape
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
        self._check_frame(residual, orth)
        w_all = np.concatenate([-sv, np.zeros(abs(n_plus - n_minus)), sv])
        order = np.argsort(w_all, kind="stable")
        self._eig = SpectralDecomposition(w_all[order], None, residual, orth,
                                          svd=(v, w_left, sv), order=order)

    def _check_frame(self, residual: float, orth: float) -> None:
        scale = np.linalg.norm(self.matrix)
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

        Even operators take one eigvalsh per sector.  An odd hermitian
        [[0, B^H], [B, 0]] has spectrum +-sigma(B) plus |n_+ - n_-| zeros,
        read off one SVD of its odd block B.  The values never come from a
        cached eig(), so they are the same bits whichever of the two ran first.
        """
        if self._eigvals_cache is None:
            if not self.hermitian:
                raise DomainError("eigenvalues require a hermitian operator")
            if self.parity == "even":
                w = np.concatenate([np.linalg.eigvalsh(self.block(s, s))
                                    for s in "+-"])
            elif self.parity == "odd":
                sv = np.linalg.svd(self.odd_block, compute_uv=False)
                zeros = np.zeros(abs(self.space.n_plus - self.space.n_minus))
                w = np.concatenate([-sv, zeros, sv])
            else:
                w = np.linalg.eigvalsh(self.matrix)
            self._eigvals_cache = np.sort(w)
        return self._eigvals_cache


def _mul_parity(a: str, b: str) -> str:
    if a == "none" or b == "none":
        return "none"
    return "even" if a == b else "odd"


def operator_norm(op) -> float:
    """Largest singular value, exploiting hermiticity and block sparsity.

    An odd operator whose upper block is exactly +-(lower block)^H, such as
    the commutator of two hermitian operators, has the singular values of its
    lower block alone; that exact O(n^2) check saves the second block SVD.
    """
    if not isinstance(op, GradedOperator):
        m = np.asarray(op)
        if m.size == 0:
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[0])
    if op.hermitian:
        w = op.eigenvalues()
        return float(np.abs(w).max(initial=0.0))
    if op.parity == "odd":
        lower, upper = op.block("-", "+"), op.block("+", "-")
        adjoint = lower.conj().T
        if np.array_equal(upper, -adjoint) or np.array_equal(upper, adjoint):
            blocks = (lower,)
        else:
            blocks = (lower, upper)
    elif op.parity == "even":
        blocks = (op.block("+", "+"), op.block("-", "-"))
    else:
        blocks = (op.matrix,)
    best = 0.0
    for b in blocks:
        if b.size:
            best = max(best, float(np.linalg.svd(b, compute_uv=False)[0]))
    return best


def _from_spectrum(op: GradedOperator, dec: SpectralDecomposition,
                   vals: np.ndarray, parity: str) -> GradedOperator:
    """f(T) from the eigendata of op, given f on its sorted spectrum.

    An even operator rebuilds each diagonal block from its own sector frame.
    An odd [[0, B^H], [B, 0]] with B = W S V^H has
    f(T) = [[V e V^H, V o W^H], [W o V^H, W e W^H]], where e and o are the
    even and odd parts of f on +-sigma, and f(0) extends e over the kernel
    columns of V or W.  Only the blocks ``parity`` allows are formed, so the
    forbidden ones are exactly zero.  Parity "none" uses U diag(f) U^H.
    """
    if dec.sectors is None and dec.svd is None:
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
    m = np.zeros((n, n), dtype=complex)
    if parity != "odd":
        # only the larger sector has kernel columns, past its r paired ones
        ext = np.concatenate([(f_plus + f_minus) / 2.0, f_zero])
        m[:k, :k] = (v * ext[:k]) @ v.conj().T
        m[k:, k:] = (w_left * ext[:n - k]) @ w_left.conj().T
    if parity != "even":
        lower = (w_left[:, :r] * ((f_plus - f_minus) / 2.0)) @ v[:, :r].conj().T
        m[k:, :k] = lower
        m[:k, k:] = lower.conj().T
    return GradedOperator(m, op.space, parity=parity, hermitian=True)


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
        even_f = np.abs(np.asarray(f(-w)) - vals).max(initial=0.0) <= 1e-12 * scale
        odd_f = np.abs(np.asarray(f(-w)) + vals).max(initial=0.0) <= 1e-12 * scale
        if even_f:
            parity = "even"
        elif odd_f:
            parity = "odd"
    return _from_spectrum(op, dec, vals, parity)


def lipschitz_derivative(d_op: GradedOperator, op: GradedOperator) -> GradedOperator:
    """Commutator [D, T] = D T - T D, the discrete derivative of T along D.

    For parity-labelled D and T only the blocks the product parity allows
    are formed, each from the one nonzero block of D and of T it involves.
    When both are hermitian the commutator is anti-hermitian, so an odd one
    takes its upper block as -(lower block)^H.
    """
    if d_op.space != op.space:
        raise ValueError("operators live on different graded spaces")
    parity = _mul_parity(d_op.parity, op.parity)
    if parity == "none":
        m = d_op.matrix @ op.matrix - op.matrix @ d_op.matrix
        return GradedOperator(m, op.space, parity=parity, hermitian=False)

    k = op.space.n_plus
    rows = {"+": slice(0, k), "-": slice(k, op.space.n)}
    other = {"+": "-", "-": "+"}
    m = np.zeros((op.space.n, op.space.n), dtype=complex)
    cells = [("+", "+"), ("-", "-")] if parity == "even" else [("-", "+"), ("+", "-")]
    for r, c in cells:
        if (r, c) == ("+", "-") and d_op.hermitian and op.hermitian:
            m[rows[r], rows[c]] = -m[rows[c], rows[r]].conj().T
            continue
        via_d = r if d_op.parity == "even" else other[r]
        via_t = r if op.parity == "even" else other[r]
        m[rows[r], rows[c]] = (d_op.block(r, via_d) @ op.block(via_d, c)
                               - op.block(r, via_t) @ d_op.block(via_t, c))
    return GradedOperator(m, op.space, parity=parity, hermitian=False)


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
