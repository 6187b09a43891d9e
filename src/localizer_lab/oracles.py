"""Independent index computations used to cross-check the localizer.

Three routes that never touch the localizer assembly: graded kernel counting
through singular values, compression of the off-diagonal Dirac block by a
projection, and a Brillouin-zone Chern number from plaquette link phases.
All rank decisions carry diagnostics about the spectral cut they relied on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClassInconsistencyError, GaplessError, PreconditionError, SpectralCutError
from .grading import GradedOperator, SymmetryBlocks, eigenvalue_at_cut, symmetry_blocks
from .ktheory import signature

# singular values at most TAU_RANK_REL * sigma_max count as kernel
TAU_RANK_REL = 1e-7
# largest distance from {0, 1} an eigenvalue of a projection may have
TAU_PROJ = 1e-8
# smallest band gap on the grid, relative to ||h||, that defines a Chern number
GAP_TOL = 1e-6
CHERN_GRID = 48  # Brillouin-zone grid side of chern_number_bz


@dataclass
class IndexResult:
    """An integer index, how it was obtained, and how safe the rank cut was."""

    value: int
    method: str
    rank_tolerance: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def reliable(self) -> bool:
        return self.diagnostics.get("cut_ratio", 0.0) < 1e-3


def _kernel_counts(sv: np.ndarray, shape: tuple[int, int]):
    """Rank data of a rows x cols block with singular values sv:
    (rank, tau, diagnostics), with the cut tau = TAU_RANK_REL * sigma_max."""
    rows, cols = shape
    smax = float(sv.max(initial=0.0))
    tau = TAU_RANK_REL * smax
    retained = sv[sv > tau]
    discarded = sv[sv <= tau]
    rank = int(len(retained))
    smallest_retained = float(retained.min(initial=np.inf))
    largest_discarded = float(discarded.max(initial=0.0))
    ratio = 0.0
    if rank and np.isfinite(smallest_retained) and smallest_retained > 0:
        ratio = largest_discarded / smallest_retained
    diags = {
        "sigma_max": smax,
        "smallest_retained": smallest_retained if np.isfinite(smallest_retained) else None,
        "largest_discarded": largest_discarded,
        "cut_ratio": float(ratio),
        "rank": rank,
        "shape": (rows, cols),
    }
    return rank, tau, diags


def graded_kernel_index(D: GradedOperator) -> IndexResult:
    """dim ker over the positive sector minus dim ker over the negative sector.

    Works on the lower-left block of the hermitian odd operator: kernel on
    the positive sector is the block kernel, cokernel matches the adjoint
    block.
    """
    if D.parity != "odd":
        raise PreconditionError("graded kernel index needs an odd operator")
    n_plus, n_minus = D.space.n_plus, D.space.n_minus
    # the cached spectrum is sort(-sigma, zeros, sigma) of the odd block: its
    # top min(n_+, n_-) values, reversed, are the block's singular values
    # (abs turns a -0.0 that sorted to the top back into 0.0)
    k = min(n_plus, n_minus)
    sv = np.abs(D.eigenvalues()[::-1][:k])
    rank, tau, diags = _kernel_counts(sv, (n_minus, n_plus))
    value = (n_plus - rank) - (n_minus - rank)
    return IndexResult(value=value, method="graded_kernel", rank_tolerance=tau,
                       diagnostics=diags)


def compressed_index(Q: GradedOperator, D: GradedOperator) -> IndexResult:
    """Kernel count of the Dirac block compressed by an even projection Q.

    The block maps the range of Q in the positive sector (rank r_+) to its
    range in the negative sector (rank r_-).  Kernel minus cokernel dimension
    of any r_- x r_+ matrix is (r_+ - rank) - (r_- - rank) = r_+ - r_-, so the
    value is the difference of the ranks of Q's sectors and does not depend
    on D: the singular values of the compressed block feed only
    rank_tolerance and reliable.  Each sector is solved block by block
    (symmetry_blocks) and the compressed block splits into one block per
    eigenvalue of the symmetry; unless Q's sectors and D's odd block all
    pass the symmetry, each of the three is one whole block.
    """
    if Q.parity != "even":
        raise PreconditionError("compression projection must be even")
    if D.parity != "odd":
        raise PreconditionError("compressed index needs an odd operator")
    cells = (Q, "+", "+"), (Q, "-", "-"), (D, "-", "+")
    splits = [symmetry_blocks(*cell) for cell in cells]
    if len({len(part.blocks) for part in splits}) > 1:
        # a split that failed its Weyl check is one whole block, which the
        # others' blocks do not align with: take all three whole
        splits = [SymmetryBlocks([op.block(row, col)], 0.0) for op, row, col in cells]
    q_plus, q_minus, d_odd = splits
    slack = max(q_plus.weyl, q_minus.weyl)
    svs, r_plus, r_minus = [], 0, 0
    for top, bottom, lower in zip(q_plus.blocks, q_minus.blocks, d_odd.blocks):
        v_plus = _range_frame(top, slack)
        v_minus = _range_frame(bottom, slack)
        block = v_minus.conj().T @ lower @ v_plus
        svs.append(np.linalg.svd(block, compute_uv=False))
        r_minus, r_plus = r_minus + block.shape[0], r_plus + block.shape[1]
    # the whole block's singular values that rectangular blocks lack are
    # exact zeros, which move no rank datum
    rank, tau, diags = _kernel_counts(np.concatenate(svs), (r_minus, r_plus))
    value = (r_plus - rank) - (r_minus - rank)
    diags["rank_Q_plus"] = r_plus
    diags["rank_Q_minus"] = r_minus
    return IndexResult(value=value, method="compressed", rank_tolerance=tau,
                       diagnostics=diags)


def _range_frame(blk: np.ndarray, slack: float) -> np.ndarray:
    """Eigenvectors of a block of a projection at its eigenvalues near 1.

    Every eigenvalue must lie within TAU_PROJ of {0, 1} once slack, a Weyl
    bound (0 for a whole block), is added.
    """
    if blk.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    w, v = np.linalg.eigh(blk)
    bad = np.minimum(np.abs(w), np.abs(w - 1.0)).max(initial=0.0) + slack
    if bad > TAU_PROJ:
        raise PreconditionError(
            f"Q is not a projection: eigenvalue {bad:.3e} away from {{0,1}}"
        )
    return v[:, np.abs(w - 1.0) <= 0.5]


# ----------------------------------------------------------------------------
# Brillouin-zone Chern number
# ----------------------------------------------------------------------------


def chern_number_bz(bloch, n_occupied: int, lipschitz: float,
                    grid: int = CHERN_GRID) -> IndexResult:
    """Chern number of the occupied bands of a Bloch family on a 2-torus.

    bloch(k1, k2) gives the n x n Bloch matrices and broadcasts over k: it
    is called once, with k1 and k2 of shapes (grid, 1, 1, 1) and
    (1, grid, 1, 1), and returns the whole grid, (grid, grid, n, n).
    Plaquette construction: overlaps of occupied frames around each grid
    plaquette multiply to a phase; the angles sum to 2 pi times an integer.
    The band gap must be certified open first.  With lipschitz the sup of
    each ||dh/dk_i||, every k lies within pi / grid of a grid point in each
    coordinate, so by Weyl every eigenvalue moves by at most
    eps = 2 pi lipschitz / grid off the grid, and the gap by at most 2 eps:
    the grid minimum less 2 eps must stay open, or the result fails loudly.
    """
    ks = 2.0 * np.pi * np.arange(grid) / grid
    h = np.asarray(bloch(ks[:, None, None, None], ks[None, :, None, None]), dtype=complex)
    if h.ndim != 4 or h.shape[:2] != (grid, grid) or h.shape[2] != h.shape[3]:
        raise ValueError(f"bloch must broadcast over k and give ({grid}, {grid}, n, n) "
                         f"on the grid, got shape {h.shape}")
    w, v = np.linalg.eigh(h)
    scale = float(np.abs(w).max(initial=0.0))
    gap_here = w[..., n_occupied] - w[..., n_occupied - 1]
    fermi_dist = np.minimum(np.abs(w[..., n_occupied]), np.abs(w[..., n_occupied - 1]))
    min_gap = float(np.minimum(gap_here, 2.0 * fermi_dist).min())
    gap_floor = min_gap - 4.0 * np.pi * lipschitz / grid
    if gap_floor <= GAP_TOL * max(scale, 1e-300):
        raise GaplessError(
            f"band gap {min_gap:.3e} on the {grid}x{grid} grid, {gap_floor:.3e} "
            f"after the half-cell bound, is not above {GAP_TOL:.1e} * ||h||; "
            "Chern number undefined"
        )

    # frames[a, b] and its neighbours at (a+1, b), (a+1, b+1), (a, b+1)
    frames = v[..., :n_occupied]
    f_a1 = np.roll(frames, -1, axis=0)
    f_a1b1 = np.roll(frames, (-1, -1), axis=(0, 1))
    f_b1 = np.roll(frames, -1, axis=1)
    links = [np.linalg.det(f.conj().swapaxes(-1, -2) @ g)
             for f, g in ((frames, f_a1), (f_a1, f_a1b1), (f_a1b1, f_b1), (f_b1, frames))]
    if min(float(np.abs(d).min()) for d in links) < 1e-12:
        raise GaplessError("vanishing link overlap; grid too coarse or gap closing")
    angles = np.angle(links[0] * links[1] * links[2] * links[3]).ravel()
    max_angle = float(np.abs(angles).max())
    # cumsum adds in (a, b) order, one angle at a time
    total = float(np.cumsum(angles)[-1])
    raw = total / (2.0 * np.pi)
    value = int(np.rint(raw))
    deviation = abs(raw - value)
    if deviation > 0.01:
        raise SpectralCutError(
            f"plaquette angles sum to {raw:.6f}, not close to an integer"
        )
    return IndexResult(
        value=value, method="chern_bz", rank_tolerance=0.0,
        diagnostics={
            "grid": grid,
            "min_gap": float(min_gap),
            "gap_floor": float(gap_floor),
            "max_plaquette_angle": max_angle,
            "integer_deviation": deviation,
            "cut_ratio": 0.0,
        },
    )


# ----------------------------------------------------------------------------
# hard-cut signature formula
# ----------------------------------------------------------------------------


def window_signature_index(H: GradedOperator, D: GradedOperator, rho: float,
                           kappa: float) -> int:
    """Half-signature index from the compression to the window |D| < rho.

    Evaluates (1/2) sign(P (kappa D + gamma H) P) + (1/2) sign(gamma P) with
    both signatures taken on the range of P.  Independent of the smooth
    localizer assembly; serves as its cross-check.  P = 1_(|D| < rho) is
    even, so in D's sector basis the first operator is the block L_S of
    window_spectrum on the hard cut S = {x < rho}, with f = 1, no shift
    and the pairs coupled by kappa sigma_i, and sign(gamma P) is exactly
    |S_+| - |S_-|.
    """
    dec = D.eig()
    edge = eigenvalue_at_cut(dec.eigenvalues, rho)
    if edge is not None:
        raise SpectralCutError(
            f"eigenvalue of D within {edge[1]:.3e} of the window edge rho = {rho}"
        )
    x = dec.sector_values()
    eigs, (s_plus, s_minus, _), _ = dec.window_spectrum(
        H, x < rho, np.ones(len(x)), np.zeros(len(x)), kappa * x)
    sig_core = signature(eigs).signature
    sig_g = len(s_plus) - len(s_minus)
    if (sig_core + sig_g) % 2 != 0:
        raise ClassInconsistencyError(
            f"window signatures {sig_core} + {sig_g} do not sum to an even integer"
        )
    return (sig_core + sig_g) // 2
