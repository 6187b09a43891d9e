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
from .grading import EPS_EDGE_REL, TAU_SIG, GradedOperator

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


def _kernel_counts(block: np.ndarray):
    """Rank data of a rectangular block: (rank, tau, diagnostics), with the
    cut tau = TAU_RANK_REL * sigma_max."""
    rows, cols = block.shape
    if min(rows, cols) == 0:
        sv = np.zeros(0)
    else:
        sv = np.linalg.svd(block, compute_uv=False)
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

    Works on the lower-left block of the odd operator: kernel on the positive
    sector is the block kernel, cokernel matches the adjoint block.
    """
    if D.parity != "odd":
        raise PreconditionError("graded kernel index needs an odd operator")
    block = D.odd_block
    rank, tau, diags = _kernel_counts(block)
    n_minus, n_plus = block.shape
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
    rank_tolerance and reliable.  When both sectors of Q are equal the value
    is 0 for every D.
    """
    if Q.parity != "even":
        raise PreconditionError("compression projection must be even")
    if D.parity != "odd":
        raise PreconditionError("compressed index needs an odd operator")
    space = Q.space
    k = space.n_plus
    frames = []
    for blk in (Q.matrix[:k, :k], Q.matrix[k:, k:]):
        if blk.shape[0] == 0:
            frames.append(np.zeros((0, 0), dtype=complex))
            continue
        w, v = np.linalg.eigh(blk)
        near_one = np.abs(w - 1.0) <= 0.5
        # eigenvalues must cluster at 0 and 1 for a genuine projection
        bad = np.minimum(np.abs(w), np.abs(w - 1.0)).max(initial=0.0)
        if bad > TAU_PROJ:
            raise PreconditionError(
                f"Q is not a projection: eigenvalue {bad:.3e} away from {{0,1}}"
            )
        frames.append(v[:, near_one])
    v_plus, v_minus = frames
    block = v_minus.conj().T @ D.odd_block @ v_plus
    rank, tau, diags = _kernel_counts(block)
    r_minus, r_plus = block.shape
    value = (r_plus - rank) - (r_minus - rank)
    diags["rank_Q_plus"] = r_plus
    diags["rank_Q_minus"] = r_minus
    return IndexResult(value=value, method="compressed", rank_tolerance=tau,
                       diagnostics=diags)


# ----------------------------------------------------------------------------
# Brillouin-zone Chern number
# ----------------------------------------------------------------------------


def chern_number_bz(bloch, n_occupied: int, grid: int = CHERN_GRID) -> IndexResult:
    """Chern number of the occupied bands of a Bloch family on a 2-torus.

    Plaquette construction: overlaps of occupied frames around each grid
    plaquette multiply to a phase; the angles sum to 2 pi times an integer.
    The band gap is checked on the grid first and a closing fails loudly.
    """
    ks = 2.0 * np.pi * np.arange(grid) / grid
    frames = None
    min_gap = np.inf
    scale = 0.0
    for a in range(grid):
        for b in range(grid):
            h = np.asarray(bloch(ks[a], ks[b]), dtype=complex)
            if frames is None:
                nb = h.shape[0]
                frames = np.empty((grid, grid, nb, n_occupied), dtype=complex)
            w, v = np.linalg.eigh(h)
            scale = max(scale, float(np.abs(w).max(initial=0.0)))
            gap_here = w[n_occupied] - w[n_occupied - 1]
            fermi_dist = min(abs(w[n_occupied]), abs(w[n_occupied - 1]))
            min_gap = min(min_gap, gap_here, 2.0 * fermi_dist)
            frames[a, b] = v[:, :n_occupied]
    if min_gap <= GAP_TOL * max(scale, 1e-300):
        raise GaplessError(
            f"band gap {min_gap:.3e} on the {grid}x{grid} grid is below "
            f"{GAP_TOL:.1e} * ||h||; Chern number undefined"
        )

    def link(f, g):
        d = np.linalg.det(f.conj().T @ g)
        if abs(d) < 1e-12:
            raise GaplessError("vanishing link overlap; grid too coarse or gap closing")
        return d

    total = 0.0
    max_angle = 0.0
    for a in range(grid):
        for b in range(grid):
            a1, b1 = (a + 1) % grid, (b + 1) % grid
            prod = (link(frames[a, b], frames[a1, b])
                    * link(frames[a1, b], frames[a1, b1])
                    * link(frames[a1, b1], frames[a, b1])
                    * link(frames[a, b1], frames[a, b]))
            ang = float(np.angle(prod))
            max_angle = max(max_angle, abs(ang))
            total += ang
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
    localizer assembly; serves as its cross-check.
    """
    dec = D.eig()
    w = dec.eigenvalues
    eps_edge = EPS_EDGE_REL * max(float(np.abs(w).max(initial=0.0)), 1e-300)
    dist = np.abs(np.abs(w) - rho)
    if np.any(dist <= eps_edge):
        raise SpectralCutError(
            f"eigenvalue of D within {eps_edge:.3e} of the window edge rho = {rho}"
        )
    sel = np.abs(w) < rho
    if not np.any(sel):
        return 0
    v = dec.vectors[:, sel]
    gdiag = H.space.gamma_diag
    core = np.diag(kappa * w[sel]).astype(complex) + \
        v.conj().T @ (gdiag[:, None] * H.matrix) @ v
    core = (core + core.conj().T) / 2.0
    w_core = np.linalg.eigvalsh(core)
    tau = TAU_SIG * float(np.abs(w_core).max(initial=0.0))
    sig_core = int((w_core > tau).sum() - (w_core < -tau).sum())

    g_win = v.conj().T @ (gdiag[:, None] * v)
    w_g = np.linalg.eigvalsh((g_win + g_win.conj().T) / 2.0)
    sig_g = int((w_g > 0.5).sum() - (w_g < -0.5).sum())

    if (sig_core + sig_g) % 2 != 0:
        raise ClassInconsistencyError(
            f"window signatures {sig_core} + {sig_g} do not sum to an even integer"
        )
    return (sig_core + sig_g) // 2
