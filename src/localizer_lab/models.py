"""Reference models: shifted ladder Dirac, two-band Chern lattice, projections.

Every generator returns a ModelDescriptor carrying the operator triple
(D, H, gamma through the space), any Bloch data, and a truncation guard: the
largest scale rho_max such that no eigenvector of D with |eigenvalue| below
2 rho_max carries boundary weight.  Inside that window the truncated model is
spectrally indistinguishable from its infinite-volume parent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GaplessError,
    GenerationError,
    InternalConsistencyError,
    ModelArgumentError,
)
from .grading import GradedOperator, GradedSpace, lipschitz_derivative, operator_norm

BOUNDARY_WEIGHT_TOL = 1e-6
QWZ_GAP_GRID = 257  # Brillouin-zone grid on which the Bloch gap is scanned
RANDOM_GAP_FLOOR = 0.1  # random_lipschitz redraws until gap(H) >= this * ||H||
RANDOM_MAX_TRIES = 20

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class ModelDescriptor:
    name: str
    parameters: dict
    space: GradedSpace
    D: GradedOperator
    H: GradedOperator
    rho_max: float
    truncation_fraction: float
    gap_bound: float
    bloch: object = None
    n_occupied: int | None = None
    expected_class: int | None = None
    extras: dict = field(default_factory=dict)


def _rho_max_from_guard(abs_eigs: np.ndarray, weights: np.ndarray):
    """Largest usable rho and the checked contamination fraction below it."""
    contaminated = weights >= BOUNDARY_WEIGHT_TOL
    if not np.any(contaminated):
        return float("inf"), 0.0
    lam_c = float(abs_eigs[contaminated].min())
    # Inclusive cut: a mode exactly at |lambda| = 2 rho is outside the open
    # support of every window (phi vanishes at the support edge), so it is
    # invisible to the localizer and rho_max = lam_c / 2 needs no shaving.
    rho_max = lam_c / 2.0
    inside = abs_eigs < 2.0 * rho_max
    fraction = float(np.mean(contaminated[inside])) if np.any(inside) else 0.0
    if fraction != 0.0:
        raise InternalConsistencyError(
            f"truncation guard violated: contaminated fraction {fraction} "
            f"below rho_max = {rho_max}"
        )
    return rho_max, fraction


# ----------------------------------------------------------------------------
# shifted ladder (oscillator-type) Dirac with trivial H
# ----------------------------------------------------------------------------


def oscillator_dirac(n: int) -> ModelDescriptor:
    """Ladder Dirac on a graded space of dimensions (n, n-1) with H = 1.

    The lowering block sends basis vector k of the positive sector to
    sqrt(k) times vector k-1 of the negative sector, so D^2 has the exact
    nonzero spectrum {1, ..., n-1} twice and a one-dimensional kernel in the
    positive sector.  H = 1 commutes with everything, which makes every
    parameter pair admissible.
    """
    if n < 2:
        raise ModelArgumentError("ladder needs n >= 2")
    space = GradedSpace(n, n - 1)
    lower = np.zeros((n - 1, n), dtype=complex)
    ks = np.arange(1, n)
    lower[ks - 1, ks] = np.sqrt(ks)
    D = GradedOperator.odd_from_block(space, lower)

    # only the pair at +-sqrt(n-1), on (e_{n-1}, e_{n-2}), touches the last
    # vector of a sector
    rho_max, fraction = _rho_max_from_guard(np.sqrt(ks), ks == n - 1)

    sq = np.sort(D.eigenvalues() ** 2)
    expected = np.sort(np.concatenate([[0.0], np.repeat(np.arange(1.0, n), 2)]))
    if np.abs(sq - expected).max() > 1e-9 * max(1.0, n):
        raise InternalConsistencyError("ladder spectrum deviates from {0, 1, ..., n-1}")

    H = GradedOperator(np.eye(space.n, dtype=complex), space, parity="even",
                       hermitian=True)
    return ModelDescriptor(
        name="oscillator", parameters={"n": n}, space=space, D=D, H=H,
        rho_max=rho_max, truncation_fraction=fraction, gap_bound=1.0,
    )


# ----------------------------------------------------------------------------
# two-band Chern insulator on a periodic lattice
# ----------------------------------------------------------------------------


def qwz_bloch(k1: float, k2: float, m: float) -> np.ndarray:
    return (np.sin(k1) * PAULI_1 + np.sin(k2) * PAULI_2
            + (m - np.cos(k1) - np.cos(k2)) * PAULI_3)


def _qwz_gap(m: float) -> float:
    ks = 2.0 * np.pi * np.arange(QWZ_GAP_GRID) / QWZ_GAP_GRID
    s1 = np.sin(ks)[:, None]
    s2 = np.sin(ks)[None, :]
    mz = m - np.cos(ks)[:, None] - np.cos(ks)[None, :]
    return float(np.sqrt(s1**2 + s2**2 + mz**2).min())


def qwz_chern_model(L: int, m: float) -> ModelDescriptor:
    """Flattened two-band Chern insulator paired with the lattice position Dirac.

    The lattice Hamiltonian lives on an L x L torus with two orbitals per
    site; H is its flattened Fermi projection doubled onto both sectors, and
    D is the odd operator built from the complex position x1 + i x2 with
    coordinates centered at the lattice middle.  The periodic seam makes
    [D, H] grow linearly with L, which the descriptor reports rather than
    hides.
    """
    if L < 8:
        raise ModelArgumentError("lattice extent must be at least 8")
    # The grid minimum of |E| bounds the gap from above.  Each ||dh/dk_i|| is
    # 1 and every k lies within pi / QWZ_GAP_GRID of the grid in each
    # coordinate, so the gap is at least the grid minimum - 2 pi / QWZ_GAP_GRID.
    bloch_gap = _qwz_gap(m)
    gap_floor = bloch_gap - 2.0 * np.pi / QWZ_GAP_GRID
    if gap_floor <= 1e-6 * max(1.0, abs(m) + 2.0):
        raise GaplessError(
            f"band gap at m = {m} is not certified open: min |E| = "
            f"{bloch_gap:.3e} on the {QWZ_GAP_GRID}x{QWZ_GAP_GRID} grid, "
            f"{gap_floor:.3e} after the grid-spacing bound"
        )

    npb = L * L
    h = np.zeros((2 * npb, 2 * npb), dtype=complex)
    hop1 = PAULI_1 / 2j - PAULI_3 / 2.0
    hop2 = PAULI_2 / 2j - PAULI_3 / 2.0

    def site(x, y):
        return (x % L) * L + (y % L)

    for x in range(L):
        for y in range(L):
            i = site(x, y)
            h[2*i:2*i+2, 2*i:2*i+2] += m * PAULI_3
            for hop, (dx, dy) in ((hop1, (1, 0)), (hop2, (0, 1))):
                j = site(x + dx, y + dy)
                h[2*j:2*j+2, 2*i:2*i+2] += hop
                h[2*i:2*i+2, 2*j:2*j+2] += hop.conj().T
    h = (h + h.conj().T) / 2.0
    ew, ev = np.linalg.eigh(h)

    # real-space spectrum must reproduce the Bloch spectrum on the L-grid
    ks = 2.0 * np.pi * np.arange(L) / L
    bloch_spec = []
    for a in range(L):
        for b in range(L):
            bloch_spec.extend(np.linalg.eigvalsh(qwz_bloch(ks[a], ks[b], m)))
    bloch_spec = np.sort(np.asarray(bloch_spec))
    if np.abs(np.sort(ew) - bloch_spec).max() > 1e-8 * max(1.0, np.abs(ew).max()):
        raise InternalConsistencyError("lattice spectrum disagrees with Bloch spectrum")

    n_occ = int((ew < 0).sum())
    if n_occ != npb:
        raise InternalConsistencyError(
            f"half filling violated: {n_occ} negative-energy states out of {2 * npb}"
        )
    occ = ev[:, :n_occ]
    hflat = 2.0 * (occ @ occ.conj().T) - np.eye(2 * npb)
    hflat = (hflat + hflat.conj().T) / 2.0

    space = GradedSpace(2 * npb, 2 * npb)
    H = GradedOperator.even_from_blocks(space, hflat, hflat, hermitian=True)
    flat_vals = np.concatenate([np.repeat(-1.0, n_occ), np.repeat(1.0, n_occ),
                                np.repeat(-1.0, n_occ), np.repeat(1.0, n_occ)])
    H._eigvals_cache = np.sort(flat_vals)

    xs = np.arange(L) - (L - 1) / 2.0
    z = np.repeat((xs[:, None] + 1j * xs[None, :]).ravel(), 2)
    D = GradedOperator.odd_from_block(space, np.diag(z))

    # the pair at +-|z_i| lives on site i alone, in both sectors; np.hypot
    # matches the scalar abs(z_i) bit for bit, np.abs of a complex array
    # does not (128 of 512 entries differ at L = 16)
    half = (L - 1) / 2.0
    ring_of_site = (np.maximum(np.abs(xs)[:, None], np.abs(xs)[None, :]) >= half).ravel()
    rho_max, fraction = _rho_max_from_guard(np.hypot(z.real, z.imag),
                                            np.repeat(ring_of_site, 2))

    return ModelDescriptor(
        name="qwz", parameters={"L": L, "m": m}, space=space, D=D, H=H,
        rho_max=rho_max, truncation_fraction=fraction, gap_bound=bloch_gap,
        bloch=lambda k1, k2, mm=m: qwz_bloch(k1, k2, mm), n_occupied=1,
    )


# ----------------------------------------------------------------------------
# matrix-coefficient projection example
# ----------------------------------------------------------------------------


def mk_block_example(k: int, seed: int, blocks: int = 3) -> ModelDescriptor:
    """Random projection over k x k matrix coefficients on a trivially graded space.

    gamma is the identity, D is zero, and the pair (-1, 2p - 1) represents the
    class of the projection; its value is the plain complex rank, which
    survives forgetting the matrix subdivision.
    """
    if k < 1 or blocks < 1:
        raise ModelArgumentError("need k >= 1 and blocks >= 1")
    dim = k * blocks
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, dim + 1))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    p = q[:, :rank] @ q[:, :rank].conj().T
    p = (p + p.conj().T) / 2.0

    space = GradedSpace(dim, 0)
    H = GradedOperator(2.0 * p - np.eye(dim), space, parity="even", hermitian=True)
    D = GradedOperator(np.zeros((dim, dim), dtype=complex), space,
                       parity="odd", hermitian=True)
    return ModelDescriptor(
        name="mk", parameters={"k": k, "blocks": blocks, "seed": seed},
        space=space, D=D, H=H, rho_max=float("inf"), truncation_fraction=0.0,
        gap_bound=1.0, expected_class=rank,
        extras={"projection": p},
    )


# ----------------------------------------------------------------------------
# random even Hamiltonians with controlled derivative norm
# ----------------------------------------------------------------------------


@dataclass
class RandomLipschitz:
    H: GradedOperator
    dh_norm: float
    block_width: float
    bands: int
    tries: int


def random_lipschitz(D: GradedOperator, strength: float, seed: int,
                     block_width: float | None = None) -> RandomLipschitz:
    """Random even invertible H whose derivative along D is small by design.

    The base term is block-constant across spectral bands of D of the given
    width (signed spectra in [0.5, 1]), mirrored through gamma so evenness is
    bit-exact; a full random even perturbation of the given strength is added
    on top.  Draws repeat until gap(H) >= RANDOM_GAP_FLOOR * ||H||, failing
    after RANDOM_MAX_TRIES.
    """
    space = D.space
    dec = D.eig()
    w, u = dec.eigenvalues, dec.vectors
    d_scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if block_width is None:
        block_width = d_scale / 8.0
    gdiag = space.gamma_diag
    z_tol = 1e-9 * d_scale

    pos_idx = np.where(w > z_tol)[0]
    zero_idx = np.where(np.abs(w) <= z_tol)[0]

    bands = []
    start = 0
    while start < len(pos_idx):
        stop = start
        while stop + 1 < len(pos_idx) and \
                w[pos_idx[stop + 1]] - w[pos_idx[start]] <= block_width:
            stop += 1
        bands.append(pos_idx[start:stop + 1])
        start = stop + 1

    for attempt in range(1, RANDOM_MAX_TRIES + 1):
        rng = np.random.default_rng((seed, attempt))
        a = np.zeros((space.n, space.n), dtype=complex)
        for band in bands:
            d_b = len(band)
            signs = rng.choice([-1.0, 1.0], size=d_b)
            mags = rng.uniform(0.5, 1.0, size=d_b)
            g = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
            r, _ = np.linalg.qr(g)
            m_b = (r * (signs * mags)) @ r.conj().T
            m_b = (m_b + m_b.conj().T) / 2.0
            ub = u[:, band]
            a += (ub @ m_b) @ ub.conj().T
        if len(zero_idx):
            u0 = u[:, zero_idx]
            d0 = len(zero_idx)
            g = rng.normal(size=(d0, d0)) + 1j * rng.normal(size=(d0, d0))
            b0 = (g + g.conj().T) / 2.0
            gk = u0.conj().T @ (gdiag[:, None] * u0)
            m0 = (b0 + gk @ b0 @ gk.conj().T) / 2.0
            nb = float(np.abs(np.linalg.eigvalsh(m0)).max(initial=0.0))
            if nb > 0:
                m0 = m0 * (rng.uniform(0.5, 1.0) / nb)
            a += (u0 @ (m0 / 2.0)) @ u0.conj().T
        v = a + gdiag[:, None] * a * gdiag[None, :]

        gb = rng.normal(size=(space.n, space.n)) + 1j * rng.normal(size=(space.n, space.n))
        bh = (gb + gb.conj().T) / 2.0
        wmat = (bh + gdiag[:, None] * bh * gdiag[None, :]) / 2.0
        wn = float(np.abs(np.linalg.eigvalsh(wmat)).max(initial=0.0))
        if wn > 0:
            wmat = wmat / wn
        hm = v + strength * wmat

        vals = np.linalg.eigvalsh(hm)
        h_norm = float(np.abs(vals).max(initial=0.0))
        if h_norm > 0 and float(np.abs(vals).min()) >= RANDOM_GAP_FLOOR * h_norm:
            H = GradedOperator(hm, space, parity="even", hermitian=True)
            dh = operator_norm(lipschitz_derivative(D, H))
            return RandomLipschitz(H=H, dh_norm=dh, block_width=float(block_width),
                                   bands=len(bands), tries=attempt)
    raise GenerationError(
        f"no draw reached gap >= {RANDOM_GAP_FLOOR} * ||H|| within "
        f"{RANDOM_MAX_TRIES} tries"
    )


# ----------------------------------------------------------------------------
# model addressing
# ----------------------------------------------------------------------------


def parse_model(spec_str: str) -> ModelDescriptor:
    """Build a model from an address like 'qwz:L=16,m=1.0' or 'oscillator:n=50'."""
    name, _, arg_str = spec_str.partition(":")
    name = name.strip().lower()
    args = {}
    if arg_str.strip():
        for chunk in arg_str.split(","):
            key, _, val = chunk.partition("=")
            if not _:
                raise ModelArgumentError(f"malformed model argument {chunk!r}")
            args[key.strip()] = val.strip()

    def get(key, kind, default):
        if key not in args:
            if default is None:
                raise ModelArgumentError(
                    f"model {name!r} needs {kind.__name__} argument {key!r}")
            return default
        text = args.pop(key)
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or (kind is float and not np.isfinite(value)):
            what = "a finite float" if kind is float else "an int"
            raise ModelArgumentError(f"model argument {key}={text!r} is not {what}")
        return value

    def geti(key, default=None):
        return get(key, int, default)

    def getf(key, default=None):
        return get(key, float, default)

    def get_seed():
        seed = geti("seed", 0)
        if seed < 0:
            raise ModelArgumentError(f"model seed must be non-negative, got {seed}")
        return seed

    if name == "oscillator":
        desc = oscillator_dirac(geti("n"))
    elif name == "qwz":
        desc = qwz_chern_model(geti("L"), getf("m"))
    elif name == "mk":
        desc = mk_block_example(geti("k"), get_seed(), blocks=geti("blocks", 3))
    elif name == "random":
        base = oscillator_dirac(geti("n", 40))
        strength = getf("strength", 0.02)
        if strength < 0:
            raise ModelArgumentError(f"random strength must be non-negative, "
                                     f"got {strength}")
        seed = get_seed()
        width = getf("width", base.rho_max / 8.0 if np.isfinite(base.rho_max) else 1.0)
        if width <= 0:
            raise ModelArgumentError(f"random band width must be positive, "
                                     f"got {width}")
        res = random_lipschitz(base.D, strength, seed, block_width=width)
        desc = ModelDescriptor(
            name="random", parameters={"n": base.parameters["n"],
                                       "strength": strength, "seed": seed},
            space=base.space, D=base.D, H=res.H, rho_max=base.rho_max,
            truncation_fraction=base.truncation_fraction,
            gap_bound=float("nan"),
            extras={"dh_norm": res.dh_norm, "block_width": res.block_width},
        )
    else:
        raise ModelArgumentError(f"unknown model {name!r}")
    if args:
        raise ModelArgumentError(f"unused model arguments: {sorted(args)}")
    return desc
