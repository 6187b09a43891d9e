"""Reference models: shifted ladder Dirac, two-band Chern lattice, projections.

Every generator returns a ModelDescriptor carrying the operator triple
(D, H, gamma through the space), any Bloch data, and a truncation guard: the
largest scale rho_max such that no eigenvector of D with |eigenvalue| below
2 rho_max carries boundary weight.  Inside that window the truncated model is
spectrally indistinguishable from its infinite-volume parent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GaplessError,
    GenerationError,
    InternalConsistencyError,
    ModelArgumentError,
)
from .grading import GradedOperator, GradedSpace, PhasedPermutation

BOUNDARY_WEIGHT_TOL = 1e-6
QWZ_GAP_GRID = 257  # Brillouin-zone grid on which the Bloch gap is scanned
RANDOM_GAP_FLOOR = 0.1  # random_lipschitz redraws until gap(H) >= this * ||H||
RANDOM_MAX_TRIES = 20
# bound on ||hflat^2 - 1||_F and on ||[h, hflat]||_F / max(1, ||h||_F)
FLAT_TOL = 1e-12

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)
# hops of the two-band lattice along e_1 and e_2
QWZ_HOP_1 = PAULI_1 / 2j - PAULI_3 / 2.0
QWZ_HOP_2 = PAULI_2 / 2j - PAULI_3 / 2.0


@dataclass
class ModelDescriptor:
    name: str
    parameters: dict
    D: GradedOperator
    H: GradedOperator
    rho_max: float
    truncation_fraction: float
    gap_bound: float
    bloch: object = None
    bloch_lipschitz: float | None = None  # sup over k of each ||dh/dk_i||
    n_occupied: int | None = None
    expected_class: int | None = None

    @property
    def space(self) -> GradedSpace:
        return self.H.space


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
    parameter pair admissible.  D is kept as its n - 1 entries and H as its
    two sector diagonals of ones.
    """
    if n < 2:
        raise ModelArgumentError("ladder needs n >= 2")
    space = GradedSpace(n, n - 1)
    # H first: an n too large for memory fails at its first array
    H = GradedOperator._diagonal_built(space, np.ones(n), np.ones(n - 1))
    ks = np.arange(1, n)
    D = GradedOperator._monomial_built(space, ks - 1, ks, np.sqrt(ks))

    # only the pair at +-sqrt(n-1), on (e_{n-1}, e_{n-2}), touches the last
    # vector of a sector
    rho_max, fraction = _rho_max_from_guard(np.sqrt(ks), ks == n - 1)

    sq = np.sort(D.eigenvalues() ** 2)
    expected = np.sort(np.concatenate([[0.0], np.repeat(np.arange(1.0, n), 2)]))
    if np.abs(sq - expected).max() > 1e-9 * max(1.0, n):
        raise InternalConsistencyError("ladder spectrum deviates from {0, 1, ..., n-1}")

    return ModelDescriptor(
        name="oscillator", parameters={"n": n}, D=D, H=H,
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


def _qwz_kernel(L: int, m: float) -> np.ndarray:
    """Translation kernel of the lattice h: K[dx, dy] is the 2 x 2 block from
    a site to the site (dx, dy) away, indices mod L."""
    kernel = np.zeros((L, L, 2, 2), dtype=complex)
    kernel[0, 0] = m * PAULI_3
    for hop, shift in ((QWZ_HOP_1, (1, 0)), (QWZ_HOP_2, (0, 1))):
        kernel[shift] = hop
        kernel[-shift[0], -shift[1]] = hop.conj().T
    return kernel


def _spread(kernel: np.ndarray) -> np.ndarray:
    """Dense matrix of a translation-invariant operator on the L x L torus.

    Site (x, y) is basis pair 2 (x L + y) + (0, 1), and the block from site
    (x', y') to site (x, y) is kernel[(x - x') mod L, (y - y') mod L].
    """
    L = kernel.shape[0]
    d = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    full = kernel[d[:, None, :, None], d[None, :, None, :]]  # (x, y, x', y', a, b)
    return full.transpose(0, 1, 4, 2, 3, 5).reshape(2 * L * L, 2 * L * L)


def _qwz_hopping_loop(L: int, m: float) -> np.ndarray:
    """The lattice h summed hop by hop, site by site: the reference that the
    spread kernel must reproduce entry by entry."""
    npb = L * L
    h = np.zeros((2 * npb, 2 * npb), dtype=complex)

    def site(x, y):
        return (x % L) * L + (y % L)

    for x in range(L):
        for y in range(L):
            i = site(x, y)
            h[2*i:2*i+2, 2*i:2*i+2] += m * PAULI_3
            for hop, (dx, dy) in ((QWZ_HOP_1, (1, 0)), (QWZ_HOP_2, (0, 1))):
                j = site(x + dx, y + dy)
                h[2*j:2*j+2, 2*i:2*i+2] += hop
                h[2*i:2*i+2, 2*j:2*j+2] += hop.conj().T
    return (h + h.conj().T) / 2.0


def _flat_kernel(kernel: np.ndarray) -> np.ndarray:
    """Kernel of -sign(h) = -h(k) / |E(k)| for a traceless two-band kernel,
    hermitized (_hermitian_part).

    h(k) = sum_d K(d) e^{-i k.d} is fft2 over the two lattice axes, and a
    traceless hermitian 2 x 2 h(k) squares to |E(k)|^2 times the identity,
    with |E(k)|^2 half the sum of its squared moduli.
    """
    hk = np.fft.fft2(kernel, axes=(0, 1))
    energy = np.sqrt(np.sum(np.abs(hk) ** 2, axis=(-2, -1)) / 2.0)
    return _hermitian_part(np.fft.ifft2(-hk / energy[..., None, None], axes=(0, 1)))


def _hermitian_part(kernel: np.ndarray) -> np.ndarray:
    """(F(d) + F(-d)^H) / 2: its spread is _hermitize(_spread(F)) bit for
    bit, because entry (i, j) of that is (F(d)[a, b] + conj(F(-d)[b, a])) / 2
    with d the offset from site j to site i.  So the spread is exactly
    hermitian, with no full-size copy."""
    neg = -np.arange(kernel.shape[0]) % kernel.shape[0]
    return (kernel + kernel[np.ix_(neg, neg)].conj().swapaxes(-2, -1)) / 2.0


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution (a * b)(d) = sum_e a(e) b(d - e) of two kernels:
    the kernel of _spread(a) @ _spread(b).

    Index arithmetic, no transform: one step per lattice row e_1 where a has
    a nonzero entry, each a gather of b along d - e and one product per
    offset d, so the work is O(L^4) and no temporary exceeds (L, L, L, 2, 2).
    """
    L = a.shape[0]
    back = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L  # back[d, e] = d - e
    # cols[x, d_2, (e_2, j), k] = b(x, d_2 - e_2)[j, k]
    cols = b[:, back].reshape(L, L, 2 * L, 2)
    out = np.zeros((L * L, 2, 2), dtype=complex)
    for e1 in np.flatnonzero(a.reshape(L, -1).any(axis=1)):
        # out[d, i, k] += sum over (e_2, j) of a(e_1, e_2)[i, j] b(d - e)[j, k]
        row = a[e1].transpose(1, 0, 2).reshape(2, 2 * L)
        out += row @ cols[back[:, e1]].reshape(L * L, 2 * L, 2)
    return out.reshape(L, L, 2, 2)


def _flat_band_defects(kernel: np.ndarray, flat: np.ndarray):
    """(||hflat^2 - 1||_F, ||[h, hflat]||_F, ||h||_F, tr hflat) for
    h = _spread(kernel) and hflat = _spread(flat), from the kernels alone.

    The spread of a kernel G has Frobenius norm L ||G||, products of spreads
    are spreads of convolutions (_convolve), and tr hflat = L^2 tr F(0).
    hflat h is the block transpose of h^T hflat^T, so both products of the
    commutator loop over the few nonzero rows of K.
    """
    L = kernel.shape[0]
    square = _convolve(flat, flat)
    square[0, 0] -= np.eye(2)
    kt, ft = kernel.swapaxes(-2, -1), flat.swapaxes(-2, -1)
    comm = _convolve(kernel, flat) - _convolve(kt, ft).swapaxes(-2, -1)
    return (L * float(np.linalg.norm(square)), L * float(np.linalg.norm(comm)),
            L * float(np.linalg.norm(kernel)), L * L * float(np.trace(flat[0, 0]).real))


def check_flat_band(kernel: np.ndarray, flat: np.ndarray) -> None:
    """Check that the kernel flat gives the flattened Hamiltonian -sign(h)
    at half filling, h the spread of kernel (_flat_band_defects).

    Flatness ||hflat^2 - 1||_F and the commutator ||[h, hflat]||_F must
    vanish to FLAT_TOL, the second relative to max(1, ||h||_F); the
    commutator catches a Fourier sign slip, which flatness and filling do
    not.  |tr hflat| < 1/2 makes the +1 and -1 eigenspaces equally large.
    """
    flat_defect, comm, h_norm, trace = _flat_band_defects(kernel, flat)
    if flat_defect > FLAT_TOL:
        raise InternalConsistencyError(f"flattened h is not an involution: "
                                       f"||hflat^2 - 1||_F = {flat_defect:.3e}")
    if comm > FLAT_TOL * max(1.0, h_norm):
        raise InternalConsistencyError(f"flattened h does not commute with h: "
                                       f"||[h, hflat]||_F = {comm:.3e}")
    if abs(trace) >= 0.5:
        n = 2 * kernel.shape[0] ** 2
        raise InternalConsistencyError(
            f"half filling violated: tr hflat = {trace:.3e} on {n} states")


def _quarter_turn(L: int) -> PhasedPermutation:
    """S = diag(R, i R) on the two sectors, R the quarter turn of the torus.

    R sends orbital a of site (x, y) to orbital a of site (L-1-y, x) with
    the phase diag(e^(-i pi/4), e^(i pi/4))[a]; S^4 = -1.
    """
    x, y = np.divmod(np.arange(L * L), L)
    site = (L - 1 - y) * L + x
    perm = (2 * site[:, None] + np.arange(2)).ravel()
    phase = np.tile(np.exp([-0.25j * np.pi, 0.25j * np.pi]), L * L)
    return PhasedPermutation(np.concatenate([perm, perm + 2 * L * L]),
                             np.concatenate([phase, 1j * phase]), 4, -1.0)


def qwz_chern_model(L: int, m: float) -> ModelDescriptor:
    """Flattened two-band Chern insulator paired with the lattice position Dirac.

    The lattice Hamiltonian h lives on an L x L torus with two orbitals per
    site.  It is translation invariant, so the discrete Fourier transform
    diagonalizes it: hflat = -sign(h) comes from the kernel
    ifft2(-h(k) / |E(k)|) with h(k) = fft2(K) of its translation kernel K,
    and no eigensolve runs.  Each build checks what this route relies on:
    K spread to a dense matrix equals the hopping-loop h entry by entry,
    and hflat passes check_flat_band (flat, commuting with h, half filled),
    which reads the two kernels only.  H is hflat on both sectors, exactly
    hermitian by construction, and its spectrum (+-1, half each) is set,
    not solved for; H keeps the one block hflat for both sectors.  D is the
    odd operator built from the complex position x1 + i x2 with coordinates
    centered at the lattice middle, kept as the entries of its diagonal
    lower block.  The periodic seam makes [D, H] grow linearly with L,
    which the descriptor reports rather than hides.  The space carries the quarter turn S = diag(R, i R)
    (_quarter_turn), which commutes with H and D: a rotation about the
    lattice middle maps the torus, its seam included, to itself and sends
    x1 + i x2 to i (x1 + i x2).  The lattice kernels split into its four
    eigenspaces (grading.symmetry_blocks), each operator only after its
    own measured commutator with S passes.  The Bloch family's derivatives
    have norm at most 1 in each k_i, which bounds the Chern oracle's gap.
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
    kernel = _qwz_kernel(L, m)
    if not np.array_equal(_spread(kernel), _qwz_hopping_loop(L, m)):
        raise InternalConsistencyError("lattice kernel disagrees with the hopping loop")
    flat = _flat_kernel(kernel)
    check_flat_band(kernel, flat)
    hflat = _spread(flat)
    space = GradedSpace(2 * npb, 2 * npb, symmetry=_quarter_turn(L))
    # exactly hermitian already: _flat_kernel hermitizes the kernel
    H = GradedOperator._even_built(space, hflat, hflat)
    # by check_flat_band: eigenvalues +-1, npb of each sign in each sector
    H._eigvals_cache = np.repeat([-1.0, 1.0], 2 * npb)

    xs = np.arange(L) - (L - 1) / 2.0
    z = np.repeat((xs[:, None] + 1j * xs[None, :]).ravel(), 2)
    sites = np.arange(2 * npb)
    D = GradedOperator._monomial_built(space, sites, sites, z)

    # the pair at +-|z_i| lives on site i alone, in both sectors; np.hypot
    # matches the scalar abs(z_i) bit for bit, np.abs of a complex array
    # does not (128 of 512 entries differ at L = 16)
    half = (L - 1) / 2.0
    ring_of_site = (np.maximum(np.abs(xs)[:, None], np.abs(xs)[None, :]) >= half).ravel()
    rho_max, fraction = _rho_max_from_guard(np.hypot(z.real, z.imag),
                                            np.repeat(ring_of_site, 2))

    return ModelDescriptor(
        name="qwz", parameters={"L": L, "m": m}, D=D, H=H,
        rho_max=rho_max, truncation_fraction=fraction, gap_bound=bloch_gap,
        bloch=lambda k1, k2, mm=m: qwz_bloch(k1, k2, mm), bloch_lipschitz=1.0,
        n_occupied=1,
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
    no_sites = np.zeros(0, dtype=np.intp)
    D = GradedOperator._monomial_built(space, no_sites, no_sites, np.zeros(0))
    return ModelDescriptor(
        name="mk", parameters={"k": k, "blocks": blocks, "seed": seed},
        D=D, H=H, rho_max=float("inf"), truncation_fraction=0.0,
        gap_bound=1.0, expected_class=rank,
    )


# ----------------------------------------------------------------------------
# random even Hamiltonians with controlled derivative norm
# ----------------------------------------------------------------------------


def random_lipschitz(D: GradedOperator, strength: float, seed: int,
                     block_width: float) -> GradedOperator:
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
            return GradedOperator(hm, space, parity="even", hermitian=True)
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

    # a model too large for memory fails at its first allocation, at once
    try:
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
            width = getf("width", base.rho_max / 8.0)
            if width <= 0:
                raise ModelArgumentError(f"random band width must be positive, "
                                         f"got {width}")
            desc = ModelDescriptor(
                name="random", parameters={"n": base.parameters["n"],
                                           "strength": strength, "seed": seed,
                                           "width": width},
                D=base.D, H=random_lipschitz(base.D, strength, seed, width),
                rho_max=base.rho_max, truncation_fraction=base.truncation_fraction,
                gap_bound=float("nan"),
            )
        else:
            raise ModelArgumentError(f"unknown model {name!r}")
    except MemoryError as exc:
        raise ModelArgumentError(f"model {spec_str!r} does not fit in memory: {exc}") from None
    if args:
        raise ModelArgumentError(f"unused model arguments: {sorted(args)}")
    return desc
