import numpy as np
import pytest

from localizer_lab import (
    gap,
    lipschitz_derivative,
    measure_constants,
    operator_norm,
    oscillator_dirac,
    parse_model,
    qwz_bloch,
    qwz_chern_model,
    mk_block_example,
    random_lipschitz,
)
from localizer_lab.errors import InternalConsistencyError
from localizer_lab.grading import _hermitize
from localizer_lab.models import (
    FLAT_TOL,
    _flat_band_defects,
    _flat_kernel,
    _hermitian_part,
    _qwz_hopping_loop,
    _qwz_kernel,
    _rho_max_from_guard,
    _spread,
    check_flat_band,
)


def spectral_width(D):
    """max(1, ||D||) / 8, the band width these draws were first pinned at."""
    return max(1.0, float(np.abs(D.eig().eigenvalues).max())) / 8.0


def test_oscillator_shapes_and_parities():
    desc = oscillator_dirac(40)
    assert desc.space.n_plus == 40
    assert desc.space.n_minus == 39
    assert desc.D.parity == "odd"
    assert desc.H.parity == "even"
    assert gap(desc.H) == pytest.approx(1.0)
    assert operator_norm(lipschitz_derivative(desc.D, desc.H)) == 0.0


def test_oscillator_spectrum_is_exact_square_roots():
    desc = oscillator_dirac(30)
    w = np.sort(np.abs(desc.D.eigenvalues()))
    # +-sqrt(k) for k = 1..n-1 plus the single zero mode
    expected = np.sort(np.concatenate([[0.0], np.repeat(np.sqrt(np.arange(1.0, 30.0)), 2)]))
    assert np.allclose(w, expected, atol=1e-12)
    assert np.sum(np.abs(desc.D.eigenvalues()) < 1e-10) == 1


def test_oscillator_truncation_guard_is_half_the_cut():
    desc = oscillator_dirac(40)
    lam_c = np.abs(desc.D.eigenvalues()).max()
    assert desc.rho_max == pytest.approx(lam_c / 2.0)
    # the guard proves no contaminated mode is visible below rho_max
    assert desc.truncation_fraction == 0.0


def test_qwz_bloch_hermitian_and_periodic():
    m = 1.0
    h = qwz_bloch(0.3, -1.1, m)
    assert h.shape == (2, 2)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(qwz_bloch(0.3 + 2 * np.pi, -1.1, m), h)


def test_qwz_model_structure():
    desc = qwz_chern_model(8, 1.0)
    assert desc.space.n_plus == desc.space.n_minus == 2 * 8 * 8
    assert desc.H.parity == "even"
    assert desc.D.parity == "odd"
    assert desc.n_occupied == 1
    assert desc.gap_bound > 0
    assert gap(desc.H) >= desc.gap_bound - 1e-9


def test_mk_block_example_rank_is_class():
    desc = mk_block_example(2, seed=7)
    p = (desc.H.matrix + np.eye(desc.space.n)) / 2.0
    assert np.allclose(p @ p, p, atol=1e-12)
    assert desc.expected_class == int(round(np.trace(p).real))
    assert operator_norm(desc.D) == 0.0


def test_random_lipschitz_derivative_is_controlled():
    base = oscillator_dirac(30)
    h = random_lipschitz(base.D, strength=0.02, seed=3,
                         block_width=spectral_width(base.D))
    assert h.parity == "even"
    assert h.hermitian
    d_norm = operator_norm(base.D)
    measured = operator_norm(lipschitz_derivative(base.D, h))
    # block-constant base contributes nothing; only the perturbation does
    assert measured <= 2.0 * 0.02 * 2.0 * d_norm
    assert gap(h) >= 0.1 * operator_norm(h) - 1e-12


def test_random_lipschitz_is_seeded():
    base = oscillator_dirac(20)
    width = spectral_width(base.D)
    a = random_lipschitz(base.D, 0.05, seed=11, block_width=width)
    b = random_lipschitz(base.D, 0.05, seed=11, block_width=width)
    c = random_lipschitz(base.D, 0.05, seed=12, block_width=width)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_parse_model_round_trips():
    desc = parse_model("oscillator:n=24")
    assert desc.name == "oscillator" and desc.parameters["n"] == 24
    desc = parse_model("qwz:L=8,m=3.0")
    assert desc.parameters == {"L": 8, "m": 3.0}
    desc = parse_model("mk:k=2,seed=5")
    assert desc.parameters["k"] == 2 and desc.parameters["seed"] == 5
    desc = parse_model("random:strength=0.01,seed=2")
    assert desc.name == "random"
    # the band width defaults to rho_max / 8 and is always reported
    assert desc.parameters == {"n": 40, "strength": 0.01, "seed": 2,
                               "width": desc.rho_max / 8.0}
    desc = parse_model("random:width=0.5")
    assert desc.parameters["width"] == 0.5
    assert desc.parameters != parse_model("random:").parameters


def test_parse_model_rejects_malformed():
    with pytest.raises(ValueError):
        parse_model("nosuchmodel:n=4")
    with pytest.raises(ValueError):
        parse_model("oscillator:n")
    with pytest.raises(ValueError):
        parse_model("oscillator:n=10,bogus=1")
    with pytest.raises(ValueError):
        parse_model("qwz:L=8")


def test_ladder_frame_is_the_analytic_one():
    n = 40
    desc = oscillator_dirac(n)
    # 0 on e_0 and +-sqrt(k) on (e_k +- e'_{k-1}) / sqrt(2), e' the negative sector
    eigs = np.zeros(desc.space.n)
    vecs = np.zeros((desc.space.n,) * 2, dtype=complex)
    vecs[0, 0] = 1.0
    s = 1.0 / np.sqrt(2.0)
    for k in range(1, n):
        for j, sign in ((2 * k - 1, 1.0), (2 * k, -1.0)):
            eigs[j] = sign * np.sqrt(k)
            vecs[k, j] = s
            vecs[n + k - 1, j] = sign * s
    order = np.argsort(eigs, kind="stable")
    dec = desc.D.eig()
    assert np.abs(dec.eigenvalues - eigs[order]).max() <= 1e-15
    assert np.abs(dec.vectors - vecs[:, order]).max() <= 1e-15


def boundary_ring(desc):
    """Indicator of the basis vectors a truncation touches, in both sectors."""
    if desc.name == "oscillator":
        ring = np.zeros(desc.space.n)
        ring[[desc.space.n_plus - 1, desc.space.n - 1]] = 1.0
        return ring
    L = desc.parameters["L"]
    xs = np.abs(np.arange(L) - (L - 1) / 2.0)
    site = (np.maximum(xs[:, None], xs[None, :]) >= (L - 1) / 2.0).ravel()
    return np.tile(np.repeat(site, 2), 2).astype(float)


@pytest.mark.parametrize("address", ["oscillator:n=2", "oscillator:n=3", "oscillator:n=40",
                                     "qwz:L=8,m=3.0", "qwz:L=9,m=3.0"])
def test_structural_guard_matches_dense_frame(address):
    desc = parse_model(address)
    dec = desc.D.eig()
    weights = (np.abs(dec.vectors) ** 2).T @ boundary_ring(desc)
    rho_max, fraction = _rho_max_from_guard(np.abs(dec.eigenvalues), weights)
    assert desc.rho_max == rho_max
    assert desc.truncation_fraction == fraction


def _spectral_width_draw():
    D = oscillator_dirac(40).D
    return random_lipschitz(D, 0.02, seed=1, block_width=spectral_width(D)), D


def _model_draw():
    desc = parse_model("random:strength=0.02,seed=1")
    return desc.H, desc.D


@pytest.mark.parametrize("draw,expected", [
    (_spectral_width_draw, 0.4793950471439405),
    (_model_draw, 0.2554139367242224),
], ids=["default_width", "model_width"])
def test_random_lipschitz_draw_is_pinned(draw, expected):
    # the draw is built on D's eigenframe, so it moves if the frame's phases do
    _, dh_norm, _, _, _ = measure_constants(*draw())
    assert dh_norm == pytest.approx(expected, rel=1e-12)


def eigh_hflat(L, m):
    """-sign(h) from the eigenframe of the hopping-loop h: 2 P_occ - 1."""
    ew, ev = np.linalg.eigh(_qwz_hopping_loop(L, m))
    n_occ = int((ew < 0).sum())
    assert n_occ == L * L
    occ = ev[:, :n_occ]
    hflat = 2.0 * (occ @ occ.conj().T) - np.eye(2 * L * L)
    return (hflat + hflat.conj().T) / 2.0


@pytest.mark.parametrize("L", [8, 9, 12])
@pytest.mark.parametrize("m", [1.0, -1.0, 3.0])
def test_fft_hflat_matches_the_eigenframe_route(L, m):
    desc = qwz_chern_model(L, m)
    ref = eigh_hflat(L, m)
    assert np.abs(desc.H.block("+", "+") - ref).max() <= 1e-13
    assert np.array_equal(desc.H.block("+", "+"), desc.H.block("-", "-"))
    assert np.array_equal(desc.H.eigenvalues(),
                          np.repeat([-1.0, 1.0], 2 * L * L))


def test_kernel_spread_is_the_hopping_loop():
    for L, m in ((8, 1.0), (9, -2.5)):
        assert np.array_equal(_spread(_qwz_kernel(L, m)), _qwz_hopping_loop(L, m))


def slip_kernel(kernel):
    """The forward transform in place of the inverse: the kernel at -d, still
    flat and half filled, but not a function of h."""
    L = kernel.shape[0]
    hk = np.fft.fft2(kernel, axes=(0, 1))
    energy = np.sqrt(np.sum(np.abs(hk) ** 2, axis=(-2, -1)) / 2.0)
    return _hermitian_part(np.fft.fft2(-hk / energy[..., None, None], axes=(0, 1)) / L**2)


def test_flat_band_check_refuses_each_failure():
    L, m = 8, 1.0
    kernel = _qwz_kernel(L, m)
    check_flat_band(kernel, _flat_kernel(kernel))
    with pytest.raises(InternalConsistencyError, match="commute"):
        check_flat_band(kernel, slip_kernel(kernel))
    with pytest.raises(InternalConsistencyError, match="involution"):
        check_flat_band(kernel, kernel)
    identity = np.zeros_like(kernel)
    identity[0, 0] = np.eye(2)
    with pytest.raises(InternalConsistencyError, match="half filling"):
        check_flat_band(kernel, identity)


@pytest.mark.parametrize("L", [8, 9, 12])
def test_flat_band_defects_match_the_dense_norms(L):
    kernel = _qwz_kernel(L, 1.0)
    h = _spread(kernel)
    for flat in (_flat_kernel(kernel), slip_kernel(kernel), kernel):
        hflat = _spread(flat)
        dense = (np.linalg.norm(hflat @ hflat - np.eye(len(h))),
                 np.linalg.norm(h @ hflat - hflat @ h),
                 np.linalg.norm(h), np.trace(hflat).real)
        # the flat kernel's defects are roundoff, far below FLAT_TOL, and
        # agree only to that absolute level; the others are O(||h||_F)
        for got, want in zip(_flat_band_defects(kernel, flat), dense):
            assert got == pytest.approx(want, rel=1e-12, abs=FLAT_TOL / 100)


@pytest.mark.parametrize("L", [8, 11, 16])
def test_hermitized_kernel_spreads_to_the_hermitized_matrix(L):
    kernel = _qwz_kernel(L, 1.0)
    hk = np.fft.fft2(kernel, axes=(0, 1))
    energy = np.sqrt(np.sum(np.abs(hk) ** 2, axis=(-2, -1)) / 2.0)
    raw = np.fft.ifft2(-hk / energy[..., None, None], axes=(0, 1))
    assert np.array_equal(_spread(_flat_kernel(kernel)), _hermitize(_spread(raw)))

