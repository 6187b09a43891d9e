import math
import tracemalloc

import numpy as np
import pytest

from localizer_lab import (
    GradedOperator,
    GradedSpace,
    LocalizerParams,
    assemble_localizer,
    choose_params,
    constant_C,
    default_localizer,
    gap,
    lipschitz_derivative,
    operator_norm,
    oscillator_dirac,
    parse_model,
    sharp_localizer,
    signature,
)
import localizer_lab.grading as grading
from localizer_lab.localizer import (
    certificate_residual,
    measure_constants,
    square_residuals,
    support_residual,
)
from localizer_lab.errors import AdmissibilityError, ParityError, SpectralCutError
from localizer_lab.verification import (
    random_even_invertible,
    random_odd,
    random_space,
    zoo_instances,
)

PHI = default_localizer()


def is_diagonal(m):
    """Whether every off-diagonal entry of the square m is exactly zero."""
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def dense_instance(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, max_side=12)
    H = random_even_invertible(rng, space)
    D = random_odd(rng, space)
    return H, D


# ---------------------------------------------------------------------------
# parameter arithmetic, frozen from the admissibility inequality
# ---------------------------------------------------------------------------


def test_make_params_worked_example_admissible():
    p = LocalizerParams(kappa=0.25, rho=64.0, gap=1.0, dH_norm=1.0,
                        c_phi=16.0, h_norm=1.0)
    assert p.C_kr == pytest.approx(0.5)
    assert p.admissible
    assert p.certified_lower_bound() == pytest.approx(0.5)


def test_make_params_worked_example_not_admissible():
    p = LocalizerParams(kappa=0.25, rho=4.0, gap=1.0, dH_norm=1.0,
                        c_phi=16.0, h_norm=1.0)
    assert p.C_kr == pytest.approx(4.25)
    assert not p.admissible
    with pytest.raises(AdmissibilityError,
                       match=r"^where: C = 4\.25 >= gap\^2 = 1 and "
                             r"C = 4\.25 >= kappa\^2 rho\^2 / 4 = 0\.25$"):
        p.require_admissible("where")


def test_make_params_commuting_case_always_admissible():
    for kappa, rho in [(0.01, 0.01), (1.0, 1.0), (100.0, 3.0)]:
        p = LocalizerParams(kappa, rho, gap=0.7, dH_norm=0.0, c_phi=16.0,
                            h_norm=2.0)
        assert p.C_kr == 0.0
        assert p.admissible


def test_make_params_rejects_bad_scales():
    with pytest.raises(ValueError):
        LocalizerParams(0.0, 1.0, 1.0, 1.0, 16.0, 1.0)
    with pytest.raises(ValueError):
        LocalizerParams(1.0, -2.0, 1.0, 1.0, 16.0, 1.0)


def test_params_hold_python_floats_and_derive_c():
    p = LocalizerParams(np.float64(0.25), np.float64(64.0), np.float64(1.0),
                        np.float64(1.0), np.float64(16.0), np.int64(1))
    for value in (p.kappa, p.rho, p.gap, p.dH_norm, p.c_phi, p.h_norm, p.C_kr):
        assert type(value) is float
    assert type(p.admissible) is bool
    # the sweep CSV prints with !r: a numpy scalar would show as np.float64(...)
    assert repr(p.C_kr) == "0.5"
    for derived in ("C_kr", "admissible"):
        with pytest.raises(TypeError):
            LocalizerParams(0.25, 64.0, 1.0, 1.0, 16.0, 1.0, **{derived: 0.5})


def test_selection_formula_instance_is_admissible():
    # kappa = g^2/(2 dh) = 5, rho = 1.1 * max(2g/kappa, c dh h/(g^2 - kappa dh))
    # = 1.1 * max(0.4, 3.2) = 3.52 for g=1, h=1, dh=0.1, c=16
    p = LocalizerParams(kappa=5.0, rho=3.52, gap=1.0, dH_norm=0.1,
                        c_phi=16.0, h_norm=1.0)
    assert p.admissible
    assert p.C_kr == pytest.approx((5.0 + 16.0 / 3.52) * 0.1)


def test_constant_c_measures_operator_constants():
    H, D = dense_instance(21)
    p = constant_C(0.7, 1.3, H, D, PHI)
    expected = LocalizerParams(0.7, 1.3, gap(H),
                               operator_norm(lipschitz_derivative(D, H)),
                               PHI.c_phi, operator_norm(H))
    assert p == expected


def test_choose_params_returns_admissible():
    for seed in range(6):
        H, D = dense_instance(100 + seed)
        p = choose_params(H, D, PHI)
        assert p.admissible
        assert p.kappa > 0 and p.rho > 0


def test_choose_params_commuting_branch():
    osc = oscillator_dirac(30)
    p = choose_params(osc.H, osc.D, PHI)
    assert p.dH_norm == 0.0
    assert p.kappa == 1.0
    assert p.rho == pytest.approx(max(1.0, operator_norm(osc.D)) / 2.0)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembled_localizer_is_hermitian_full_parity():
    H, D = dense_instance(41)
    p = constant_C(0.8, 0.9 * operator_norm(D), H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, p)
    L = bundle.L.matrix
    assert np.array_equal(L, L.conj().T)
    assert not bundle.phi_identity


def test_identity_fast_path_matches_direct_formula():
    H, D = dense_instance(42)
    kappa = 0.5
    rho = 2.0 * operator_norm(D) + 1.0
    p = constant_C(kappa, rho, H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, p)
    assert bundle.phi_identity
    g = H.space.gamma_diag
    direct = g[:, None] * H.matrix + kappa * D.matrix
    assert np.allclose(bundle.L.matrix, direct, atol=1e-14)


def test_windows_obey_product_identities():
    H, D = dense_instance(43)
    rho = 0.6 * operator_norm(D)
    p = constant_C(0.9, rho, H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, p)
    assert not bundle.phi_identity
    pr = bundle.Phi_rho.matrix
    p2 = bundle.Phi_2rho.matrix
    # phi(x/2)^2 phi(x) = phi(x) transfers to the operators exactly
    assert operator_norm(p2 @ p2 @ pr - pr) < 1e-12


def test_residuals_small_on_dense_instance():
    H, D = dense_instance(44)
    rho = 0.8 * operator_norm(D)
    p = constant_C(0.75, rho, H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, p)
    square, lower = square_residuals(bundle, H, D)
    assert square < 1e-12
    assert lower > -1e-12
    assert support_residual(bundle, D) < 1e-12


def _identity_window_bundle():
    mk = parse_model("mk:k=2,seed=0")
    return mk.H, mk.D, assemble_localizer(mk.H, mk.D, PHI,
                                          choose_params(mk.H, mk.D, PHI))


def _windowed_bundle():
    osc = oscillator_dirac(40)
    p = constant_C(0.5, 4.0, osc.H, osc.D, PHI)
    return osc.H, osc.D, assemble_localizer(osc.H, osc.D, PHI, p)


def _dense_windowed_bundle():
    # [D, H] != 0, so the commutator terms of the expansion are exercised
    H, D = dense_instance(44)
    p = constant_C(0.75, 0.8 * operator_norm(D), H, D, PHI)
    return H, D, assemble_localizer(H, D, PHI, p)


def _sharp_bundle():
    osc = oscillator_dirac(40)
    return osc.H, osc.D, sharp_localizer(osc.H, osc.D, 2.5, 0.5, PHI)


RESIDUAL_CASES = pytest.mark.parametrize("make, identity", [
    (_identity_window_bundle, True),
    (_windowed_bundle, False),
    (_dense_windowed_bundle, False),
    (_sharp_bundle, False),
], ids=["identity_window", "windowed", "dense_windowed", "sharp"])


def _block_formulas(bundle, H, D):
    """The expansion and RHS written out per parity block, from slices of
    the dense matrices: (square, lower) in the order of square_residuals."""
    p, identity = bundle.params, bundle.phi_identity
    k, n = bundle.space.n_plus, bundle.space.n
    span = {"+": slice(0, k), "-": slice(k, n)}

    def cell(m, r, c):
        return m[span[r], span[c]]

    lsq = bundle.L.matrix @ bundle.L.matrix
    hm, dm = H.matrix, D.matrix
    b = cell(dm, "-", "+")
    # [D, H] gamma from the positive to the negative sector, where gamma is 1
    odd = b @ cell(hm, "+", "+") - cell(hm, "-", "-") @ b
    if not identity:
        pr, p2 = bundle.Phi_rho.matrix, bundle.Phi_2rho.matrix
        odd = cell(pr, "-", "-") @ (odd @ cell(pr, "+", "+"))
    odd = p.kappa * odd
    # the expansion is hermitian: its upper odd block is the lower one's adjoint
    norms = [np.linalg.norm(cell(lsq, "-", "+") - odd),
             np.linalg.norm(cell(lsq, "+", "-") - odd.conj().T)]
    shifted = lsq.copy()
    for s in "+-":
        h = cell(hm, s, s)
        eye = np.eye(h.shape[0], dtype=complex)
        d2 = b.conj().T @ b if s == "+" else b @ b.conj().T
        if identity:
            expansion = p.kappa**2 * d2 + h @ h
            bound = (p.gap**2 - p.C_kr) * eye
        else:
            prs, p2s = cell(pr, s, s), cell(p2, s, s)
            p2q = (p2s @ p2s) @ (p2s @ p2s)
            prsq = prs @ prs
            prq = prsq @ prsq
            comm = prs @ h - h @ prs
            double = (prs @ h) @ comm - comm @ (prs @ h)
            expansion = (eye - p2q + p.kappa**2 * (d2 @ p2q)
                         + prsq @ (h @ h) @ prsq + prs @ double @ prs)
            bound = (eye - p2q
                     + (p.kappa**2 * p.rho**2 / 4.0 - p.C_kr) * (p2q - prq)
                     + (p.gap**2 - p.C_kr) * prq)
        norms.append(np.linalg.norm(cell(lsq, s, s) - expansion))
        cell(shifted, s, s)[...] -= bound
    square = math.hypot(*norms) / max(1.0, np.linalg.norm(lsq))
    return float(square), float(np.linalg.eigvalsh(shifted)[0])


def _dense_formulas(bundle, H, D):
    """The expansion and RHS as whole n x n matrices: (square, lower)."""
    p = bundle.params
    g = bundle.space.gamma_diag[None, :]
    hm, dm = H.matrix, D.matrix
    eye = np.eye(bundle.space.n, dtype=complex)
    lsq = bundle.L.matrix @ bundle.L.matrix
    dh = dm @ hm - hm @ dm
    if bundle.phi_identity:
        # Phi_rho = Phi_2rho = 1: L^2 = kappa^2 D^2 + H^2 + kappa [D,H] gamma
        expansion = p.kappa**2 * (dm @ dm) + hm @ hm + p.kappa * (dh * g)
        bound = (p.gap**2 - p.C_kr) * eye
    else:
        pr, p2 = bundle.Phi_rho.matrix, bundle.Phi_2rho.matrix
        p2q = np.linalg.matrix_power(p2, 4)
        prq = np.linalg.matrix_power(pr, 4)
        prsq = pr @ pr
        comm = pr @ hm - hm @ pr
        double = (pr @ hm) @ comm - comm @ (pr @ hm)
        expansion = (eye - p2q + p.kappa**2 * (dm @ dm @ p2q)
                     + prsq @ (hm @ hm) @ prsq
                     + p.kappa * (pr @ ((dh * g) @ pr))
                     + pr @ double @ pr)
        bound = (eye - p2q
                 + (p.kappa**2 * p.rho**2 / 4.0 - p.C_kr) * (p2q - prq)
                 + (p.gap**2 - p.C_kr) * prq)
    square = np.linalg.norm(lsq - expansion) / max(1.0, np.linalg.norm(lsq))
    lower = np.linalg.eigvalsh(lsq - bound)[0]
    return float(square), float(lower), float(np.linalg.norm(lsq))


@RESIDUAL_CASES
def test_square_residuals_match_the_written_out_formulas(make, identity):
    H, D, bundle = make()
    assert bundle.phi_identity == identity
    assert square_residuals(bundle, H, D) == _block_formulas(bundle, H, D)


@RESIDUAL_CASES
def test_square_residuals_agree_with_the_dense_formulas(make, identity):
    # the whole n x n expansion differs from the per-block one by roundoff
    # alone; lower is an eigenvalue of L^2 - RHS, so its tolerance scales
    # with ||L^2||
    H, D, bundle = make()
    square, lower = square_residuals(bundle, H, D)
    dense_square, dense_lower, lsq_norm = _dense_formulas(bundle, H, D)
    assert abs(square - dense_square) <= 1e-14
    assert abs(lower - dense_lower) <= 1e-13 * max(1.0, lsq_norm)


def _zoo_qwz_bundle():
    qwz = parse_model("qwz:L=10,m=3.0")
    H, D = qwz.H, qwz.D
    return H, D, assemble_localizer(H, D, PHI, choose_params(H, D, PHI))


@pytest.mark.parametrize("make", [_zoo_qwz_bundle, _windowed_bundle],
                         ids=["qwz_zoo", "oscillator_windowed"])
def test_square_residuals_form_no_matrix_of_h_d_or_the_windows(make):
    # the expansion is formed from sector blocks, so the operators that a
    # suite keeps for its whole run hold no n x n matrix afterwards
    H, D, bundle = make()
    square_residuals(bundle, H, D)
    windows = [] if bundle.phi_identity else [bundle.Phi_rho, bundle.Phi_2rho]
    assert all(op._matrix is None for op in [H, D, *windows])


def test_square_residuals_refuse_an_h_without_parity():
    # the expansion is formed per parity block, which an unlabelled H
    # would not fill
    H, D, bundle = _dense_windowed_bundle()
    unlabelled = GradedOperator(H.matrix, H.space, parity="none", hermitian=True)
    with pytest.raises(ParityError):
        square_residuals(bundle, unlabelled, D)


def test_square_residuals_peak_stays_within_four_square_arrays():
    # L, L^2 and eigvalsh's copy of L^2 - RHS are the n x n arrays; the
    # sector-block temporaries are each a quarter of one
    H, D, bundle = _zoo_qwz_bundle()
    assert bundle.phi_identity
    n = bundle.space.n
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        square_residuals(bundle, H, D)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 16


def test_certificate_holds_when_admissible():
    osc = oscillator_dirac(40)
    p = constant_C(0.5, 4.0, osc.H, osc.D, PHI)
    assert p.admissible
    bundle = assemble_localizer(osc.H, osc.D, PHI, p)
    assert certificate_residual(bundle) > -1e-9
    assert bundle.min_abs_eigenvalue**2 >= p.certified_lower_bound() - 1e-9


def test_eigenvalues_sorted_and_consistent():
    H, D = dense_instance(45)
    p = constant_C(1.1, operator_norm(D), H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, p)
    w = bundle.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert bundle.min_abs_eigenvalue == pytest.approx(np.abs(w).min())


# ---------------------------------------------------------------------------
# hard spectral cut
# ---------------------------------------------------------------------------


def test_sharp_matches_smooth_signature_on_oscillator():
    osc = oscillator_dirac(40)
    p = choose_params(osc.H, osc.D, PHI)
    smooth = assemble_localizer(osc.H, osc.D, PHI, p)
    sharp = sharp_localizer(osc.H, osc.D, p.rho, p.kappa, PHI)
    assert not sharp.phi_identity
    s1 = signature(smooth.eigenvalues).signature
    s2 = signature(sharp.eigenvalues).signature
    assert s1 == s2


@pytest.mark.parametrize("kappa", [0.5, 2.0])
@pytest.mark.parametrize("rho", [2.5, 3.5, 5.5])
def test_sharp_cut_through_the_one_assembly_matches_hard_cut_formula(rho, kappa):
    # windows are active: the ladder spectrum sqrt(k), k < 40, straddles rho
    osc = oscillator_dirac(40)
    H, D = osc.H, osc.D
    p = constant_C(kappa, rho, H, D, PHI)
    sharp = sharp_localizer(H, D, rho, kappa, PHI)
    assert sharp.params == p
    assert not sharp.phi_identity

    dec = D.eig()
    u = dec.vectors
    P = (u * (np.abs(dec.eigenvalues) < rho)) @ u.conj().T
    g = H.space.gamma_diag[:, None]
    eye = np.eye(H.space.n)
    expected = g * (P @ H.matrix @ P - (eye - P)) + kappa * (P @ D.matrix @ P)
    L = sharp.L.matrix
    assert np.abs(L - expected).max() <= 1e-12 * np.linalg.norm(L, 2)
    assert support_residual(sharp, D) <= 1e-12

    smooth = assemble_localizer(H, D, PHI, p)
    assert not smooth.phi_identity
    assert signature(sharp.eigenvalues).signature == \
        signature(smooth.eigenvalues).signature


def test_sharp_refuses_cut_through_spectrum():
    osc = oscillator_dirac(20)
    w = np.abs(osc.D.eigenvalues())
    on_eig = float(w[np.argmin(np.abs(w - np.median(w)))])
    with pytest.raises(SpectralCutError):
        sharp_localizer(osc.H, osc.D, on_eig, 1.0, PHI)


@pytest.mark.parametrize("rho", [2.5, 100.0])
def test_assembly_refuses_an_h_that_is_not_even(rho):
    # rho = 2.5 takes the windowed branch, rho = 100 the identity-window one
    osc = oscillator_dirac(20)
    h = GradedOperator(osc.H.matrix, osc.H.space, parity="none", hermitian=True)
    params = constant_C(1.0, rho, osc.H, osc.D, PHI)
    assert assemble_localizer(osc.H, osc.D, PHI, params).phi_identity == (rho > 50)
    with pytest.raises(ParityError):
        assemble_localizer(h, osc.D, PHI, params)


# ---------------------------------------------------------------------------
# eigenbasis route against the site-basis formula
# ---------------------------------------------------------------------------


def site_basis_localizer(H, D, kappa, inner, outer):
    """Phi_in gamma H Phi_in + kappa Phi_out D Phi_out - (1 - Phi_out^4)^(1/2) gamma
    in the site basis, each function of D from an independent dense eigh."""
    w, u = np.linalg.eigh(D.matrix)

    def of_d(values):
        return (u * values) @ u.conj().T

    g = H.space.gamma_diag
    f_out = np.asarray(outer(w), dtype=float)
    p_in, p_out = of_d(np.asarray(inner(w), dtype=float)), of_d(f_out)
    tail = of_d(np.sqrt(np.clip(1.0 - f_out**4, 0.0, None)))
    lm = (p_in @ (g[:, None] * H.matrix) @ p_in
          + kappa * (p_out @ D.matrix @ p_out) - tail * g[None, :])
    return (lm + lm.conj().T) / 2.0


def odd_with_singular_values(space, sv, seed):
    rng = np.random.default_rng(seed)
    q_minus, _ = np.linalg.qr(rng.normal(size=(space.n_minus,) * 2)
                              + 1j * rng.normal(size=(space.n_minus,) * 2))
    q_plus, _ = np.linalg.qr(rng.normal(size=(space.n_plus,) * 2)
                             + 1j * rng.normal(size=(space.n_plus,) * 2))
    s = np.zeros((space.n_minus, space.n_plus))
    s[np.diag_indices(len(sv))] = sv
    return GradedOperator.odd_from_block(space, q_minus @ s @ q_plus.conj().T)


def dense_sized(n_plus, n_minus, seed):
    rng = np.random.default_rng(seed)
    space = GradedSpace(n_plus, n_minus)
    return random_even_invertible(rng, space), random_odd(rng, space)


def degenerate_pair():
    # repeated singular values 1, 1, 1, 2, 2 and a three-dimensional kernel
    space = GradedSpace(5, 8)
    H = random_even_invertible(np.random.default_rng(7), space)
    return H, odd_with_singular_values(space, [2.0, 2.0, 1.0, 1.0, 1.0], 8)


def oscillator_pair():
    osc = oscillator_dirac(40)
    return osc.H, osc.D


def phased_pair():
    # complex phases in D's monomial frame, and an H that is dense in it
    D = monomial_pair(14, 20, 84)[1]
    return random_even_invertible(np.random.default_rng(85), D.space), D


def window_support(D, rho):
    return np.asarray(PHI.scaled(2.0 * rho)(D.eigenvalues())) > 0.0


ROUTE_CASES = {
    # (H, D), kappa, rho / ||D||, whether supp Phi_2rho holds all of spec D
    "dense_n_plus_larger": (lambda: dense_sized(9, 5, 61), 0.8, 0.2, False),
    "dense_n_minus_larger": (lambda: dense_sized(4, 11, 62), 1.3, 0.2, False),
    "oscillator_part": (oscillator_pair, 0.5, 1.0 / 6.3, False),
    "oscillator_all": (oscillator_pair, 1.0, 4.0 / 6.3, True),
    "degenerate_sigma": (degenerate_pair, 0.9, 0.3, False),
    "phased_dense_h": (phased_pair, 0.7, 0.2, False),
}


def assert_route_matches(bundle, reference):
    ref_eigs = np.linalg.eigvalsh(reference)
    scale = np.abs(ref_eigs).max()
    assert not bundle.phi_identity
    assert np.abs(bundle.eigenvalues - ref_eigs).max() <= 1e-12 * scale
    assert signature(bundle.eigenvalues).signature == signature(ref_eigs).signature
    assert np.abs(bundle.L.matrix - reference).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_eigenbasis_route_matches_site_basis_formula(case):
    build, kappa, rho_rel, covers_all = ROUTE_CASES[case]
    H, D = build()
    rho = rho_rel * operator_norm(D)
    assert bool(np.all(window_support(D, rho))) == covers_all
    bundle = assemble_localizer(H, D, PHI, constant_C(kappa, rho, H, D, PHI))
    assert_route_matches(bundle, site_basis_localizer(
        H, D, kappa, PHI.scaled(rho), PHI.scaled(2.0 * rho)))


def test_eigenbasis_route_matches_site_basis_formula_on_a_hard_cut():
    osc = oscillator_dirac(40)
    rho, kappa = 2.5, 0.5

    def cut(x):
        return (np.abs(x) < rho).astype(float)

    bundle = sharp_localizer(osc.H, osc.D, rho, kappa, PHI)
    assert_route_matches(bundle, site_basis_localizer(osc.H, osc.D, kappa, cut, cut))


# ---------------------------------------------------------------------------
# the block outside the window
# ---------------------------------------------------------------------------


FRAME_CASES = {
    "n_plus_larger": lambda: dense_sized(9, 5, 71)[1],
    "n_minus_larger": lambda: dense_sized(4, 11, 72)[1],
    "balanced_rank_deficient": lambda: odd_with_singular_values(
        GradedSpace(6, 6), [3.0, 1.0, 1.0, 0.0], 73),
    "degenerate_sigma": lambda: degenerate_pair()[1],
}


def sector_basis(D):
    """U = diag(V, W) from the SVD W S V^H of D's odd block."""
    v, w_left, _ = D.eig().svd
    k = D.space.n_plus
    u = np.zeros((D.space.n,) * 2, dtype=complex)
    u[:k, :k] = v
    u[k:, k:] = w_left
    return u


def assert_window_products(H, D):
    """On every column and on a scattered window of each sector: compress
    matches basis_S^H H_s basis_S and is hermitian bit-exactly, columns is
    diag(V, W) on S, and compress_diagonal gives the products' diagonals
    exactly when the one pair rule holds (a monomial frame and both sectors
    of H built from their diagonals), else None."""
    dec = D.eig()
    v, w_left, _ = dec.svd
    k, scale = D.space.n_plus, operator_norm(H)
    paired = dec.monomial is not None and all(
        grading._even_diagonal(H, s) is not None for s in "+-")
    for start, step in ((0, 1), (1, 3)):
        s_plus = np.arange(start, k, step)
        s_minus = np.arange(start, D.space.n_minus, step)
        blocks = dec.compress(H, s_plus, s_minus)
        for blk, basis, sector, cols in zip(blocks, (v, w_left), "+-", (s_plus, s_minus)):
            u_s = basis[:, cols]
            h = H.block(sector, sector)
            assert np.abs(blk - u_s.conj().T @ h @ u_s).max() <= 1e-13 * scale
            assert np.array_equal(blk, blk.conj().T)
        u = np.zeros((D.space.n, len(s_plus) + len(s_minus)), dtype=complex)
        u[:k, :len(s_plus)], u[k:, len(s_plus):] = v[:, s_plus], w_left[:, s_minus]
        assert np.array_equal(dec.columns(s_plus, s_minus), u)
        diag = dec.compress_diagonal(H, s_plus, s_minus)
        if paired:
            assert all(is_diagonal(blk) for blk in blocks)
            assert np.array_equal(diag, np.concatenate([np.diagonal(b) for b in blocks]))
        else:
            assert diag is None


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_odd_frame_pairs_and_sector_products(case):
    D = FRAME_CASES[case]()
    dec = D.eig()
    v, w_left, sv = dec.svd
    k, n, r = D.space.n_plus, D.space.n, len(sv)
    u = dec.vectors
    assert np.abs(D.matrix @ u - u * dec.eigenvalues).max() <= 1e-13 * operator_norm(D)
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14

    # unsorted: the pair -+sigma_i is (v_i; -+w_i) / sqrt(2) at columns i and
    # n - r + i; the kernel between them is the unpaired columns of V or W
    unsorted = np.empty_like(u)
    unsorted[:, dec.order] = u
    pair = np.vstack([v[:, :r], w_left[:, :r]]) / np.sqrt(2.0)
    g = D.space.gamma_diag
    assert np.abs(unsorted[:, n - r:] - pair).max() <= 1e-15
    assert np.abs(unsorted[:, :r] - g[:, None] * pair).max() <= 1e-15
    kernel = np.zeros((n, n - 2 * r), dtype=complex)
    kernel[:k, :k - r] = v[:, r:]
    kernel[k:, :n - k - r] = w_left[:, r:]
    assert np.array_equal(unsorted[:, r:n - r], kernel)

    # gamma stays diagonal: diag(V, W) is block diagonal and unitary
    ut = sector_basis(D)
    assert np.abs(ut.conj().T @ (g[:, None] * ut) - np.diag(g)).max() <= 1e-14

    # an even H on a window S of the sector basis is the two sector products
    # V_S^H H_+ V_S and W_S^H H_- W_S, each hermitian bit-exactly
    assert dec.monomial is None
    H = random_even_invertible(np.random.default_rng(74), D.space)
    assert_window_products(H, D)


WINDOW_CASES = {
    **{case: ROUTE_CASES[case] for case in (
        "dense_n_plus_larger", "dense_n_minus_larger", "oscillator_part",
        "degenerate_sigma")},
    "balanced_rank_deficient": (lambda: (
        random_even_invertible(np.random.default_rng(75), GradedSpace(6, 6)),
        FRAME_CASES["balanced_rank_deficient"]()), 0.7, 0.2, False),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_outside_the_window_the_localizer_is_minus_gamma(case):
    build, kappa, rho_rel, _ = WINDOW_CASES[case]
    H, D = build()
    rho = rho_rel * operator_norm(D)
    bundle = assemble_localizer(H, D, PHI, constant_C(kappa, rho, H, D, PHI))
    s_plus, s_minus, _ = bundle._window
    k, n = D.space.n_plus, D.space.n
    support = np.concatenate([s_plus, k + s_minus])
    out = np.setdiff1d(np.arange(n), support)
    assert len(out) > 0

    # in diag(V, W), L + gamma vanishes off S, so it does not couple S to the rest
    ut = sector_basis(D)
    g = D.space.gamma_diag
    lt = ut.conj().T @ (bundle.L.matrix + np.diag(g)) @ ut
    scale = np.abs(bundle.eigenvalues).max()
    assert np.abs(lt[out]).max() <= 1e-12 * scale
    assert np.abs(lt[:, out]).max() <= 1e-12 * scale

    # the spectrum is that of L_S plus exactly n_+ - |S_+| copies of -1 and
    # n_- - |S_-| copies of +1
    w = bundle.eigenvalues
    for value, count in ((-1.0, k - len(s_plus)), (1.0, n - k - len(s_minus))):
        at = np.flatnonzero(w == value)
        assert len(at) >= count
        w = np.delete(w, at[:count])
    l_s = lt[np.ix_(support, support)] - np.diag(g[support])
    assert np.abs(w - np.linalg.eigvalsh(l_s)).max() <= 1e-12 * scale
    assert bundle.min_abs_eigenvalue == min(1.0, float(np.abs(w).min()))


# ---------------------------------------------------------------------------
# pair blocks of an H that is diagonal in D's sector basis
# ---------------------------------------------------------------------------


def spy_eigvalsh(monkeypatch):
    """Record (argument, result) of every numpy.linalg.eigvalsh call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def wrapped(m, *args, **kwargs):
        out = eigvalsh(m, *args, **kwargs)
        calls.append((np.array(m), out))
        return out
    monkeypatch.setattr(np.linalg, "eigvalsh", wrapped)
    return calls


def monomial_pair(n_plus, n_minus, seed):
    """A monomial D with a zero entry and an H that is diagonal, both signs,
    so diagonal in D's sector basis too: unpaired columns on both sides."""
    rng = np.random.default_rng(seed)
    space = GradedSpace(n_plus, n_minus)
    m = min(n_plus, n_minus) - 1
    rows, cols = rng.permutation(n_minus)[:m], rng.permutation(n_plus)[:m]
    z = rng.uniform(0.5, 6.0, size=m) * np.exp(2j * np.pi * rng.uniform(size=m))
    h = rng.choice([-1.0, 1.0], size=space.n) * rng.uniform(0.5, 2.0, size=space.n)
    H = GradedOperator._diagonal_built(space, h[:n_plus], h[n_plus:])
    return H, GradedOperator._monomial_built(space, rows, cols, z)


def ladder_pair(n):
    osc = oscillator_dirac(n)
    return osc.H, osc.D


PAIR_CASES = {
    # (H, D), the rho of a sweep grid; kappa runs over 0.5, 1, 2
    "ladder40": (lambda: ladder_pair(40), (1.0, 2.0, 4.0)),
    "ladder120": (lambda: ladder_pair(120), (2.0, 4.0, 8.0)),
    "n_minus_larger": (lambda: monomial_pair(14, 20, 81), (0.5, 1.0, 2.0)),
    "n_plus_larger": (lambda: monomial_pair(20, 14, 82), (0.5, 1.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_pair_route_matches_dense_eigvalsh_of_L(case, monkeypatch):
    build, rhos = PAIR_CASES[case]
    H, D = build()
    gap_h, dh, h_norm, _, _ = measure_constants(H, D)
    calls = spy_eigvalsh(monkeypatch)
    for kappa in (0.5, 1.0, 2.0):
        for rho in rhos:
            calls.clear()
            params = LocalizerParams(kappa, rho, gap_h, dh, PHI.c_phi, h_norm)
            bundle = assemble_localizer(H, D, PHI, params)
            assert not bundle.phi_identity and bundle.eig_error == 0.0
            # one stacked call on the (|pairs|, 2, 2) blocks, nothing dense
            (arg, _), = calls
            assert arg.ndim == 3 and arg.shape[1:] == (2, 2)
            ref = np.linalg.eigvalsh(bundle.L.matrix)
            scale = np.abs(ref).max()
            assert np.abs(bundle.eigenvalues - ref).max() <= 1e-12 * scale
            assert signature(bundle.eigenvalues).signature == signature(ref).signature


PHASED_CASES = {
    "qwz": lambda: parse_model("qwz:L=8,m=3.0").D,
    "scattered": lambda: monomial_pair(14, 20, 83)[1],
}


@pytest.mark.parametrize("case", sorted(PHASED_CASES))
def test_phased_frame_compresses_a_dense_h_by_gathers(case, monkeypatch):
    D = PHASED_CASES[case]()
    (_, v_val), (_, w_val) = D.eig().monomial
    assert np.all(v_val == 1.0) and np.any(w_val.imag != 0.0)
    H = random_even_invertible(np.random.default_rng(76), D.space)
    assert not is_diagonal(H.block("+", "+")) and not is_diagonal(H.block("-", "-"))

    def no_hermitize(m):
        raise AssertionError("a phased frame needs no hermitization")
    monkeypatch.setattr(grading, "_hermitize", no_hermitize)
    assert_window_products(H, D)


def test_non_commuting_h_on_the_ladder_takes_the_dense_route(monkeypatch):
    desc = parse_model("random:n=40,seed=1")
    H, D = desc.H, desc.D
    v = D.eig().svd[0]
    h_plus = v.conj().T @ H.block("+", "+") @ v
    assert np.count_nonzero(h_plus) > np.count_nonzero(np.diagonal(h_plus))
    params = constant_C(0.5, 2.0, H, D, PHI)
    calls = spy_eigvalsh(monkeypatch)
    bundle = assemble_localizer(H, D, PHI, params)
    (block, values), = calls
    s_plus, s_minus, l_s_plus_gamma = bundle._window
    a, b = len(s_plus), len(s_minus)
    assert block.shape == (a + b, a + b)
    # the block sent to eigvalsh is L_S: the window keeps L_S + gamma_S
    block[np.diag_indices(a + b)] += np.concatenate([np.ones(a), -np.ones(b)])
    assert np.array_equal(block, l_s_plus_gamma)
    k, n = D.space.n_plus, D.space.n
    expected = np.sort(np.concatenate([values, -np.ones(k - a), np.ones(n - k - b)]))
    assert np.array_equal(bundle.eigenvalues, expected)


# ---------------------------------------------------------------------------
# the lazy frame and the compact pair route against the eager formulas
# ---------------------------------------------------------------------------


def eager_frames(dec):
    """V and W formed at once from the monomial frame: column j is val[j] e_(idx[j])."""
    frames = []
    for idx, val in dec.monomial:
        m = np.zeros((len(idx), len(idx)), dtype=complex)
        m[idx, np.arange(len(idx))] = val
        frames.append(m)
    return frames


def eager_vectors(dec, v, w_left):
    """The sorted n x n eigenframe of an odd operator from V, W and sigma."""
    sv, n = dec.singular_values, len(dec.eigenvalues)
    k, r = v.shape[0], len(sv)
    u = np.zeros((n, n), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    u[:k, :r] = u[:k, n - r:] = v[:, :r] * s
    u[k:, :r] = w_left[:, :r] * -s
    u[k:, n - r:] = w_left[:, :r] * s
    u[:k, r:k] = v[:, r:]
    u[k:, r:n - k] = w_left[:, r:]
    return u[:, dec.order]


def eager_gather(h, idx, val):
    """V_S^H h V_S for a phased permutation frame: the gather h[idx, idx]
    times conj(val_i) val_j, in real arithmetic."""
    t = h[np.ix_(idx, idx)]
    if np.all(val == 1.0):
        return t
    x, y = val.real, val.imag
    p_re, p_im = x[:, None] * x + y[:, None] * y, x[:, None] * y - y[:, None] * x
    return (t.real * p_re - t.imag * p_im) + 1j * (t.real * p_im + t.imag * p_re)


def eager_windowed(H, D, params, inner, outer):
    """(eigenvalues, L_S, L) of the windowed localizer of a monomial D, with
    the dense L_S always formed: the pair formula when both site-basis
    sector blocks of H are exactly diagonal (the one pair rule), else one
    eigvalsh of L_S; L = U_S (L_S + gamma_S) U_S^H - gamma."""
    dec = D.eig()
    v, w_left = eager_frames(dec)
    sv = dec.singular_values
    n_plus, n_minus = D.space.n_plus, D.space.n_minus
    r = len(sv)
    x = np.concatenate([sv, np.zeros(max(n_plus, n_minus) - r)])
    f_in = np.asarray(inner(x), dtype=float)
    f_out = np.asarray(outer(x), dtype=float)
    tail = np.sqrt(np.clip(1.0 - f_out**4, 0.0, None))
    inside = (f_in != 0.0) | (f_out != 0.0)
    s_plus = np.flatnonzero(inside[:n_plus])
    s_minus = np.flatnonzero(inside[:n_minus])
    a, b = len(s_plus), len(s_minus)
    support = np.concatenate([s_plus, s_minus])
    g = np.concatenate([np.ones(a), -np.ones(b)])
    (v_idx, v_val), (w_idx, w_val) = dec.monomial
    block = np.zeros((a + b, a + b), dtype=complex)
    block[:a, :a] = eager_gather(H.block("+", "+"), v_idx[s_plus], v_val[s_plus])
    block[a:, a:] = eager_gather(H.block("-", "-"), w_idx[s_minus], w_val[s_minus])
    paired = all(grading._even_diagonal(H, s) is not None for s in "+-")
    f = f_in[support]
    block *= (g * f)[:, None]
    block *= f
    block[np.diag_indices(a + b)] -= g * tail[support]
    pairs = s_plus[s_plus < r]
    p = len(pairs)
    i = np.arange(p)
    block[a + i, i] = block[i, a + i] = params.kappa * f_out[pairs] ** 2 * sv[pairs]
    if paired:
        two = np.empty((p, 2, 2), dtype=complex)
        two[:, 0, 0], two[:, 0, 1] = block[i, i], block[i, a + i]
        two[:, 1, 0], two[:, 1, 1] = block[a + i, i], block[a + i, a + i]
        diag = np.diagonal(block).real
        inner_eigs = np.concatenate([np.linalg.eigvalsh(two).ravel(),
                                     diag[p:a], diag[a + p:]])
    else:
        inner_eigs = np.linalg.eigvalsh(block)
    eigs = np.sort(np.concatenate([inner_eigs, -np.ones(n_plus - a),
                                   np.ones(n_minus - b)]))
    l_s = block.copy()
    block[np.diag_indices(a + b)] += g
    u = np.zeros((D.space.n, a + b), dtype=complex)
    u[:n_plus, :a] = v[:, s_plus]
    u[n_plus:, a:] = w_left[:, s_minus]
    lm = (u @ block) @ u.conj().T
    lm[np.diag_indices_from(lm)] -= D.space.gamma_diag
    return eigs, l_s, (lm + lm.conj().T) / 2.0


def dense_frame_defects(D):
    """The Frobenius defects of the monomial frame from the dense V and W."""
    dec = D.eig()
    v, w_left = eager_frames(dec)
    b = D.odd_block
    n_minus, n_plus = b.shape
    r = len(dec.singular_values)
    ws = np.zeros((n_minus, n_plus), dtype=complex)
    ws[:, :r] = w_left[:, :r] * dec.singular_values
    vs = np.zeros((n_plus, n_minus), dtype=complex)
    vs[:, :r] = v[:, :r] * dec.singular_values
    residual = np.hypot(np.linalg.norm(b @ v - ws), np.linalg.norm(b.conj().T @ w_left - vs))
    orth = np.hypot(np.linalg.norm(v.conj().T @ v - np.eye(n_plus)),
                    np.linalg.norm(w_left.conj().T @ w_left - np.eye(n_minus)))
    return residual, orth


def model_pair(address):
    desc = parse_model(address)
    return desc.H, desc.D


LAZY_CASES = {
    # (H, D), kappa, rho, whether L_S is pairs
    "ladder40": (lambda: ladder_pair(40), 0.5, 2.0, True),
    "phased_pairs": (lambda: monomial_pair(14, 20, 83), 1.0, 1.0, True),
    "qwz": (lambda: model_pair("qwz:L=8,m=3.0"), 1.0, 1.0, False),
}


@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_lazy_frame_and_compact_pairs_match_the_eager_formulas(case):
    build, kappa, rho, paired = LAZY_CASES[case]
    H, D = build()
    bundle = assemble_localizer(H, D, PHI, constant_C(kappa, rho, H, D, PHI))
    assert not bundle.phi_identity
    dec = D.eig()
    # the pair route keeps no dense block
    assert (bundle._window[2] is None) == paired

    eigs, l_s, lm = eager_windowed(H, D, bundle.params, PHI.scaled(rho),
                                   PHI.scaled(2.0 * rho))
    assert np.array_equal(bundle.eigenvalues, eigs)
    if paired:
        # the kept diagonal and couplings are those entries of the dense L_S
        diag, couple = bundle._pairs
        a, p = len(bundle._window[0]), len(couple)
        i = np.arange(p)
        assert np.array_equal(diag, np.diagonal(l_s))
        assert np.array_equal(couple, l_s[a + i, i]) and np.array_equal(couple, l_s[i, a + i])
        assert np.count_nonzero(l_s) == np.count_nonzero(diag) + 2 * np.count_nonzero(couple)
    assert np.array_equal(bundle.L.matrix, lm)
    # L came from the columns on S: nothing has formed the n x n V or W
    assert dec.odd_frames is None
    v, w_left = eager_frames(dec)
    lazy_v, lazy_w, sv = dec.svd
    assert np.array_equal(lazy_v, v) and np.array_equal(lazy_w, w_left)
    assert sv is dec.singular_values
    assert np.array_equal(dec.vectors, eager_vectors(dec, v, w_left))

    # the O(n) defects are the dense Frobenius norms up to summation order
    residual, orth = dense_frame_defects(D)
    assert abs(dec.residual - residual) <= 1e-15 * np.linalg.norm(D.matrix)
    assert abs(dec.orth_defect - orth) <= 1e-15
    assert_window_products(H, D)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ladder_cell_forms_no_square_array():
    # one 400 x 400 complex array is 2.56 MB; a sweep cell and D's
    # eigendata stay far below it
    desc = parse_model("oscillator:n=400")
    H, D = desc.H, desc.D
    assert traced_peak(D.eig) < 1e6
    gap_h, dh, h_norm, _, _ = measure_constants(H, D)
    params = LocalizerParams(0.5, 16.0, gap_h, dh, PHI.c_phi, h_norm)
    bundle = None

    def cell():
        nonlocal bundle
        bundle = assemble_localizer(H, D, PHI, params)
    assert traced_peak(cell) < 1e6
    assert not bundle.phi_identity and bundle._window[2] is None


@pytest.mark.parametrize("L", [8, 9])
def test_identity_window_blocks_are_those_of_the_formed_localizer(L):
    # L = gamma H + kappa D, gathered from H's sector blocks and D's entries,
    # splits bit for bit as the formed n x n sum does, and forms it on read
    from localizer_lab.localizer import _identity_window
    from localizer_lab.models import qwz_chern_model

    desc = qwz_chern_model(L, 3.0)
    H, D, kappa = desc.H, desc.D, 0.37
    kept = _identity_window(H, D, kappa)
    formed = GradedOperator._new(H.space, "none", True,
                                 matrix=H.space.gamma_diag[:, None] * H.matrix
                                 + kappa * D.matrix)
    a, b = grading.symmetry_blocks(kept), grading.symmetry_blocks(formed)
    assert len(a.blocks) == 4 and repr(a.weyl) == repr(b.weyl)
    assert [x.tobytes() for x in a.blocks] == [y.tobytes() for y in b.blocks]
    assert kept.matrix.tobytes() == formed.matrix.tobytes()


def test_square_identity_leaves_no_dense_block_on_a_monomial_d():
    # L's matrix reads D's blocks from its entries record, like its gathers,
    # and a block formed from entries is not kept: after the square identity
    # D holds no dense block, and L's matrix is the formed sum bit for bit
    (_, H, D), = zoo_instances(("qwz:L=10,m=3.0",))
    params = choose_params(H, D, PHI)
    bundle = assemble_localizer(H, D, PHI, params)
    assert bundle.phi_identity
    square_residuals(bundle, H, D)
    assert D._matrix is None and D._blocks == {}
    formed = H.space.gamma_diag[:, None] * H.matrix + params.kappa * D.formed()
    assert bundle.L.matrix.tobytes() == formed.tobytes()
    assert D._matrix is None and D._blocks == {}


@pytest.mark.parametrize("seed", [45, 46])
def test_identity_window_matrix_is_the_formed_sum_of_dense_operators(seed):
    # read from whole sector blocks, not gathers, the matrix of L is the
    # formed sum bit for bit, and so is every gather read after it
    from localizer_lab.localizer import _identity_window

    H, D = dense_instance(seed)
    kappa = 0.37
    kept = _identity_window(H, D, kappa)
    formed = H.space.gamma_diag[:, None] * H.matrix + kappa * D.matrix
    assert kept.matrix.tobytes() == formed.tobytes()
    k, n = H.space.n_plus, H.space.n
    span = {"+": np.arange(k), "-": np.arange(k, n)}
    for row in "+-":
        for col in "+-":
            ri, ci = span[row][::2], span[col][1::2]
            assert kept.gather(ri - span[row][0], ci - span[col][0], row, col).tobytes() \
                == formed[np.ix_(ri, ci)].tobytes()
