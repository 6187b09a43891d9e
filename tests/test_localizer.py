import numpy as np
import pytest

from localizer_lab import (
    GradedOperator,
    LocalizerParams,
    assemble_localizer,
    choose_params,
    constant_C,
    default_localizer,
    gap,
    lipschitz_derivative,
    operator_norm,
    oscillator_dirac,
    sharp_localizer,
    signature,
)
from localizer_lab.localizer import (
    certificate_residual,
    lower_bound_residual,
    square_identity_residual,
    support_residual,
)
from localizer_lab.errors import AdmissibilityError, SpectralCutError
from localizer_lab.verification import random_even_invertible, random_odd, random_space

PHI = default_localizer()


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
    assert square_identity_residual(bundle, H, D) < 1e-12
    assert lower_bound_residual(bundle, H, D) > -1e-12
    assert support_residual(bundle, D) < 1e-12


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
