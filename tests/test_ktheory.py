import numpy as np
import pytest

from localizer_lab import (
    GradedOperator,
    GradedSpace,
    assemble_localizer,
    choose_params,
    constant_C,
    default_localizer,
    dirac_path,
    dirac_path_stability,
    half_signature_class,
    homotopy_stability,
    localizer_index,
    operator_norm,
    oscillator_dirac,
    phase_path,
    positive_projection,
    signature,
)
from localizer_lab.ktheory import check_defect, index_from_bundle
from localizer_lab.errors import (
    ClassInconsistencyError,
    InternalConsistencyError,
    NotInvertibleError,
    ParityError,
)
from localizer_lab.verification import random_even_invertible, random_odd, random_space

PHI = default_localizer()


def diag_even(values):
    values = np.asarray(values, dtype=float)
    space = GradedSpace(len(values), 0)
    return GradedOperator(np.diag(values), space, parity="even", hermitian=True)


# ---------------------------------------------------------------------------
# inertia and signature
# ---------------------------------------------------------------------------


def test_signature_counts_diagonal():
    s = signature(diag_even([3.0, -1.0, 2.0, -0.5, 0.7]))
    assert (s.n_pos, s.n_neg, s.n_zero) == (3, 2, 0)
    assert s.signature == 1
    assert s.invertible


def test_signature_zero_band_is_relative():
    s = signature(diag_even([1.0, 1e-12]))
    assert s.n_zero == 1
    assert not s.invertible
    # the band scales with ||T||: next to 1e6, a value of 1e-3 lies inside it
    s2 = signature(diag_even([1e6, 1e-3]))
    assert s2.tau == pytest.approx(1e-2)
    assert s2.n_zero == 1
    assert not s2.invertible


def test_signature_accepts_raw_eigenvalues():
    s = signature(np.array([-2.0, 5.0, 5.0]))
    assert s.signature == 1


def test_positive_projection_is_spectral():
    h = diag_even([2.0, -1.0, 0.5, -3.0])
    q = positive_projection(h)
    assert np.allclose(q.matrix, np.diag([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(NotInvertibleError):
        positive_projection(diag_even([1.0, 0.0]))


# ---------------------------------------------------------------------------
# difference classes
# ---------------------------------------------------------------------------


def test_half_signature_class_diagonal_pairs():
    ref = diag_even([-1.0, -1.0, -1.0])
    var = diag_even([1.0, 1.0, -1.0])
    assert half_signature_class(ref, var) == 2


def test_half_signature_class_rejects_odd_difference():
    # on one space signature differences are even; an odd difference needs
    # mismatched dimensions and must be refused
    ref = diag_even([-1.0, -1.0])
    var = diag_even([1.0, 1.0, 1.0])
    with pytest.raises(ClassInconsistencyError):
        half_signature_class(ref, var)


def test_half_signature_class_needs_invertible_input():
    with pytest.raises(NotInvertibleError):
        half_signature_class(diag_even([0.0, 1.0]), diag_even([1.0, 1.0]))


# ---------------------------------------------------------------------------
# the localizer index
# ---------------------------------------------------------------------------


def test_localizer_index_oscillator():
    osc = oscillator_dirac(40)
    report = localizer_index(osc.H, osc.D, PHI)
    assert report.value == 1
    assert report.params.admissible
    assert report.min_gap > 0
    payload = report.to_json_dict()
    assert payload["class"] == 1
    assert payload["admissible"] is True


def test_index_from_bundle_class_and_zero_band_error():
    osc = oscillator_dirac(20)
    bundle = assemble_localizer(osc.H, osc.D, PHI, choose_params(osc.H, osc.D, PHI))
    report = index_from_bundle(bundle, osc.D)
    assert report.signature_ref == osc.space.n_minus - osc.space.n_plus
    assert report.signature_var == signature(bundle.eigenvalues).signature
    assert report.value == half_signature_class(-osc.space.gamma_diag,
                                                bundle.eigenvalues) == 1
    bundle.eigenvalues = bundle.eigenvalues.copy()
    bundle.eigenvalues[0] = 0.0
    with pytest.raises(NotInvertibleError,
                       match="^localizer has 1 eigenvalues in the zero band"):
        index_from_bundle(bundle, osc.D)


def space_sum(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    return GradedSpace(a.n_plus + b.n_plus, a.n_minus + b.n_minus)


def direct_sum(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """Graded direct sum: sectors concatenate, so gamma stays diag(+..+,-..-)."""
    sa, sb = a.space, b.space
    space = space_sum(sa, sb)
    m = np.zeros((space.n, space.n), dtype=complex)
    rows_a = list(range(sa.n_plus)) + \
        list(range(space.n_plus, space.n_plus + sa.n_minus))
    rows_b = list(range(sa.n_plus, space.n_plus)) + \
        list(range(space.n_plus + sa.n_minus, space.n))
    m[np.ix_(rows_a, rows_a)] = a.matrix
    m[np.ix_(rows_b, rows_b)] = b.matrix
    parity = a.parity if a.parity == b.parity else "none"
    return GradedOperator(m, space, parity=parity,
                          hermitian=a.hermitian and b.hermitian)


def test_localizer_index_additive_under_direct_sum():
    a = oscillator_dirac(20)
    b = oscillator_dirac(26)
    H = direct_sum(a.H, b.H)
    D = direct_sum(a.D, b.D)
    assert H.space.n == space_sum(a.space, b.space).n
    report = localizer_index(H, D, PHI)
    assert report.value == 2


def test_direct_sum_of_mixed_parity_loses_parity():
    a = oscillator_dirac(20)
    assert direct_sum(a.H, a.H).parity == "even"
    assert direct_sum(a.D, a.D).parity == "odd"
    assert direct_sum(a.H, a.D).parity == "none"


# ---------------------------------------------------------------------------
# homotopies
# ---------------------------------------------------------------------------


def test_phase_path_endpoints():
    osc = oscillator_dirac(24)
    path = phase_path(osc.H, 5)
    assert len(path) == 5
    assert np.allclose(path[0].matrix, osc.H.matrix, atol=1e-12)
    w = np.linalg.eigvalsh(path[-1].matrix)
    assert np.allclose(np.abs(w), 1.0, atol=1e-10)


def test_homotopy_scale_admissible_for_every_step():
    osc = oscillator_dirac(30)
    rng = np.random.default_rng(56)
    space = random_space(rng, max_side=12)
    cases = [(osc.H, osc.D),
             (random_even_invertible(rng, space), random_odd(rng, space))]
    for h0, d in cases:
        path = phase_path(h0, 4)
        report = homotopy_stability(path, d, PHI)
        for h in path:
            assert constant_C(report.kappa, report.rho, h, d, PHI).admissible


def test_homotopy_stability_oscillator_phase():
    osc = oscillator_dirac(30)
    path = phase_path(osc.H, 5)
    report = homotopy_stability(path, osc.D, PHI)
    assert report.constant
    assert report.failing_step is None
    assert set(report.values) == {1}
    assert all(s.no_crossing for s in report.steps[1:])


def test_dirac_path_shape_and_endpoint():
    osc = oscillator_dirac(24)
    rng = np.random.default_rng(54)
    T = random_odd(rng, osc.space)
    scale = 0.05 * operator_norm(osc.D) / operator_norm(T)
    T = GradedOperator(scale * T.matrix, osc.space, parity="odd", hermitian=True)
    path = dirac_path(osc.D, T, 5)
    assert len(path) == 5
    assert np.allclose(path[0].matrix, osc.D.matrix)
    assert np.allclose(path[-1].matrix, osc.D.matrix + T.matrix)


def test_dirac_path_stability_small_perturbation():
    osc = oscillator_dirac(30)
    rng = np.random.default_rng(55)
    T = random_odd(rng, osc.space)
    scale = 0.05 * operator_norm(osc.D) / operator_norm(T)
    T = GradedOperator(scale * T.matrix, osc.space, parity="odd", hermitian=True)
    report = dirac_path_stability(osc.H, dirac_path(osc.D, T, 5), PHI)
    assert report.constant
    assert set(report.values) == {1}


def test_commuting_dirac_path_window_meets_spectrum():
    # [D_t, H] = 0 and spec D_t = {+-(3 + t)}: the default rho = 2 would put
    # the whole spectrum outside the window, so the scale is nudged as in
    # choose_params.
    space = GradedSpace(2, 2)
    h = GradedOperator(np.eye(4), space, parity="even", hermitian=True)
    x = GradedOperator.odd_from_block(space, np.eye(2))
    d0 = GradedOperator(3.0 * x.matrix, space, parity="odd", hermitian=True)
    report = dirac_path_stability(h, dirac_path(d0, x, 5), PHI)
    assert report.rho == choose_params(h, d0, PHI).rho
    assert report.rho > 3.0 / PHI.support_radius
    assert report.constant


def test_margin_at_most_one_rejected_by_every_scale_choice():
    osc = oscillator_dirac(10)
    for margin in (1.0, 0.5):
        with pytest.raises(ValueError, match="margin"):
            choose_params(osc.H, osc.D, PHI, margin=margin)


def test_dirac_path_rejects_even_perturbation():
    osc = oscillator_dirac(20)
    with pytest.raises(ParityError):
        dirac_path(osc.D, osc.H, 3)


def test_defect_gate_passes_on_frobenius_bound():
    check_defect(np.full((3, 3), 1e-12), 1e-10, "defect")


def test_defect_gate_falls_back_to_exact_norm():
    # ||R||_F = 1.8e-10 exceeds the limit but ||R||_2 = 0.9e-10 does not
    passing = np.diag([0.9e-10] * 4)
    assert np.linalg.norm(passing) > 1e-10
    check_defect(passing, 1e-10, "defect")
    space = GradedSpace(2, 2)
    check_defect(GradedOperator(passing, space, parity="even"), 1e-10, "defect")

    failing = np.diag([3e-10, 1e-11, 0.0, 0.0])
    with pytest.raises(InternalConsistencyError, match=r"defect 3\.000e-10 exceeds"):
        check_defect(failing, 1e-10, "defect")
