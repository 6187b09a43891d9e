import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localizer_lab import (
    GradedOperator,
    GradedSpace,
    default_localizer,
    func_calc,
    gap,
    lipschitz_derivative,
    mk_block_example,
    operator_norm,
    oscillator_dirac,
    positive_projection,
)
from localizer_lab.errors import NotInvertibleError, ParityError
from localizer_lab.grading import _frame_defects


def random_even(space, rng, hermitian=True):
    a = rng.normal(size=(space.n_plus, space.n_plus)) \
        + 1j * rng.normal(size=(space.n_plus, space.n_plus))
    b = rng.normal(size=(space.n_minus, space.n_minus)) \
        + 1j * rng.normal(size=(space.n_minus, space.n_minus))
    if hermitian:
        a = (a + a.conj().T) / 2
        b = (b + b.conj().T) / 2
    return GradedOperator.even_from_blocks(space, a, b, hermitian=hermitian)


def random_odd(space, rng):
    c = rng.normal(size=(space.n_minus, space.n_plus)) \
        + 1j * rng.normal(size=(space.n_minus, space.n_plus))
    return GradedOperator.odd_from_block(space, c)


def test_space_basics():
    space = GradedSpace(3, 2)
    assert space.n == 5
    assert np.array_equal(space.gamma_diag, [1, 1, 1, -1, -1])
    g = np.diag(space.gamma_diag)
    assert np.array_equal(g, np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))


def test_space_rejects_negative_dimensions():
    with pytest.raises(ValueError):
        GradedSpace(-1, 2)


def test_parity_of_products():
    # products of the matrices are plain arrays; the parity-checked
    # constructor accepts them with the product parity, which is the
    # structural claim: the forbidden blocks come out exactly zero
    rng = np.random.default_rng(3)
    space = GradedSpace(3, 2)
    e = random_even(space, rng).matrix
    o = random_odd(space, rng).matrix
    assert GradedOperator(e @ e, space, parity="even").parity == "even"
    assert GradedOperator(o @ o, space, parity="even").parity == "even"
    assert GradedOperator(e @ o, space, parity="odd").parity == "odd"
    assert GradedOperator(o @ e, space, parity="odd").parity == "odd"


def test_even_operator_commutes_with_gamma_odd_anticommutes():
    rng = np.random.default_rng(4)
    space = GradedSpace(4, 3)
    g = np.diag(space.gamma_diag)
    e = random_even(space, rng).matrix
    o = random_odd(space, rng).matrix
    assert np.allclose(g @ e, e @ g)
    assert np.allclose(g @ o, -o @ g)


def test_parity_enforced_on_construction():
    space = GradedSpace(2, 2)
    m = np.ones((4, 4))
    with pytest.raises(ParityError):
        GradedOperator(m, space, parity="even")
    with pytest.raises(ParityError):
        GradedOperator(m, space, parity="odd")
    # parity "none" accepts anything square of the right size
    GradedOperator(m, space, parity="none", hermitian=True)


def test_odd_from_block_adjoint_structure():
    rng = np.random.default_rng(6)
    space = GradedSpace(2, 3)
    c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    d = GradedOperator.odd_from_block(space, c)
    assert d.hermitian
    assert np.allclose(d.block("-", "+"), c)
    assert np.allclose(d.block("+", "-"), c.conj().T)
    assert np.allclose(d.odd_block, c)


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(7)
    space = GradedSpace(4, 4)
    h = random_even(space, rng)
    w = h.eigenvalues()
    assert np.allclose(w, np.linalg.eigvalsh(h.matrix))


def _hermitian_none(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return GradedOperator(m, GradedSpace(n // 2, n - n // 2), hermitian=True)


@pytest.mark.parametrize("build", [
    lambda: oscillator_dirac(40).D,
    lambda: mk_block_example(3, seed=1).H,
    lambda: _hermitian_none(20, 17),
], ids=["odd_ladder", "even_mk", "none_random"])
def test_eigenvalues_do_not_depend_on_call_order(build):
    # eig() and the values-only route differ in the last bits on all three
    # (by 1.2e-14 on the parity-"none" case); eigenvalues() must not pick
    # up whichever of them ran first.
    values_first = build()
    w_before = values_first.eigenvalues().copy()
    values_first.eig()
    eig_first = build()
    eig_first.eig()
    assert np.array_equal(values_first.eigenvalues(), w_before)
    assert np.array_equal(eig_first.eigenvalues(), w_before)


def test_eig_decomposition_reconstructs():
    rng = np.random.default_rng(8)
    space = GradedSpace(3, 4)
    d = random_odd(space, rng)
    dec = d.eig()
    m = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
    assert np.allclose(m, d.matrix, atol=1e-12)


def test_func_calc_polynomial_agrees_with_matrix_power():
    rng = np.random.default_rng(9)
    space = GradedSpace(3, 3)
    h = random_even(space, rng)
    sq = func_calc(lambda x: x**2, h)
    assert sq.parity == "even"
    assert np.allclose(sq.matrix, h.matrix @ h.matrix, atol=1e-12)


def test_func_calc_even_function_of_odd_operator_is_even():
    rng = np.random.default_rng(10)
    space = GradedSpace(3, 3)
    d = random_odd(space, rng)
    sq = func_calc(lambda x: x**2, d)
    assert sq.parity == "even"
    odd_f = func_calc(lambda x: x**3, d)
    assert odd_f.parity == "odd"


def test_func_calc_generic_function_of_odd_operator_loses_parity():
    rng = np.random.default_rng(11)
    space = GradedSpace(2, 2)
    d = random_odd(space, rng)
    shifted = func_calc(lambda x: x + 1.0, d)
    assert shifted.parity == "none"


def test_lipschitz_derivative_is_commutator():
    rng = np.random.default_rng(12)
    space = GradedSpace(3, 2)
    d = random_odd(space, rng)
    h = random_even(space, rng)
    der = lipschitz_derivative(d, h)
    assert der.parity == "odd"
    assert np.allclose(der.matrix, d.matrix @ h.matrix - h.matrix @ d.matrix)


def test_lipschitz_derivative_vanishes_for_functions_of_d():
    rng = np.random.default_rng(13)
    space = GradedSpace(3, 3)
    d = random_odd(space, rng)
    f = func_calc(lambda x: x**2, d)
    assert operator_norm(lipschitz_derivative(d, f)) < 1e-12


def test_gap_of_diagonal():
    space = GradedSpace(3, 0)
    h = GradedOperator(np.diag([2.0, -0.25, 1.0]), space, parity="even",
                       hermitian=True)
    assert gap(h) == pytest.approx(0.25)


def test_gap_rejects_singular():
    space = GradedSpace(2, 0)
    h = GradedOperator(np.diag([1.0, 0.0]), space, parity="even", hermitian=True)
    with pytest.raises(NotInvertibleError):
        gap(h)


def test_operator_norm_matches_numpy_two_norm():
    rng = np.random.default_rng(16)
    space = GradedSpace(4, 3)
    h = random_even(space, rng)
    assert operator_norm(h) == pytest.approx(np.linalg.norm(h.matrix, 2))
    m = rng.normal(size=(5, 3))
    assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2))


@settings(max_examples=25, deadline=None)
@given(n_plus=st.integers(1, 5), n_minus=st.integers(1, 5),
       seed=st.integers(0, 10_000))
def test_odd_squared_is_even_and_psd(n_plus, n_minus, seed):
    rng = np.random.default_rng(seed)
    space = GradedSpace(n_plus, n_minus)
    d = random_odd(space, rng).matrix
    sq = GradedOperator(d @ d, space, parity="even", hermitian=True)
    assert sq.parity == "even"
    assert np.all(np.linalg.eigvalsh(sq.matrix) >= -1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gamma_conjugation_flips_odd_sign(seed):
    rng = np.random.default_rng(seed)
    space = GradedSpace(3, 3)
    d = random_odd(space, rng)
    g = np.diag(space.gamma_diag)
    assert np.allclose(g @ d.matrix @ g, -d.matrix)


# -- parity-aware kernels against the full-matrix route ----------------------

SECTOR_SHAPES = [(4, 4), (5, 3), (1, 1), (1, 4), (6, 0)]


def dense_func(f, m):
    w, u = np.linalg.eigh(m)
    return (u * f(w)) @ u.conj().T


@pytest.mark.parametrize("n_plus,n_minus", SECTOR_SHAPES)
def test_even_sector_route_matches_full(n_plus, n_minus):
    rng = np.random.default_rng(100 + n_plus * 10 + n_minus)
    space = GradedSpace(n_plus, n_minus)
    h = random_even(space, rng)
    full = np.linalg.eigvalsh(h.matrix)
    assert np.allclose(h.eigenvalues(), full, atol=1e-12)
    dec = h.eig()
    assert dec.sectors is not None
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    assert np.allclose(dec.eigenvalues, full, atol=1e-12)
    # the per-block defects combine to the full-matrix ones
    u = dec.vectors
    assert dec.residual == pytest.approx(
        np.linalg.norm(h.matrix @ u - u * dec.eigenvalues), rel=1e-6, abs=1e-14)
    assert dec.orth_defect == pytest.approx(
        np.linalg.norm(u.conj().T @ u - np.eye(space.n)), rel=1e-6, abs=1e-14)

    for f in (np.tanh, lambda x: (x > 0).astype(float), lambda x: x**2 + 1.0):
        out = func_calc(f, h)
        assert out.parity == "even"
        assert np.allclose(out.matrix, dense_func(f, h.matrix), atol=1e-12)


def assert_odd_frame(d):
    """eig() of an odd operator: a unitary eigenframe with pinned phases."""
    w = d.eigenvalues()
    dec = d.eig()
    u = dec.vectors
    assert np.allclose(u.conj().T @ u, np.eye(d.space.n), atol=1e-12)
    assert np.allclose((u * dec.eigenvalues) @ u.conj().T, d.matrix, atol=1e-12)
    assert np.allclose(dec.eigenvalues, w, atol=1e-12)
    residual, orth = _frame_defects(d.matrix, dec.eigenvalues, u)
    assert dec.residual == pytest.approx(residual, abs=1e-13)
    assert dec.orth_defect == pytest.approx(orth, abs=1e-13)
    # The largest entry of each column's positive-sector part v is real and
    # positive; a kernel vector of the negative sector pins its own part.
    k = d.space.n_plus
    for col in u.T:
        part = col[:k] if np.linalg.norm(col[:k]) > 0.5 else col[k:]
        top = part[np.argmax(np.abs(part))]
        assert top.real > 0.0 and abs(top.imag) <= 1e-15


ODD_SHAPES = SECTOR_SHAPES + [(3, 5), (0, 6)]


@pytest.mark.parametrize("n_plus,n_minus", ODD_SHAPES)
def test_odd_spectrum_from_one_block_svd(n_plus, n_minus):
    rng = np.random.default_rng(200 + n_plus * 10 + n_minus)
    space = GradedSpace(n_plus, n_minus)
    d = random_odd(space, rng)
    w = d.eigenvalues()
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, np.linalg.eigvalsh(d.matrix), atol=1e-12)
    assert operator_norm(d) == pytest.approx(np.linalg.norm(d.matrix, 2), abs=1e-12)
    assert_odd_frame(d)


ODD_FUNCTIONS = {
    "even_window": (default_localizer().scaled(1.5), "even"),
    "odd_cut": (lambda x: np.where(np.abs(x) < 3.5, x, 0.0), "odd"),
    "exp": (np.exp, "none"),
}


@pytest.mark.parametrize("name", sorted(ODD_FUNCTIONS))
@pytest.mark.parametrize("build", [
    *(lambda shape=shape: random_odd(GradedSpace(*shape),
                                     np.random.default_rng(400 + 10 * shape[0] + shape[1]))
      for shape in [(4, 4), (5, 3), (3, 5), (1, 4), (6, 0), (0, 6)]),
    lambda: oscillator_dirac(40).D,
], ids=["4x4", "5x3", "3x5", "1x4", "6x0", "0x6", "ladder40"])
def test_odd_func_calc_from_block_svd_matches_dense_frame(build, name):
    f, parity = ODD_FUNCTIONS[name]
    d = build()
    out = func_calc(f, d)
    # the block route never assembles the n x n eigenframe
    assert d.eig().frame is None
    if 0 in (d.space.n_plus, d.space.n_minus):
        parity = "even"  # D = 0: every f is even on its spectrum
    assert out.parity == parity
    if parity == "even":
        assert not np.any(out.block("+", "-")) and not np.any(out.block("-", "+"))
    if parity == "odd":
        assert not np.any(out.block("+", "+")) and not np.any(out.block("-", "-"))
    dec = d.eig()
    vals = f(dec.eigenvalues)
    dense = (dec.vectors * vals) @ dec.vectors.conj().T
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    assert np.abs(out.matrix - dense).max(initial=0.0) <= 1e-13 * scale


def rank_deficient_odd():
    """Odd operator on GradedSpace(4, 5) with singular values (2, 2, 0.5, 0)."""
    rng = np.random.default_rng(7)
    q1, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    s = np.zeros((5, 4))
    s[[0, 1, 2], [0, 1, 2]] = [2.0, 2.0, 0.5]
    return GradedOperator.odd_from_block(GradedSpace(4, 5), q1 @ s @ q2.conj().T)


@pytest.mark.parametrize("build", [lambda: oscillator_dirac(12).D, rank_deficient_odd],
                         ids=["ladder", "rank_deficient"])
def test_odd_frame_of_structured_blocks(build):
    assert_odd_frame(build())


def test_odd_eig_takes_one_block_svd(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapped(m, *args, **kwargs):
            calls.append((name, m.shape))
            return fn(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)

    for name in ("svd", "eigh", "eigvalsh"):
        counted(name)
    d = random_odd(GradedSpace(5, 3), np.random.default_rng(9))
    d.eig()
    assert calls == [("svd", (3, 5))]


def test_rectangular_ladder_block_and_empty_sector():
    osc = oscillator_dirac(12)  # sectors 12 and 11
    fresh = GradedOperator.odd_from_block(osc.space, osc.D.odd_block)
    assert np.allclose(fresh.eigenvalues(), osc.D.eigenvalues(), atol=1e-12)
    assert np.sum(np.abs(fresh.eigenvalues()) < 1e-12) == 1

    mk = mk_block_example(2, seed=3)  # GradedSpace(6, 0): empty negative sector
    proj = positive_projection(mk.H)
    assert np.allclose(proj.matrix, mk.extras["projection"], atol=1e-12)


@pytest.mark.parametrize("d_parity,t_parity", [("odd", "even"), ("odd", "odd"),
                                               ("even", "even"), ("even", "odd")])
@pytest.mark.parametrize("hermitian", [True, False])
def test_block_commutator_matches_dense(d_parity, t_parity, hermitian):
    rng = np.random.default_rng(300)
    space = GradedSpace(5, 3)

    def make(parity, herm):
        if parity == "even":
            return random_even(space, rng, hermitian=herm)
        if herm:
            return random_odd(space, rng)
        upper = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        return GradedOperator.odd_from_block(space, random_odd(space, rng).odd_block,
                                             upper=upper)

    d = make(d_parity, True)
    t = make(t_parity, hermitian)
    der = lipschitz_derivative(d, t)
    dense = d.matrix @ t.matrix - t.matrix @ d.matrix
    assert der.parity == ("even" if d_parity == t_parity else "odd")
    assert np.allclose(der.matrix, dense, atol=1e-12)
    assert operator_norm(der) == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


def test_one_block_commutator_norm_equals_two_block_norm():
    rng = np.random.default_rng(301)
    space = GradedSpace(7, 5)
    d = random_odd(space, rng)
    h = random_even(space, rng)
    der = lipschitz_derivative(d, h)
    lower, upper = der.block("-", "+"), der.block("+", "-")
    assert np.array_equal(upper, -lower.conj().T)
    two_block = max(np.linalg.svd(lower, compute_uv=False)[0],
                    np.linalg.svd(upper, compute_uv=False)[0])
    assert operator_norm(der) == pytest.approx(two_block, rel=1e-13)
