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
from localizer_lab import grading
from localizer_lab.errors import (
    InternalConsistencyError,
    NotInvertibleError,
    ParityError,
)
from localizer_lab.grading import (
    _blas_threads_setter,
    _frame_defects,
    _odd_monomial,
    one_blas_thread,
)


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


def test_one_blas_thread_sets_one_and_restores_the_count():
    setter = _blas_threads_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no per-thread OpenBLAS thread count")
    before = setter(1)  # the setter returns the count it replaces
    setter(before)
    with one_blas_thread():
        assert setter(1) == 1
        x = np.diag(np.arange(5.0))
        assert np.array_equal(np.linalg.eigvalsh(x), np.arange(5.0))
    assert setter(before) == before


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


def count_linalg(monkeypatch, names=("svd", "eigh", "eigvalsh")):
    """Record (name, shape) of every call to the named numpy.linalg routines."""
    calls = []

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapped(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            return fn(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)

    for name in names:
        counted(name)
    return calls


def test_odd_eig_takes_one_block_svd(monkeypatch):
    calls = count_linalg(monkeypatch)
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
    assert np.allclose(proj.matrix, (mk.H.matrix + np.eye(mk.space.n)) / 2.0,
                       atol=1e-12)


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
        m = random_odd(space, rng).matrix
        m[:5, 5:] = upper
        return GradedOperator(m, space, parity="odd")

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


def diagonal_odd(n, rng):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GradedOperator._monomial_built(GradedSpace(n, n), np.arange(n), np.arange(n), z)


def test_diagonal_odd_block_spectrum_matches_block_svd():
    d = diagonal_odd(9, np.random.default_rng(310))
    sv = np.linalg.svd(d.odd_block, compute_uv=False)
    svd_route = np.sort(np.concatenate([-sv, sv]))
    w = d.eigenvalues()
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - svd_route).max() <= 1e-15 * np.linalg.norm(d.odd_block, 2)


def assert_commutator_matches_dense(d, t_parity, hermitian, rng):
    k, n = d.space.n_plus, d.space.n
    if t_parity == "even":
        t = random_even(d.space, rng, hermitian=hermitian)
    elif hermitian:
        t = random_odd(d.space, rng)
    else:
        m = np.zeros((n, n), dtype=complex)
        m[k:, :k] = rng.normal(size=(n - k, k)) + 1j * rng.normal(size=(n - k, k))
        m[:k, k:] = rng.normal(size=(k, n - k)) + 1j * rng.normal(size=(k, n - k))
        t = GradedOperator(m, d.space, parity="odd")
    dense = d.matrix @ t.matrix - t.matrix @ d.matrix
    der = lipschitz_derivative(d, t)
    assert der.parity == ("even" if t_parity == "odd" else "odd")
    assert np.abs(der.matrix - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("t_parity", ["even", "odd"])
@pytest.mark.parametrize("hermitian", [True, False])
def test_diagonal_odd_block_commutator_matches_dense(t_parity, hermitian):
    rng = np.random.default_rng(311)
    assert_commutator_matches_dense(diagonal_odd(6, rng), t_parity, hermitian, rng)


@pytest.mark.parametrize("t_parity", ["even", "odd"])
@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("n_plus,n_minus,zeros", [(7, 5, 1), (4, 6, 0)])
def test_scattered_monomial_commutator_matches_dense(n_plus, n_minus, zeros,
                                                     t_parity, hermitian):
    # rows and columns that are no runs take the gather route
    d = monomial_odd(n_plus, n_minus, 314 + n_plus, zeros)
    assert_commutator_matches_dense(d, t_parity, hermitian, np.random.default_rng(315))


def test_ladder_block_monomial_routes_give_the_svd_and_gemm_bits():
    # the ladder's (n - 1) x n shifted diagonal is monomial: its spectrum
    # and commutator take the entrywise routes, which reproduce the block
    # SVD and the GEMMs bit for bit, so rho does not move
    osc = oscillator_dirac(40)
    assert _odd_monomial(osc.D) is not None
    b = osc.D.odd_block
    sv = np.linalg.svd(b, compute_uv=False)
    assert np.array_equal(osc.D.eigenvalues(),
                          np.sort(np.concatenate([-sv, [0.0], sv])))
    h = random_even(osc.space, np.random.default_rng(312))
    der = lipschitz_derivative(osc.D, h)
    lower = b @ h.block("+", "+") - h.block("-", "-") @ b
    assert np.array_equal(der.block("-", "+"), lower)
    assert np.array_equal(der.block("+", "-"), -lower.conj().T)
    assert not np.any(der.block("+", "+")) and not np.any(der.block("-", "-"))


def monomial_odd(n_plus, n_minus, seed, zeros=1, tie=False):
    """Odd operator whose odd block has one nonzero complex entry in all but
    `zeros` of min(n_+, n_-) rows, at scattered rows and columns."""
    rng = np.random.default_rng(seed)
    m = min(n_plus, n_minus) - zeros
    rows = rng.permutation(n_minus)[:m]
    cols = rng.permutation(n_plus)[:m]
    z = rng.uniform(0.5, 3.0, size=m) * np.exp(2j * np.pi * rng.uniform(size=m))
    if tie and m > 1:
        z[1] = z[0] * np.exp(0.7j)
    return GradedOperator._monomial_built(GradedSpace(n_plus, n_minus), rows, cols, z)


def monomial_from_block(space, b):
    """Odd operator built from the nonzero entries of the monomial block b."""
    rows, cols = np.nonzero(b)
    return GradedOperator._monomial_built(space, rows, cols, b[rows, cols])


MONOMIAL_SHAPES = [(6, 4), (4, 6), (5, 5), (7, 1), (1, 3), (4, 0)]


@pytest.mark.parametrize("n_plus,n_minus", MONOMIAL_SHAPES)
@pytest.mark.parametrize("zeros,tie", [(0, False), (1, False), (1, True)])
def test_monomial_frame_matches_the_svd_route(n_plus, n_minus, zeros, tie, monkeypatch):
    zeros = min(zeros, min(n_plus, n_minus))
    d = monomial_odd(n_plus, n_minus, 500 + 10 * n_plus + n_minus, zeros, tie)
    assert _odd_monomial(d) is not None
    calls = count_linalg(monkeypatch)
    dec = d.eig()
    w = d.eigenvalues()
    assert calls == []
    # the same block, kept dense: only an entries record is monomial
    ref = GradedOperator.odd_from_block(d.space, d.odd_block)
    ref_dec = ref.eig()
    assert calls == [("svd", (n_minus, n_plus))]

    scale = max(1.0, np.abs(d.odd_block).max(initial=0.0))
    assert np.array_equal(dec.eigenvalues, w)
    assert np.abs(dec.eigenvalues - ref_dec.eigenvalues).max(initial=0.0) <= 1e-14 * scale
    # the defects are measured, and sit at roundoff
    assert dec.residual <= 1e-14 * scale and dec.orth_defect <= 1e-14
    assert_odd_frame(d)
    # V and W are phased permutations, V real
    v, w_left, sv = dec.svd
    for frame in (v, w_left):
        assert np.all(np.count_nonzero(frame, axis=0) == 1)
        assert np.all(np.count_nonzero(frame, axis=1) == 1)
    assert np.array_equal(v, v.real)
    assert np.all(np.diff(sv) <= 0)
    for f, _ in ODD_FUNCTIONS.values():
        out, want = func_calc(f, d), func_calc(f, ref)
        assert out.parity == want.parity
        assert np.abs(out.matrix - want.matrix).max(initial=0.0) <= 1e-12 * scale


def test_monomial_frame_pairs_sorted_by_modulus_with_stable_ties():
    # entries at (row, col) = (0, 2), (1, 0), (2, 3) with |z| = 1, 2, 2
    b = np.zeros((3, 4), dtype=complex)
    b[0, 2], b[1, 0], b[2, 3] = 1j, -2.0, 2j
    d = monomial_from_block(GradedSpace(4, 3), b)
    v, w_left, sv = d.eig().svd
    assert np.array_equal(sv, [2.0, 2.0, 1.0])
    assert np.array_equal(np.argmax(np.abs(v), axis=0), [0, 3, 2, 1])
    assert np.array_equal(np.argmax(np.abs(w_left), axis=0), [1, 2, 0])
    # w_i = B v_i / sigma_i carries the phase of z_i
    assert np.array_equal(w_left[[1, 2, 0], [0, 1, 2]], [-1.0, 1j, 1j])


def test_monomial_frame_keeps_row_order_among_equal_moduli():
    # three moduli, each on many rows: a sort that is not stable reorders them
    rng = np.random.default_rng(535)
    n = 40
    cols = rng.permutation(n)
    mod = rng.choice([1.0, 2.0, 3.0], size=n)
    b = np.zeros((n, n), dtype=complex)
    b[np.arange(n), cols] = mod * rng.choice([1.0, -1.0, 1j, -1j], size=n)
    v, w_left, sv = monomial_from_block(GradedSpace(n, n), b).eig().svd
    rows = np.concatenate([np.flatnonzero(mod == m) for m in (3.0, 2.0, 1.0)])
    assert np.array_equal(sv, mod[rows])
    assert np.array_equal(np.argmax(np.abs(v), axis=0), cols[rows])
    assert np.array_equal(np.argmax(np.abs(w_left), axis=0), rows)


@pytest.mark.parametrize("n_plus,n_minus", [(6, 4), (4, 6)])
@pytest.mark.parametrize("target", ["V", "W"])
def test_monomial_frame_defects_are_measured(n_plus, n_minus, target, monkeypatch):
    # stretch the last column of V or of W, a zero pair or kernel column
    # that B or B^H sends to 0: only the orthonormality defect sees it
    build = grading._monomial_frame

    def stretched(*args):
        sv, v_frame, w_frame = build(*args)
        (v_frame if target == "V" else w_frame)[1][-1] *= 1.0 + 1e-6
        return sv, v_frame, w_frame
    monkeypatch.setattr(grading, "_monomial_frame", stretched)
    d = monomial_odd(n_plus, n_minus, 540, zeros=1)
    with pytest.raises(InternalConsistencyError, match="orthonormality"):
        d.eig()


@pytest.mark.parametrize("n_plus,n_minus", [(6, 4), (4, 6)])
@pytest.mark.parametrize("target", ["V", "W"])
def test_monomial_frame_residual_is_measured(n_plus, n_minus, target, monkeypatch):
    # swap the sites of the first two pairs in V or in W: the frame stays
    # orthonormal, but B v_i is no longer sigma_i w_i
    build = grading._monomial_frame

    def swapped(*args):
        sv, v_frame, w_frame = build(*args)
        idx = (v_frame if target == "V" else w_frame)[0]
        idx[[0, 1]] = idx[[1, 0]]
        return sv, v_frame, w_frame
    monkeypatch.setattr(grading, "_monomial_frame", swapped)
    d = monomial_odd(n_plus, n_minus, 545, zeros=1)
    with pytest.raises(InternalConsistencyError, match="residual"):
        d.eig()


def frame_matrix(idx, val):
    m = np.zeros((len(idx), len(idx)), dtype=complex)
    m[idx, np.arange(len(idx))] = val
    return m


@pytest.mark.parametrize("seed", range(6))
def test_monomial_defects_are_the_dense_frobenius_norms_of_any_frame(seed):
    # frames that are not permutations (repeated sites) and phases off the
    # unit circle: the O(n) defects still equal the dense norms
    rng = np.random.default_rng(560 + seed)
    n_rows, n_cols = rng.integers(1, 9, size=2)
    m = rng.integers(0, min(n_rows, n_cols) + 1)
    rows, cols = rng.permutation(n_rows)[:m], rng.permutation(n_cols)[:m]
    z = rng.normal(size=m) + 1j * rng.normal(size=m)
    M = np.zeros((n_rows, n_cols), dtype=complex)
    M[rows, cols] = z

    def frame(n):
        idx = rng.permutation(n) if seed % 2 else rng.integers(0, n, size=n)
        return idx, np.exp(1j * rng.uniform(0, 6.3, size=n)) * rng.uniform(0.9, 1.1, size=n)
    f_frame, g_frame = frame(n_cols), frame(n_rows)
    sv = rng.uniform(0.0, 3.0, size=min(n_rows, n_cols))
    s = np.zeros((n_rows, n_cols))
    s[np.diag_indices(len(sv))] = sv
    dense = np.linalg.norm(M @ frame_matrix(*f_frame) - frame_matrix(*g_frame) @ s)
    assert grading._product_defect((rows, cols, z), n_cols, f_frame, g_frame, sv) \
        == pytest.approx(dense, rel=1e-13, abs=1e-15)
    f = frame_matrix(*f_frame)
    assert grading._gram_defect(*f_frame) == pytest.approx(
        np.linalg.norm(f.conj().T @ f - np.eye(n_cols)), rel=1e-13, abs=1e-15)


def test_monomial_scan_is_kept_on_the_operator():
    osc = oscillator_dirac(20)
    d = osc.D
    mono = _odd_monomial(d)
    d.eigenvalues()
    d.eig()
    lipschitz_derivative(d, osc.H)
    assert _odd_monomial(d) is mono
    # a monomial block given densely is not recorded as one
    diagonal = GradedOperator.odd_from_block(GradedSpace(3, 3), np.diag([1.0, 2.0, 3.0]))
    assert _odd_monomial(diagonal) is None
    assert _odd_monomial(random_even(GradedSpace(3, 3), np.random.default_rng(575))) is None


def test_diagonal_even_sector_reads_its_diagonal(monkeypatch):
    rng = np.random.default_rng(530)
    space = GradedSpace(5, 4)
    top, bottom = rng.normal(size=5), rng.normal(size=4)
    recorded = GradedOperator._diagonal_built(space, top, bottom)
    calls = count_linalg(monkeypatch)
    w = recorded.eigenvalues()
    assert calls == []
    assert np.array_equal(w, np.sort(np.concatenate([top, bottom])))
    assert np.array_equal(recorded.matrix, np.diag(np.concatenate([top, bottom])))
    # a diagonal block given densely is not recorded as one
    dense = GradedOperator.even_from_blocks(space, np.diag(top), np.diag(bottom),
                                            hermitian=True)
    assert grading._even_diagonal(dense, "+") is None
    assert np.array_equal(dense.eigenvalues(), np.sort(np.concatenate(
        [np.linalg.eigvalsh(np.diag(top)), np.linalg.eigvalsh(np.diag(bottom))])))
    assert calls[:2] == [("eigvalsh", (5, 5)), ("eigvalsh", (4, 4))]


def test_exactly_vanishing_commutator_takes_no_svd(monkeypatch):
    osc = oscillator_dirac(30)
    der = lipschitz_derivative(osc.D, osc.H)
    assert grading._odd_entries(der)[2].size == 0
    assert not np.any(der.matrix)
    calls = count_linalg(monkeypatch)
    assert operator_norm(der) == 0.0
    assert calls == []


@pytest.mark.parametrize("n_plus,n_minus", [(5, 3), (4, 4), (1, 6), (6, 0)])
@pytest.mark.parametrize("hermitian", [True, False])
def test_structured_constructors_match_the_full_route(n_plus, n_minus, hermitian):
    rng = np.random.default_rng(313 + 10 * n_plus + n_minus)
    space = GradedSpace(n_plus, n_minus)
    top = rng.normal(size=(n_plus, n_plus)) + 1j * rng.normal(size=(n_plus, n_plus))
    bottom = rng.normal(size=(n_minus, n_minus)) \
        + 1j * rng.normal(size=(n_minus, n_minus))
    full = np.zeros((space.n, space.n), dtype=complex)
    full[:n_plus, :n_plus] = top
    full[n_plus:, n_plus:] = bottom
    even = GradedOperator.even_from_blocks(space, top, bottom, hermitian=hermitian)
    ref = GradedOperator(full, space, parity="even", hermitian=hermitian)
    assert np.array_equal(even.matrix, ref.matrix)
    assert even.hermitian == ref.hermitian and even.parity == "even"

    lower = rng.normal(size=(n_minus, n_plus)) + 1j * rng.normal(size=(n_minus, n_plus))
    full = np.zeros((space.n, space.n), dtype=complex)
    full[n_plus:, :n_plus] = lower
    full[:n_plus, n_plus:] = lower.conj().T
    odd = GradedOperator.odd_from_block(space, lower)
    assert np.array_equal(odd.matrix, GradedOperator(full, space, parity="odd",
                                                     hermitian=True).matrix)


def _kept_operators():
    """One operator for each structure a constructor records, and a dense one."""
    rng = np.random.default_rng(580)
    space = GradedSpace(5, 4)
    top = random_even(GradedSpace(5, 5), rng).block("+", "+")
    h = GradedOperator._even_built(GradedSpace(5, 5), top, top)
    d = GradedOperator._odd_built(space, random_odd(space, rng).odd_block.copy())
    z = np.array([1.5, -2.0j, 0.0, 0.5 + 0.5j])
    mono = GradedOperator._monomial_built(space, np.array([3, 0, 1, 2]),
                                          np.array([4, 1, 0, 2]), z)
    t = GradedOperator(rng.normal(size=(9, 9)), space, hermitian=True)
    diagonal = GradedOperator._diagonal_built(space, np.array([2.0, 0.0, -1.0, 0.5, 3.0]),
                                              rng.normal(size=4))
    kept = {"shared-sectors": h, "sectors": random_even(space, rng, hermitian=False),
            "lower": d, "monomial": mono, "diagonal": diagonal,
            "commutator": lipschitz_derivative(mono, random_even(space, rng)),
            "entries-commutator": lipschitz_derivative(mono, diagonal),
            "non-hermitian-commutator": lipschitz_derivative(
                d, random_even(space, rng, hermitian=False)),
            "dense": t}
    return [pytest.param(op, id=name) for name, op in kept.items()]


@pytest.mark.parametrize("shape", MONOMIAL_SHAPES)
def test_commutator_of_a_diagonal_h_is_its_entries(shape, monkeypatch):
    # the entries are the products and the difference that the entrywise
    # route takes on H's dense blocks, and the norm is the largest |entry|
    d = monomial_odd(*shape, seed=584, zeros=0)
    rng = np.random.default_rng(585)
    top, bottom = rng.normal(size=shape[0]), rng.normal(size=shape[1])
    der = lipschitz_derivative(d, GradedOperator._diagonal_built(d.space, top, bottom))
    dense = lipschitz_derivative(d, GradedOperator.even_from_blocks(
        d.space, np.diag(top), np.diag(bottom), hermitian=True))
    assert grading._odd_entries(der) is not None and grading._odd_entries(dense) is None
    calls = count_linalg(monkeypatch)
    norm = operator_norm(der)
    assert calls == []
    assert np.array_equal(der.matrix, dense.matrix)
    assert norm == pytest.approx(operator_norm(dense), rel=1e-14)


@pytest.mark.parametrize("op", _kept_operators())
def test_gathers_read_the_kept_structure_bit_for_bit(op):
    rng = np.random.default_rng(581)
    size = {"+": op.space.n_plus, "-": op.space.n_minus}
    picks = [(row, col, rng.integers(0, size[row], size=6),
              rng.integers(0, size[col], size=5)) for row in "+-" for col in "+-"]
    # gathered before any block is formed, then compared with the matrix
    got = [op.gather(r, c, row, col) for row, col, r, c in picks]
    norm = op._frobenius()
    dense = GradedOperator._new(op.space, op.parity, op.hermitian, matrix=op._form())
    want = [dense.gather(r, c, row, col) for row, col, r, c in picks]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    for row in "+-":
        for col in "+-":
            assert op.block(row, col).tobytes() == \
                np.ascontiguousarray(dense.block(row, col)).tobytes()
    assert norm == pytest.approx(np.linalg.norm(dense.matrix), rel=1e-14)


def test_shared_sector_block_stays_shared():
    from localizer_lab.models import qwz_chern_model

    h = qwz_chern_model(8, 3.0).H
    top, bottom = h.block("+", "+"), h.block("-", "-")
    assert top is bottom
    p = positive_projection(h)
    p_top, p_bottom = p.block("+", "+"), p.block("-", "-")
    assert p_top is p_bottom


def test_monomial_record_is_the_scan_of_its_block():
    space = GradedSpace(4, 5)
    z = np.array([2.0, 0.0, -1j, 3.0])
    rows, cols = np.array([4, 0, 2, 1]), np.array([0, 1, 3, 2])
    kept = GradedOperator._monomial_built(space, rows, cols, z)
    b = kept.odd_block
    nonzero = np.nonzero(b)
    for got, want in zip(_odd_monomial(kept), (*nonzero, b[nonzero])):
        assert np.array_equal(got, want)


def test_commutator_of_hermitian_operators_keeps_its_lower_block_alone(monkeypatch):
    osc = oscillator_dirac(12)
    h = random_even(osc.space, np.random.default_rng(582))
    der = lipschitz_derivative(osc.D, h)
    assert der._matrix is None and ("+", "-") not in der._blocks
    compared = []
    monkeypatch.setattr(np, "array_equal", lambda *a: compared.append(a))
    assert operator_norm(der) == pytest.approx(np.linalg.norm(der.matrix, 2), rel=1e-12)
    assert compared == []
