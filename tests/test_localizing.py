import json
import math
from pathlib import Path

import numpy as np
import pytest

from localizer_lab import RunConfig, default_localizer, validate_localizing
from localizer_lab import localizing
from localizer_lab.cli import main
from localizer_lab.errors import PreconditionError, ResolutionError
from localizer_lab.localizing import (
    DEFAULT_P_MAX,
    DEFAULT_P_STEP,
    DEFAULT_X_STEP,
    SPLIT_BLOCK,
    SQRT_2PI,
    _bump_cdf_table,
    _bump_derivative_l1,
    _bump_raw,
    _simpson_weights,
    _transform,
    _weight_once,
    fourier_weight,
)

ORACLES = json.loads((Path(__file__).resolve().parent.parent / "oracles.json").read_text())


def test_default_shape_constants():
    phi = default_localizer()
    assert phi.plateau_radius == pytest.approx(0.5)
    assert phi.support_radius == pytest.approx(1.0)
    assert phi.smoothing_width == 0.25


def test_plateau_and_support_are_exact():
    phi = default_localizer()
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.all(phi(xs) == 1.0)
    outside = np.array([-2.0, -1.0, 1.0, 1.5, 7.0])
    assert np.all(phi(outside) == 0.0)


def test_even_and_range():
    phi = default_localizer()
    xs = np.linspace(0.0, 1.2, 400)
    vals = phi(xs)
    assert np.array_equal(vals, phi(-xs))
    assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_monotone_decreasing_on_transition():
    phi = default_localizer()
    xs = np.linspace(0.5, 1.0, 200)
    vals = phi(xs)
    assert np.all(np.diff(vals) <= 0)


def test_window_identities_pointwise():
    # the two exact relations the localizer assembly relies on
    phi = default_localizer()
    xs = np.linspace(-1.5, 1.5, 601)
    v = phi(xs)
    v_half = phi(xs / 2.0)
    assert np.all(v_half**2 * v == v)
    tail = np.sqrt(np.clip(1.0 - v_half**4, 0.0, None))
    assert np.all(tail * v == 0.0)


def test_narrower_width_shifts_edges():
    phi = default_localizer(0.1)
    assert phi.plateau_radius == pytest.approx(0.65)
    assert phi.support_radius == pytest.approx(0.85)
    assert phi(np.array([0.64])) == 1.0
    assert phi(np.array([0.86])) == 0.0


def test_width_domain_checked():
    with pytest.raises(ValueError):
        default_localizer(0.0)
    with pytest.raises(ValueError):
        default_localizer(0.3)


def test_frozen_fourier_constants():
    phi = default_localizer()
    frozen = ORACLES["phi"]
    rel = frozen["rel_tol"]
    assert phi.fourier_weight == pytest.approx(frozen["fourier_weight"], rel=rel)
    assert phi.c_phi == pytest.approx(frozen["c_phi"], rel=rel)
    assert phi.tail_bound > 0.0


def test_weight_below_cited_bound():
    phi = default_localizer()
    assert phi.fourier_weight + phi.tail_bound <= 8.0 * math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("w", [0.25, 0.1])
def test_weight_below_the_quadrature_free_cap(w):
    # Plancherel and Cauchy-Schwarz: ||p phihat||_1 <= sqrt(2 pi ||phi'||_2
    # ||phi''||_2).  On the transition s = (3/4 - |x|) / w, phi' = -sign(x)
    # b(s) / (Z w) and phi'' = b'(s) / (Z w^2), b the bump and Z its
    # integral, so both norms come from x-space sums with no p grid.
    t = np.linspace(-1.0, 1.0, 400_001)[1:-1]
    dt = t[1] - t[0]
    b = np.exp(-1.0 / (1.0 - t * t))
    db = b * (-2.0 * t / (1.0 - t * t) ** 2)
    z = b.sum() * dt
    d1 = math.sqrt(2.0 * (b * b).sum() * dt / (z * z * w))
    d2 = math.sqrt(2.0 * (db * db).sum() * dt / (z * z * w**3))
    phi = default_localizer(w)
    assert phi.fourier_weight + phi.tail_bound <= math.sqrt(2.0 * math.pi * d1 * d2)


def test_validation_report_passes():
    rep = validate_localizing(default_localizer())
    assert rep.plateau and rep.support and rep.monotone and rep.even and rep.range_ok
    assert rep.passed


def test_validation_flags_bad_function():
    rep = validate_localizing(lambda x: np.cos(np.asarray(x)))
    assert not rep.passed


def test_builder_refuses_a_phi_that_fails_validation(monkeypatch):
    # even, [0, 1]-valued, exact plateau and support, but not monotone: the
    # uncached builder must refuse it before any Fourier work
    def bumpy(w):
        def ev(x):
            a = np.abs(np.asarray(x, dtype=float))
            return np.where(a <= 0.5, 1.0,
                            np.where((a > 0.7) & (a <= 0.8), 1.0, 0.0))
        return ev

    monkeypatch.setattr(localizing, "_default_evaluator", bumpy)
    monkeypatch.setattr(localizing, "fourier_weight", None)
    with pytest.raises(PreconditionError, match=r"\(monotone\)"):
        localizing._default_localizer.__wrapped__(0.25)


def test_scaled_evaluator():
    phi = default_localizer()
    f = phi.scaled(4.0)
    assert f(np.array([1.9])) == 1.0
    assert f(np.array([4.1])) == 0.0


def test_fourier_weight_quadrature_stability():
    phi = default_localizer()
    fine = _weight_once(phi.evaluator, phi.support_radius, DEFAULT_P_MAX,
                        5e-4, 5e-3)
    change = abs(fine - phi.fourier_weight) / phi.fourier_weight
    assert change < 5e-3


def test_halved_step_gate_refuses_an_unresolved_cutoff():
    # a ripple of period 2.2e-3 is barely sampled at the default x step:
    # halving both steps moves the weight by about 6.3 percent
    def ripple(x):
        a = np.abs(np.asarray(x, dtype=float))
        return np.where(a <= 0.75, 0.5 * (1.0 + np.cos(2.0 * np.pi * a / 2.2e-3)), 0.0)

    with pytest.raises(ResolutionError, match="halved"):
        fourier_weight(ripple, deriv3_l1=1.0, deriv4_l1=1.0)


def test_split_exponential_transform_matches_direct_cosine_sum():
    # the default grid: 20001 p points, so the last GEMM row holds one point
    phi = default_localizer()
    R = phi.support_radius
    p, ph = _transform(phi.evaluator, R, DEFAULT_P_MAX, DEFAULT_X_STEP, DEFAULT_P_STEP)
    assert len(p) == 20001 and len(p) % SPLIT_BLOCK == 1
    # the folded Simpson rule summed directly over cos(p x), in row chunks
    nx = int(np.ceil(2.0 * R / DEFAULT_X_STEP))
    nx += nx % 2
    half = nx // 2
    x = np.linspace(0.0, R, half + 1)
    wx = _simpson_weights(nx + 1, R / half)[half:]
    wx[1:] *= 2.0
    fw = wx * phi(x)
    ref = np.concatenate([np.cos(np.outer(p[i:i + 2048], x)) @ fw
                          for i in range(0, len(p), 2048)]) / SQRT_2PI
    assert np.abs(ph - ref).max() <= 1e-13
    h = p[1] - p[0]
    w_ref = 2.0 * localizing._simpson_uniform(np.abs(p * ref), h)
    assert phi.fourier_weight == pytest.approx(w_ref, rel=1e-12)


@pytest.mark.parametrize("x_step", [1e-2, 1.3e-2])
def test_cosine_transform_matches_full_grid_quadrature(x_step):
    # Reference: the complex Simpson rule on the symmetric grid over [-R, R].
    # Folding it onto x >= 0 changes only the summation order; the second
    # step gives an odd number of intervals per half grid.
    phi = default_localizer()
    R = phi.support_radius
    p, ph = _transform(phi.evaluator, R, 50.0, x_step, 0.1)
    nx = int(np.ceil(2.0 * R / x_step))
    nx += nx % 2
    x = np.linspace(-R, R, nx + 1)
    fw = _simpson_weights(nx + 1, x[1] - x[0]) * phi(x)
    full = np.exp(-1j * np.outer(p, x)) @ fw / SQRT_2PI
    assert np.abs(full.imag).max() < 1e-12
    assert np.allclose(ph, full.real, rtol=0.0, atol=1e-12)


def test_export_samples_roundtrip(tmp_path):
    phi = default_localizer()
    out = tmp_path / "phi.csv"
    assert main(["export-phi", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,phi(x)"
    xs, vals = [], []
    for line in rows[1:]:
        a, b = line.split(",")
        xs.append(float(a))
        vals.append(float(b))
    xs = np.array(xs)
    vals = np.array(vals)
    assert np.array_equal(vals, phi(xs))


def test_cli_phi_shares_the_default_cache_entry():
    assert default_localizer() is RunConfig().phi()


def test_bump_cdf_table_matches_scipy_trapezoid():
    integrate = pytest.importorskip("scipy.integrate")
    t, cdf, total = _bump_cdf_table()
    ref = integrate.cumulative_trapezoid(_bump_raw(t), t, initial=0.0)
    assert total == ref[-1]
    assert np.array_equal(cdf, ref / ref[-1])


def test_bump_derivative_norms_pinned():
    assert _bump_derivative_l1(2) == pytest.approx(7.193161009992163, rel=1e-12)
    assert _bump_derivative_l1(3) == pytest.approx(80.28764954765701, rel=1e-12)
