"""Smooth even cutoff functions and their certified Fourier weights.

The cutoffs used to truncate a Dirac-type operator are even, take values in
[0, 1], equal 1 on [-1/2, 1/2], vanish outside [-1, 1], and decrease on the
positive axis.  The quantity that controls every commutator estimate in the
package is the weighted Fourier mass ||p * phihat(p)||_1, computed here by
composite Simpson quadrature together with an integration-by-parts tail bound
that certifies what the finite p-window misses.

Fourier convention: phihat(p) = (2 pi)^(-1/2) * integral phi(x) exp(-i x p) dx.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .errors import PreconditionError, ResolutionError

# Simpson steps in x and p and the p window of the Fourier weight; the
# halved-step check in fourier_weight guards them
DEFAULT_X_STEP = 1e-3
DEFAULT_P_STEP = 1e-2
DEFAULT_P_MAX = 200.0
VALIDATION_STEP = 1e-3  # grid step of validate_localizing on [0, 2]
SPLIT_BLOCK = 200  # p points per row of the split-exponential GEMM in _transform

PLATEAU_EDGE = 0.75  # midpoint of the transition window of the default family
SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# ----------------------------------------------------------------------------
# the mollifier: normalized bump exp(-1/(1-t^2)) on (-1, 1)
# ----------------------------------------------------------------------------

_BUMP_TABLE_POINTS = 200_001


def _bump_raw(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@lru_cache(maxsize=1)
def _bump_cdf_table():
    """Grid and normalized antiderivative of the bump, shared by all widths."""
    t = np.linspace(-1.0, 1.0, _BUMP_TABLE_POINTS)
    y = _bump_raw(t)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])
    total = cdf[-1]
    return t, cdf / total, total


@lru_cache(maxsize=8)
def _bump_derivative_l1(order: int) -> float:
    """L1 norm of the k-th derivative of the normalized bump.

    With s = 1 - t^2 the derivatives of b = exp(-1/s) are
    b^(k) = b P_k(t) / s^(2k), where P_0 = 1 and
    P_(k+1) = P_k' s^2 - 2 t P_k + 4 k t s P_k; the values feed the
    integration-by-parts tail bounds.
    """
    t_poly = Polynomial([0.0, 1.0])
    s_poly = 1.0 - t_poly**2
    p_k = Polynomial([1.0])
    for k in range(order):
        p_k = p_k.deriv() * s_poly**2 - 2.0 * t_poly * p_k + 4.0 * k * t_poly * s_poly * p_k
    t = np.linspace(-0.9995, 0.9995, 400_001)
    s = 1.0 - t * t
    vals = np.abs(np.exp(-1.0 / s) * p_k(t) / s ** (2 * order))
    _, _, total = _bump_cdf_table()
    return float(_simpson_uniform(vals, t[1] - t[0]) / total)


def _simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid with an even interval count."""
    n = len(y) - 1
    if n % 2 != 0:
        raise ValueError("Simpson rule needs an even number of intervals")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _simpson_weights(n_points: int, h: float) -> np.ndarray:
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


# ----------------------------------------------------------------------------
# localizing functions
# ----------------------------------------------------------------------------


@dataclass
class FourierWeightResult:
    weight: float
    c_phi: float
    tail_bound: float
    refinement_change: float


@dataclass
class LocalizingFunction:
    """An even cutoff together with its cached Fourier data.

    evaluator acts through |x|, which makes evenness hold bit-exactly.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    sample_grid: np.ndarray
    samples: np.ndarray
    fourier_weight: float
    c_phi: float
    tail_bound: float
    support_radius: float = 1.0
    plateau_radius: float = 0.5
    smoothing_width: float | None = None
    quad: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.evaluator(x)

    def scaled(self, rho: float) -> Callable:
        """Evaluator of phi(x / rho)."""
        ev = self.evaluator
        return lambda x: ev(np.asarray(x) / rho)


@dataclass
class ValidationReport:
    plateau: bool
    support: bool
    monotone: bool
    even: bool
    range_ok: bool

    @property
    def passed(self) -> bool:
        return self.plateau and self.support and self.monotone and self.even and self.range_ok


def _transform(evaluator, support_radius, p_max, x_step, p_step):
    """p grid and phihat on it, as a cosine transform.

    phi is even, so phihat(p) = (2 pi)^(-1/2) * integral phi(x) cos(px) dx.
    The symmetric Simpson grid on [-R, R] is folded onto its nodes x >= 0,
    doubling every weight but the one at x = 0: the quadrature rule is the
    same.  Each p_j = j dp is split as j = a B + b with 0 <= b < B, so that
    exp(i p_j x) = exp(i a B dp x) * exp(i b dp x).  Both factor tables are
    exact: each entry is one np.exp of its own phase, not a power or a
    running product, so no error accumulates along the grid.  phihat is then
    the real part of one complex GEMM, the coarse table (weights folded in)
    times the transposed fine table, read row by row.
    """
    R = support_radius
    nx = int(np.ceil(2.0 * R / x_step))
    nx += nx % 2
    half = nx // 2
    x = np.linspace(0.0, R, half + 1)
    wx = _simpson_weights(nx + 1, R / half)[half:]
    wx[1:] *= 2.0
    fw = wx * np.asarray(evaluator(x), dtype=float)

    np_pts = int(np.ceil(p_max / p_step))
    np_pts += np_pts % 2
    p = np.linspace(0.0, p_max, np_pts + 1)
    dp = p_max / np_pts
    n_coarse = -(-len(p) // SPLIT_BLOCK)
    coarse = np.exp(1j * np.outer(np.arange(n_coarse) * SPLIT_BLOCK * dp, x)) * fw
    fine = np.exp(1j * np.outer(np.arange(SPLIT_BLOCK) * dp, x))
    ph = (coarse @ fine.T).real.ravel()[:len(p)] / SQRT_2PI
    return p, ph


def _weight_once(evaluator, support_radius, p_max, x_step, p_step):
    p, ph = _transform(evaluator, support_radius, p_max, x_step, p_step)
    h = p[1] - p[0]
    return 2.0 * _simpson_uniform(np.abs(p * ph), h)


def fourier_weight(evaluator, support_radius=1.0, *, deriv3_l1: float,
                   deriv4_l1: float) -> FourierWeightResult:
    """||p * phihat(p)||_1 over [-P, P], P = DEFAULT_P_MAX, with a certified
    tail bound.

    The tail bound comes from |phihat(p)| <= ||phi^(k)||_1 / (sqrt(2 pi) |p|^k)
    for k in {3, 4}, with the derivative L1 norms supplied by the caller.  If
    halving both quadrature steps moves the result by more than 1 percent the
    quadrature is declared unresolved.
    """
    p_max, x_step, p_step = DEFAULT_P_MAX, DEFAULT_X_STEP, DEFAULT_P_STEP
    weight = _weight_once(evaluator, support_radius, p_max, x_step, p_step)
    refined = _weight_once(evaluator, support_radius, p_max, x_step / 2.0, p_step / 2.0)
    rel = abs(refined - weight) / max(abs(weight), 1e-300)
    if rel > 0.01:
        raise ResolutionError(
            f"fourier weight moved by {rel:.2%} when quadrature steps were "
            f"halved ({weight:.6g} -> {refined:.6g}); the cutoff is too steep "
            f"for the fixed quadrature, widen phi.smoothing_width"
        )
    tail = min(2.0 / SQRT_2PI * deriv3_l1 / p_max,
               2.0 / SQRT_2PI * deriv4_l1 / (2.0 * p_max**2))
    return FourierWeightResult(
        weight=float(weight),
        c_phi=float(2.0 * weight / SQRT_2PI),
        tail_bound=float(tail),
        refinement_change=rel,
    )


def _default_evaluator(w: float):
    tgrid, cdf, _ = _bump_cdf_table()

    def ev(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        s = (PLATEAU_EDGE - np.abs(x)) / w
        out = np.interp(s, tgrid, cdf)
        out = np.where(s <= -1.0, 0.0, out)
        out = np.where(s >= 1.0, 1.0, out)
        return float(out) if scalar else out

    return ev


def default_localizer(w: float = 0.25) -> LocalizingFunction:
    """Mollified plateau cutoff with transition half-width w.

    The function equals 1 on [-(3/4 - w), 3/4 - w] and vanishes outside
    [-(3/4 + w), 3/4 + w], both exactly; the transition is the integrated
    bump exp(-1/(1-t^2)).  Any w in (0, 1/4] keeps the plateau covering
    [-1/2, 1/2] and the support inside [-1, 1]; validate_localizing checks
    this before the Fourier weight is computed, and a failure raises
    PreconditionError.  Results are cached by value, however the arguments
    are passed.
    """
    # lru_cache keys on how arguments are passed: a positional and a keyword
    # call for the same phi would each build it.
    return _default_localizer(w)


@lru_cache(maxsize=32)
def _default_localizer(w: float) -> LocalizingFunction:
    if not (0.0 < w <= 0.25):
        raise ValueError(f"smoothing width must lie in (0, 1/4], got {w}")
    ev = _default_evaluator(w)
    report = validate_localizing(ev)
    if not report.passed:
        failed = [name for name, ok in vars(report).items() if not ok]
        raise PreconditionError(
            f"phi of width {w} fails validate_localizing ({', '.join(failed)}); "
            "the certificate assumes those properties"
        )
    res = fourier_weight(
        ev,
        support_radius=PLATEAU_EDGE + w,
        deriv3_l1=2.0 / w**2 * _bump_derivative_l1(2),
        deriv4_l1=2.0 / w**3 * _bump_derivative_l1(3),
    )
    grid = np.arange(-1.0, 1.0 + DEFAULT_X_STEP, DEFAULT_X_STEP)
    return LocalizingFunction(
        evaluator=ev,
        sample_grid=grid,
        samples=ev(grid),
        fourier_weight=res.weight,
        c_phi=res.c_phi,
        tail_bound=res.tail_bound,
        support_radius=PLATEAU_EDGE + w,
        plateau_radius=PLATEAU_EDGE - w,
        smoothing_width=w,
        quad={
            "x_step": DEFAULT_X_STEP, "p_step": DEFAULT_P_STEP,
            "p_max": DEFAULT_P_MAX,
            "refinement_change": res.refinement_change,
        },
    )


default_localizer.cache_info = _default_localizer.cache_info


def validate_localizing(phi) -> ValidationReport:
    """Check the defining properties of a localizing function on a grid.

    Plateau, support, and range are compared exactly; the definition states
    them as equalities and the default family satisfies them bit-exactly.
    """
    ev = phi.evaluator if isinstance(phi, LocalizingFunction) else phi
    x = np.arange(0.0, 2.0 + VALIDATION_STEP, VALIDATION_STEP)
    fx = np.asarray(ev(x), dtype=float)
    fneg = np.asarray(ev(-x), dtype=float)

    plateau = bool(np.all(fx[x <= 0.5] == 1.0))
    support = bool(np.all(fx[x > 1.0] == 0.0))
    monotone = bool(np.all(np.diff(fx) <= 1e-12))
    even = bool(np.all(fx == fneg))
    range_ok = bool(np.all((fx >= 0.0) & (fx <= 1.0)))

    return ValidationReport(
        plateau=plateau, support=support, monotone=monotone,
        even=even, range_ok=range_ok,
    )
