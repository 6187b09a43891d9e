"""Seeded property suites: inequality bounds, exact identities, homotopy paths.

The CLI `verify` command and the acceptance tests both run these, so a
failure in either entry point reproduces in the other with the same seed.
Each suite returns CheckResult records aggregating one named contract over a
seeded corpus; failing instances are listed by label.  A model-zoo label is
the `--model` address that rebuilds the instance (`parse_model(label)`); a
label `s<k>` names the k-th seeded random instance of the suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grading import (
    GradedOperator,
    GradedSpace,
    func_calc,
    lipschitz_derivative,
    operator_norm,
)
from .ktheory import (
    dirac_path,
    dirac_path_stability,
    homotopy_stability,
    phase_path,
)
from .localizer import (
    assemble_localizer,
    certificate_residual,
    choose_params,
    constant_C,
    square_residuals,
    support_residual,
)
from .localizing import LocalizingFunction
from .models import parse_model

SQUARE_TOL = 1e-9
LOWER_TOL = 1e-9
CERT_TOL = 1e-9
SUPPORT_TOL = 1e-9
WINDOW_PRODUCT_TOL = 1e-10
COVARIANCE_TOL = 1e-9

BOUNDS_INSTANCES = 200  # seeded instances per bounds contract
IDENTITY_INSTANCES = 100  # seeded random instances of the identities suite
HOMOTOPY_STEPS = 11  # points on every homotopy path, endpoints included
EVEN_GAP_FLOOR = 0.3  # spectral gap of random_even_invertible

# Models by --model address; each instance is parse_model(address).  ZOO is
# the identities suite's zoo, HOMOTOPY_MODELS the model cases of suite_homotopy.
ZOO = (
    "oscillator:n=40",
    "qwz:L=10,m=1.0",
    "qwz:L=10,m=3.0",
    "mk:k=2,seed=0",
    "random:strength=0.02,seed=1",
)
HOMOTOPY_MODELS = ("oscillator:n=40", "random:strength=0.02,seed=2")

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items], in order; BLAS threads are the only parallelism.

    The sweep and the suites map their cells through this one name, so a
    layer trace that wraps it by name reports the mapped work as one span.
    """
    return [fn(x) for x in items]


@dataclass
class CheckResult:
    """One named contract measured over a corpus of instances."""

    name: str
    passed: bool
    measured: float
    bound: float
    count: int
    detail: str = ""
    failing: list[str] = field(default_factory=list)

    @classmethod
    def over(cls, name: str, rows: list[tuple[str, float]], bound: float,
             detail: str) -> "CheckResult":
        """value <= bound on every (label, value) row: the worst value and
        the labels over the bound."""
        failing = [label for label, v in rows if v > bound]
        return cls(name=name, passed=not failing,
                   measured=max(v for _, v in rows), bound=bound,
                   count=len(rows), detail=detail, failing=failing)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"{status} {self.name}: measured {self.measured:.3e} vs "
               f"contract {self.bound:.3e} over {self.count} instances")
        if self.detail:
            out += f" ({self.detail})"
        if self.failing:
            out += " failing: " + ", ".join(self.failing)
        return out


# ----------------------------------------------------------------------------
# seeded generators
# ----------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_space(rng: np.random.Generator, max_side: int = 40) -> GradedSpace:
    """Sector dimensions drawn uniformly from [2, max_side]."""
    return GradedSpace(int(rng.integers(2, max_side + 1)),
                       int(rng.integers(2, max_side + 1)))


def random_odd(rng: np.random.Generator, space: GradedSpace,
               scale: float = 1.0) -> GradedOperator:
    lower = scale * _ginibre(rng, space.n_minus, space.n_plus)
    return GradedOperator.odd_from_block(space, lower)


def random_even_invertible(rng: np.random.Generator,
                           space: GradedSpace) -> GradedOperator:
    """Even hermitian with |spectrum| >= EVEN_GAP_FLOOR, both signs possible."""
    blocks = []
    for k in (space.n_plus, space.n_minus):
        u = _random_unitary(rng, k)
        signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        vals = signs * (EVEN_GAP_FLOOR + 1.7 * rng.random(k))
        blocks.append((u * vals) @ u.conj().T)
    return GradedOperator.even_from_blocks(space, blocks[0], blocks[1],
                                           hermitian=True)


def random_hermitian(rng: np.random.Generator, space: GradedSpace,
                     scale: float = 1.0) -> GradedOperator:
    m = scale * _ginibre(rng, space.n, space.n)
    return GradedOperator(m, space, parity="none", hermitian=True)


def random_graded_unitary(rng: np.random.Generator,
                          space: GradedSpace) -> np.ndarray:
    u = np.zeros((space.n, space.n), dtype=complex)
    k = space.n_plus
    u[:k, :k] = _random_unitary(rng, k)
    u[k:, k:] = _random_unitary(rng, space.n_minus)
    return u


# ----------------------------------------------------------------------------
# corpora
# ----------------------------------------------------------------------------


def zoo_instances(addresses=ZOO) -> list[tuple[str, GradedOperator, GradedOperator]]:
    """(address, H, D) for each model address, the model built by parse_model."""
    out = []
    for address in addresses:
        desc = parse_model(address)
        out.append((address, desc.H, desc.D))
    return out


def _random_identity_instance(phi: LocalizingFunction, base_seed: int, s: int):
    rng = np.random.default_rng((201, base_seed, s))
    space = random_space(rng)
    h = random_even_invertible(rng, space)
    d = random_odd(rng, space, scale=float(rng.uniform(0.5, 2.0)))
    kappa = float(rng.uniform(0.2, 2.0))
    rho = float(rng.uniform(0.4, 1.6)) * operator_norm(d)
    params = constant_C(kappa, rho, h, d, phi)
    return f"s{s}", h, d, params, rng


# ----------------------------------------------------------------------------
# bounds suite
# ----------------------------------------------------------------------------


def suite_bounds(phi: LocalizingFunction, base_seed: int = 0) -> list[CheckResult]:
    """Fourier-side inequalities: commutator scaling and perturbation bound.

    Both contracts use the measured transform weight plus the analytic tail
    bound, so a violation means the inequality itself failed, not the
    quadrature.
    """
    slack = phi.fourier_weight + phi.tail_bound

    def one_commutator(s: int) -> tuple[str, float]:
        rng = np.random.default_rng((101, base_seed, s))
        space = random_space(rng, max_side=30)
        d = random_odd(rng, space, scale=float(rng.uniform(0.5, 2.0)))
        t = random_hermitian(rng, space)
        rho = float(rng.uniform(0.25, 2.5)) * max(operator_norm(d), 1e-6)
        window = func_calc(phi.scaled(rho), d)
        lhs = operator_norm(window.matrix @ t.matrix - t.matrix @ window.matrix)
        dt = operator_norm(lipschitz_derivative(d, t))
        rhs = dt * slack / (rho * _SQRT_2PI)
        return f"s{s}", lhs / max(rhs, 1e-300)

    def one_perturbation(s: int) -> tuple[str, float]:
        rng = np.random.default_rng((102, base_seed, s))
        space = random_space(rng, max_side=30)
        d = random_odd(rng, space)
        nrm = operator_norm(d)
        d = GradedOperator(d.matrix * (float(rng.uniform(0.5, 2.0)) / nrm),
                           space, parity="odd", hermitian=True)
        r = random_hermitian(
            rng, space,
            scale=float(10.0 ** rng.uniform(-3.0, 0.0)) / np.sqrt(space.n))
        shifted = GradedOperator(d.matrix + r.matrix, space, parity="none",
                                 hermitian=True)
        lhs = operator_norm(func_calc(phi, shifted).matrix
                            - func_calc(phi, d).matrix)
        rhs = operator_norm(r) * slack / _SQRT_2PI
        return f"s{s}", lhs / max(rhs, 1e-300)

    return [CheckResult.over(name, parallel_map(worker, range(BOUNDS_INSTANCES)),
                             1.0, "ratio of measured norm to certified bound")
            for name, worker in (("commutator_bound", one_commutator),
                                 ("perturbation_bound", one_perturbation))]


# ----------------------------------------------------------------------------
# identities suite
# ----------------------------------------------------------------------------


def suite_identities(phi: LocalizingFunction,
                     base_seed: int = 0) -> list[CheckResult]:
    """Exact localizer identities over random instances plus the model zoo.

    Checks the square expansion, the spectral lower bound, the invertibility
    certificate on admissible instances, the support of L + gamma, the window
    product relation, and unitary covariance.
    """

    def measure(label, h, d, params, unitary_rng=None):
        bundle = assemble_localizer(h, d, phi, params)
        l_norm = float(np.abs(bundle.eigenvalues).max())
        square, lower = square_residuals(bundle, h, d)
        rows = {
            "square_identity": (label, square),
            "lower_bound": (label, -lower / max(1.0, l_norm**2)),
            "support": (label, support_residual(bundle, d)),
        }
        if params.admissible:
            # 0.0 - x, not -x: an exact 0.0 residual is reported as +0.0
            rows["certificate"] = (label, 0.0 - certificate_residual(bundle))
        if bundle.Phi_rho is not None:
            prod = bundle.Phi_rho.matrix @ bundle.Phi_2rho.matrix
            rows["window_product"] = (
                label, operator_norm(prod - bundle.Phi_rho.matrix))
        if unitary_rng is not None:
            u = random_graded_unitary(unitary_rng, h.space)
            hu = GradedOperator(u @ h.matrix @ u.conj().T, h.space,
                                parity="even", hermitian=True)
            du = GradedOperator(u @ d.matrix @ u.conj().T, d.space,
                                parity="odd", hermitian=True)
            moved = assemble_localizer(hu, du, phi, params)
            rows["unitary_covariance"] = (
                label,
                operator_norm(moved.L.matrix - u @ bundle.L.matrix @ u.conj().T))
        return rows

    def one_random(s: int):
        label, h, d, params, rng = _random_identity_instance(phi, base_seed, s)
        out = [measure(label, h, d, params,
                       unitary_rng=rng if s % 10 == 0 else None)]
        if s % 5 == 0:
            auto = choose_params(h, d, phi)
            out.append(measure(label + ":auto", h, d, auto))
        return out

    collected: dict[str, list[tuple[str, float]]] = {}
    for rows_list in parallel_map(one_random, range(IDENTITY_INSTANCES)):
        for rows in rows_list:
            for key, row in rows.items():
                collected.setdefault(key, []).append(row)
    for label, h, d in zoo_instances():
        rows = measure(label, h, d, choose_params(h, d, phi))
        for key, row in rows.items():
            collected.setdefault(key, []).append(row)

    contracts = {
        "square_identity": (SQUARE_TOL, "relative Frobenius residual of L^2"),
        "lower_bound": (LOWER_TOL, "negative part of L^2 - RHS over ||L||^2"),
        "certificate": (CERT_TOL, "certified floor minus min |eig(L)|^2"),
        "support": (SUPPORT_TOL, "||(L + gamma)(1 - R_2rho)||"),
        "window_product": (WINDOW_PRODUCT_TOL, "||Phi_rho Phi_2rho - Phi_rho||"),
        "unitary_covariance": (COVARIANCE_TOL, "||L(UHU*, UDU*) - U L U*||"),
    }
    return [CheckResult.over(key, collected[key], tol, detail)
            for key, (tol, detail) in contracts.items() if key in collected]


# ----------------------------------------------------------------------------
# homotopy suite
# ----------------------------------------------------------------------------


def suite_homotopy(phi: LocalizingFunction, base_seed: int = 0) -> list[CheckResult]:
    """Constancy of the class along phase and Dirac-perturbation paths.

    Every path must keep the integer fixed and every consecutive step must
    carry the discrete no-crossing certificate (step norm below both endpoint
    gaps).
    """
    cases = zoo_instances(HOMOTOPY_MODELS)
    for s in range(3):
        rng = np.random.default_rng((301, base_seed, s))
        space = random_space(rng, max_side=20)
        h = random_even_invertible(rng, space)
        d = random_odd(rng, space)
        cases.append((f"s{s}", h, d))

    def one_phase(item):
        _, (label, h, d) = item
        report = homotopy_stability(phase_path(h, HOMOTOPY_STEPS), d, phi)
        return label, report

    def one_dirac(item):
        idx, (label, h, d) = item
        rng = np.random.default_rng((302, base_seed, idx))
        t = random_odd(rng, d.space,
                       scale=0.1 * operator_norm(d) / np.sqrt(d.space.n))
        report = dirac_path_stability(h, dirac_path(d, t, HOMOTOPY_STEPS), phi)
        return label, report

    results = []
    for name, worker in (("phase_path", one_phase), ("dirac_path", one_dirac)):
        rows = parallel_map(worker, enumerate(cases))
        worst = 0.0
        failing = []
        for label, report in rows:
            for i, st in enumerate(report.steps):
                if st.index == 0:
                    continue
                endpoint_gap = min(report.steps[i - 1].min_abs_eig,
                                   st.min_abs_eig)
                worst = max(worst, st.step_norm / max(endpoint_gap, 1e-300))
            if not report.constant:
                failing.append(f"{label}@step{report.failing_step}")
        results.append(CheckResult(
            name=name, passed=not failing, measured=worst, bound=1.0,
            count=len(rows),
            detail="worst step norm over endpoint gap; class constant required",
            failing=failing,
        ))
    return results


SUITES = {
    "bounds": suite_bounds,
    "identities": suite_identities,
    "homotopy": suite_homotopy,
}
SUITE_CHOICES = (*SUITES, "all")  # run_suite's names; "all" runs SUITES in order


def run_suite(name: str, phi: LocalizingFunction,
              base_seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them in order."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(phi, base_seed=base_seed))
        return out
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_CHOICES)}")
    return SUITES[name](phi, base_seed=base_seed)
