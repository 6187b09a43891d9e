"""Assembly and certification of smooth and sharp spectral localizers.

Given an even invertible H, an odd hermitian D, and a localizing function phi,
the localizer at scale (kappa, rho) is

    L = Phi_rho gamma H Phi_rho + kappa Phi_2rho D Phi_2rho
        - (1 - Phi_2rho^4)^(1/2) gamma,          Phi_s = phi(D / s).

The hard-cut localizer is the same formula with the indicator of |x| < rho
as both windows, and one routine assembles both.

The error constant C = (kappa + c_phi ||H|| / rho) ||[D, H]|| controls both
the square expansion and the invertibility certificate; parameters are called
admissible when C < min(gap(H)^2, kappa^2 rho^2 / 4), which certifies

    min |eig(L)|^2 >= min(1, gap^2 - C, kappa^2 rho^2 / 4 - C).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    AdmissibilityError,
    InternalConsistencyError,
    PreconditionError,
    SpectralCutError,
)
from .grading import (
    EPS_EDGE_REL,
    EPS_INV,
    GradedOperator,
    GradedSpace,
    func_calc,
    gap,
    lipschitz_derivative,
    operator_norm,
)
from .localizing import LocalizingFunction


@dataclass(frozen=True)
class LocalizerParams:
    """A scale (kappa, rho) with the measured constants it is certified against.

    C_kr and admissible are derived from the six fields, which are coerced
    to Python floats.
    """

    kappa: float
    rho: float
    gap: float
    dH_norm: float
    c_phi: float
    h_norm: float

    def __post_init__(self):
        if self.kappa <= 0 or self.rho <= 0:
            raise ValueError("kappa and rho must be positive")
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @property
    def C_kr(self) -> float:
        """C = (kappa + c_phi ||H|| / rho) ||[D, H]||."""
        return (self.kappa + self.c_phi * self.h_norm / self.rho) * self.dH_norm

    @property
    def admissible(self) -> bool:
        return self.C_kr < self.threshold()

    def threshold(self) -> float:
        return min(self.gap**2, self.kappa**2 * self.rho**2 / 4.0)

    def require_admissible(self, prefix: str = "parameters are not admissible") -> None:
        """Raise AdmissibilityError naming every failing inequality after prefix."""
        if self.admissible:
            return
        parts = []
        if self.C_kr >= self.gap**2:
            parts.append(f"C = {self.C_kr:.6g} >= gap^2 = {self.gap**2:.6g}")
        quarter = self.kappa**2 * self.rho**2 / 4.0
        if self.C_kr >= quarter:
            parts.append(f"C = {self.C_kr:.6g} >= kappa^2 rho^2 / 4 = {quarter:.6g}")
        raise AdmissibilityError(f"{prefix}: " + " and ".join(parts))

    def certified_lower_bound(self) -> float:
        """Certified floor for min |eig(L)|^2 when admissible."""
        return min(1.0, self.gap**2 - self.C_kr,
                   self.kappa**2 * self.rho**2 / 4.0 - self.C_kr)


def measure_constants(H: GradedOperator,
                      D: GradedOperator) -> tuple[float, float, float, float, float]:
    """(gap(H), ||[D, H]||, ||H||, min |eig D|, max |eig D|), the measured
    inputs of select_scale in its argument order."""
    gap_h = gap(H)
    dh = operator_norm(lipschitz_derivative(D, H))
    h_norm = operator_norm(H)
    d_abs = np.abs(D.eigenvalues())
    return gap_h, dh, h_norm, float(d_abs.min()), float(d_abs.max(initial=0.0))


def constant_C(kappa: float, rho: float, H: GradedOperator, D: GradedOperator,
               phi: LocalizingFunction) -> LocalizerParams:
    """The scale (kappa, rho) with gap(H), ||[D, H]|| and ||H|| measured."""
    gap_h, dh, h_norm, _, _ = measure_constants(H, D)
    return LocalizerParams(kappa, rho, gap_h, dh, phi.c_phi, h_norm)


def select_scale(gap_min: float, dh_max: float, h_max: float, d_abs_min: float,
                 d_abs_max: float, phi: LocalizingFunction,
                 margin: float = 1.1) -> LocalizerParams:
    """Admissible (kappa, rho) from worst-case constants.

    The constants are the smallest gap of H, the largest ||[D, H]||, the
    largest ||H|| and the range of |eig(D)|, each taken over every pair the
    scale must serve (one pair, or all steps of a path).  For commuting data
    ([D, H] = 0) any scale works and kappa = 1 with rho = max(1, ||D||) / 2 is
    used, nudged so the truncation window actually meets the spectrum of D.
    Otherwise kappa = gap^2 / (2 ||[D,H]||) and rho is margin times the
    smallest value satisfying both admissibility constraints.  Every
    denominator gap_t^2 - kappa dH_t is then at least gap^2 / 2, and every
    step's own requirement is at most the worst-case one.
    """
    if margin <= 1.0:
        raise ValueError("margin must exceed 1")
    if dh_max <= 1e-14 * max(1.0, h_max) * max(1.0, d_abs_max):
        kappa = 1.0
        rho = max(1.0, d_abs_max) / 2.0
        # ensure the window sees some spectrum: phi(min|eig D| / rho) > 0
        if d_abs_min >= phi.support_radius * rho:
            rho = d_abs_min / phi.plateau_radius
        dh_max = 0.0  # [D, H] vanishes to rounding: certify with C = 0
    else:
        kappa = gap_min**2 / (2.0 * dh_max)
        denom = gap_min**2 - kappa * dh_max
        rho_floor = max(2.0 * gap_min / kappa, phi.c_phi * h_max * dh_max / denom)
        rho = margin * rho_floor
    params = LocalizerParams(kappa, rho, gap_min, dh_max, phi.c_phi, h_max)
    if not params.admissible:
        raise InternalConsistencyError(
            "automatic parameter selection produced a non-admissible pair; "
            f"C = {params.C_kr:.4g} vs threshold {params.threshold():.4g}"
        )
    return params


def choose_params(H: GradedOperator, D: GradedOperator, phi: LocalizingFunction,
                  margin: float = 1.1) -> LocalizerParams:
    """Automatic admissible parameter selection for one pair (see select_scale)."""
    return select_scale(*measure_constants(H, D), phi, margin=margin)


@dataclass
class LocalizerBundle:
    """Assembled localizer with its windows and spectral summary.

    ``outer`` is the scalar window x -> Phi_2rho(x).  For scales where both
    windows are the identity on the spectrum of D the Phi factors are not
    materialized and phi_identity is set.
    """

    L: GradedOperator
    params: LocalizerParams
    outer: Callable
    Phi_rho: GradedOperator | None
    Phi_2rho: GradedOperator | None
    eigenvalues: np.ndarray
    min_abs_eigenvalue: float
    phi_identity: bool = False

    @property
    def space(self) -> GradedSpace:
        return self.L.space


def assemble_localizer(H: GradedOperator, D: GradedOperator,
                       phi: LocalizingFunction,
                       params: LocalizerParams) -> LocalizerBundle:
    """Build L and its spectrum; admissible parameters must yield invertibility."""
    return _assemble(H, D, params, params.kappa, phi.scaled(params.rho),
                     phi.scaled(2.0 * params.rho))


def _assemble(H: GradedOperator, D: GradedOperator, params: LocalizerParams,
              kappa: float, inner: Callable, outer: Callable) -> LocalizerBundle:
    """L = Phi_in gamma H Phi_in + kappa Phi_out D Phi_out - (1 - Phi_out^4)^(1/2) gamma.

    Phi_in = inner(D) and Phi_out = outer(D).  When both windows are 1 on
    every eigenvalue of D, L = gamma H + kappa D is formed directly,
    skipping all function calculus.
    """
    gdiag = H.space.gamma_diag
    gH = gdiag[:, None] * H.matrix
    d_eigs = D.eigenvalues()
    phi_identity = bool(np.all(np.asarray(inner(d_eigs), dtype=float) == 1.0)
                        and np.all(np.asarray(outer(d_eigs), dtype=float) == 1.0))
    if phi_identity:
        lm = gH + kappa * D.matrix
        Phi_rho = Phi_2rho = None
    else:
        # All three window operators are functions of D on one eigenbasis.
        # The tail factor in particular must not pass through a matrix
        # square root: sqrt is not Lipschitz at 0, and the plateau of the
        # outer window puts eigenvalues of 1 - Phi^4 exactly there, so
        # rebuilding the matrix first would turn 1e-16 roundoff into 1e-8
        # error.  It is applied pointwise to the spectrum instead.
        def tail(x):
            return np.sqrt(np.clip(1.0 - np.asarray(outer(x), dtype=float) ** 4,
                                   0.0, None))

        Phi_rho = func_calc(inner, D)
        Phi_2rho = func_calc(outer, D)
        pr = Phi_rho.matrix
        p2 = Phi_2rho.matrix
        lm = (pr @ gH @ pr + kappa * (p2 @ D.matrix @ p2)
              - func_calc(tail, D).matrix * gdiag[None, :])
    L = GradedOperator(lm, H.space, parity="none", hermitian=True)

    eigs = L.eigenvalues()
    min_abs = float(np.abs(eigs).min())
    scale = float(np.abs(eigs).max(initial=0.0))
    if params.admissible and min_abs <= EPS_INV * max(scale, 1e-300):
        raise InternalConsistencyError(
            f"admissible parameters produced a numerically singular localizer "
            f"(min |eig| = {min_abs:.3e}); the certificate is violated"
        )
    return LocalizerBundle(
        L=L, params=params, outer=outer, Phi_rho=Phi_rho, Phi_2rho=Phi_2rho,
        eigenvalues=eigs, min_abs_eigenvalue=min_abs, phi_identity=phi_identity,
    )


# ----------------------------------------------------------------------------
# identities and certificates
# ----------------------------------------------------------------------------


def square_identity_residual(bundle: LocalizerBundle, H: GradedOperator,
                             D: GradedOperator) -> float:
    """Relative Frobenius residual of the exact expansion of L^2.

    L^2 = 1 - Phi_2^4 + kappa^2 D^2 Phi_2^4 + Phi_r^2 H^2 Phi_r^2
          + kappa Phi_r [D,H] gamma Phi_r + Phi_r [Phi_r H, [Phi_r, H]] Phi_r
    """
    space = bundle.space
    gdiag = space.gamma_diag
    kappa = bundle.params.kappa
    lm = bundle.L.matrix
    lsq = lm @ lm

    hm, dm = H.matrix, D.matrix
    eye = np.eye(space.n, dtype=complex)
    dh = dm @ hm - hm @ dm

    if bundle.phi_identity:
        rhs = kappa**2 * (dm @ dm) + hm @ hm + kappa * (dh * gdiag[None, :])
    else:
        pr = bundle.Phi_rho.matrix
        p2 = bundle.Phi_2rho.matrix
        p2sq = p2 @ p2
        p2q = p2sq @ p2sq
        prsq = pr @ pr
        h2 = hm @ hm
        comm = pr @ hm - hm @ pr
        prh = pr @ hm
        double = prh @ comm - comm @ prh
        rhs = (eye - p2q
               + kappa**2 * (dm @ dm @ p2q)
               + prsq @ h2 @ prsq
               + kappa * (pr @ ((dh * gdiag[None, :]) @ pr))
               + pr @ double @ pr)
    num = np.linalg.norm(lsq - rhs)
    return float(num / max(1.0, np.linalg.norm(lsq)))


def lower_bound_residual(bundle: LocalizerBundle, H: GradedOperator,
                         D: GradedOperator) -> float:
    """Smallest eigenvalue of L^2 - RHS for the certified spectral lower bound.

    RHS = 1 - Phi_2^4 + (kappa^2 rho^2 / 4 - C)(Phi_2^4 - Phi_r^4)
          + (gap^2 - C) Phi_r^4; nonnegativity (up to rounding) is the lemma.
    """
    p = bundle.params
    lm = bundle.L.matrix
    lsq = lm @ lm
    n = bundle.space.n
    eye = np.eye(n, dtype=complex)
    quarter = p.kappa**2 * p.rho**2 / 4.0
    if bundle.phi_identity:
        rhs = (p.gap**2 - p.C_kr) * eye
    else:
        p2 = bundle.Phi_2rho.matrix
        pr = bundle.Phi_rho.matrix
        p2q = np.linalg.matrix_power(p2, 4)
        prq = np.linalg.matrix_power(pr, 4)
        rhs = (eye - p2q
               + (quarter - p.C_kr) * (p2q - prq)
               + (p.gap**2 - p.C_kr) * prq)
    w = np.linalg.eigvalsh(lsq - rhs)
    return float(w[0])


def certificate_residual(bundle: LocalizerBundle) -> float:
    """min |eig(L)|^2 minus the certified floor; admissible data keep this >= -1e-9."""
    return float(bundle.min_abs_eigenvalue**2 - bundle.params.certified_lower_bound())


def support_residual(bundle: LocalizerBundle, D: GradedOperator) -> float:
    """Norm of (L + gamma) off the spectral support of the outer truncation.

    The localizer differs from -gamma only on the range of Phi_2rho; this
    returns ||(L + gamma)(1 - R)|| with R the range projection of Phi_2rho,
    read off from the spectrum of D.
    """
    if bundle.phi_identity:
        # R is the identity: the complement is zero.
        return 0.0
    outer = bundle.outer
    comp = func_calc(lambda x: (np.asarray(outer(x)) <= 0.0).astype(float), D).matrix
    lg = bundle.L.matrix + np.diag(bundle.space.gamma_diag).astype(complex)
    return float(operator_norm(lg @ comp))


# ----------------------------------------------------------------------------
# sharp localizer
# ----------------------------------------------------------------------------


def sharp_localizer(H: GradedOperator, D: GradedOperator, rho: float,
                    kappa: float, phi: LocalizingFunction) -> LocalizerBundle:
    """Hard-cut localizer gamma(PHP - (1 - P)) + kappa P D P, P = 1_(-rho,rho)(D).

    This is the smooth assembly with the indicator cut(x) = 1{|x| < rho} as
    both windows: P is even, so gamma commutes with it, and
    sqrt(1 - cut^4) = 1 - cut.  Refuses when an eigenvalue of D sits within
    EPS_EDGE_REL * ||D|| of the cut, and when the window hypotheses
    P Phi_rho = Phi_rho, P Phi_2rho = P fail on the spectrum of D.
    """
    w = D.eigenvalues()
    eps_edge = EPS_EDGE_REL * max(float(np.abs(w).max(initial=0.0)), 1e-300)
    dist = np.abs(np.abs(w) - rho)
    if np.any(dist <= eps_edge):
        bad = w[int(np.argmin(dist))]
        raise SpectralCutError(
            f"eigenvalue {bad!r} of D lies within {eps_edge:.3e} of the cut at "
            f"rho = {rho}"
        )
    sel = np.abs(w) < rho

    vr = np.asarray(phi.evaluator(w / rho), dtype=float)
    v2 = np.asarray(phi.evaluator(w / (2.0 * rho)), dtype=float)
    out_weight = float(np.abs(vr[~sel]).max(initial=0.0))
    if out_weight > 1e-10:
        raise PreconditionError(
            f"P Phi_rho = Phi_rho fails: phi(lambda/rho) = {out_weight:.3e} "
            "on an eigenvalue outside the cut"
        )
    in_defect = float(np.abs(1.0 - v2[sel]).max(initial=0.0))
    if in_defect > 1e-10:
        raise PreconditionError(
            f"P Phi_2rho = P fails: 1 - phi(lambda/(2 rho)) = {in_defect:.3e} "
            "on an eigenvalue inside the cut"
        )

    def cut(x):
        return (np.abs(x) < rho).astype(float)

    return _assemble(H, D, constant_C(kappa, rho, H, D, phi), kappa, cut, cut)
