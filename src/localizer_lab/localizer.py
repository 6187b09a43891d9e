"""Assembly and certification of smooth and sharp spectral localizers.

Given an even invertible H, an odd hermitian D, and a localizing function phi,
the localizer at scale (kappa, rho) is

    L = Phi_rho gamma H Phi_rho + kappa Phi_2rho D Phi_2rho
        - (1 - Phi_2rho^4)^(1/2) gamma,          Phi_s = phi(D / s).

The error constant C = (kappa + c_phi ||H|| / rho) ||[D, H]|| controls both
the square expansion and the invertibility certificate; parameters are called
admissible when C < min(gap(H)^2, kappa^2 rho^2 / 4), which certifies

    min |eig(L)|^2 >= min(1, gap^2 - C, kappa^2 rho^2 / 4 - C).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    PreconditionError,
    SpectralCutError,
    TruncationTooSmallError,
)
from .grading import (
    EPS_INV,
    GradedOperator,
    GradedSpace,
    func_calc,
    gap,
    lipschitz_derivative,
    operator_norm,
)
from .localizing import LocalizingFunction

_C_REL_TOL = 1e-12


@dataclass(frozen=True)
class LocalizerParams:
    """Scale parameters with the derived admissibility data."""

    kappa: float
    rho: float
    gap: float
    dH_norm: float
    c_phi: float
    h_norm: float
    C_kr: float
    admissible: bool

    def __post_init__(self):
        expected = self.expected_C()
        if abs(self.C_kr - expected) > _C_REL_TOL * max(1.0, abs(expected)):
            raise InternalConsistencyError(
                f"C_kr = {self.C_kr!r} does not match its formula value {expected!r}"
            )
        if self.admissible != (expected < self.threshold()):
            raise InternalConsistencyError("admissible flag contradicts the inequality")

    def expected_C(self) -> float:
        return (self.kappa + self.c_phi * self.h_norm / self.rho) * self.dH_norm

    def threshold(self) -> float:
        return min(self.gap**2, self.kappa**2 * self.rho**2 / 4.0)

    def violated_inequality(self) -> str | None:
        """Human-readable statement of the failing admissibility constraint."""
        if self.admissible:
            return None
        parts = []
        if self.C_kr >= self.gap**2:
            parts.append(f"C = {self.C_kr:.6g} >= gap^2 = {self.gap**2:.6g}")
        quarter = self.kappa**2 * self.rho**2 / 4.0
        if self.C_kr >= quarter:
            parts.append(f"C = {self.C_kr:.6g} >= kappa^2 rho^2 / 4 = {quarter:.6g}")
        return " and ".join(parts)

    def certified_lower_bound(self) -> float:
        """Certified floor for min |eig(L)|^2 when admissible."""
        return min(1.0, self.gap**2 - self.C_kr,
                   self.kappa**2 * self.rho**2 / 4.0 - self.C_kr)


def make_params(kappa: float, rho: float, gap_h: float, dh_norm: float,
                c_phi: float, h_norm: float) -> LocalizerParams:
    if kappa <= 0 or rho <= 0:
        raise ValueError("kappa and rho must be positive")
    c = (kappa + c_phi * h_norm / rho) * dh_norm
    admissible = c < min(gap_h**2, kappa**2 * rho**2 / 4.0)
    return LocalizerParams(
        kappa=float(kappa), rho=float(rho), gap=float(gap_h),
        dH_norm=float(dh_norm), c_phi=float(c_phi), h_norm=float(h_norm),
        C_kr=float(c), admissible=bool(admissible),
    )


def constant_C(kappa: float, rho: float, H: GradedOperator, D: GradedOperator,
               phi: LocalizingFunction, gap_h: float | None = None,
               dh_norm: float | None = None,
               h_norm: float | None = None) -> LocalizerParams:
    """Error constant and admissibility verdict for the given scales."""
    if gap_h is None:
        gap_h = gap(H)
    if dh_norm is None:
        dh_norm = operator_norm(lipschitz_derivative(D, H))
    if h_norm is None:
        h_norm = operator_norm(H)
    return make_params(kappa, rho, gap_h, dh_norm, phi.c_phi, h_norm)


def select_scale(gap_min: float, dh_max: float, h_max: float, d_abs_min: float,
                 d_abs_max: float, phi: LocalizingFunction, margin: float = 1.1,
                 rho_max: float | None = None) -> LocalizerParams:
    """Admissible (kappa, rho) from worst-case constants.

    The constants are the smallest gap of H, the largest ||[D, H]||, the
    largest ||H|| and the range of |eig(D)|, each taken over every pair the
    scale must serve (one pair, or all steps of a path).  For commuting data
    ([D, H] = 0) any scale works and kappa = 1 with rho = max(1, ||D||) / 2 is
    used, nudged so the truncation window actually meets the spectrum of D.
    Otherwise kappa = gap^2 / (2 ||[D,H]||) and rho is margin times the
    smallest value satisfying both admissibility constraints.  Every
    denominator gap_t^2 - kappa dH_t is then at least gap^2 / 2, and every
    step's own requirement is at most the worst-case one.  A rho_max cap,
    when given, turns an out-of-range requirement into
    TruncationTooSmallError carrying the minimal usable rho.
    """
    if margin <= 1.0:
        raise ValueError("margin must exceed 1")
    if dh_max <= 1e-14 * max(1.0, h_max) * max(1.0, d_abs_max):
        kappa = 1.0
        rho = max(1.0, d_abs_max) / 2.0
        if rho_max is not None:
            rho = min(rho, rho_max)
        # ensure the window sees some spectrum: phi(min|eig D| / rho) > 0
        if d_abs_min >= phi.support_radius * rho:
            rho = d_abs_min / phi.plateau_radius
        if rho_max is not None and rho > rho_max:
            raise TruncationTooSmallError(
                f"spectrum of D starts at {d_abs_min:.4g}, beyond the resolvable "
                f"window rho_max = {rho_max:.4g}",
                rho_required=rho, rho_max=rho_max,
            )
        dh_max = 0.0  # [D, H] vanishes to rounding: certify with C = 0
    else:
        kappa = gap_min**2 / (2.0 * dh_max)
        denom = gap_min**2 - kappa * dh_max
        rho_floor = max(2.0 * gap_min / kappa, phi.c_phi * h_max * dh_max / denom)
        rho = margin * rho_floor
        if rho_max is not None and rho > rho_max:
            raise TruncationTooSmallError(
                f"admissibility needs rho >= {rho_floor:.4g} (with margin: {rho:.4g}) "
                f"but the truncation only resolves rho_max = {rho_max:.4g}",
                rho_required=rho_floor, rho_max=rho_max,
            )
    params = make_params(kappa, rho, gap_min, dh_max, phi.c_phi, h_max)
    if not params.admissible:
        raise InternalConsistencyError(
            "automatic parameter selection produced a non-admissible pair; "
            f"C = {params.C_kr:.4g} vs threshold {params.threshold():.4g}"
        )
    return params


def choose_params(H: GradedOperator, D: GradedOperator, phi: LocalizingFunction,
                  margin: float = 1.1, rho_max: float | None = None) -> LocalizerParams:
    """Automatic admissible parameter selection for one pair (see select_scale)."""
    gap_h = gap(H)
    dh = operator_norm(lipschitz_derivative(D, H))
    h_norm = operator_norm(H)
    d_abs = np.abs(D.eigenvalues())
    return select_scale(gap_h, dh, h_norm, float(d_abs.min()),
                        float(d_abs.max(initial=0.0)), phi, margin=margin,
                        rho_max=rho_max)


@dataclass
class LocalizerBundle:
    """Assembled localizer with its truncations and spectral summary.

    For scales where both truncations are the identity the Phi factors are not
    materialized and phi_identity is set.
    """

    L: GradedOperator
    params: LocalizerParams
    phi: LocalizingFunction | None
    Phi_rho: GradedOperator | None
    Phi_2rho: GradedOperator | None
    eigenvalues: np.ndarray
    min_abs_eigenvalue: float
    phi_identity: bool = False
    style: str = "smooth"

    @property
    def space(self) -> GradedSpace:
        return self.L.space


def assemble_localizer(H: GradedOperator, D: GradedOperator,
                       phi: LocalizingFunction,
                       params: LocalizerParams) -> LocalizerBundle:
    """Build L and its spectrum; admissible parameters must yield invertibility.

    When every eigenvalue of D sits inside the inner plateau of both windows
    the truncations are the identity and L = gamma H + kappa D is formed
    directly, skipping all dense function calculus.
    """
    space = H.space
    gdiag = space.gamma_diag
    kappa, rho = params.kappa, params.rho

    d_eigs = D.eigenvalues()
    vals_rho = np.asarray(phi.evaluator(d_eigs / rho), dtype=float)
    vals_2rho = np.asarray(phi.evaluator(d_eigs / (2.0 * rho)), dtype=float)

    if np.all(vals_rho == 1.0) and np.all(vals_2rho == 1.0):
        lm = (gdiag[:, None] * H.matrix) + kappa * D.matrix
        L = GradedOperator(lm, space, parity="none", hermitian=True)
        phi_identity = True
        Phi_rho = Phi_2rho = None
    else:
        # All three window operators are functions of D on one eigenbasis.
        # The tail factor in particular must not pass through a matrix
        # square root: sqrt is not Lipschitz at 0, and the plateau of
        # phi(./2rho) puts eigenvalues of 1 - Phi^4 exactly there, so
        # rebuilding the matrix first would turn 1e-16 roundoff into 1e-8
        # error.  It is applied pointwise to the spectrum instead.
        outer = phi.scaled(2.0 * rho)

        def tail(x):
            return np.sqrt(np.clip(1.0 - np.asarray(outer(x), dtype=float) ** 4,
                                   0.0, None))

        Phi_rho = func_calc(phi.scaled(rho), D)
        Phi_2rho = func_calc(outer, D)
        pr = Phi_rho.matrix
        p2 = Phi_2rho.matrix
        gH = gdiag[:, None] * H.matrix
        term_h = pr @ gH @ pr
        term_d = kappa * (p2 @ D.matrix @ p2)
        term_tail = func_calc(tail, D).matrix * gdiag[None, :]
        L = GradedOperator(term_h + term_d - term_tail, space,
                           parity="none", hermitian=True)
        phi_identity = False

    eigs = L.eigenvalues()
    min_abs = float(np.abs(eigs).min())
    scale = float(np.abs(eigs).max(initial=0.0))
    if params.admissible and min_abs <= EPS_INV * max(scale, 1e-300):
        raise InternalConsistencyError(
            f"admissible parameters produced a numerically singular localizer "
            f"(min |eig| = {min_abs:.3e}); the certificate is violated"
        )
    return LocalizerBundle(
        L=L, params=params, phi=phi, Phi_rho=Phi_rho, Phi_2rho=Phi_2rho,
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
    outer = bundle.phi.scaled(2.0 * bundle.params.rho)
    comp = func_calc(lambda x: (np.asarray(outer(x)) <= 0.0).astype(float), D).matrix
    lg = bundle.L.matrix + np.diag(bundle.space.gamma_diag).astype(complex)
    return float(operator_norm(lg @ comp))


# ----------------------------------------------------------------------------
# sharp localizer
# ----------------------------------------------------------------------------


def sharp_localizer(H: GradedOperator, D: GradedOperator, rho: float,
                    kappa: float, phi: LocalizingFunction,
                    params: LocalizerParams | None = None,
                    eps_edge_rel: float = 1e-8) -> LocalizerBundle:
    """Hard-cut localizer gamma(PHP - (1 - P)) + kappa P D P, P = 1_(-rho,rho)(D).

    Refuses when an eigenvalue of D sits within eps_edge of the cut, and when
    the window hypotheses P Phi_rho = Phi_rho, P Phi_2rho = P fail on the
    spectrum of D.
    """
    space = H.space
    dec = D.eig()
    w = dec.eigenvalues
    d_norm = float(np.abs(w).max(initial=0.0))
    eps_edge = eps_edge_rel * max(d_norm, 1e-300)
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

    pop = func_calc(lambda x: (np.abs(x) < rho).astype(float), D)
    pm = pop.matrix
    gdiag = space.gamma_diag
    php = pm @ H.matrix @ pm
    pdp = func_calc(lambda x: np.where(np.abs(x) < rho, x, 0.0), D).matrix
    eye = np.eye(space.n, dtype=complex)
    core = php - (eye - pm)
    lm = (gdiag[:, None] * core) + kappa * pdp
    L = GradedOperator(lm, space, parity="none", hermitian=True)

    if params is None:
        params = constant_C(kappa, rho, H, D, phi)
    eigs = np.linalg.eigvalsh(L.matrix)
    return LocalizerBundle(
        L=L, params=params, phi=phi, Phi_rho=pop, Phi_2rho=pop,
        eigenvalues=eigs, min_abs_eigenvalue=float(np.abs(eigs).min()),
        phi_identity=False, style="sharp",
    )
