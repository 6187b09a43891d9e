"""Half-signature classes, graded projections, and homotopy certificates.

A difference class here is one half of a signature difference between an
invertible reference and an invertible variation.  The localizer index is the
class of the pair (-gamma, L): one half of sign(L) - sign(-gamma), which the
admissibility certificate makes a well-defined integer.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassInconsistencyError,
    InternalConsistencyError,
    NotInvertibleError,
    ParityError,
)
from .grading import (
    TAU_SIG,
    GradedOperator,
    func_calc,
    operator_norm,
    symmetry_blocks,
)
from .localizer import (
    LocalizerBundle,
    LocalizerParams,
    assemble_localizer,
    choose_params,
    measure_constants,
    select_scale,
)
from .localizing import LocalizingFunction

# largest ||eig H| - 1| for which positive_projection tries P = (1 + H) / 2
FLAT_EIG_TOL = 1e-10


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and near-zero eigenvalues."""

    n_pos: int
    n_neg: int
    n_zero: int
    tau: float

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg

    @property
    def invertible(self) -> bool:
        return self.n_zero == 0


def _values_of(op) -> np.ndarray:
    if isinstance(op, GradedOperator):
        return op.eigenvalues()
    return np.asarray(op, dtype=float)


def signature(op) -> Inertia:
    """Spectral inertia with a zero band of half-width TAU_SIG * ||T||."""
    w = _values_of(op)
    tau = TAU_SIG * float(np.abs(w).max(initial=0.0))
    n_pos = int((w > tau).sum())
    n_neg = int((w < -tau).sum())
    return Inertia(n_pos=n_pos, n_neg=n_neg, n_zero=len(w) - n_pos - n_neg, tau=tau)


# ----------------------------------------------------------------------------
# difference classes
# ----------------------------------------------------------------------------


def half_signature_class(h_ref, h_var) -> int:
    """One half of sign(h_var) - sign(h_ref); both must be invertible."""
    s_ref = signature(h_ref)
    s_var = signature(h_var)
    if not s_ref.invertible:
        raise NotInvertibleError(
            f"reference operator has {s_ref.n_zero} eigenvalues inside the "
            f"zero band of width {s_ref.tau:.3e}"
        )
    if not s_var.invertible:
        raise NotInvertibleError(
            f"variation operator has {s_var.n_zero} eigenvalues inside the "
            f"zero band of width {s_var.tau:.3e}"
        )
    diff = s_var.signature - s_ref.signature
    if diff % 2 != 0:
        raise ClassInconsistencyError(
            f"signature difference {diff} is odd; the pair cannot bound a "
            "difference class"
        )
    return diff // 2


def positive_projection(H: GradedOperator) -> GradedOperator:
    """Spectral projection onto the positive part of an invertible hermitian H.

    An even H whose eigenvalues (already read by signature) are +-1 within
    FLAT_EIG_TOL takes P = (1 + H) / 2 sector by sector, with no eigensolve,
    when its measured defect ||P^2 - P|| = ||H^2 - 1|| / 4 passes the gate
    (_check_projection); any other H, or a failed gate, takes func_calc.
    """
    s = signature(H)
    if not s.invertible:
        raise NotInvertibleError(
            f"{s.n_zero} eigenvalues inside the zero band; positive projection "
            "is ill-defined"
        )
    if (H.parity == "even"
            and np.abs(np.abs(H.eigenvalues()) - 1.0).max() <= FLAT_EIG_TOL):
        # H's blocks are exactly hermitian, and so is (1 + b) / 2: entry (j, i)
        # is the conjugate of entry (i, j) computed the same way.  One block
        # kept for both sectors gives one block of P.
        h_top, h_bottom = H.block("+", "+"), H.block("-", "-")
        top = (np.eye(len(h_top)) + h_top) / 2.0
        bottom = top if h_bottom is h_top else (np.eye(len(h_bottom)) + h_bottom) / 2.0
        proj = GradedOperator._even_built(H.space, top, bottom)
        try:
            _check_projection(proj)
            return proj
        except InternalConsistencyError:
            pass
    proj = func_calc(lambda x: (x > 0).astype(float), H)
    _check_projection(proj)
    return proj


def _check_projection(p: GradedOperator) -> None:
    """Gate ||P^2 - P||_2 <= 1e-10 on the symmetry blocks of P."""
    blocks, slack = _idempotency_residual(p)
    check_defect(blocks, 1e-10, "projection defect", slack)


def _idempotency_residual(p: GradedOperator):
    """(R, slack) with ||P^2 - P||_2 <= max_mu ||R_mu||_2 + slack.

    R holds P_mu^2 - P_mu for the blocks P_mu of symmetry_blocks of each
    sector of an even P, or of P itself.  The pinching P_sym of P is
    block diagonal with blocks P_mu and lies within the Weyl bound w of P,
    so ||P^2 - P|| <= max_mu ||P_mu^2 - P_mu|| + w (1 + 2 ||P|| + w), with
    ||P|| <= max_mu ||P_mu||_F + w; slack is the larger of that term over
    the sectors.  Without a symmetry the one block is the sector itself and
    slack is 0.  The second sector reuses the first's blocks when one kept
    array holds both (the lattice's flat band).  The split is kept
    on P (symmetry_blocks), where compressed_index reads it again.
    """
    rows = ("+", "-") if p.parity == "even" else (None,)
    residual, slack, first = [], 0.0, None
    for row in rows:
        if row == "-" and p.block("-", "-") is p.block("+", "+"):
            residual += first
            continue
        split = symmetry_blocks(p, row, row)
        w = split.weyl
        norm = max(float(np.linalg.norm(b)) for b in split.blocks) + w
        slack = max(slack, w * (1.0 + 2.0 * norm + w))
        first = [b @ b - b for b in split.blocks]
        residual += first
    return residual, slack


def check_defect(blocks: list, limit: float, what: str, slack: float = 0.0) -> None:
    """Fail unless the operator norm of a residual, plus slack, is at most limit.

    The residual is given as the list of diagonal blocks of a block-diagonal
    matrix.  ||R||_2 <= ||R||_F, so a Frobenius norm (the root sum of
    squares of the block norms) within the limit passes on O(n^2) work.
    Otherwise the exact operator norm decides, the largest over the blocks,
    and it is the value the error reports, so every verdict matches a gate
    on the exact norm.  slack, added to either norm, bounds how far the
    gated operator lies from the blocks' direct sum (a Weyl term of
    symmetry blocks).
    """
    frobenius = functools.reduce(np.hypot, (np.linalg.norm(b) for b in blocks))
    if frobenius + slack <= limit:
        return
    value = max(operator_norm(b) for b in blocks) + slack
    if value > limit:
        raise InternalConsistencyError(f"{what} {value:.3e} exceeds {limit:.0e}")


# ----------------------------------------------------------------------------
# the localizer index
# ----------------------------------------------------------------------------


@dataclass
class LocalizerIndexReport:
    """Index value together with the scale record whose certificate backs it."""

    value: int
    signature_ref: int
    signature_var: int
    params: LocalizerParams
    min_gap: float

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "signature_ref": self.signature_ref,
            "signature_var": self.signature_var,
            "class": self.value,
            "admissible": p.admissible,
            "kappa": p.kappa,
            "rho": p.rho,
            "c_phi": p.c_phi,
            "C_kr": p.C_kr,
            "min_gap": self.min_gap,
        }


def localizer_index(H: GradedOperator, D: GradedOperator, phi: LocalizingFunction,
                    params: LocalizerParams | None = None) -> LocalizerIndexReport:
    """Class of the pair (-gamma, L), refused unless the parameters are admissible."""
    if params is None:
        params = choose_params(H, D, phi)
    params.require_admissible()
    bundle = assemble_localizer(H, D, phi, params)
    return index_from_bundle(bundle)


def index_from_bundle(bundle: LocalizerBundle) -> LocalizerIndexReport:
    """Index extraction for an already assembled (smooth or sharp) localizer.

    The class is half_signature_class of the pair (-gamma, L), with the
    exact spectrum -gamma_diag as the reference.  An eigenvalue counts as
    zero when |eigenvalue| less the bundle's eig_error is within the zero
    band, so a Weyl bound never lets an eigenvalue of L change sign unseen.
    L must equal -gamma off the range of Phi_2rho: the bundle's
    support_bound, read from its window block and D's frame, gates that.
    """
    params = bundle.params
    params.require_admissible()
    space = bundle.space
    eigs = bundle.eigenvalues
    tau = TAU_SIG * float(np.abs(eigs).max(initial=0.0))
    n_zero = int(np.count_nonzero(np.abs(eigs) - bundle.eig_error <= tau))
    if n_zero:
        raise NotInvertibleError(
            f"localizer has {n_zero} eigenvalues in the zero band despite an "
            "admissibility certificate; numerical contradiction"
        )
    value = half_signature_class(-space.gamma_diag, eigs)
    defect = bundle.support_bound()
    if defect > 1e-9:
        raise InternalConsistencyError(
            f"localizer differs from -gamma off the truncation range by up to "
            f"{defect:.3e} (limit 1e-9)"
        )
    sig_ref = space.n_minus - space.n_plus  # signature of -gamma, exact
    return LocalizerIndexReport(
        value=value,
        signature_ref=sig_ref,
        signature_var=sig_ref + 2 * value,
        params=params,
        min_gap=bundle.min_abs_eigenvalue,
    )


# ----------------------------------------------------------------------------
# homotopies
# ----------------------------------------------------------------------------


def phase_path(H: GradedOperator, steps: int) -> list[GradedOperator]:
    """Homotopy H |H|^(-t) from H to its unitary phase, t on [0, 1]."""
    out = []
    for t in np.linspace(0.0, 1.0, steps):
        out.append(func_calc(lambda x, p=t: np.sign(x) * np.abs(x) ** (1.0 - p), H))
    return out


@dataclass
class HomotopyStep:
    index: int
    signature: int
    min_abs_eig: float
    step_norm: float | None
    no_crossing: bool | None


@dataclass
class HomotopyReport:
    kappa: float
    rho: float
    constant: bool
    values: list[int]
    steps: list[HomotopyStep]
    failing_step: int | None

    @property
    def value(self) -> int:
        return self.values[0]


def homotopy_stability(path: list[GradedOperator], D: GradedOperator,
                       phi: LocalizingFunction) -> HomotopyReport:
    """Track the localizer class along a path of H at one common admissible scale.

    The scale comes from the worst constants along the path (see
    _path_report), and each consecutive pair is certified by a
    no-crossing argument: when the operator-norm step is smaller than both
    endpoint gaps no eigenvalue can reach zero in between, so the signature
    cannot jump unseen.  A failure pinpoints the first step where the class
    moves or the certificate breaks.
    """
    return _path_report([(h_t, D) for h_t in path], phi, "a path step")


def _path_report(pairs: list[tuple[GradedOperator, GradedOperator]],
                 phi: LocalizingFunction, where: str) -> HomotopyReport:
    """Localizers of the (H_t, D_t) path at one common scale, certified
    pairwise by Weyl no-crossing.

    Per pair measure_constants gives gap(H_t), ||[D_t, H_t]||, ||H_t|| and
    the range of |eig(D_t)|; select_scale turns the worst of each into the
    common scale.
    """
    gaps, dhs, norms, d_mins, d_maxs = zip(*(measure_constants(h_t, d_t)
                                             for h_t, d_t in pairs))
    params = select_scale(min(gaps), max(dhs), max(norms), min(d_mins),
                          max(d_maxs), phi)
    reports = []
    bundles = []
    for (h_t, d_t), g_t, dh_t, n_t in zip(pairs, gaps, dhs, norms):
        pt = LocalizerParams(params.kappa, params.rho, g_t, dh_t, phi.c_phi, n_t)
        pt.require_admissible(f"common scale is not admissible at {where}")
        bundle = assemble_localizer(h_t, d_t, phi, pt)
        reports.append(index_from_bundle(bundle))
        bundles.append(bundle)
    steps = []
    values = [r.value for r in reports]
    failing = None
    for i, (r, b) in enumerate(zip(reports, bundles)):
        if i == 0:
            steps.append(HomotopyStep(i, r.signature_var, b.min_abs_eigenvalue,
                                      None, None))
            continue
        delta = operator_norm(b.L.matrix - bundles[i - 1].L.matrix)
        ok = delta < min(b.min_abs_eigenvalue, bundles[i - 1].min_abs_eigenvalue)
        steps.append(HomotopyStep(i, r.signature_var, b.min_abs_eigenvalue,
                                  float(delta), bool(ok)))
        if failing is None and (values[i] != values[i - 1] or not ok):
            failing = i
    return HomotopyReport(
        kappa=params.kappa, rho=params.rho,
        constant=all(v == values[0] for v in values) and failing is None,
        values=values, steps=steps, failing_step=failing,
    )


def dirac_path(D: GradedOperator, T: GradedOperator, steps: int) -> list[GradedOperator]:
    """Straight-line path D + tT for an odd bounded perturbation T, t on [0, 1]."""
    if T.parity != "odd" or not T.hermitian:
        raise ParityError("Dirac perturbations must be odd hermitian")
    if T.space != D.space:
        raise ParityError("Dirac perturbation lives on a different graded space")
    return [GradedOperator(D.matrix + t * T.matrix, D.space, parity="odd",
                           hermitian=True)
            for t in np.linspace(0.0, 1.0, steps)]


def dirac_path_stability(H: GradedOperator, path: list[GradedOperator],
                         phi: LocalizingFunction) -> HomotopyReport:
    """Track the localizer class while the Dirac operator moves along a path.

    The dual of homotopy_stability: H is fixed, D varies, and the common
    scale and the no-crossing certificate come from the same _path_report.
    """
    return _path_report([(H, d_t) for d_t in path], phi, "a Dirac-path step")
