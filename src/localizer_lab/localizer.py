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

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    AdmissibilityError,
    InternalConsistencyError,
    ParityError,
    PreconditionError,
    SpectralCutError,
)
from .grading import (
    EPS_INV,
    GradedOperator,
    GradedSpace,
    eigenvalue_at_cut,
    func_calc,
    gap,
    lipschitz_derivative,
    operator_norm,
    sector_runs,
    symmetry_blocks,
)
from .localizing import LocalizingFunction


@dataclass(frozen=True)
class LocalizerParams:
    """A scale (kappa, rho) with the measured constants it is certified against.

    C_kr and admissible are derived from the six fields, which are coerced
    to Python floats.  A scale whose kappa, rho, C_kr or kappa^2 rho^2 / 4
    is not a finite float is refused with AdmissibilityError.
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
        try:
            scales = (self.kappa, self.rho, self.C_kr, self.kappa**2 * self.rho**2 / 4.0)
        except OverflowError:
            scales = (math.inf,)
        if not all(math.isfinite(x) for x in scales):
            raise AdmissibilityError(
                f"kappa = {self.kappa!r}, rho = {self.rho!r} is out of range: kappa, "
                "rho, C and kappa^2 rho^2 / 4 must be finite floats")

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


class LocalizerBundle:
    """Spectrum of an assembled localizer, with L and its windows on demand.

    ``eigenvalues`` (sorted) and ``min_abs_eigenvalue`` are computed at
    assembly.  ``L``, ``Phi_rho`` and ``Phi_2rho`` are built when first
    read: the windows by func_calc of D, and L from its block L_S on the
    window S of D's sector basis, kept whole or, on the pair route, as its
    diagonal and pair couplings.  ``outer`` is the scalar window
    x -> Phi_2rho(x).  For scales where both windows are the identity on
    the spectrum of D, L is given at assembly, kept as H and D
    (_identity_window), the Phi factors are None and phi_identity is set.  ``eig_error`` bounds how far each listed
    eigenvalue may lie from one of L's (the Weyl bound of a symmetry block
    route, else 0), and ``min_abs_eigenvalue`` is the smallest |eigenvalue|
    less eig_error.
    """

    def __init__(self, params: LocalizerParams, D: GradedOperator,
                 inner: Callable, outer: Callable, eigenvalues: np.ndarray,
                 L: GradedOperator | None = None,
                 window: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None,
                 pairs: tuple[np.ndarray, np.ndarray] | None = None,
                 eig_error: float = 0.0):
        self.params = params
        self.outer = outer
        self.eigenvalues = eigenvalues
        self.eig_error = eig_error
        self.min_abs_eigenvalue = max(0.0, float(np.abs(eigenvalues).min()) - eig_error)
        self.phi_identity = L is not None
        self._D = D
        self._inner = inner
        self._L = L
        self._window = window
        self._pairs = pairs
        self._phi = {}

    @property
    def space(self) -> GradedSpace:
        return self._D.space

    @property
    def L(self) -> GradedOperator:
        if self._L is None:
            # L = U_S (L_S + gamma_S) U_S^H - gamma with U = diag(V, W), since
            # U gamma U^H = gamma and U^H L U = -gamma off the window S
            # (see _windowed)
            s_plus, s_minus, block = self._window
            a = len(s_plus)
            if block is None:
                diag, couple = self._pairs
                gamma_s = np.concatenate([np.ones(a), -np.ones(len(s_minus))])
                block = _coupled(np.diag(diag + gamma_s), a, couple)
            u = self._D.eig().columns(s_plus, s_minus)
            lm = (u @ block) @ u.conj().T
            lm[np.diag_indices_from(lm)] -= self.space.gamma_diag
            self._L = GradedOperator(lm, self.space, parity="none", hermitian=True)
        return self._L

    @property
    def Phi_rho(self) -> GradedOperator | None:
        return self._window_of(self._inner)

    @property
    def Phi_2rho(self) -> GradedOperator | None:
        return self._window_of(self.outer)

    def _window_of(self, f: Callable) -> GradedOperator | None:
        if self.phi_identity:
            return None
        if f not in self._phi:
            self._phi[f] = func_calc(f, self._D)
        return self._phi[f]


def assemble_localizer(H: GradedOperator, D: GradedOperator,
                       phi: LocalizingFunction,
                       params: LocalizerParams) -> LocalizerBundle:
    """Build L and its spectrum; admissible parameters must yield invertibility."""
    return _assemble(H, D, params, phi.scaled(params.rho),
                     phi.scaled(2.0 * params.rho))


def _assemble(H: GradedOperator, D: GradedOperator, params: LocalizerParams,
              inner: Callable, outer: Callable) -> LocalizerBundle:
    """L = Phi_in gamma H Phi_in + kappa Phi_out D Phi_out - (1 - Phi_out^4)^(1/2) gamma.

    Phi_in = inner(D), Phi_out = outer(D) and kappa = params.kappa; both
    windows are even functions.  H must be even and D odd, both hermitian.
    When both windows are 1 on every eigenvalue of D, L = gamma H + kappa D
    skips all function calculus and is kept as H and D (_identity_window).
    Its spectrum comes from one eigvalsh per block of symmetry_blocks, with
    their Weyl bound as eig_error (one whole block and 0 when the symmetry
    is missing or fails).  Otherwise _windowed assembles L in D's sector
    basis.
    """
    if H.parity != "even" or D.parity != "odd" or not (H.hermitian and D.hermitian):
        raise ParityError("the localizer needs an even hermitian H and an odd "
                          "hermitian D")
    d_eigs = D.eigenvalues()
    if (np.all(np.asarray(inner(d_eigs), dtype=float) == 1.0)
            and np.all(np.asarray(outer(d_eigs), dtype=float) == 1.0)):
        L = _identity_window(H, D, params.kappa)
        split = symmetry_blocks(L)
        eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in split.blocks]))
        bundle = LocalizerBundle(params, D, inner, outer, eigs, L=L,
                                 eig_error=split.weyl)
    else:
        bundle = _windowed(H, D, params, inner, outer)
    eigs = bundle.eigenvalues
    min_abs = bundle.min_abs_eigenvalue
    scale = float(np.abs(eigs).max(initial=0.0))
    if params.admissible and min_abs <= EPS_INV * max(scale, 1e-300):
        raise InternalConsistencyError(
            f"admissible parameters produced a numerically singular localizer "
            f"(min |eig| = {min_abs:.3e}); the certificate is violated"
        )
    return bundle


def _identity_window(H: GradedOperator, D: GradedOperator, kappa: float) -> GradedOperator:
    """L = gamma H + kappa D, kept as H and D: each gather of L is the gather
    of H with its negative rows negated plus kappa times the gather of D,
    read from their sector blocks and entries, so a symmetry block of L
    needs no n x n array; ``matrix``, when read, takes the same sum over
    whole sector blocks.  Entry by entry these are the operations of the
    whole sum, kappa applied to D's entries before any phase, so the
    gathers and the matrix are those of the formed L bit for bit.  L is
    hermitian bit-exactly: gamma H is the even hermitian H with its negative
    sector negated and kappa D only fills the blocks H leaves zero.
    """
    space = H.space
    k, n = space.n_plus, space.n
    # ri = ci = None reads every entry: sector blocks, not gathers
    every = (("+", slice(0, k), None), ("-", slice(k, n), None))

    def take(ri, ci):
        if ri is None:
            x = np.empty((n, n), dtype=complex)
            row_runs = col_runs = every
        else:
            x = np.empty((len(ri), len(ci)), dtype=complex)
            row_runs, col_runs = sector_runs(space, ri), sector_runs(space, ci)
        for r, rs, r_local in row_runs:
            for c, cs, c_local in col_runs:
                part = x[rs, cs]
                gamma = 1.0 if r == "+" else -1.0
                if r_local is None:
                    h, d = H.block(r, c), D.block(r, c)
                else:
                    h, d = H.gather(r_local, c_local, r, c), D.gather(r_local, c_local, r, c)
                np.multiply(gamma, h, out=part)
                part += kappa * d
        return x
    return GradedOperator._gathered(space, "none", True, take)


def _windowed(H: GradedOperator, D: GradedOperator, params: LocalizerParams,
              inner: Callable, outer: Callable) -> LocalizerBundle:
    """Spectrum of the windowed localizer from its block L_S in D's sector basis.

    With D = [[0, B^H], [B, 0]] and B = W S V^H, the basis U = diag(V, W)
    leaves gamma unchanged, makes H block diagonal (V^H H_+ V, W^H H_- W)
    and makes every even function f of D diagonal: F_+ = f(sigma, 0, ...)
    on the columns of V and F_- = f(sigma, 0, ...) on those of W, the
    argument 0 standing on a sector's kernel columns.  With
    T = (1 - F_out^4)^(1/2) taken pointwise (sqrt is not Lipschitz at 0 and
    the plateau puts values of 1 - F_out^4 exactly there, so no matrix
    square root is formed), U^H L U is the graded 2 x 2 block matrix

        [[F_in+ V^H H_+ V F_in+ - diag(T_+),  kappa F_out^2 S^T],
         [kappa F_out^2 S,  -F_in- W^H H_- W F_in- + diag(T_-)]],

    whose odd block couples only v_i and w_i, by kappa F_out(sigma_i)^2 sigma_i.
    Let S_+ and S_- be the columns where a window is nonzero.  Off them
    U^H L U = -gamma, uncoupled from the rest, so it adds n_+ - |S_+|
    eigenvalues -1 and n_- - |S_-| eigenvalues +1, and only the block L_S
    on S is solved.  D's decomposition compresses H to S: when its pair
    test passes (compress_diagonal: a monomial frame and exactly diagonal
    sector blocks of H), H[S_+, S_+] and H[S_-, S_-] in the sector basis
    are diagonal and L_S is exactly a direct sum of the 2 x 2 blocks of the
    pairs (v_i, w_i) and the 1 x 1 blocks of the unpaired columns.  That
    pair route forms only O(|S|) arrays: L_S's diagonal, entry by entry the
    operations of the dense block, and the pair couplings, kept for ``L``;
    its spectrum is one stacked eigvalsh of the (|pairs|, 2, 2) blocks plus
    the unpaired diagonal entries.  Every other L_S is formed whole from
    compress, goes to eigvalsh and is kept as L_S + gamma_S.
    """
    dec = D.eig()
    sv = dec.singular_values
    n_plus, n_minus = D.space.n_plus, D.space.n_minus
    r = len(sv)
    x = np.concatenate([sv, np.zeros(max(n_plus, n_minus) - r)])
    f_in = np.asarray(inner(x), dtype=float)
    f_out = np.asarray(outer(x), dtype=float)
    tail = np.sqrt(np.clip(1.0 - f_out**4, 0.0, None))
    inside = (f_in != 0.0) | (f_out != 0.0)
    s_plus = np.flatnonzero(inside[:n_plus])
    s_minus = np.flatnonzero(inside[:n_minus])
    a, b = len(s_plus), len(s_minus)
    support = np.concatenate([s_plus, s_minus])
    g = np.concatenate([np.ones(a), -np.ones(b)])  # gamma on S
    f = f_in[support]
    # the pairs i < r in S lead both S_+ and S_-: they hold the same sigma_i
    pairs = s_plus[s_plus < r]
    p = len(pairs)
    couple = params.kappa * f_out[pairs] ** 2 * sv[pairs]

    h_diag = dec.compress_diagonal(H, s_plus, s_minus)
    if h_diag is None:
        block = np.zeros((a + b, a + b), dtype=complex)
        block[:a, :a], block[a:, a:] = dec.compress(H, s_plus, s_minus)
        block *= (g * f)[:, None]
        block *= f
        block[np.diag_indices(a + b)] -= g * tail[support]
        inner_eigs = np.linalg.eigvalsh(_coupled(block, a, couple))
        block[np.diag_indices(a + b)] += g  # L_S + gamma_S, all that L needs
        window, kept = (s_plus, s_minus, block), None
    else:
        diag = h_diag * (g * f)
        diag *= f
        diag -= g * tail[support]
        two = np.empty((p, 2, 2), dtype=complex)
        two[:, 0, 0], two[:, 0, 1] = diag[:p], couple
        two[:, 1, 0], two[:, 1, 1] = couple, diag[a:a + p]
        real = diag.real
        inner_eigs = np.concatenate([np.linalg.eigvalsh(two).ravel(),
                                     real[p:a], real[a + p:]])
        window, kept = (s_plus, s_minus, None), (diag, couple)
    eigs = np.sort(np.concatenate([inner_eigs, -np.ones(n_plus - a),
                                   np.ones(n_minus - b)]))
    return LocalizerBundle(params, D, inner, outer, eigs, window=window, pairs=kept)


def _coupled(block: np.ndarray, a: int, couple: np.ndarray) -> np.ndarray:
    """block, with the pair couplings set in place at (a + i, i) and (i, a + i)."""
    i = np.arange(len(couple))
    block[a + i, i] = block[i, a + i] = couple
    return block


# ----------------------------------------------------------------------------
# identities and certificates
# ----------------------------------------------------------------------------


def square_residuals(bundle: LocalizerBundle, H: GradedOperator,
                     D: GradedOperator) -> tuple[float, float]:
    """(square, lower): the two site-basis checks on L^2, from one pass.

    square is the relative Frobenius residual of the exact expansion

    L^2 = 1 - Phi_2^4 + kappa^2 D^2 Phi_2^4 + Phi_r^2 H^2 Phi_r^2
          + kappa Phi_r [D,H] gamma Phi_r + Phi_r [Phi_r H, [Phi_r, H]] Phi_r

    and lower the smallest eigenvalue of L^2 - RHS for the certified
    spectral lower bound

    RHS = 1 - Phi_2^4 + (kappa^2 rho^2 / 4 - C)(Phi_2^4 - Phi_r^4)
          + (gap^2 - C) Phi_r^4; nonnegativity (up to rounding) is the lemma.

    L^2 is one GEMM of L's whole matrix: that is the side being checked.
    The other side is formed per parity block of the site basis (the
    sectors of gamma), so no frame of D enters.  H, the windows and RHS are
    even and D and [D, H] odd, so every term is a product of the sector
    blocks H_s and Phi_s, of D's lower block B (positive to negative
    sector) and of B^H; the matrices of H, D and the windows are never
    read.  The odd term's upper block is the adjoint of its lower one.
    square is the root sum of the four block residuals' squared Frobenius
    norms over max(1, ||L^2||_F).  RHS is then subtracted from L^2's
    diagonal blocks in place, so only L, L^2 and eigvalsh's copy of
    L^2 - RHS are n x n.
    """
    if H.parity != "even" or D.parity != "odd":
        raise ParityError("the square identity needs an even H and an odd D")
    # the windows are even functions of the odd D, so even operators
    windows = () if bundle.phi_identity else (bundle.Phi_rho, bundle.Phi_2rho)
    p = bundle.params
    k, n = bundle.space.n_plus, bundle.space.n
    span = {"+": slice(0, k), "-": slice(k, n)}
    lm = bundle.L.formed()
    lsq = lm @ lm
    del lm
    scale = max(1.0, np.linalg.norm(lsq))
    b = D.block("-", "+")
    # kappa Phi_r [D, H] gamma Phi_r from the positive to the negative
    # sector, where gamma is 1
    odd = b @ H.block("+", "+") - H.block("-", "-") @ b
    if windows:
        odd = windows[0].block("-", "-") @ (odd @ windows[0].block("+", "+"))
    odd *= p.kappa
    norms = [np.linalg.norm(lsq[span["-"], span["+"]] - odd),
             np.linalg.norm(lsq[span["+"], span["-"]] - odd.conj().T)]
    del odd

    def even(s: str) -> float:
        """The residual of L^2's diagonal block s, which is then turned into
        that of L^2 - RHS; its temporaries go on return."""
        h, block = H.block(s, s), lsq[span[s], span[s]]
        d2 = b.conj().T @ b if s == "+" else b @ b.conj().T
        if not windows:
            residual = np.linalg.norm(block - (p.kappa**2 * d2 + h @ h))
            block[np.diag_indices_from(block)] -= p.gap**2 - p.C_kr
            return residual
        pr, p2 = windows[0].block(s, s), windows[1].block(s, s)
        p2sq = p2 @ p2
        p2q = p2sq @ p2sq
        prsq = pr @ pr
        prq = prsq @ prsq
        prh = pr @ h
        comm = prh - h @ pr
        double = prh @ comm - comm @ prh
        outside = -p2q
        outside[np.diag_indices_from(outside)] += 1.0
        expansion = (outside
                     + p.kappa**2 * (d2 @ p2q)
                     + prsq @ (h @ h) @ prsq
                     + pr @ double @ pr)
        residual = np.linalg.norm(block - expansion)
        quarter = p.kappa**2 * p.rho**2 / 4.0
        block -= (outside
                  + (quarter - p.C_kr) * (p2q - prq)
                  + (p.gap**2 - p.C_kr) * prq)
        return residual

    norms += [even("+"), even("-")]
    square = math.hypot(*norms) / scale
    # every block temporary is released by now, before eigvalsh copies lsq
    lower = np.linalg.eigvalsh(lsq)[0]
    return float(square), float(lower)


def certificate_residual(bundle: LocalizerBundle) -> float:
    """min |eig(L)|^2 minus the certified floor; admissible data keep this >= -1e-9.

    min |eig(L)| is the bundle's lower bound, min_abs_eigenvalue.
    """
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
    edge = eigenvalue_at_cut(w, rho)
    if edge is not None:
        bad, eps_edge = edge
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

    return _assemble(H, D, constant_C(kappa, rho, H, D, phi), cut, cut)
