import json
from pathlib import Path

import numpy as np
import pytest

from localizer_lab import (
    GradedOperator,
    GradedSpace,
    chern_number_bz,
    choose_params,
    compressed_index,
    default_localizer,
    graded_kernel_index,
    oscillator_dirac,
    positive_projection,
    qwz_chern_model,
    window_signature_index,
)
from localizer_lab.errors import GaplessError, SpectralCutError
from localizer_lab.ktheory import signature
from localizer_lab.models import parse_model, qwz_bloch
from localizer_lab.oracles import CHERN_GRID
from localizer_lab.verification import random_even_invertible, random_odd

ORACLES = json.loads((Path(__file__).resolve().parent.parent / "oracles.json").read_text())
PHI = default_localizer()


def test_graded_kernel_constructed_example():
    # lower block 2x3 of rank 2: one-dimensional kernel upstairs, none downstairs
    space = GradedSpace(3, 2)
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    d = GradedOperator.odd_from_block(space, c)
    res = graded_kernel_index(d)
    assert res.value == 1
    assert res.method == "graded_kernel"
    assert res.reliable
    assert res.diagnostics["rank"] == 2


def test_graded_kernel_oscillator():
    for n in (20, 40):
        res = graded_kernel_index(oscillator_dirac(n).D)
        assert res.value == 1
        assert res.reliable


def test_graded_kernel_transpose_flips_sign():
    space = GradedSpace(2, 3)
    c = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    d = GradedOperator.odd_from_block(space, c)
    assert graded_kernel_index(d).value == -1


def test_rank_tolerance_is_relative():
    space = GradedSpace(2, 2)
    base = np.diag([1.0, 1e-9])
    d = GradedOperator.odd_from_block(space, base)
    res = graded_kernel_index(d)
    # the tiny singular value falls below the relative cut and counts as kernel
    assert res.diagnostics["rank"] == 1
    scaled = GradedOperator.odd_from_block(space, 1e6 * base)
    assert graded_kernel_index(scaled).diagnostics["rank"] == 1


def test_compressed_index_oscillator():
    osc = oscillator_dirac(40)
    q = positive_projection(osc.H)
    res = compressed_index(q, osc.D)
    assert res.value == 1
    assert res.method == "compressed"


def test_chern_matches_frozen_values():
    frozen = ORACLES["chern_bz"]["values"]
    grid = ORACLES["chern_bz"]["grid"]
    for L, m in ((12, 1.0), (12, 3.0)):
        desc = qwz_chern_model(L, m)
        res = chern_number_bz(desc.bloch, desc.n_occupied, desc.bloch_lipschitz,
                              grid=grid)
        assert res.value == frozen[f"qwz:L={L},m={m}"]
        assert res.reliable
        assert res.diagnostics["grid"] == grid
        assert res.diagnostics["integer_deviation"] < 1e-8


def test_chern_grid_independence():
    desc = qwz_chern_model(8, 1.0)
    a = chern_number_bz(desc.bloch, desc.n_occupied, desc.bloch_lipschitz, grid=24)
    b = chern_number_bz(desc.bloch, desc.n_occupied, desc.bloch_lipschitz, grid=48)
    assert a.value == b.value == 1


@pytest.mark.parametrize("masses, expected", [((1.0, 1.0), 2), ((1.0, 3.0), 1),
                                               ((1.0, -1.0), 0)])
def test_chern_adds_over_direct_sums(masses, expected):
    # two occupied bands: each link is the determinant of a 2 x 2 overlap;
    # like every Bloch family, the direct sum broadcasts over k
    def bloch(k1, k2):
        top, bottom = qwz_bloch(k1, k2, masses[0]), qwz_bloch(k1, k2, masses[1])
        h = np.zeros(top.shape[:-2] + (4, 4), dtype=complex)
        h[..., :2, :2] = top
        h[..., 2:, 2:] = bottom
        return h

    # each block has ||dh/dk_i|| <= 1, and so has their direct sum
    res = chern_number_bz(bloch, 2, 1.0, grid=24)
    assert res.value == expected
    assert res.diagnostics["integer_deviation"] < 1e-12


@pytest.mark.parametrize("m", [1.0, 3.0, -1.0])
def test_bloch_grid_is_the_pointwise_family_bit_for_bit(m):
    # the oracle evaluates the grid in one broadcast call of the family
    bloch = qwz_chern_model(8, m).bloch
    ks = 2.0 * np.pi * np.arange(CHERN_GRID) / CHERN_GRID
    grid = bloch(ks[:, None, None, None], ks[None, :, None, None])
    pointwise = np.array([[bloch(a, b) for b in ks] for a in ks])
    assert grid.shape == (CHERN_GRID, CHERN_GRID, 2, 2)
    assert grid.tobytes() == pointwise.tobytes()


def test_chern_oracle_refuses_a_family_that_does_not_broadcast():
    with pytest.raises(ValueError, match="broadcast"):
        chern_number_bz(lambda k1, k2: qwz_bloch(0.0, 0.0, 3.0), 1, 1.0)


def test_chern_oracle_refuses_a_closed_gap():
    with pytest.raises(GaplessError, match="band gap"):
        chern_number_bz(lambda k1, k2: qwz_bloch(k1, k2, 2.0), 1, 1.0)


@pytest.mark.parametrize("m", [2.0, 0.0])
def test_chern_oracle_refuses_a_gap_closing_off_the_grid(m):
    # shifted by half a cell, the family closes its gap between grid points,
    # where the grid minimum alone (0.185 at m = 2) looks open
    def bloch(k1, k2):
        return qwz_bloch(k1 + np.pi / CHERN_GRID, k2 + np.pi / CHERN_GRID, m)

    with pytest.raises(GaplessError, match="band gap"):
        chern_number_bz(bloch, 1, 1.0)


def test_closed_gap_refused_at_model_construction():
    # m = 0 and m = -2 close the gap between points of the scan grid, where
    # the grid minimum alone stays above zero
    for m in (2.0, 0.0, -2.0):
        with pytest.raises(GaplessError):
            qwz_chern_model(8, m)


def test_compressed_index_counts_sector_ranks_of_q():
    rng = np.random.default_rng(57)
    space = GradedSpace(5, 4)

    def range_projection(n, rank):
        frame, _ = np.linalg.qr(rng.normal(size=(n, rank))
                                + 1j * rng.normal(size=(n, rank)))
        return frame @ frame.conj().T

    q = GradedOperator.even_from_blocks(space, range_projection(5, 3),
                                        range_projection(4, 1), hermitian=True)
    for _ in range(5):
        res = compressed_index(q, random_odd(rng, space))
        assert res.value == (res.diagnostics["rank_Q_plus"]
                             - res.diagnostics["rank_Q_minus"]) == 2


def test_window_signature_oscillator():
    osc = oscillator_dirac(40)
    p = choose_params(osc.H, osc.D, PHI)
    assert window_signature_index(osc.H, osc.D, p.rho, p.kappa) == 1


def test_window_signature_tracks_graded_kernel_across_sizes():
    for n in (30, 50):
        osc = oscillator_dirac(n)
        p = choose_params(osc.H, osc.D, PHI)
        w = window_signature_index(osc.H, osc.D, p.rho, p.kappa)
        assert w == graded_kernel_index(osc.D).value


def dense_window_index(H, D, rho, kappa):
    """The window formula in the site basis, the reference for the oracle's
    sector basis route: P (kappa D + gamma H) P and gamma P compressed by
    D's sorted eigenframe on |eig D| < rho, each solved by a dense eigvalsh."""
    dec = D.eig()
    w = dec.eigenvalues
    sel = np.abs(w) < rho
    if not np.any(sel):
        return 0
    v = dec.vectors[:, sel]
    gdiag = H.space.gamma_diag
    core = np.diag(kappa * w[sel]).astype(complex) + \
        v.conj().T @ (gdiag[:, None] * H.matrix) @ v
    core = (core + core.conj().T) / 2.0
    sig_core = signature(np.linalg.eigvalsh(core)).signature
    g_win = v.conj().T @ (gdiag[:, None] * v)
    sig_g = signature(np.linalg.eigvalsh((g_win + g_win.conj().T) / 2.0)).signature
    assert (sig_core + sig_g) % 2 == 0
    return (sig_core + sig_g) // 2


@pytest.mark.parametrize("n", [30, 40, 50])
def test_window_oracle_equals_the_site_basis_formula_on_the_ladder(n):
    # the pair route: H = 1 is diagonal and the ladder's frame monomial
    osc = oscillator_dirac(n)
    auto = choose_params(osc.H, osc.D, PHI)
    for rho, kappa in ((auto.rho, auto.kappa), (0.5, 1.0), (1.7, 0.3), (3.3, 2.0),
                       (100.0, 1.0)):
        assert (window_signature_index(osc.H, osc.D, rho, kappa)
                == dense_window_index(osc.H, osc.D, rho, kappa))


def test_window_oracle_equals_the_site_basis_formula_on_a_dense_h():
    # a monomial frame with H not diagonal: L_S gathered whole
    desc = parse_model("random:n=40,seed=1")
    for rho in (0.5, 1.7, 3.3, 100.0):
        for kappa in (0.1, 1.0, 3.0):
            assert (window_signature_index(desc.H, desc.D, rho, kappa)
                    == dense_window_index(desc.H, desc.D, rho, kappa))


@pytest.mark.parametrize("sectors", [(6, 6), (7, 4), (3, 8)])
def test_window_oracle_equals_the_site_basis_formula_on_an_svd_frame(sectors):
    # a random D takes the SVD frame; every cut between its singular
    # values, below the smallest and above the largest
    rng = np.random.default_rng(3)
    space = GradedSpace(*sectors)
    H, D = random_even_invertible(rng, space), random_odd(rng, space)
    sv = D.eig().singular_values
    values = set()
    for rho in (sv.min() / 2, *((sv[1:] + sv[:-1]) / 2), 2 * sv.max()):
        for kappa in (0.2, 1.0, 5.0):
            value = window_signature_index(H, D, rho, kappa)
            assert value == dense_window_index(H, D, rho, kappa)
            values.add(value)
    assert len(values) > 1
    if space.n_plus == space.n_minus:
        # D has no kernel: below the smallest singular value the window is empty
        assert window_signature_index(H, D, sv.min() / 2, 1.0) == 0


def test_window_oracle_refuses_an_eigenvalue_at_the_cut():
    osc = oscillator_dirac(40)
    with pytest.raises(SpectralCutError, match="window edge"):
        window_signature_index(osc.H, osc.D, 2.0, 1.0)  # sqrt(4)


@pytest.mark.parametrize("equal_sectors", [True, False])
def test_compressed_index_counts_rank_of_each_sector(equal_sectors):
    rng = np.random.default_rng(58)
    space = GradedSpace(6, 6)
    frame, _ = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    top = frame @ frame.conj().T
    bottom = top if equal_sectors else top[::-1, ::-1]
    q = GradedOperator.even_from_blocks(space, top, bottom, hermitian=True)
    d = random_odd(rng, space)
    res = compressed_index(q, d)
    # both sectors have rank 3 either way, so the value is the same
    assert res.diagnostics["rank_Q_plus"] == res.diagnostics["rank_Q_minus"] == 3
    assert res.value == 0
