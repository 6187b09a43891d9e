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
from localizer_lab.errors import GaplessError
from localizer_lab.verification import random_odd

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
        res = chern_number_bz(desc.bloch, n_occupied=desc.n_occupied, grid=grid)
        assert res.value == frozen[f"qwz:L={L},m={m}"]
        assert res.reliable
        assert res.diagnostics["grid"] == grid
        assert res.diagnostics["integer_deviation"] < 1e-8


def test_chern_grid_independence():
    desc = qwz_chern_model(8, 1.0)
    a = chern_number_bz(desc.bloch, n_occupied=desc.n_occupied, grid=24)
    b = chern_number_bz(desc.bloch, n_occupied=desc.n_occupied, grid=48)
    assert a.value == b.value == 1


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
