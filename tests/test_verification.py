import numpy as np
import pytest

from localizer_lab import (
    CheckResult,
    default_localizer,
    parallel_map,
    parse_model,
    run_suite,
)
from localizer_lab.errors import ConfigError
from localizer_lab.verification import HOMOTOPY_MODELS, zoo_instances


def test_parallel_map_preserves_order():
    items = list(range(37))
    assert parallel_map(lambda x: x * x, items) == [x * x for x in items]


def test_check_result_line_format():
    ok = CheckResult(name="demo", passed=True, measured=0.5, bound=1.0, count=7)
    assert ok.line().startswith("PASS demo: measured 5.000e-01 vs contract 1.000e+00")
    bad = CheckResult(name="demo", passed=False, measured=2.0, bound=1.0,
                      count=7, failing=["seed 3"])
    line = bad.line()
    assert line.startswith("FAIL demo")
    assert "seed 3" in line


def test_zoo_labels_are_addresses():
    # a failing label rebuilds its instance through --model
    for label, h, d in zoo_instances() + zoo_instances(HOMOTOPY_MODELS):
        desc = parse_model(label)
        assert np.array_equal(desc.H.matrix, h.matrix), label
        assert np.array_equal(desc.D.matrix, d.matrix), label


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("nonsense", default_localizer())


def test_identities_suite_passes_with_nondefault_seed():
    results = run_suite("identities", default_localizer(), base_seed=5)
    assert results
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "square_identity" in names or any("square" in n for n in names)
