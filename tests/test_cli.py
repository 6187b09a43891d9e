import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import localizer_lab.cli as cli
from localizer_lab.cli import main
from localizer_lab.models import parse_model

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_oscillator_auto(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=40",
                         "--auto", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["indices"] == {"graded_kernel": 1, "localizer": 1,
                                  "window_formula": 1}
    assert payload["agreement"] is True
    assert payload["certificate"]["admissible"] is True
    assert payload["truncation"]["within_guard"] is True


def test_compute_report_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "compute", "--model", "oscillator:n=30",
                         "--auto", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_compute_manual_scales(capsys):
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=30",
                         "--kappa", "0.5", "--rho", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["params_source"] == "manual"
    assert payload["certificate"]["kappa"] == 0.5
    assert payload["certificate"]["admissible"] is True


def test_compute_needs_model(capsys):
    code, out, err = run(capsys, "compute", "--auto")
    assert code == 2
    assert "error:" in err


def test_compute_rejects_auto_plus_manual(capsys):
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=20",
                         "--auto", "--kappa", "1.0", "--rho", "2.0")
    assert code == 2


def test_compute_unknown_model(capsys):
    code, out, err = run(capsys, "compute", "--model", "nosuch:n=2", "--auto")
    assert code == 2


@pytest.mark.parametrize("model", ["oscillator:n=1", "oscillator:n=ten",
                                   "qwz:L=12", "oscillator:n=40,n=30"])
def test_compute_bad_model_arguments_exit_two(capsys, model):
    code, out, err = run(capsys, "compute", "--model", model, "--auto")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--model", "oscillator:n=20", "--auto", "--margin", "0.5"),
    ("sweep", "--model", "oscillator:n=20", "--kappa", "0,1", "--rho", "2"),
    ("sweep", "--model", "oscillator:n=20", "--kappa", "x", "--rho", "2"),
    ("compute", "--model", "qwz:L=8,m=nan", "--auto"),
    ("compute", "--model", "random:n=20,strength=nan", "--auto"),
    ("compute", "--model", "random:n=20,width=nan", "--auto"),
    ("compute", "--model", "random:n=20,width=0", "--auto"),
    ("compute", "--model", "random:n=20,width=-1", "--auto"),
    ("compute", "--model", "random:n=20,strength=-1", "--auto"),
    ("compute", "--model", "mk:k=2,blocks=2,seed=-1", "--auto"),
    ("verify", "homotopy", "--seed", "-1"),
    ("compute", "--model", "qwz:L=8,m=0", "--auto"),
    ("compute", "--model", "qwz:L=8,m=-2.0", "--auto"),
])
def test_bad_arguments_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--model", "oscillator:n=20", "--auto", "--x-step", "1e-3"),
    ("sweep", "--model", "oscillator:n=20", "--kappa", "1", "--rho", "2",
     "--auto"),
    ("verify", "bounds", "--model", "qwz:L=8,m=0"),
    ("export-phi", "--seed", "4"),
    ("export-model", "--model", "oscillator:n=20", "--out", "x",
     "--margin", "2"),
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_nan_margin_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "--model", "random:n=20", "--auto",
                         "--margin", "nan")
    assert code == 2
    assert "finite" in err


def test_nan_in_sweep_grid_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--model", "oscillator:n=20",
                         "--kappa", "1,nan", "--rho", "2")
    assert code == 2
    assert "finite" in err


def test_infinite_rho_is_a_usage_error(capsys):
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=20",
                         "--kappa", "1", "--rho", "inf")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_nan_kappa_names_the_reason(capsys):
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=20",
                         "--kappa", "nan", "--rho", "2")
    assert code == 2
    assert "--kappa values must be finite" in err


@pytest.mark.parametrize("argv", [
    # rho = margin * its floor overflows to inf
    ("compute", "--model", "qwz:L=8,m=3.0", "--auto", "--margin", "1e308"),
    # rho^2 overflows while kappa^2 rho^2 / 4 is 0.25
    ("compute", "--model", "oscillator:n=40", "--kappa", "1e-300", "--rho", "1e300"),
    ("sweep", "--model", "oscillator:n=40", "--kappa", "1e308", "--rho", "1e308"),
])
def test_scales_out_of_float_range_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be finite floats" in err


def test_model_too_large_for_memory_exits_two(capsys):
    # its first array, H's diagonal, asks for 728 TiB, more than a 64-bit
    # process can map: a request refused at once
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=100000000000000",
                         "--auto")
    assert code == 2
    assert out == ""
    assert "model 'oscillator:n=100000000000000' does not fit in memory" in err


def test_memory_error_after_the_model_is_built_exits_two(capsys, monkeypatch):
    # compute --auto on oscillator:n=100000 builds the model on O(n) arrays,
    # then its checks ask for n x n ones
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli, "choose_params", too_large)
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=20", "--auto")
    assert (code, out, err) == (2, "", "error: Unable to allocate 149. GiB for an array\n")


def test_linalg_failure_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr(cli, "choose_params", broken)
    with pytest.raises(np.linalg.LinAlgError):
        main(["compute", "--model", "oscillator:n=20", "--auto"])


def test_compute_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "oscillator:n=30",
                               "localizer.auto": True}))
    code, out, err = run(capsys, "compute", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["model"]["name"] == "oscillator"


def test_sweep_constant_signature(capsys):
    code, out, err = run(capsys, "sweep", "--model", "oscillator:n=30",
                         "--kappa", "0.5,1.0", "--rho", "2.0,4.0")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0]
    assert header.startswith("kappa,rho")
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 4
    comments = [l for l in lines if l.startswith("#")]
    assert any("signature_constant=True" in c for c in comments)
    # admissible cells keep min |eig(L)|^2 above the certified floor
    slack_min = re.search(r"lower_bound_slack_min=(\S+)", comments[-1])
    assert float(slack_min.group(1)) >= -1e-9


def test_sweep_cells_run_on_one_blas_thread(capsys, monkeypatch):
    from localizer_lab.grading import _blas_threads_setter

    setter = _blas_threads_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no per-thread OpenBLAS thread count")
    counts = []

    def recording_map(fn, items):
        counts.append(setter(1))
        setter(counts[-1])
        return [fn(x) for x in items]

    monkeypatch.setattr(cli, "parallel_map", recording_map)
    code, out, err = run(capsys, "sweep", "--model", "oscillator:n=20",
                         "--kappa", "0.5", "--rho", "2.0")
    assert code == 0
    assert counts == [1]


def test_verify_suites_run_on_one_blas_thread(capsys, monkeypatch):
    from localizer_lab import verification
    from localizer_lab.grading import _blas_threads_setter

    setter = _blas_threads_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no per-thread OpenBLAS thread count")
    counts = []

    def recording_map(fn, items):
        counts.append(setter(1))
        setter(counts[-1])
        return [fn(x) for x in items]

    monkeypatch.setattr(verification, "parallel_map", recording_map)
    code, out, err = run(capsys, "verify", "bounds", "--seed", "0")
    assert code == 0
    assert counts == [1, 1]


# the benchmark's ladder grid
LADDER_GRID = ("--kappa", "0.5,1.0,2.0", "--rho", "2.0,4.0,8.0,16.0")


def assert_forms_no_n_by_n_operator(capsys, monkeypatch, argv, expected):
    """argv exits with expected, and reports the same when building an
    operator from an n x n matrix, or forming one, raises."""
    from localizer_lab.grading import GradedOperator

    report = run(capsys, *argv)
    assert report[0] == expected
    init = GradedOperator._init

    def no_matrix(op, space, parity, hermitian, matrix=None, **storage):
        assert matrix is None, f"a {parity} operator was built from an n x n matrix"
        init(op, space, parity, hermitian, **storage)

    def no_form(op):
        raise AssertionError(f"the n x n matrix of a {op.parity} operator was formed")
    monkeypatch.setattr(GradedOperator, "_init", no_matrix)
    monkeypatch.setattr(GradedOperator, "_form", no_form)
    assert run(capsys, *argv) == report


@pytest.mark.parametrize("model, expected", [("qwz:L=8,m=3.0", 0), ("qwz:L=9,m=1.0", 3)])
def test_lattice_leg_forms_no_n_by_n_operator(capsys, monkeypatch, model, expected):
    # H, D, the projection P, L = gamma H + kappa D and [D, H] keep their
    # blocks; L = 9 has unequal symmetry blocks and ends in exit 3
    assert_forms_no_n_by_n_operator(capsys, monkeypatch,
                                    ("compute", "--model", model, "--auto"), expected)


def test_ladder_sweep_forms_no_n_by_n_operator(capsys, monkeypatch):
    # the benchmark's grid: H = 1 keeps its diagonals, D and [D, H] their
    # entries, and every cell takes the pair route
    assert_forms_no_n_by_n_operator(
        capsys, monkeypatch, ("sweep", "--model", "oscillator:n=400", *LADDER_GRID), 0)


def test_ladder_sweep_peaks_below_one_sector_block(capsys):
    # H = 1 and [D, H] are entries: no array the shape of a sector block,
    # 400 * 399 complex entries, is ever held
    argv = ("sweep", "--model", "oscillator:n=400", *LADDER_GRID)
    report = run(capsys, *argv)
    tracemalloc.start()
    try:
        assert run(capsys, *argv) == report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report[0] == 0 and "admissible_cells=12" in report[1]
    assert peak < 400 * 399 * 16


def test_ladder_sweep_cost_does_not_grow_with_the_truncation(capsys):
    # the index sees D's spectrum only inside the window: n = 100000 runs
    # on O(n) arrays
    code, out, err = run(capsys, "sweep", "--model", "oscillator:n=100000", *LADDER_GRID)
    assert code == 0
    assert "admissible_cells=12" in out and "signatures=[1]" in out


def test_ladder_compute_forms_no_n_by_n_operator(capsys, monkeypatch):
    # the window oracle solves the 2 x 2 pair blocks of D's sector basis,
    # and the support gate reads the monomial frame
    assert_forms_no_n_by_n_operator(
        capsys, monkeypatch, ("compute", "--model", "oscillator:n=400", "--auto"), 0)


def test_ladder_compute_peaks_below_one_sector_block(capsys):
    # nor does it read the n x n eigenframe of D, which is not an operator
    argv = ("compute", "--model", "oscillator:n=400", "--auto")
    report = run(capsys, *argv)
    tracemalloc.start()
    try:
        assert run(capsys, *argv) == report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report[0] == 0
    assert peak < 400 * 399 * 16


def test_ladder_compute_cost_does_not_grow_with_the_truncation(capsys):
    code, out, err = run(capsys, "compute", "--model", "oscillator:n=100000", "--auto")
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == {"localizer": 1, "graded_kernel": 1, "window_formula": 1}
    assert payload["agreement"] is True


def test_lattice_leg_splits_each_operator_sector_once(capsys, monkeypatch):
    # the projection gate and the compressed oracle share P's + sector
    from localizer_lab import grading

    splits = []
    split = grading._split

    def counting(op, row, col):
        splits.append((op, row, col))
        return split(op, row, col)
    monkeypatch.setattr(grading, "_split", counting)
    code, out, err = run(capsys, "compute", "--model", "qwz:L=8,m=3.0", "--auto")
    assert code == 0
    keys = [(id(op), row, col) for op, row, col in splits]
    assert len(set(keys)) == len(keys)
    # [D, H] and D below the diagonal, L whole, P's two sectors
    assert sorted((op.parity, str(row), str(col)) for op, row, col in splits) == [
        ("even", "+", "+"), ("even", "-", "-"), ("none", "None", "None"),
        ("odd", "-", "+"), ("odd", "-", "+")]


def test_sweep_requires_both_grids(capsys):
    code, out, err = run(capsys, "sweep", "--model", "oscillator:n=20",
                         "--kappa", "0.5")
    assert code == 2


def test_export_phi_stdout(capsys):
    code, out, err = run(capsys, "export-phi")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "x,phi(x)"
    x0, v0 = rows[1].split(",")
    assert float(x0) == -1.0
    assert float(v0) == 0.0


def test_export_phi_stdout_and_file_hold_the_same_bytes(capsys, tmp_path):
    code, out, err = run(capsys, "export-phi")
    assert code == 0
    path = tmp_path / "phi.csv"
    code, _, _ = run(capsys, "export-phi", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()


def test_export_model_writes_files(capsys, tmp_path):
    prefix = tmp_path / "osc"
    code, out, err = run(capsys, "export-model", "--model", "oscillator:n=20",
                         "--out", str(prefix))
    assert code == 0
    for suffix in ("_H.csv", "_H.json", "_D.csv", "_D.json", "_model.json"):
        assert (tmp_path / f"osc{suffix}").exists()
    meta = json.loads((tmp_path / "osc_model.json").read_text())
    assert meta["name"] == "oscillator"
    assert meta["n_plus"] == 20


def strict_json(text):
    """json.loads that refuses Infinity and NaN, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_compute_without_truncation_guard_prints_null_rho_max(capsys):
    code, out, err = run(capsys, "compute", "--model", "mk:k=2,seed=0", "--auto")
    assert code == 0
    truncation = strict_json(out)["truncation"]
    assert truncation["rho_max"] is None and truncation["within_guard"] is True


@pytest.mark.parametrize("model, key", [
    ("random:n=10,seed=1", "gap_bound"),
    ("mk:k=2,seed=0", "rho_max"),
])
def test_export_model_writes_null_for_non_finite_values(capsys, tmp_path, model, key):
    code, out, err = run(capsys, "export-model", "--model", model,
                         "--out", str(tmp_path / "m"))
    assert code == 0
    meta = strict_json((tmp_path / "m_model.json").read_text())
    assert meta[key] is None


@pytest.mark.parametrize("argv", [
    ("compute", "--config", "{missing}/config.json", "--auto"),
    ("compute", "--model", "oscillator:n=20", "--auto", "--out",
     "{missing}/report.json"),
    ("export-model", "--model", "oscillator:n=20", "--out", "{missing}/osc"),
])
def test_missing_paths_exit_two(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert str(missing) in err


def test_export_model_requires_out(capsys):
    code, out, err = run(capsys, "export-model", "--model", "oscillator:n=20")
    assert code == 2


def test_verify_identities_suite(capsys):
    code, out, err = run(capsys, "verify", "identities", "--seed", "0")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    # the commuting oscillator meets its certified floor exactly; the
    # residual is reported as 0, never as a negative zero
    assert "-0.000e+00" not in out


def test_verify_unknown_suite_exits_twoish(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def _readme_commands() -> list[list[str]]:
    blocks = re.findall(r"^```\n(.*?)^```", README, flags=re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("localizer-lab ")]


def test_readme_examples_parse():
    """Every CLI line and model address in the README parses; nothing runs."""
    commands = _readme_commands()
    assert len(commands) >= 8
    addresses = re.findall(r"`((?:oscillator|qwz|mk|random):[^`]*)`", README)
    assert len(addresses) >= 4
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if getattr(args, "model", None):
            addresses.append(args.model)
    for address in addresses:
        parse_model(address)
