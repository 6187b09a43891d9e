import json
import re
import shlex
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
                                   "qwz:L=12"])
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
    code, out, err = run(capsys, "verify", "identities")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


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
