"""Smoke run of the study script at a small size: it must exit 0."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("qwz_localizer_study.py", ["--size", "8", "--kappa-points", "3"]),
])
def test_study_script_runs(monkeypatch, capsys, script, args):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out
