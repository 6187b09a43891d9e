import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "localizer_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names that never appear as a Name (the root of every Attribute is one)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_scan_sees_attribute_roots():
    source = "import numpy as np\nfrom dataclasses import dataclass, field\nx = np.pi\n"
    assert unused_imports(source) == ["dataclass", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_imports_no_scipy():
    # The package runs on numpy alone; scipy is only in the test extra.
    probe = ("import sys, localizer_lab, localizer_lab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_imports_only_numpy_beyond_the_stdlib():
    # every top-level module that importing the CLI adds to a bare
    # interpreter is the standard library's, numpy's or the package's own;
    # a heavier import would show in every command's start-up time
    probe = ("import sys; before = {m.split('.')[0] for m in sys.modules}; "
             "import localizer_lab.cli; "
             "new = {m.split('.')[0] for m in sys.modules} - before; "
             "print(sorted(new - set(sys.stdlib_module_names) "
             "- {'numpy', 'localizer_lab'}))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
