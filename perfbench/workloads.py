"""Benchmark workloads and the correctness gate.

A workload is a sequence of passes; a pass is a list of operations, and an
operation is one `localizer_lab.cli.main(argv)` call.  The benchmark seed
only orders inputs whose outputs are pinned in `references.json`, so every
operation is checked against a reference.

Why these workloads:
- lattice-triangle: dense eigh/eigvalsh/svd at n = 1024..1600 in model build,
  scale selection, positive_projection and compressed_index; assembly takes
  the identity-window branch.  The m=1 legs end in the documented
  localizer/Chern disagreement (exit 3), which is the expected output.
- ladder-sweep: every (kappa, rho) cell takes the windowed branch of
  assemble_localizer at dim 799 and runs through parallel_map; models and
  oracles do almost nothing.
- property-suites: thousands of small LAPACK calls (dim <= 80), homotopy
  paths and the thread pool, so per-call overhead shows here and not on
  the lattice.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

LATTICE_LEGS = ["qwz:L=16,m=1.0", "qwz:L=16,m=3.0",
                "qwz:L=20,m=1.0", "qwz:L=20,m=3.0"]
SWEEP_MODEL = "oscillator:n=400"
SWEEP_KAPPA = ["0.5", "1.0", "2.0"]
SWEEP_RHO = ["2.0", "4.0", "8.0", "16.0"]
# Suite seeds set the random instance sizes and so the cost of a pass; every
# pass runs the same seeds (in seeded order) so runs measure the same work.
SUITE_SEEDS = [0, 1, 2, 3]

# Floats in reports match their reference within REL_TOL * |ref| + ABS_TOL.
# ABS_TOL admits roundoff-level fields (integer deviations, slack minima
# near 0); REL_TOL governs certificate constants.  The suites print
# `measured` with four significant digits, hence their looser REL_TOL.
REL_TOL = 1e-6
ABS_TOL = 1e-9
SUITE_REL_TOL = 1e-3

WORKLOADS = ("lattice-triangle", "ladder-sweep", "property-suites")


@dataclass(frozen=True)
class Op:
    key: str          # reference entry the output is checked against
    argv: tuple[str, ...]


def lattice_op(leg: str, seed: int) -> Op:
    return Op(leg, ("compute", "--model", leg, "--auto", "--seed", str(seed)))


def sweep_op(kappas: list[str], rhos: list[str]) -> Op:
    return Op("sweep", ("sweep", "--model", SWEEP_MODEL,
                        "--kappa", ",".join(kappas), "--rho", ",".join(rhos)))


def suite_op(suite_seed: int) -> Op:
    return Op(str(suite_seed), ("verify", "all", "--seed", str(suite_seed)))


def passes(workload: str, seed: int):
    """Endless sequence of passes; the same seed gives the same sequence.

    The seed orders the fixed inputs of a pass (lattice legs, sweep grid
    axes, suite seeds), so every run measures the same work.
    """
    rng = random.Random(seed)
    if workload == "lattice-triangle":
        while True:
            legs = LATTICE_LEGS[:]
            rng.shuffle(legs)
            yield [lattice_op(leg, seed) for leg in legs]
    elif workload == "ladder-sweep":
        while True:
            kappas, rhos = SWEEP_KAPPA[:], SWEEP_RHO[:]
            rng.shuffle(kappas)
            rng.shuffle(rhos)
            yield [sweep_op(kappas, rhos)]
    elif workload == "property-suites":
        while True:
            yield [suite_op(s) for s in rng.sample(SUITE_SEEDS, len(SUITE_SEEDS))]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def reference_ops() -> dict[str, list[Op]]:
    """Every distinct operation, in canonical order, for pinning references."""
    return {
        "lattice-triangle": [lattice_op(leg, 0) for leg in LATTICE_LEGS],
        "ladder-sweep": [sweep_op(SWEEP_KAPPA, SWEEP_RHO)],
        "property-suites": [suite_op(s) for s in SUITE_SEEDS],
    }


# ----------------------------------------------------------------------------
# output parsing
# ----------------------------------------------------------------------------

_CHECK = re.compile(r"^(PASS|FAIL) (\w+): measured (\S+) vs contract (\S+) "
                    r"over (\d+) instances")
_SUITE_TOTAL = re.compile(r"^suite all: (\d+) checks, (\d+) failed$")


def parse_output(workload: str, stdout: str):
    """Structured form of one operation's stdout (what references pin)."""
    if workload == "lattice-triangle":
        report = json.loads(stdout)
        if not isinstance(report, dict):
            raise ValueError("compute report is not a JSON object")
        return report
    lines = stdout.splitlines()
    if workload == "ladder-sweep":
        header = lines[0].split(",")
        cells = []
        summary = {}
        for line in lines[1:]:
            if line.startswith("#"):
                for item in re.findall(r"(\w+)=(\[[^\]]*\]|\S+)", line):
                    summary[item[0]] = _number_or_text(item[1])
                continue
            row = dict(zip(header, line.split(",")))
            cells.append({
                "kappa": row["kappa"], "rho": row["rho"],
                "C_kr": float(row["C_kr"]), "admissible": row["admissible"],
                "min_abs_eig": float(row["min_abs_eig"]),
                "signature": int(row["signature"]),
            })
        return {"header": header, "cells": cells, "summary": summary}
    checks = []
    total = None
    for line in lines:
        m = _CHECK.match(line)
        if m:
            checks.append({"status": m[1], "name": m[2],
                           "measured": float(m[3]), "contract": float(m[4]),
                           "count": int(m[5])})
        m = _SUITE_TOTAL.match(line)
        if m:
            total = {"checks": int(m[1]), "failed": int(m[2])}
    return {"checks": checks, "total": total}


def _number_or_text(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def items_of(workload: str, parsed) -> int:
    """Work items in one operation: triangles, sweep cells, checked instances."""
    if workload == "lattice-triangle":
        return 1
    if workload == "ladder-sweep":
        return len(parsed["cells"])
    return sum(c["count"] for c in parsed["checks"])


# ----------------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------------


def compare(expected, actual, rel_tol: float = REL_TOL, path: str = "") -> list[str]:
    """Mismatches between two JSON-like trees; floats within tolerance."""
    where = path or "output"
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(expected[key], actual[key], rel_tol, f"{path}.{key}" if path else key)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, rel_tol, f"{path}[{i}]")
        return out
    if type(expected) is float and type(actual) in (float, int):
        if abs(actual - expected) <= rel_tol * abs(expected) + ABS_TOL:
            return []
        return [f"{where}: {actual!r} != {expected!r} (rel tol {rel_tol:g})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def chern_by_mass(oracles: dict) -> dict[float, int]:
    """Frozen Brillouin-zone Chern numbers keyed by mass (they depend on m only)."""
    out = {}
    for model, value in oracles["chern_bz"]["values"].items():
        mass = float(re.search(r"m=([-0-9.eE+]+)", model)[1])
        if out.setdefault(mass, value) != value:
            raise ValueError(f"oracles.json gives two Chern numbers at m={mass}")
    return out


def check(workload: str, op: Op, rc: int, stdout: str, refs: dict,
          seed: int, chern: dict[float, int]) -> tuple[list[str], object]:
    """(mismatches, parsed output) of one operation against its reference."""
    ref = refs[workload][op.key]
    problems = []
    if rc != ref["exit"]:
        problems.append(f"exit code {rc} != {ref['exit']}")
    try:
        parsed = parse_output(workload, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return problems + [f"unparsable output: {exc}"], None
    expected = ref["output"]
    if workload == "lattice-triangle":
        expected = dict(expected, seed=seed)
        mass = float(parsed.get("model", {}).get("parameters", {}).get("m", "nan"))
        got = parsed.get("indices", {}).get("chern_bz")
        if got != chern.get(mass):
            problems.append(f"chern_bz {got!r} != oracles.json {chern.get(mass)!r} "
                            f"at m={mass}")
        problems += compare(expected, parsed)
    elif workload == "ladder-sweep":
        order = [(k, r) for k in op.argv[4].split(",") for r in op.argv[6].split(",")]
        if [(c["kappa"], c["rho"]) for c in parsed["cells"]] != order:
            problems.append("sweep rows are not in the requested grid order")
        by_cell = {(c["kappa"], c["rho"]): c for c in parsed["cells"]}
        actual = dict(parsed, cells=[by_cell.get((c["kappa"], c["rho"]))
                                     for c in expected["cells"]])
        problems += compare(expected, actual)
    else:
        problems += compare(expected, parsed, SUITE_REL_TOL)
        if parsed["total"] is None or parsed["total"]["failed"] != 0:
            problems.append(f"suite total {parsed['total']!r}: checks_failed must be 0")
    return problems, parsed


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
