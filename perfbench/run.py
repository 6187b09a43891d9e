"""Benchmark entry point for localizer-lab.

    python3 perfbench/run.py --workload lattice-triangle --seed 1 --seconds 15 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its `src/`.  Each run starts one fresh worker
process (worker.py), which sets up, drives `localizer_lab.cli.main` through
whole passes of the workload for at least `--seconds`, and checks every
operation against `references.json`.  The last stdout line is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics of one traced pass with
`--trace 1`).  A results file with every operation, the environment and
the per-layer table is written to `.bench_results/`.

Exit codes: 0 result printed, 1 the worker failed or timed out, 2 the
checkout has no program to benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
WORKER_TIMEOUT_S = 170

# name -> (unit, better); bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_s.p50": ("s", "lower"),
    "op_s.max": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("frac", "higher"),
}
# Reported with the layer metrics of a traced run: the same pass untraced
# and traced, their difference, the calibrated cost of the spans recorded,
# and the span count.
TRACE_KEYS = ("untraced_pass_s", "traced_pass_s", "overhead_s", "span_cost_s",
              "spans")


def per_layer_units() -> dict[str, str]:
    units = metric_units()
    for key in TRACE_KEYS:
        units[f"trace.{key}"] = "count" if key == "spans" else "s"
    return units


def end_to_end_values(result: dict) -> dict[str, float]:
    ops = result["ops"]
    seconds = [op["seconds"] for op in ops]
    failed = sum(1 for op in ops if op["mismatches"])
    return {
        "setup_s": result["setup_s"],
        "op_s.p50": statistics.median(seconds),
        "op_s.max": max(seconds),
        "items_per_s": sum(op["items"] for op in ops) / result["run_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": (len(ops) - failed) / len(ops),
    }


def per_layer_values(result: dict) -> dict[str, float]:
    values = dict(result["layers"])
    for key in TRACE_KEYS:
        values[f"trace.{key}"] = result["trace"][key]
    return values


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "localizer_lab" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'localizer_lab'}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", str(RESULTS / f"{stem}-spans.json")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = result["ops"]
    failed = sum(1 for op in ops if op["mismatches"])
    for op in ops:
        print(f"op {' '.join(op['argv'])}: {op['seconds']:.3f} s, exit {op['rc']}, "
              f"{op['items']} items" + (f", MISMATCH {op['mismatches']}"
                                        if op["mismatches"] else ""))
    if args.trace:
        metrics = with_units(per_layer_values(result), per_layer_units())
    else:
        metrics = with_units(end_to_end_values(result),
                             {k: unit for k, (unit, _) in END_TO_END.items()})
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"op_s.max is the slowest of {len(ops)} operations; "
          f"fail_frac = {failed}/{len(ops)}")
    if len(ops) > 10:
        # the highest percentile that still has ten samples above it
        seconds = sorted(op["seconds"] for op in ops)
        print(f"op_s.p{100 * (len(ops) - 10) / len(ops):.0f} = "
              f"{seconds[-11]:.6g} s")
    if args.trace:
        t = result["trace"]
        print(f"tracing overhead: traced minus untraced pass {t['overhead_s']:.3f} s "
              f"on a {t['untraced_pass_s']:.3f} s pass; {t['spans']} spans at the "
              f"calibrated cost make {t['span_cost_s']:.4f} s")

    env_record = dict(result["env"], git_commit=git_commit())
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env_record, "metrics": metrics,
                   "trace_info": result.get("trace"),
                   "sample_count": len(ops), "phi_cache": result["phi_cache"],
                   "ops": ops}, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
