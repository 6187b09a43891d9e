"""One benchmark run in a fresh process: set up, run passes, check, report.

Started by run.py, which passes the monotonic time at which it spawned this
process; set-up time runs from then until `RunConfig().phi()` has returned,
so it covers interpreter start, importing localizer_lab and a cold phi build
under the same cache key the CLI uses.  The run result is printed as one
JSON line on stdout; the program's own stdout and stderr are captured per
operation.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from layertrace import Tracer, layer_metrics, span_cost

ROOT = Path(__file__).resolve().parent.parent

# Recorded in every results file for a later change to the cache key; each
# run also reports the phi cache misses its operations caused.
PHI_CACHE_FINDING = (
    "default_localizer() and RunConfig.phi(), i.e. default_localizer(0.25, "
    "x_step=..., p_step=..., p_max=...), are separate lru_cache entries. "
    "After warming the former, the first compute on qwz:L=16,m=1.0 builds "
    "phi again: 9.1 s instead of 2.3 s on a 2-vCPU VM (11.3 s vs 2.6 s "
    "when first reported). Set-up here warms the CLI's own key.")


def run_op(cli, op) -> dict:
    """Call `cli.main` in-process with stdout/stderr captured; time the call.

    `main` is looked up on the module at call time, so a traced run sees
    the wrapper the tracer installed there.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:  # an operation that raises counts as failed
        rc = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"key": op.key, "argv": list(op.argv), "seconds": seconds, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_pass(cli, ops, workload, seed, refs, chern) -> list[dict]:
    records = []
    for op in ops:
        rec = run_op(cli, op)
        if rec["error"] is None:
            problems, parsed = workloads.check(workload, op, rec["rc"],
                                               rec["stdout"], refs, seed, chern)
            rec["items"] = workloads.items_of(workload, parsed) if parsed else 0
        else:
            problems = ["raised: " + rec["error"].strip().splitlines()[-1]]
            rec["items"] = 0
        rec["mismatches"] = problems
        del rec["stdout"]
        records.append(rec)
    return records


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LOCALIZER_LAB_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    import localizer_lab
    import localizer_lab.cli as cli
    from localizer_lab.config import RunConfig
    from localizer_lab.localizing import default_localizer

    src = (ROOT / "src").resolve()
    if src not in Path(localizer_lab.__file__).resolve().parents:
        print(f"error: localizer_lab imported from {localizer_lab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    RunConfig().phi()
    setup_s = time.monotonic() - args.spawned_at
    if tracer:
        tracer.uninstall()
    cache_after_setup = default_localizer.cache_info()

    refs = workloads.load_references()
    with open(ROOT / "oracles.json") as fh:
        chern = workloads.chern_by_mass(json.load(fh))
    gen = workloads.passes(args.workload, args.seed)
    result = {"setup_s": setup_s}

    if tracer:
        # One fixed pass untraced, then the same pass traced: the work is
        # fixed, so span counts repeat exactly, and the wall-time
        # difference is the tracing overhead.
        ops = next(gen)
        start = time.perf_counter()
        records = run_pass(cli, ops, args.workload, args.seed, refs, chern)
        untraced = time.perf_counter() - start
        tracer.install()
        start = time.perf_counter()
        try:
            records += run_pass(cli, ops, args.workload, args.seed, refs, chern)
        finally:
            traced = time.perf_counter() - start
            tracer.uninstall()
        result["trace"] = {"untraced_pass_s": untraced, "traced_pass_s": traced,
                           "overhead_s": traced - untraced,
                           "span_cost_s": span_cost() * len(tracer.spans),
                           "spans": len(tracer.spans)}
        result["layers"] = layer_metrics(tracer.spans)
        with open(args.spans_out, "w") as fh:
            json.dump([[s.sid, s.name, s.start, s.end, s.parent, s.attrs]
                       for s in tracer.spans], fh)
        run_s = untraced + traced
    else:
        records = []
        start = time.perf_counter()
        while True:
            records += run_pass(cli, next(gen), args.workload, args.seed,
                                refs, chern)
            run_s = time.perf_counter() - start
            if run_s >= args.seconds:
                break

    cache = default_localizer.cache_info()
    result.update({
        "ops": records,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phi_cache": {"after_setup": cache_after_setup._asdict(),
                      "misses_during_ops": cache.misses - cache_after_setup.misses,
                      "finding": PHI_CACHE_FINDING},
        "env": environment(),
    })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
