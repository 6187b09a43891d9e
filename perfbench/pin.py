"""Pin the reference outputs the correctness gate checks against.

    PYTHONPATH=src python3 perfbench/pin.py

Runs every distinct benchmark operation once, in canonical order, and
writes references.json.  References must come from a commit whose outputs
are trusted; a change that alters any output has to justify re-pinning.
"""
from __future__ import annotations

import json

import workloads
from worker import run_op


def main() -> None:
    import localizer_lab.cli as cli

    refs = {}
    for workload, ops in workloads.reference_ops().items():
        refs[workload] = {}
        for op in ops:
            rec = run_op(cli, op)
            if rec["error"]:
                raise SystemExit(f"{op.argv} raised:\n{rec['error']}")
            refs[workload][op.key] = {
                "argv": list(op.argv), "exit": rec["rc"], "stdout": rec["stdout"],
                "output": workloads.parse_output(workload, rec["stdout"]),
            }
            print(f"{workload} {op.key}: exit {rec['rc']} "
                  f"in {rec['seconds']:.2f} s", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
