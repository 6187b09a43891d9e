"""Freeze (or re-check) the oracle regression values in oracles.json.

The file at the repository root is produced by this script once and then
checked in; tests compare freshly computed values against it.  Run with
--write only when an oracle legitimately changes (new model, new grid);
the default mode verifies and exits nonzero on drift.
"""
import argparse
import json
import sys
from pathlib import Path

from localizer_lab import (
    default_localizer,
    graded_kernel_index,
    chern_number_bz,
    oscillator_dirac,
    qwz_chern_model,
)
from localizer_lab.oracles import CHERN_GRID

OSCILLATOR_SIZES = (40, 60, 100)
QWZ_CASES = ((12, 1.0), (16, 1.0), (12, 3.0), (16, 3.0))
PHI_REL_TOL = 5e-4


def compute_oracles() -> dict:
    phi = default_localizer()
    chern = {}
    for L, m in QWZ_CASES:
        desc = qwz_chern_model(L, m)
        result = chern_number_bz(desc.bloch, n_occupied=desc.n_occupied)
        chern[f"qwz:L={L},m={m}"] = result.value
    graded = {}
    for n in OSCILLATOR_SIZES:
        desc = oscillator_dirac(n)
        graded[f"oscillator:n={n}"] = graded_kernel_index(desc.D).value
    return {
        "chern_bz": {"grid": CHERN_GRID, "values": chern},
        "graded_kernel": graded,
        "phi": {
            "smoothing_width": 0.25,
            "fourier_weight": phi.fourier_weight,
            "c_phi": phi.c_phi,
            "rel_tol": PHI_REL_TOL,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="overwrite oracles.json with fresh values")
    parser.add_argument("--path", default=None,
                        help="location of oracles.json (default: repo root)")
    args = parser.parse_args()
    path = Path(args.path) if args.path else Path(__file__).resolve().parent.parent / "oracles.json"

    fresh = compute_oracles()
    if args.write:
        with open(path, "w") as fh:
            json.dump(fresh, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
        return 0

    with open(path) as fh:
        frozen = json.load(fh)
    failures = []
    for key, value in fresh["chern_bz"]["values"].items():
        if frozen["chern_bz"]["values"].get(key) != value:
            failures.append(f"chern {key}: frozen "
                            f"{frozen['chern_bz']['values'].get(key)} vs fresh {value}")
    for key, value in fresh["graded_kernel"].items():
        if frozen["graded_kernel"].get(key) != value:
            failures.append(f"graded kernel {key}: frozen "
                            f"{frozen['graded_kernel'].get(key)} vs fresh {value}")
    for key in ("fourier_weight", "c_phi"):
        a, b = frozen["phi"][key], fresh["phi"][key]
        if abs(a - b) > PHI_REL_TOL * abs(a):
            failures.append(f"phi {key}: frozen {a} vs fresh {b}")
    if failures:
        print("oracle drift detected:")
        for line in failures:
            print("  " + line)
        return 1
    print(f"all frozen oracle values reproduced ({path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
