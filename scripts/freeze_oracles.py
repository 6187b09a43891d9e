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
    chern_number_bz,
    default_localizer,
    graded_kernel_index,
    parse_model,
)
from localizer_lab.oracles import CHERN_GRID

# each oracle is keyed by the --model address of the model it is computed on
CHERN_MODELS = ("qwz:L=12,m=1.0", "qwz:L=16,m=1.0", "qwz:L=12,m=3.0", "qwz:L=16,m=3.0")
KERNEL_MODELS = ("oscillator:n=40", "oscillator:n=60", "oscillator:n=100")
PHI_REL_TOL = 1e-9


def compute_oracles() -> dict:
    phi = default_localizer()
    chern = {}
    for address in CHERN_MODELS:
        desc = parse_model(address)
        chern[address] = chern_number_bz(desc.bloch, desc.n_occupied,
                                          desc.bloch_lipschitz).value
    graded = {address: graded_kernel_index(parse_model(address).D).value
              for address in KERNEL_MODELS}
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
