"""Study the finite-volume localizer on the two-band Chern lattice model.

For each mass the script reports the Brillouin-zone Chern number, the
compressed oracle's value (the rank difference of the two sectors of the
Fermi projection, which does not depend on D and is 0 on this model), the
automatic parameter choice with its admissibility certificate, and a kappa
scan of sig(gamma H + kappa D) at full windows.  The scan exposes the
finite-volume tension: the kappa range where the truncated signature
reproduces the Chern number does not overlap the range certified by the
admissibility constant, because the certificate requires rho far beyond the
truncation guard rho_max.
"""
import argparse
import sys

import numpy as np

from localizer_lab import (
    LocalizerParams,
    assemble_localizer,
    chern_number_bz,
    choose_params,
    compressed_index,
    default_localizer,
    localizer_index,
    measure_constants,
    positive_projection,
    qwz_chern_model,
    signature,
)
from localizer_lab.errors import AdmissibilityError


def study_mass(L: int, m: float, kappas, phi) -> None:
    desc = qwz_chern_model(L, m)
    H, D = desc.H, desc.D
    gap_h, dh, h_norm, _, d_norm = measure_constants(H, D)
    chern = chern_number_bz(desc.bloch, desc.n_occupied, desc.bloch_lipschitz)
    Q = positive_projection(H)
    comp = compressed_index(Q, D)
    print(f"\n=== qwz L={L} m={m} (n={H.space.n}) ===")
    print(f"gap(H)={gap_h:.4f} |d(H)|={dh:.4f} |D|={d_norm:.4f} "
          f"rho_max={desc.rho_max:.4f}")
    print(f"chern_bz={chern.value}  compressed={comp.value} "
          f"(smallest kept sv ratio {comp.diagnostics['cut_ratio']:.2e})")

    try:
        params = choose_params(H, D, phi)
        report = localizer_index(H, D, phi, params=params)
        print(f"auto params: kappa={params.kappa:.4f} rho={params.rho:.4f} "
              f"C={params.C_kr:.4f} certified floor^2={params.certified_lower_bound():.4f}")
        print(f"  rho exceeds rho_max by factor {params.rho / desc.rho_max:.1f}: "
              f"certificate speaks about the untruncated operator")
        print(f"  measured min|eig|={report.min_gap:.4f} "
              f"localizer index={report.value} vs chern {chern.value}")
    except AdmissibilityError as exc:
        print(f"auto params: no admissible choice ({exc})")

    rho_full = 2.0 * d_norm
    print(f"kappa scan at rho={rho_full:.2f} (windows identically 1):")
    print(f"{'kappa':>10} {'admissible':>10} {'min|eig|':>10} {'sig':>5}")
    for kappa in kappas:
        params = LocalizerParams(kappa, rho_full, gap_h, dh, phi.c_phi, h_norm)
        bundle = assemble_localizer(H, D, phi, params)
        sig = signature(bundle.eigenvalues).signature
        print(f"{kappa:10.4f} {str(params.admissible):>10} "
              f"{bundle.min_abs_eigenvalue:10.4f} {sig:5d}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=12, help="lattice side length")
    parser.add_argument("--masses", default="1.0,3.0")
    parser.add_argument("--kappa-points", type=int, default=10)
    args = parser.parse_args()

    phi = default_localizer()
    kappas = np.geomspace(0.01, 2.0, args.kappa_points)
    for m in (float(s) for s in args.masses.split(",")):
        study_mass(args.size, m, kappas, phi)
    return 0


if __name__ == "__main__":
    sys.exit(main())
