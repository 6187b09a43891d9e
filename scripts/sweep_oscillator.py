"""Sweep the localizer signature of the supersymmetric oscillator over (kappa, rho).

For each grid cell the script assembles the localizer, checks the
admissibility constant, and records the signature together with the slack
min|eig(L)|^2 - certified floor.  Admissible cells must all carry the same
signature; the printout flags any disagreement.
"""
import argparse
import sys

from localizer_lab import (
    LocalizerParams,
    assemble_localizer,
    certificate_residual,
    default_localizer,
    gap,
    lipschitz_derivative,
    operator_norm,
    oscillator_dirac,
    signature,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=40, help="oscillator cutoff")
    parser.add_argument("--kappa", default="0.25,0.5,1.0,2.0")
    parser.add_argument("--rho", default="2,4,8,16")
    parser.add_argument("--width", type=float, default=0.25,
                        help="smoothing width of the localizing function")
    args = parser.parse_args()

    kappas = [float(s) for s in args.kappa.split(",")]
    rhos = [float(s) for s in args.rho.split(",")]
    phi = default_localizer(args.width)
    desc = oscillator_dirac(args.n)
    H, D = desc.H, desc.D
    gap_h = gap(H)
    dh = operator_norm(lipschitz_derivative(D, H))
    h_norm = operator_norm(H)
    print(f"oscillator n={args.n}: gap={gap_h:.6g} |dH|={dh:.6g} |H|={h_norm:.6g}")
    print(f"{'kappa':>8} {'rho':>8} {'admissible':>10} {'C':>12} "
          f"{'min|eig|':>12} {'signature':>9} {'slack':>12}")

    admissible_sigs = []
    for kappa in kappas:
        for rho in rhos:
            params = LocalizerParams(kappa, rho, gap_h, dh, phi.c_phi, h_norm)
            bundle = assemble_localizer(H, D, phi, params)
            sig = signature(bundle.eigenvalues).signature
            slack = certificate_residual(bundle)
            print(f"{kappa:8.3g} {rho:8.3g} {str(params.admissible):>10} "
                  f"{params.C_kr:12.4g} {bundle.min_abs_eigenvalue:12.4g} "
                  f"{sig:9d} {slack:12.4g}")
            if params.admissible:
                admissible_sigs.append(sig)
                assert slack >= -1e-9, "certified floor violated"

    if not admissible_sigs:
        print("no admissible cells in the grid")
        return 1
    if len(set(admissible_sigs)) > 1:
        print(f"signature disagreement across admissible cells: {sorted(set(admissible_sigs))}")
        return 1
    print(f"admissible cells: {len(admissible_sigs)}, common signature {admissible_sigs[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
