"""Command-line front end: compute indices, sweep scales, run property suites.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 index disagreement.  Reports are deterministic given (config, seed).
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, build_config, load_config_file
from .errors import (
    AdmissibilityError,
    ConfigError,
    DomainError,
    GaplessError,
    GenerationError,
    NotInvertibleError,
    ParityError,
    PreconditionError,
    ResolutionError,
    SpectralCutError,
    TruncationTooSmallError,
)
from .grading import gap, lipschitz_derivative, operator_norm
from .ktheory import localizer_index, positive_projection, signature
from .localizer import assemble_localizer, choose_params, constant_C
from .matrixio import write_operator
from .models import ModelDescriptor, parse_model
from .oracles import (
    chern_number_bz,
    compressed_index,
    graded_kernel_index,
    window_signature_index,
)
from .verification import parallel_map, run_suite

# Input and configuration problems exit 2; anything else is a real bug and
# propagates as a traceback.  Bare ValueError stays out: numpy's LinAlgError
# is one, and a failed eigensolve is not a usage error.
_USAGE_ERRORS = (
    ConfigError,
    AdmissibilityError,
    DomainError,
    GaplessError,
    GenerationError,
    NotInvertibleError,
    ParityError,
    PreconditionError,
    ResolutionError,
    SpectralCutError,
    TruncationTooSmallError,
)

CHERN_GRID = 48


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    if min(values) <= 0:
        raise ConfigError(f"{flag} values must be strictly positive, got {text!r}")
    return values


def _single(values: list[float] | None) -> float | None:
    if values is None:
        return None
    if len(values) != 1:
        raise ConfigError("compute takes a single --kappa and --rho; "
                          "comma lists are for sweep")
    return values[0]


def _resolve_config(args, kappa: float | None = None,
                    rho: float | None = None) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    overrides = {
        "model": args.model,
        "kappa": kappa,
        "rho": rho,
        "auto": True if args.auto else None,
        "margin": args.margin,
        "seed": args.seed,
        "out": args.out,
    }
    return build_config(file_values, overrides)


def _require_model(config: RunConfig) -> ModelDescriptor:
    if not config.model:
        raise ConfigError("no model given; use --model, e.g. "
                          "--model oscillator:n=60")
    return parse_model(config.model)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------------


def _model_oracles(desc: ModelDescriptor, report, config: RunConfig) -> dict:
    """Independent index values for the triangle, keyed by oracle name."""
    oracles: dict[str, dict] = {}
    if desc.name == "oscillator":
        gk = graded_kernel_index(desc.D, tau_rank=config.tau_rank)
        oracles["graded_kernel"] = {
            "value": gk.value, "reliable": gk.reliable,
            "rank_tolerance": gk.rank_tolerance,
        }
        try:
            win = window_signature_index(desc.H, desc.D, rho=report.rho,
                                         kappa=report.kappa,
                                         tau_sig=config.tau_sig)
            oracles["window_formula"] = {"value": win, "reliable": True}
        except (SpectralCutError, PreconditionError) as exc:
            oracles["window_formula"] = {"value": None, "reliable": False,
                                         "skipped": str(exc)}
    elif desc.name == "qwz":
        ch = chern_number_bz(desc.bloch, n_occupied=desc.n_occupied,
                             grid=CHERN_GRID)
        oracles["chern_bz"] = {
            "value": ch.value, "reliable": ch.reliable,
            "integer_deviation": ch.diagnostics["integer_deviation"],
        }
        q = positive_projection(desc.H, tau_sig=config.tau_sig)
        ci = compressed_index(q, desc.D, tau_rank=config.tau_rank)
        oracles["compressed"] = {
            "value": ci.value, "reliable": ci.reliable,
            "rank_tolerance": ci.rank_tolerance,
        }
    elif desc.name == "mk":
        oracles["rank"] = {"value": desc.expected_class, "reliable": True}
    return oracles


def cmd_compute(args) -> int:
    config = _resolve_config(args, kappa=_single(args.kappa),
                             rho=_single(args.rho))
    desc = _require_model(config)
    phi = config.phi()
    mode, kappa, rho = config.localizer_choice()
    if mode == "auto":
        params = choose_params(desc.H, desc.D, phi, margin=config.margin)
    else:
        params = constant_C(kappa, rho, desc.H, desc.D, phi)
    report = localizer_index(desc.H, desc.D, phi, params=params,
                             tau_sig=config.tau_sig)

    oracles = _model_oracles(desc, report, config)
    values = {"localizer": report.value}
    for name, entry in oracles.items():
        if entry["value"] is not None:
            values[name] = entry["value"]
    agreement = len(set(values.values())) == 1

    payload = {
        "model": {"name": desc.name, "parameters": desc.parameters},
        "params_source": mode,
        "indices": values,
        "oracles": oracles,
        "agreement": agreement,
        "certificate": report.to_json_dict(),
        "truncation": {
            "rho": report.rho,
            "rho_max": desc.rho_max,
            "within_guard": report.rho <= desc.rho_max,
        },
        "seed": config.seed,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, config.out)
    if not payload["truncation"]["within_guard"]:
        print(f"warning: rho = {report.rho:.6g} exceeds the truncation guard "
              f"rho_max = {desc.rho_max:.6g}; doubling the truncation is the "
              "stability check", file=sys.stderr)
    if not agreement:
        triangle = " ".join(f"{k}={v}" for k, v in values.items())
        print(f"index disagreement: {triangle}", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    if args.kappa is None or args.rho is None:
        raise ConfigError("sweep needs --kappa and --rho grids "
                          "(comma-separated values)")
    config = _resolve_config(args)
    desc = _require_model(config)
    phi = config.phi()
    cells = [(k, r) for k in args.kappa for r in args.rho]

    gap_h = gap(desc.H)
    dh_norm = operator_norm(lipschitz_derivative(desc.D, desc.H))
    h_norm = operator_norm(desc.H)

    def one_cell(cell):
        kappa, rho = cell
        params = constant_C(kappa, rho, desc.H, desc.D, phi, gap_h=gap_h,
                            dh_norm=dh_norm, h_norm=h_norm)
        bundle = assemble_localizer(desc.H, desc.D, phi, params)
        inert = signature(bundle.eigenvalues, config.tau_sig)
        slack = bundle.min_abs_eigenvalue**2 - params.certified_lower_bound()
        return params, bundle.min_abs_eigenvalue, inert.signature, slack

    rows = parallel_map(one_cell, cells)
    lines = ["kappa,rho,C_kr,admissible,min_abs_eig,signature"]
    for (kappa, rho), (params, min_abs, sig, _) in zip(cells, rows):
        lines.append(f"{kappa!r},{rho!r},{params.C_kr!r},"
                     f"{params.admissible},{min_abs!r},{sig}")

    admissible = [(sig, slack) for (params, _, sig, slack) in rows
                  if params.admissible]
    if not admissible:
        lines.append("# warning: no admissible cells in the grid")
        verdict = 0
    else:
        sigs = sorted({sig for sig, _ in admissible})
        constant = len(sigs) == 1
        slacks = [slack for _, slack in admissible]
        lines.append(
            f"# admissible_cells={len(admissible)} signature_constant={constant} "
            f"signatures={sigs} lower_bound_slack_min={min(slacks)!r} "
            f"lower_bound_slack_max={max(slacks)!r}")
        verdict = 0 if constant else 3
    text = "\n".join(lines) + "\n"
    _emit(text, config.out)
    if verdict == 3:
        print("admissible cells disagree on the signature", file=sys.stderr)
    return verdict


# ----------------------------------------------------------------------------
# verify / exports
# ----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    config = _resolve_config(args)
    phi = config.phi()
    results = run_suite(args.suite, phi, base_seed=config.seed)
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"suite {args.suite}: {len(results)} checks, {failed} failed")
    _emit("\n".join(lines) + "\n", config.out)
    return 1 if failed else 0


def cmd_export_phi(args) -> int:
    config = _resolve_config(args)
    phi = config.phi()
    rows = "".join(f"{float(xv)!r},{float(fv)!r}\n"
                   for xv, fv in zip(phi.sample_grid, phi.samples))
    _emit("x,phi(x)\n" + rows, config.out)
    return 0


def cmd_export_model(args) -> int:
    config = _resolve_config(args)
    desc = _require_model(config)
    if not config.out:
        raise ConfigError("export-model needs --out as a file prefix")
    prefix = config.out
    write_operator(desc.H, f"{prefix}_H.csv")
    write_operator(desc.D, f"{prefix}_D.csv")
    meta = {
        "name": desc.name,
        "parameters": desc.parameters,
        "n_plus": desc.space.n_plus,
        "n_minus": desc.space.n_minus,
        "rho_max": desc.rho_max,
        "truncation_fraction": desc.truncation_fraction,
        "gap_bound": desc.gap_bound,
        "n_occupied": desc.n_occupied,
        "expected_class": desc.expected_class,
        "files": {"H": f"{prefix}_H.csv", "D": f"{prefix}_D.csv"},
    }
    with open(f"{prefix}_model.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localizer-lab",
        description="Index pairings through spectral localizers, with "
                    "certificates, sweeps, and property suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--model", help="model address, e.g. qwz:L=12,m=1.0")
        p.add_argument("--auto", action="store_true", default=None,
                       help="choose admissible (kappa, rho) automatically")
        p.add_argument("--kappa", type=str, default=None,
                       help="kappa value (compute) or comma grid (sweep)")
        p.add_argument("--rho", type=str, default=None,
                       help="rho value (compute) or comma grid (sweep)")
        p.add_argument("--margin", type=float, default=None,
                       help="headroom factor for automatic rho")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed for seeded suites and reports")
        p.add_argument("--out", default=None, help="output file path")

    p_compute = sub.add_parser("compute", help="index triangle for one model")
    add_common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="(kappa, rho) grid sweep as CSV")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=["bounds", "identities",
                                            "homotopy", "all"])
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_phi = sub.add_parser("export-phi", help="sampled localizing function CSV")
    add_common(p_phi)
    p_phi.set_defaults(func=cmd_export_phi)

    p_model = sub.add_parser("export-model",
                             help="model matrices as interchange CSV + metadata")
    add_common(p_model)
    p_model.set_defaults(func=cmd_export_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.kappa is not None:
            args.kappa = _float_list(args.kappa, "--kappa")
        if args.rho is not None:
            args.rho = _float_list(args.rho, "--rho")
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
