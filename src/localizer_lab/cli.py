"""Command-line front end: compute indices, sweep scales, run property suites.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 index disagreement.  Reports are deterministic given (config, seed).
"""
from __future__ import annotations

import argparse
import json
import math
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
)
from .grading import one_blas_thread
from .ktheory import localizer_index, positive_projection, signature
from .localizer import (
    LocalizerParams,
    assemble_localizer,
    certificate_residual,
    choose_params,
    constant_C,
    measure_constants,
)
from .matrixio import write_operator
from .models import ModelDescriptor, parse_model
from .oracles import (
    chern_number_bz,
    compressed_index,
    graded_kernel_index,
    window_signature_index,
)
from .verification import SUITE_CHOICES, parallel_map, run_suite

# Input and configuration problems, and models too large for memory, exit 2;
# anything else is a real bug and propagates as a traceback.  ValueError
# stays out: LinAlgError is one, and a failed eigensolve is not a usage error.
_USAGE_ERRORS = (
    MemoryError,
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
)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ConfigError(f"{flag} values must be finite and strictly positive, "
                          f"got {text!r}")
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
    # each subcommand defines only the flags it reads; a missing one is unset
    flags = vars(args)
    file_values = load_config_file(args.config) if args.config else None
    overrides = {name: flags.get(name) for name in ("model", "margin", "seed", "out")}
    overrides.update(kappa=kappa, rho=rho,
                     auto=True if flags.get("auto") else None)
    return build_config(file_values, overrides)


def _require_model(config: RunConfig) -> ModelDescriptor:
    if not config.model:
        raise ConfigError("no model given; use --model, e.g. "
                          "--model oscillator:n=60")
    return parse_model(config.model)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unwritable(exc) from None
    else:
        sys.stdout.write(text)


def _unwritable(exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {exc.filename}: {exc.strerror}")


# ----------------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------------


def _model_oracles(desc: ModelDescriptor, params: LocalizerParams) -> dict:
    """Independent index values for the triangle, keyed by oracle name."""
    oracles: dict[str, dict] = {}
    if desc.name == "oscillator":
        gk = graded_kernel_index(desc.D)
        oracles["graded_kernel"] = {
            "value": gk.value, "reliable": gk.reliable,
            "rank_tolerance": gk.rank_tolerance,
        }
        try:
            win = window_signature_index(desc.H, desc.D, rho=params.rho,
                                         kappa=params.kappa)
            oracles["window_formula"] = {"value": win, "reliable": True}
        except (SpectralCutError, PreconditionError) as exc:
            oracles["window_formula"] = {"value": None, "reliable": False,
                                         "skipped": str(exc)}
    elif desc.name == "qwz":
        ch = chern_number_bz(desc.bloch, desc.n_occupied, desc.bloch_lipschitz)
        oracles["chern_bz"] = {
            "value": ch.value, "reliable": ch.reliable,
            "integer_deviation": ch.diagnostics["integer_deviation"],
        }
        ci = compressed_index(positive_projection(desc.H), desc.D)
        oracles["compressed"] = {
            "value": ci.value, "reliable": ci.reliable,
            "rank_tolerance": ci.rank_tolerance,
        }
    elif desc.name == "mk":
        oracles["rank"] = {"value": desc.expected_class, "reliable": True}
    return oracles


def _finite_or_null(x: float) -> float | None:
    """x, or None (JSON null) when x is not finite: JSON has no Infinity
    or NaN, and the reports are dumped with allow_nan=False."""
    return x if math.isfinite(x) else None


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
    report = localizer_index(desc.H, desc.D, phi, params=params)

    oracles = _model_oracles(desc, params)
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
            "rho": params.rho,
            "rho_max": _finite_or_null(desc.rho_max),
            "within_guard": params.rho <= desc.rho_max,
        },
        "seed": config.seed,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _emit(text, config.out)
    if not payload["truncation"]["within_guard"]:
        print(f"warning: rho = {params.rho:.6g} exceeds the truncation guard "
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

    gap_h, dh_norm, h_norm, _, _ = measure_constants(desc.H, desc.D)

    def one_cell(cell):
        kappa, rho = cell
        params = LocalizerParams(kappa, rho, gap_h, dh_norm, phi.c_phi, h_norm)
        bundle = assemble_localizer(desc.H, desc.D, phi, params)
        inert = signature(bundle.eigenvalues)
        return (params, bundle.min_abs_eigenvalue, inert.signature,
                certificate_residual(bundle))

    # A ladder cell gathers only the diagonal of H on its window and
    # solves 2 x 2 pair blocks, all on O(n) arrays, so no BLAS call is
    # large enough for a second thread to pay; on 2 vCPUs one only makes
    # the sweep's wall time swing with any other load on the second core.
    with one_blas_thread():
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
    # the suites' random instances have dimension <= 80 and their largest
    # matrices n = 400 (the zoo's qwz:L=10), too small for a second BLAS
    # thread to pay for itself
    with one_blas_thread():
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
    meta = {
        "name": desc.name,
        "parameters": desc.parameters,
        "n_plus": desc.space.n_plus,
        "n_minus": desc.space.n_minus,
        "rho_max": _finite_or_null(desc.rho_max),
        "truncation_fraction": desc.truncation_fraction,
        "gap_bound": _finite_or_null(desc.gap_bound),
        "n_occupied": desc.n_occupied,
        "expected_class": desc.expected_class,
        "files": {"H": f"{prefix}_H.csv", "D": f"{prefix}_D.csv"},
    }
    try:
        write_operator(desc.H, f"{prefix}_H.csv")
        write_operator(desc.D, f"{prefix}_D.csv")
        with open(f"{prefix}_model.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise _unwritable(exc) from None
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

    flags = {
        "--config": {"help": "flat JSON config file"},
        "--model": {"help": "model address, e.g. qwz:L=12,m=1.0"},
        "--auto": {"action": "store_true", "default": None,
                   "help": "choose admissible (kappa, rho) automatically"},
        "--kappa": {"help": "kappa value (compute) or comma grid (sweep)"},
        "--rho": {"help": "rho value (compute) or comma grid (sweep)"},
        "--margin": {"type": float, "help": "headroom factor for automatic rho"},
        "--seed": {"type": int, "help": "base seed for seeded suites and reports"},
        "--out": {"help": "output file path"},
    }

    def add(name, func, help, *names):
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    add("compute", cmd_compute, "index triangle for one model",
        "--config", "--model", "--auto", "--kappa", "--rho", "--margin",
        "--seed", "--out")
    add("sweep", cmd_sweep, "(kappa, rho) grid sweep as CSV",
        "--config", "--model", "--kappa", "--rho", "--out")
    add("verify", cmd_verify, "run a property suite",
        "--config", "--seed", "--out").add_argument(
            "suite", choices=SUITE_CHOICES)
    add("export-phi", cmd_export_phi, "sampled localizing function CSV",
        "--config", "--out")
    add("export-model", cmd_export_model,
        "model matrices as interchange CSV + metadata",
        "--config", "--model", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("kappa", "rho"):
            if getattr(args, name, None) is not None:
                setattr(args, name, _float_list(getattr(args, name), f"--{name}"))
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
