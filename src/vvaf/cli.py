"""Batch command line front-end.

Subcommands load built-in (or serialized) representations and forms, run
the verification suites and write JSON/CSV artifacts.  Outputs are
deterministic given the configuration: sampler seeds are part of the
config and echoed into every report, floats are serialized with fixed
formatting, and JSON keys are sorted.

Exit codes: 0 on success, 1 when any verification verdict is FAIL, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from vvaf.expsum import bound_scan
from vvaf.forms import BUILTIN_FORMS, VVAF, builtin_form, check_transformation
from vvaf.growth import coefficient_growth_report, mean_square
from vvaf.lfunc import completed_dirichlet_L, completed_L, functional_equation_sign
from vvaf.moebius import GroupElement, gen_s, gen_t
from vvaf.representation import (
    SamplerConfig,
    builtin,
    growth_exponent,
    is_admissible,
    is_polynomial_growth,
    is_unitary_sampled,
    validate,
)

__all__ = ["RunConfig", "main", "run"]


@dataclass
class RunConfig:
    """Precision and output knobs shared by every subcommand.

    Every field has a documented default; configs round-trip unchanged
    through the key=value text format.
    """

    n_terms: int = 200  # series truncation order
    tolerance: float = 1e-8  # residual tolerance for verification verdicts
    seed: int = 0  # sampler seed, echoed into artifacts
    out_dir: str = "."  # artifact directory
    format: str = "json"  # 'json' or 'csv' for primary artifacts
    alpha: float = 0.0  # growth exponent entering the targets

    def to_text(self) -> str:
        lines = [f"{field.name} = {getattr(self, field.name)}" for field in fields(self)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "RunConfig":
        kwargs = {}
        defaults = RunConfig()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if not hasattr(defaults, key):
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = type(getattr(defaults, key))(value.strip())
        return RunConfig(**kwargs)


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_format_float(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parse_gamma(text: str) -> GroupElement:
    if text == "s":
        return gen_s()
    if text == "t":
        return gen_t()
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"gamma must be 's', 't' or four comma-separated integers, got {text!r}")
    return GroupElement(*parts)


def _parse_complex_list(text: str) -> list:
    return [complex(part.strip().replace("i", "j")) for part in text.split(",")]


def _rep_from_args(args) -> tuple:
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        params[key] = complex(value.replace("i", "j"))
    return builtin(args.builtin, **params), params


def _form_from_args(args, config: RunConfig) -> VVAF:
    return builtin_form(args.builtin, n_terms=config.n_terms)


# -- subcommand implementations -------------------------------------------------


def _cmd_repr_check(args, config: RunConfig) -> int:
    rho, params = _rep_from_args(args)
    report = validate(rho)
    eigs = sorted(np.linalg.eigvals(rho.mat_t), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    payload = {
        "builtin": args.builtin,
        "params": {k: [v.real, v.imag] for k, v in params.items()},
        "validation": report.as_dict(),
        "admissible": bool(is_admissible(rho)) if report.passed else None,
        "polynomial_growth": bool(is_polynomial_growth(rho)),
        "t_eigenvalues": [[z.real, z.imag] for z in eigs],
        "seed": config.seed,
    }
    _write_json(Path(config.out_dir) / f"repr_check_{args.builtin}.json", payload)
    return 0 if report.passed else 1


def _cmd_repr_growth(args, config: RunConfig) -> int:
    rho, params = _rep_from_args(args)
    fit = growth_exponent(rho, SamplerConfig(seed=config.seed))
    payload = {
        "builtin": args.builtin,
        "params": {k: [v.real, v.imag] for k, v in params.items()},
        "fit": fit.as_dict(),
        "unitary_sampled": bool(is_unitary_sampled(rho, seed=config.seed)),
        "seed": config.seed,
    }
    _write_json(Path(config.out_dir) / f"repr_growth_{args.builtin}.json", payload)
    return 0


def _cmd_vvaf_coeffs(args, config: RunConfig) -> int:
    X = builtin_form(args.builtin, n_terms=max(config.n_terms, args.N + 8))
    out_dir = Path(config.out_dir)
    names = []
    skipped_log_powers = 0
    for i in range(X.m):
        comp = X.component_expansion(i)
        rows = []
        for j, series in comp.terms.items():
            if j > 0:
                skipped_log_powers += 1  # the flat CSV schema carries plain series only
                continue
            for exponent, value in series.occupied():
                if exponent > args.N:
                    continue
                rows.append(
                    (exponent.numerator, exponent.denominator, float(value.real), float(value.imag))
                )
        rows.sort(key=lambda r: r[0] / r[1])
        name = f"coeffs_{args.builtin}_c{i}.csv"
        _write_csv(out_dir / name, "exponent_num,exponent_den,re,im", rows)
        names.append(name)
    _write_json(
        out_dir / f"coeffs_{args.builtin}.json",
        {
            "builtin": args.builtin,
            "components": names,
            "N": args.N,
            "skipped_log_powers": skipped_log_powers,
            "seed": config.seed,
        },
    )
    return 0


def _cmd_vvaf_transform_check(args, config: RunConfig) -> int:
    X = _form_from_args(args, config)
    gammas = [_parse_gamma(g) for g in args.gamma]
    taus = [complex(0.1 * (i % 5), 0.8 + 0.17 * i) for i in range(args.samples)]
    residuals = {}
    for text, gamma in zip(args.gamma, gammas):
        residuals[text] = check_transformation(X, gamma, taus)
    worst = max(residuals.values())
    payload = {
        "builtin": args.builtin,
        "residuals": residuals,
        "max_residual": worst,
        "tolerance": config.tolerance,
        "verdict": "PASS" if worst < config.tolerance else "FAIL",
        "seed": config.seed,
    }
    _write_json(Path(config.out_dir) / f"transform_{args.builtin}.json", payload)
    return 0 if worst < config.tolerance else 1


def _cmd_vvaf_growth(args, config: RunConfig) -> int:
    X = builtin_form(args.builtin, n_terms=max(config.n_terms, args.N + 8))
    report = coefficient_growth_report(X, args.N, alpha=config.alpha)
    payload = {"builtin": args.builtin, "report": report.as_dict(), "seed": config.seed}
    _write_json(Path(config.out_dir) / f"vvaf_growth_{args.builtin}.json", payload)
    if config.format == "csv":
        norms = np.max(np.abs(X.fourier_vectors(args.N)), axis=1)
        rows = [
            (n, float(norms[n]), float(n**report.target))
            for n in range(1, args.N + 1)
            if norms[n] > 0
        ]
        _write_csv(Path(config.out_dir) / f"vvaf_growth_{args.builtin}.csv", "n,norm,bound", rows)
    return 0 if report.verdict != "FAIL" else 1


def _cmd_vvaf_meansq(args, config: RunConfig) -> int:
    X = builtin_form(args.builtin, n_terms=max(config.n_terms, args.N + 8))
    result = mean_square(X, args.N, alpha=config.alpha)
    payload = {
        "builtin": args.builtin,
        "slope": result["slope"],
        "target": result["target"],
        "verdict": result["verdict"],
        "seed": config.seed,
    }
    _write_json(Path(config.out_dir) / f"vvaf_meansq_{args.builtin}.json", payload)
    if config.format == "csv":
        partial = result["partial_sums"]
        rows = [(n, float(partial[n])) for n in range(1, len(partial))]
        _write_csv(Path(config.out_dir) / f"vvaf_meansq_{args.builtin}.csv", "n,partial_sum", rows)
    return 0 if result["verdict"] != "FAIL" else 1


def _cmd_lfunc_eval(args, config: RunConfig) -> int:
    X = _form_from_args(args, config)
    s_values = _parse_complex_list(args.s)
    rows_sum, rows_mellin = [], []
    for s in s_values:
        if args.method in ("truncated-sum", "both"):
            value = completed_dirichlet_L(X, s, n_terms=config.n_terms, alpha=config.alpha)
            for i, z in enumerate(value.value):
                rows_sum.append((s.real, s.imag, i, float(z.real), float(z.imag), value.error))
        if args.method in ("split-mellin", "both"):
            value = completed_L(X, s)
            for i, z in enumerate(value.value):
                rows_mellin.append((s.real, s.imag, i, float(z.real), float(z.imag), value.error))
    header = "s_re,s_im,component,value_re,value_im,err"
    out_dir = Path(config.out_dir)
    if rows_sum:
        _write_csv(out_dir / f"lfunc_eval_{args.builtin}_truncated-sum.csv", header, rows_sum)
    if rows_mellin:
        _write_csv(out_dir / f"lfunc_eval_{args.builtin}_split-mellin.csv", header, rows_mellin)
    return 0


def _cmd_lfunc_fescan(args, config: RunConfig) -> int:
    X = _form_from_args(args, config)
    s_values = _parse_complex_list(args.s_grid)
    result = functional_equation_sign(X, s_values, tol=config.tolerance)
    rows = [
        (row["s"].real, row["s"].imag, row["residual_plus"], row["residual_minus"])
        for row in result["rows"]
    ]
    out_dir = Path(config.out_dir)
    _write_csv(
        out_dir / f"lfunc_fescan_{args.builtin}.csv",
        "s_re,s_im,residual_plus,residual_minus",
        rows,
    )
    payload = {
        "builtin": args.builtin,
        "selected_sign": result["selected_sign"],
        "tolerance": config.tolerance,
        "seed": config.seed,
    }
    _write_json(out_dir / f"lfunc_fescan_{args.builtin}.json", payload)
    return 0 if result["selected_sign"] != 0 else 1


def _cmd_expsum_scan(args, config: RunConfig) -> int:
    X = builtin_form(args.builtin, n_terms=max(config.n_terms, max(_parse_int_list(args.cutoffs)) + 8))
    thetas = [float(t) for t in args.thetas.split(",")]
    cutoffs = _parse_int_list(args.cutoffs)
    scan = bound_scan(X, thetas, cutoffs, alpha=config.alpha)
    rows = []
    for a, theta in enumerate(scan.thetas):
        for b, cutoff in enumerate(scan.cutoffs):
            for i in range(X.m):
                z = scan.sums[a, b, i]
                rows.append((theta, cutoff, i, float(z.real), float(z.imag), float(scan.ratios[a, b])))
    out_dir = Path(config.out_dir)
    _write_csv(
        out_dir / f"expsum_{args.builtin}.csv",
        "theta,X,component,sum_re,sum_im,ratio",
        rows,
    )
    _write_json(
        out_dir / f"expsum_{args.builtin}.json",
        {
            "builtin": args.builtin,
            "verdict": scan.verdict,
            "sigma": scan.sigma,
            "target_exponent": scan.target_exponent,
            "seed": config.seed,
        },
    )
    return 0 if scan.verdict != "FAIL" else 1


def _parse_int_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


# -- parser ---------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    # common flags are valid before and after the subcommand; SUPPRESS keeps
    # an absent trailing flag from clobbering the leading one
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out-dir", default=argparse.SUPPRESS)
    p.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    p.add_argument("--n-terms", type=int, dest="config_n_terms", default=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vvaf", description=__doc__)
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--seed", type=int, default=None, help="sampler seed recorded in outputs")
    parser.add_argument("--out-dir", default=None, help="artifact directory")
    parser.add_argument("--format", choices=("json", "csv"), default=None, help="primary artifact format")
    parser.add_argument("--n-terms", type=int, dest="config_n_terms", default=None, help="series truncation order")
    sub = parser.add_subparsers(dest="command", required=True)

    p_repr = sub.add_parser("repr", help="representation checks")
    repr_sub = p_repr.add_subparsers(dest="action", required=True)
    for action, func in (("check", _cmd_repr_check), ("growth", _cmd_repr_growth)):
        p = repr_sub.add_parser(action)
        p.add_argument("--builtin", required=True)
        p.add_argument("--param", action="append", help="builtin parameter, e.g. a=1j")
        p.set_defaults(func=func)
        _add_common(p)

    p_vvaf = sub.add_parser("vvaf", help="vector-valued form suites")
    vvaf_sub = p_vvaf.add_subparsers(dest="action", required=True)
    p = vvaf_sub.add_parser("coeffs")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("-N", type=int, default=50, help="largest exponent to emit")
    p.set_defaults(func=_cmd_vvaf_coeffs)
    _add_common(p)
    p = vvaf_sub.add_parser("transform-check")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("--gamma", action="append", required=True, help="'s', 't' or a,b,c,d")
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(func=_cmd_vvaf_transform_check)
    _add_common(p)
    p = vvaf_sub.add_parser("growth")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("-N", type=int, default=2000)
    p.set_defaults(func=_cmd_vvaf_growth)
    _add_common(p)
    p = vvaf_sub.add_parser("meansq")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("-N", type=int, default=2000)
    p.set_defaults(func=_cmd_vvaf_meansq)
    _add_common(p)

    p_lfunc = sub.add_parser("lfunc", help="L-function evaluation")
    lfunc_sub = p_lfunc.add_subparsers(dest="action", required=True)
    p = lfunc_sub.add_parser("eval")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("--s", required=True, help="comma-separated complex arguments, e.g. 8,6+3i")
    p.add_argument("--method", choices=("truncated-sum", "split-mellin", "both"), default="both")
    p.set_defaults(func=_cmd_lfunc_eval)
    _add_common(p)
    p = lfunc_sub.add_parser("fe-scan")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("--s-grid", required=True, help="comma-separated complex arguments")
    p.set_defaults(func=_cmd_lfunc_fescan)
    _add_common(p)

    p_exp = sub.add_parser("expsum", help="exponential sum scans")
    exp_sub = p_exp.add_subparsers(dest="action", required=True)
    p = exp_sub.add_parser("scan")
    p.add_argument("--builtin", required=True, choices=sorted(BUILTIN_FORMS))
    p.add_argument("--thetas", default="0,0.3333333333333333,0.7071067811865475,0.7")
    p.add_argument("--cutoffs", default="100,250,500,1000,1500,2000")
    p.set_defaults(func=_cmd_expsum_scan)
    _add_common(p)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_text(Path(args.config).read_text()) if args.config else RunConfig()
        if args.seed is not None:
            config.seed = args.seed
        if args.out_dir is not None:
            config.out_dir = args.out_dir
        if args.format is not None:
            config.format = args.format
        if args.config_n_terms is not None:
            config.n_terms = args.config_n_terms
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        return args.func(args, config)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
