"""Batch command line front-end.

Subcommands load a built-in representation or form by name, run the
verification suites and write JSON/CSV artifacts.  Outputs are
deterministic given the configuration: sampler seeds are part of the
config and echoed into every report, floats are serialized with fixed
formatting, and JSON keys are sorted.  JSON artifacts are strict: a
non-finite float is written as null.

Exit codes: 0 on success, 1 when any verification verdict is FAIL, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from vvaf.expsum import bound_scan
from vvaf.forms import BUILTIN_FORMS, builtin_form, check_transformation
from vvaf.growth import coefficient_growth_report, coefficient_norms, mean_square
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

_FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    """Precision and output knobs shared by every subcommand.

    Every field has a documented default.  ``--config`` reads a config
    from key=value text, one field per line; nothing writes one.
    """

    n_terms: int = 200  # series truncation order
    tolerance: float = 1e-8  # residual tolerance for verification verdicts
    seed: int = 0  # sampler seed, echoed into artifacts
    out_dir: str = "."  # artifact directory
    format: str = "json"  # 'json' or 'csv' for primary artifacts
    alpha: float = 0.0  # growth exponent entering the targets

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {self.format!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be at least 1, got {self.n_terms}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")

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


def _finite_or_null(value):
    """``value`` with every non-finite float, however deeply nested, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _csv_field(name: str, row: int, column: str, value) -> str:
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise ValueError(f"{name}, row {row}, column {column}: {value} is not finite; no artifact was written")
    return _format_float(value)


def _write_artifacts(out_dir: Path, artifacts: dict, builtin_name: str, seed: int) -> None:
    """Write ``name -> payload`` pairs: a dict as JSON, a (header, rows) pair as CSV.

    Every JSON payload carries the builtin name and the seed, and is
    strict JSON: a non-finite float is written as null.  A CSV value that
    is a non-finite float is refused, naming the file, the row (counted
    from the first data row) and the column, before any file is written.
    """
    texts = {}
    for name, content in artifacts.items():
        if name.endswith(".json"):
            payload = _finite_or_null({**content, "builtin": builtin_name, "seed": seed})
            texts[name] = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        else:
            header, rows = content
            columns = header.split(",")
            lines = [header]
            for r, row in enumerate(rows, 1):
                lines.append(",".join(_csv_field(name, r, column, v) for column, v in zip(columns, row)))
            texts[name] = "\n".join(lines) + "\n"
    for name, text in texts.items():
        (out_dir / name).write_text(text)


def _parse_gamma(text: str) -> GroupElement:
    if text == "s":
        return gen_s()
    if text == "t":
        return gen_t()
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"gamma must be 's', 't' or four comma-separated integers, got {text!r}")
    return GroupElement(*parts)


def _parse_complex(flag: str, item: str) -> complex:
    """One complex argument of ``flag``, such as 6+3i, (6+3i) or 1j: the i that ends the number is read as j."""
    try:
        return complex(re.sub(r"i(\s*\)?\s*)$", r"j\1", item))
    except ValueError:
        raise ValueError(f"{flag}: {item!r} is not a complex number") from None


def _rep_from_args(args) -> tuple:
    """The builtin representation and its parameters as [re, im] pairs."""
    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--param: {item!r} is not key=value")
        params[key] = _parse_complex("--param", value)
    return builtin(args.builtin, **params), {k: [v.real, v.imag] for k, v in params.items()}


def _form_holding(args, config: RunConfig, nmax: int):
    """The builtin form with its series truncated at max(n_terms, nmax + 8), so it holds exponents 0..nmax."""
    return builtin_form(args.builtin, n_terms=max(config.n_terms, nmax + 8))


# -- commands: each returns its artifacts and its exit code ------------------------


def _repr_check(args, config: RunConfig) -> tuple:
    rho, params = _rep_from_args(args)
    report = validate(rho)
    eigs = sorted(np.linalg.eigvals(rho.mat_t), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    payload = {
        "params": params,
        "validation": asdict(report),
        "admissible": bool(is_admissible(rho)) if report.passed else None,
        "polynomial_growth": bool(is_polynomial_growth(rho)),
        "t_eigenvalues": [[z.real, z.imag] for z in eigs],
    }
    return {f"repr_check_{args.builtin}.json": payload}, 0 if report.passed else 1


def _repr_growth(args, config: RunConfig) -> tuple:
    rho, params = _rep_from_args(args)
    fit = growth_exponent(rho, SamplerConfig(seed=config.seed))
    payload = {
        "params": params,
        "fit": asdict(fit),
        "unitary_sampled": bool(is_unitary_sampled(rho, seed=config.seed)),
    }
    return {f"repr_growth_{args.builtin}.json": payload}, 0


def _vvaf_coeffs(args, config: RunConfig) -> tuple:
    if args.N < 0:
        raise ValueError(f"nmax must be at least 0, got {args.N}")
    X = _form_holding(args, config, args.N)
    artifacts = {}
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
        artifacts[f"coeffs_{args.builtin}_c{i}.csv"] = ("exponent_num,exponent_den,re,im", rows)
    artifacts[f"coeffs_{args.builtin}.json"] = {
        "components": list(artifacts),
        "N": args.N,
        "skipped_log_powers": skipped_log_powers,
    }
    return artifacts, 0


def _vvaf_transform_check(args, config: RunConfig) -> tuple:
    X = builtin_form(args.builtin, n_terms=config.n_terms)
    taus = [complex(0.1 * (i % 5), 0.8 + 0.17 * i) for i in range(args.samples)]
    residuals = {text: check_transformation(X, _parse_gamma(text), taus) for text in args.gamma}
    worst = max(residuals.values())
    payload = {
        "residuals": residuals,
        "max_residual": worst,
        "tolerance": config.tolerance,
        "verdict": "PASS" if worst < config.tolerance else "FAIL",
    }
    return {f"transform_{args.builtin}.json": payload}, 0 if worst < config.tolerance else 1


def _vvaf_growth(args, config: RunConfig) -> tuple:
    X = _form_holding(args, config, args.N)
    report = coefficient_growth_report(X, args.N, alpha=config.alpha)
    artifacts = {f"vvaf_growth_{args.builtin}.json": {"report": asdict(report)}}
    if config.format == "csv":
        norms = coefficient_norms(X, args.N)
        rows = [
            (n, float(norms[n]), float(n**report.target))
            for n in range(1, args.N + 1)
            if norms[n] > 0
        ]
        artifacts[f"vvaf_growth_{args.builtin}.csv"] = ("n,norm,bound", rows)
    return artifacts, 0 if report.verdict != "FAIL" else 1


def _vvaf_meansq(args, config: RunConfig) -> tuple:
    X = _form_holding(args, config, args.N)
    result = mean_square(X, args.N, alpha=config.alpha)
    payload = {key: result[key] for key in ("slope", "target", "verdict")}
    artifacts = {f"vvaf_meansq_{args.builtin}.json": payload}
    if config.format == "csv":
        partial = result["partial_sums"]
        rows = [(n, float(partial[n])) for n in range(1, len(partial))]
        artifacts[f"vvaf_meansq_{args.builtin}.csv"] = ("n,partial_sum", rows)
    return artifacts, 0 if result["verdict"] != "FAIL" else 1


def _lfunc_eval(args, config: RunConfig) -> tuple:
    X = _form_holding(args, config, config.n_terms)
    methods = ("truncated-sum", "split-mellin") if args.method == "both" else (args.method,)
    rows = {method: [] for method in methods}
    for s in [_parse_complex("--s", part) for part in args.s.split(",")]:
        for method in methods:
            if method == "truncated-sum":
                value = completed_dirichlet_L(X, s, n_terms=config.n_terms, alpha=config.alpha)
            else:
                value = completed_L(X, s)
            for i, z in enumerate(value.value):
                rows[method].append((s.real, s.imag, i, float(z.real), float(z.imag), value.error))
    header = "s_re,s_im,component,value_re,value_im,err"
    return {f"lfunc_eval_{args.builtin}_{method}.csv": (header, rows[method]) for method in methods}, 0


def _lfunc_fescan(args, config: RunConfig) -> tuple:
    X = builtin_form(args.builtin, n_terms=config.n_terms)
    s_grid = [_parse_complex("--s-grid", part) for part in args.s_grid.split(",")]
    result = functional_equation_sign(X, s_grid, tol=config.tolerance)
    rows = [
        (row["s"].real, row["s"].imag, row["residual_plus"], row["residual_minus"])
        for row in result["rows"]
    ]
    artifacts = {
        f"lfunc_fescan_{args.builtin}.csv": ("s_re,s_im,residual_plus,residual_minus", rows),
        f"lfunc_fescan_{args.builtin}.json": {
            "selected_sign": result["selected_sign"],
            "tolerance": config.tolerance,
        },
    }
    return artifacts, 0 if result["selected_sign"] != 0 else 1


def _expsum_scan(args, config: RunConfig) -> tuple:
    cutoffs = [int(part) for part in args.cutoffs.split(",")]
    X = _form_holding(args, config, max(cutoffs))
    scan = bound_scan(X, [float(t) for t in args.thetas.split(",")], cutoffs, alpha=config.alpha)
    rows = []
    for a, theta in enumerate(scan.thetas):
        for b, cutoff in enumerate(scan.cutoffs):
            for i in range(X.m):
                z = scan.sums[a, b, i]
                rows.append((theta, cutoff, i, float(z.real), float(z.imag), float(scan.ratios[a, b])))
    artifacts = {
        f"expsum_{args.builtin}.csv": ("theta,X,component,sum_re,sum_im,ratio", rows),
        f"expsum_{args.builtin}.json": {
            "verdict": scan.verdict,
            "sigma": scan.sigma,
            "target_exponent": scan.target_exponent,
        },
    }
    return artifacts, 0 if scan.verdict != "FAIL" else 1


# -- parser -----------------------------------------------------------------------

# RunConfig field -> (flag, argparse keywords); accepted before and after the subcommand
_COMMON = {
    "seed": ("--seed", {"type": int, "help": "sampler seed recorded in outputs"}),
    "out_dir": ("--out-dir", {"help": "artifact directory"}),
    "format": ("--format", {"choices": _FORMATS, "help": "primary artifact format"}),
    "n_terms": ("--n-terms", {"type": int, "help": "series truncation order"}),
}

_GROUPS = {
    "repr": "representation checks",
    "vvaf": "vector-valued form suites",
    "lfunc": "L-function evaluation",
    "expsum": "exponential sum scans",
}

_REP = ("--builtin", {"required": True})
_PARAM = ("--param", {"action": "append", "help": "builtin parameter, e.g. a=1j"})
_FORM = ("--builtin", {"required": True, "choices": sorted(BUILTIN_FORMS)})

# (group, action, extra arguments, function)
_COMMANDS = (
    ("repr", "check", (_REP, _PARAM), _repr_check),
    ("repr", "growth", (_REP, _PARAM), _repr_growth),
    ("vvaf", "coeffs", (_FORM, ("-N", {"type": int, "default": 50, "help": "largest exponent to emit"})), _vvaf_coeffs),
    (
        "vvaf",
        "transform-check",
        (
            _FORM,
            ("--gamma", {"action": "append", "required": True, "help": "'s', 't' or a,b,c,d"}),
            ("--samples", {"type": int, "default": 10}),
        ),
        _vvaf_transform_check,
    ),
    ("vvaf", "growth", (_FORM, ("-N", {"type": int, "default": 2000})), _vvaf_growth),
    ("vvaf", "meansq", (_FORM, ("-N", {"type": int, "default": 2000})), _vvaf_meansq),
    (
        "lfunc",
        "eval",
        (
            _FORM,
            (
                "--s",
                {
                    "required": True,
                    "help": "comma-separated complex arguments, e.g. 8,6+3i; a list that starts with a "
                    "minus sign follows an equals sign, as in --s=-2.5+1i",
                },
            ),
            ("--method", {"choices": ("truncated-sum", "split-mellin", "both"), "default": "both"}),
        ),
        _lfunc_eval,
    ),
    (
        "lfunc",
        "fe-scan",
        (
            _FORM,
            (
                "--s-grid",
                {
                    "required": True,
                    "help": "comma-separated complex arguments; a list that starts with a minus sign "
                    "follows an equals sign, as in --s-grid=-2.5+1i",
                },
            ),
        ),
        _lfunc_fescan,
    ),
    (
        "expsum",
        "scan",
        (
            _FORM,
            ("--thetas", {"default": "0,0.3333333333333333,0.7071067811865475,0.7"}),
            ("--cutoffs", {"default": "100,250,500,1000,1500,2000"}),
        ),
        _expsum_scan,
    ),
)


def _add_common(p: argparse.ArgumentParser, default) -> None:
    for field, (flag, kwargs) in _COMMON.items():
        p.add_argument(flag, dest=field, default=default, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vvaf", description=__doc__)
    parser.add_argument("--config", help="key=value config file; flags override it")
    _add_common(parser, default=None)
    groups = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for group, action, arguments, func in _COMMANDS:
        if group not in actions:
            actions[group] = groups.add_parser(group, help=_GROUPS[group]).add_subparsers(dest="action", required=True)
        p = actions[group].add_parser(action)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        # SUPPRESS keeps an absent trailing flag from clobbering the leading one
        _add_common(p, default=argparse.SUPPRESS)
    return parser


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig.from_text(Path(args.config).read_text()) if args.config else RunConfig()
        config = replace(config, **{field: getattr(args, field) for field in _COMMON if getattr(args, field) is not None})
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts, code = args.func(args, config)
        _write_artifacts(out_dir, artifacts, args.builtin, config.seed)
        return code
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
