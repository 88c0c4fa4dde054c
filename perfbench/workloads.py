"""Workloads of the vvaf benchmark: job lists, seeded inputs and checks.

A job is one call into the package's public API (for ``cli``, one README
command in a fresh process).  Every input that depends on the seed is made
here and handed to the package as plain values.  Each job carries its own
check; ``values`` names the outputs compared with the stored reference.

Modules of the package are imported inside ``setup`` and reached through
the context dict at call time, so that the set-up time includes the imports
and the traced run sees every patched name.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

DEFAULT_SEED = 0
VERDICT_TOL = 1e-6  # functional-equation residual tolerance of criterion 7


@dataclass
class Job:
    """One call; ``check(result, outputs)`` returns failure messages.

    ``outputs`` maps the names of the jobs already run in this pass to their
    results, for checks that relate two jobs.  ``values(result)`` returns
    named arrays compared with the reference; ``seeded`` marks values whose
    inputs depend on the seed, which have a reference for the default seed
    only.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], list] | None = None
    values: Callable[[Any], dict] | None = None
    seeded: bool = False


@dataclass
class Workload:
    modules: tuple  # package modules the workload calls, imported during set-up
    setup: Callable[[], dict]
    refresh: Callable[[dict], None]  # untimed, before every pass
    jobs: Callable[[dict, int, int], list]
    # job_tail_ms percentile: the highest of run.TAIL_LADDER with >= 10 samples
    # beyond it in min_passes passes
    tail_percentile: float
    min_passes: int
    in_process: bool = True  # False: every job is a child process


def _import(ctx: dict, modules) -> None:
    for name in modules:
        ctx[name] = importlib.import_module(f"vvaf.{name}")


def _rng(*key):
    import numpy as np

    return np.random.default_rng(list(key))


def _cplx(x) -> list:
    """Flatten numbers or arrays to a list of floats (real, imaginary pairs)."""
    import numpy as np

    z = np.asarray(x, dtype=complex).ravel()
    return np.column_stack([z.real, z.imag]).ravel().tolist()


def _rel_gap(a, b) -> float:
    import numpy as np

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


# -- mellin ---------------------------------------------------------------------

# criterion 7 grids; the benchmark takes every fourth and fifth point so
# that a pass fits several times into one run
REAL_GRID = [4.0 + 0.5 * k for k in range(10)][::4]
COMPLEX_GRID = [complex(0.4 + 0.3 * k, 0.5) for k in range(10)][::5]
EVAL_POINTS = [7.0, 8.0, 6 + 3j]


def _mellin_setup() -> dict:
    ctx: dict = {}
    _import(ctx, ("forms", "lfunc"))
    _mellin_refresh(ctx)
    return ctx


def _mellin_refresh(ctx: dict) -> None:
    # fresh form objects each pass: a cache kept on a form helps within a pass only
    forms = ctx["forms"]
    forms.delta_form.cache_clear()
    forms.eta4_theta_eta_form.cache_clear()
    ctx["D"] = forms.delta_form(2100)
    ctx["Y"] = forms.eta4_theta_eta_form(100)


def mellin_points(seed: int) -> list:
    """Two seeded arguments with 7.5 <= Re s <= 9, |Im s| <= 3."""
    rng = _rng(seed, 1)
    return [complex(rng.uniform(7.5, 9.0), rng.uniform(-3.0, 3.0)) for _ in range(2)]


def _check_sign(result, _outputs) -> list:
    bad = []
    if result["selected_sign"] != 1:
        bad.append(f"selected sign {result['selected_sign']}, expected +1")
    worst = max(row["residual_plus"] for row in result["rows"])
    if worst >= VERDICT_TOL:
        bad.append(f"residual_plus {worst:.3e} >= {VERDICT_TOL}")
    return bad


def _lvalue(result) -> dict:
    return {"value": _cplx(result.value)}


def _mellin_jobs(ctx: dict, seed: int, pass_index: int) -> list:
    lf = ctx["lfunc"]
    D, Y = ctx["D"], ctx["Y"]
    jobs = [
        Job("fe_sign.delta.real", lambda: lf.functional_equation_sign(D, REAL_GRID, tol=VERDICT_TOL), _check_sign),
        Job("fe_sign.eta4.complex", lambda: lf.functional_equation_sign(Y, COMPLEX_GRID, tol=VERDICT_TOL), _check_sign),
    ]
    points = [(f"s={s:g}", s, False) for s in EVAL_POINTS]
    points += [(f"seeded{i}", s, True) for i, s in enumerate(mellin_points(seed))]
    # the plain sum at s = 8 only: 15 jobs put p50 and p75 inside the block
    # of split-Mellin jobs, away from the edges of the blocks around it
    jobs.append(Job("dirichlet_L.s=8", lambda: lf.dirichlet_L(D, 8.0, n_terms=2000), values=_lvalue))
    for label, s, seeded in points:
        mellin_name = f"completed_L.{label}"
        check = _method_agreement(mellin_name, complex(s), seeded)
        if label == "s=8":
            check = _both(check, _completion_check("dirichlet_L.s=8", 8.0))
        jobs.append(Job(mellin_name, lambda s=s: lf.completed_L(D, s), values=_lvalue, seeded=seeded))
        jobs.append(
            Job(
                f"completed_dirichlet_L.{label}",
                lambda s=s: lf.completed_dirichlet_L(D, s, n_terms=2000),
                check,
                values=_lvalue,
                seeded=seeded,
            )
        )
    jobs.append(Job("completed_L.split=7/10", lambda: lf.completed_L(D, 6 + 3j, split=0.7), values=_lvalue))
    jobs.append(
        Job("completed_L.split=13/10", lambda: lf.completed_L(D, 6 + 3j, split=1.3), _split_agreement, values=_lvalue)
    )
    return jobs


def _method_agreement(mellin_name: str, s: complex, seeded: bool):
    """Truncated sum against split-Mellin where the sum converges.

    At s = 7 and 8 the bound is criterion 7's 1e-6; at seeded points it is
    the truncated sum's own stated error.  At 6+3i the sum is known not to
    reach its stated error (criterion 7's documented failure); that gap
    feeds ``lfunc.err_understatement`` instead of a verdict.
    """

    def check(result, outputs) -> list:
        import numpy as np

        if s.imag != 0 and not seeded:
            return []
        gap = float(np.max(np.abs(result.value - outputs[mellin_name].value)))
        bound = result.error if seeded else VERDICT_TOL
        return [] if gap < bound else [f"method gap {gap:.3e} >= {bound:.3e} at s={s}"]

    return check


def _both(*checks):
    return lambda result, outputs: [msg for check in checks for msg in check(result, outputs)]


def _split_agreement(result, outputs) -> list:
    import numpy as np

    gap = float(np.max(np.abs(result.value - outputs["completed_L.split=7/10"].value)))
    return [] if gap < 1e-7 else [f"split 0.7 vs 1.3 differ by {gap:.3e}"]


# -- coeffs ---------------------------------------------------------------------

# (factory name, n_terms, N for the statistics, log_extra); the delta form
# stays below 4096 terms, where eta_power_series switches to an FFT that
# loses its small coefficients (see known_defects)
COEFF_FORMS = (
    ("delta_form", 4000, 3900, False),
    ("eta4_theta_eta_form", 5100, 5000, False),
    ("theta_eta_form", 400, 390, False),
    ("sym2_log_form", 4000, 3990, True),
)
EXPSUM_THETAS = [0.0, 1.0 / 3.0, 0.7071067811865475, 0.7]  # the README twists
EXPSUM_CUTOFFS = [250, 625, 1250, 2500, 3750, 5000]
TAU_SMALL = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944]


def _coeffs_setup() -> dict:
    ctx: dict = {}
    _import(ctx, ("forms", "growth", "lfunc", "expsum"))
    for factory, n_terms, _, _ in COEFF_FORMS:
        ctx[factory] = getattr(ctx["forms"], factory)(n_terms)
    return ctx


def coeffs_inputs(seed: int) -> dict:
    rng = _rng(seed, 2)
    pairs = []
    while len(pairs) < 20:
        m, n = (int(x) for x in rng.integers(2, 63, size=2))
        if math.gcd(m, n) == 1 and m != n:
            pairs.append((m, n))
    return {
        "s_delta": complex(rng.uniform(7.5, 9.0), rng.uniform(-3.0, 3.0)),
        "s_eta4": complex(rng.uniform(2.5, 4.0), rng.uniform(-3.0, 3.0)),
        "thetas": [float(x) for x in rng.uniform(0.0, 1.0, size=2)],
        "coprime_pairs": pairs,
    }


def _fourier_sample(X, nmax: int) -> dict:
    ns = list(range(1, 21)) + list(range(97, nmax + 1, 97))
    vectors = X.fourier_vectors(nmax)
    return {"fourier": _cplx(vectors[ns])}


def _check_delta(pairs):
    def check(X, _outputs) -> list:
        c = X.basis_coefficients(62 * 62)[:, 0].real
        bad = []
        if [round(v) for v in c[1:13]] != TAU_SMALL:
            bad.append("tau(1..12) differ from the known values")
        for m, n in pairs:
            if abs(c[m * n] - c[m] * c[n]) > 1e-9 * abs(c[m] * c[n]):
                bad.append(f"tau({m * n}) != tau({m}) tau({n})")
                break
        return bad

    return check


def _report_values(report) -> dict:
    return {"fit": [report.beta_emp, report.residual, report.max_ratio], "verdict": [report.verdict]}


def _meansq_values(result) -> dict:
    return {"slope": [result["slope"]], "verdict": [result["verdict"]]}


def _completion_check(base_name: str, s: complex):
    """completed = (2 pi)^-s Gamma(s) L(s), with Gamma from mpmath."""

    def check(result, outputs) -> list:
        import mpmath

        factor = complex((2 * mpmath.pi) ** (-s) * mpmath.gamma(s))
        gap = _rel_gap(result.value, factor * outputs[base_name].value)
        return [] if gap < 1e-12 else [f"completion off by {gap:.3e} relative at s={s}"]

    return check


def _scan_values(scan) -> dict:
    fixed = len(EXPSUM_THETAS)
    return {"ratios": scan.ratios[:fixed].ravel().tolist(), "sums": _cplx(scan.sums[:fixed]), "verdict": [scan.verdict]}


def _coeffs_jobs(ctx: dict, seed: int, pass_index: int) -> list:
    forms, growth, lf, ex = ctx["forms"], ctx["growth"], ctx["lfunc"], ctx["expsum"]
    inputs = coeffs_inputs(seed)
    jobs = []

    def rebuild(factory: str, n_terms: int):
        getattr(forms, factory).cache_clear()
        ctx[factory] = X = getattr(forms, factory)(n_terms)
        return X

    for factory, n_terms, nmax, _ in COEFF_FORMS:
        check = _check_delta(inputs["coprime_pairs"]) if factory == "delta_form" else None
        jobs.append(
            Job(
                f"build.{factory}",
                lambda f=factory, n=n_terms: rebuild(f, n),
                check,
                values=lambda X, nmax=nmax: _fourier_sample(X, nmax),
            )
        )
    for factory, _, nmax, log_extra in COEFF_FORMS:
        jobs.append(
            Job(
                f"growth_report.{factory}",
                lambda f=factory, nmax=nmax, le=log_extra: growth.coefficient_growth_report(
                    ctx[f], nmax, alpha=0.0, log_extra=le
                ),
                values=_report_values,
            )
        )
        jobs.append(
            Job(
                f"mean_square.{factory}",
                lambda f=factory, nmax=nmax: growth.mean_square(ctx[f], nmax, alpha=0.0),
                values=_meansq_values,
            )
        )
    n_terms = {factory: nmax for factory, _, nmax, _ in COEFF_FORMS}
    for factory, key in (("delta_form", "s_delta"), ("eta4_theta_eta_form", "s_eta4")):
        s, n = inputs[key], n_terms[factory]
        base = f"dirichlet_L.{factory}"
        jobs.append(Job(base, lambda f=factory, s=s, n=n: lf.dirichlet_L(ctx[f], s, n_terms=n), values=_lvalue, seeded=True))
        jobs.append(
            Job(
                f"completed_dirichlet_L.{factory}",
                lambda f=factory, s=s, n=n: lf.completed_dirichlet_L(ctx[f], s, n_terms=n),
                _completion_check(base, s),
                values=_lvalue,
                seeded=True,
            )
        )
    thetas = EXPSUM_THETAS + inputs["thetas"]
    jobs.append(
        Job(
            "bound_scan.eta4",
            lambda: ex.bound_scan(ctx["eta4_theta_eta_form"], thetas, EXPSUM_CUTOFFS, alpha=0.0),
            values=_scan_values,
        )
    )
    return jobs


# -- modular --------------------------------------------------------------------

N_ELEMENTS = 200
N_INDUCED_IMAGES = 20
ENTRY_BOUND = 10**12
TRANSFORM_TAUS = [complex(0.1 * (i % 5), 0.8 + 0.17 * i) for i in range(10)]  # the CLI's samples


def _xgcd(a: int, b: int) -> tuple:
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def element_entries(seed: int, pass_index: int, count: int) -> list:
    """Integral determinant-one matrices with entries up to 1e12.

    A coprime bottom row (c, d) is completed by the extended Euclidean
    algorithm.  Each pass draws new elements, so nothing repeats across
    passes.
    """
    rng = _rng(seed, 3, pass_index)
    out = []
    while len(out) < count:
        c, d = (int(x) for x in rng.integers(-ENTRY_BOUND, ENTRY_BOUND + 1, size=2))
        g, x, y = _xgcd(c, d)
        if abs(g) != 1:
            continue
        a, b = g * y, -g * x  # a d - b c = g^2 (x c + y d) = 1
        shift = int(rng.integers(-3, 4))
        out.append((a + shift * c, b + shift * d, c, d))
    return out


def short_words(seed: int, pass_index: int) -> list:
    """Two exponent pairs (a, b) for t^a s t^b, both in [-3, 3] minus zero.

    Elements of this shape keep the images of the sample points high enough
    that the truncation tails stay far below the residual tolerance.
    """
    rng = _rng(seed, 4, pass_index)
    choices = [-3, -2, -1, 1, 2, 3]
    return [tuple(int(rng.choice(choices)) for _ in range(2)) for _ in range(2)]


def _modular_setup() -> dict:
    ctx: dict = {}
    _import(ctx, ("moebius", "representation", "qseries", "forms", "growth"))
    ctx["theta_eta_rep"] = ctx["representation"].builtin("theta-eta")
    ctx["sym2_rep"] = ctx["representation"].builtin("sym2")
    _modular_refresh(ctx)
    return ctx


def _modular_refresh(ctx: dict) -> None:
    # fresh forms and series each pass, so no evaluation repeats on one object
    forms, qs = ctx["forms"], ctx["qseries"]
    forms.theta_eta_form.cache_clear()
    ctx["X200"] = forms.theta_eta_form(200)
    eta = qs.eta_series(40)
    X40 = forms.theta_eta_form(40)
    targets = [(eta, n, Fraction(n * 24 + 1, 24), eta.coefficient(Fraction(n * 24 + 1, 24))) for n in range(10)]
    for i in range(3):
        series = X40.component_expansion(i).terms[0]
        for exponent, coeff in series.occupied()[:10]:
            targets.append((series, math.floor(exponent), exponent, coeff))
    ctx["integral_targets"] = targets


def _sym_square(a, b, c, d):
    import numpy as np

    a, b, c, d = (float(x) for x in (a, b, c, d))
    return np.array([[a * a, 2 * a * b, b * b], [a * c, a * d + b * c, b * d], [c * c, 2 * c * d, d * d]])


def _check_word(g):
    def check(word, _outputs) -> list:
        return [] if word.evaluate() == g else [f"word of {g.entries()} evaluates elsewhere"]

    return check


def _check_image(ctx: dict, rep_key: str, elements: list, i: int):
    """Homomorphism on consecutive pairs, plus unitarity or the direct formula."""

    def check(image, outputs) -> list:
        import numpy as np

        bad = []
        if rep_key == "theta_eta_rep":
            if np.max(np.abs(image @ image.conj().T - np.eye(3))) > 1e-10:
                bad.append("theta-eta image is not unitary")
        else:
            direct = _sym_square(*elements[i].entries())
            if _rel_gap(image, direct) > 1e-9:
                bad.append("sym2 image differs from the symmetric square")
        if i % 2 == 1:
            g, h = elements[i - 1], elements[i]
            first = outputs[f"image.{rep_key}.{i - 1}"]
            # rounding in a product scales with the factors' norms, not the result's
            scale = np.linalg.norm(first) * np.linalg.norm(image)
            if np.linalg.norm(ctx[rep_key].evaluate(g * h) - first @ image) > 1e-9 * scale:
                bad.append("rho(gh) != rho(g) rho(h)")
        return bad

    return check


def _check_permutation(elements: list, i: int):
    def check(image, outputs) -> list:
        import numpy as np

        bad = []
        mask = np.abs(image) > 1e-9
        if not (np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1)):
            bad.append("induced image is not a permutation matrix")
        if i % 2 == 1:
            first = outputs[f"induced_image.{i - 1}"]
            product = outputs["induce.gamma5"].evaluate(elements[i - 1] * elements[i])
            if np.linalg.norm(product - first @ image) > 1e-9 * np.linalg.norm(first) * np.linalg.norm(image):
                bad.append("induced rho(gh) != rho(g) rho(h)")
        return bad

    return check


def _check_induced(rho, _outputs) -> list:
    import numpy as np

    from vvaf.representation import validate

    bad = [] if rho.m == 60 else [f"induced dimension {rho.m}, expected 60"]
    if not validate(rho).passed:
        bad.append("induced representation fails its relations")
    for mat in (rho.mat_s, rho.mat_t):
        mask = np.abs(mat) > 1e-12
        if not (np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1)):
            bad.append("induced generator image is not a permutation matrix")
    return bad


def _cusp_values(classes) -> dict:
    flat = []
    for cusp, width, _ in classes:
        flat += [-1, -1, width] if cusp == math.inf else [cusp.numerator, cusp.denominator, width]
    return {"classes": flat}


def _check_cusps(index: int):
    def check(classes, _outputs) -> list:
        total = sum(width for _, width, _ in classes)
        return [] if total == index else [f"cusp widths sum to {total}, expected index {index}"]

    return check


def _check_fit(expect_alpha_zero: bool):
    def check(fit, _outputs) -> list:
        bad = [] if fit.classification == "polynomial" else [f"classified {fit.classification}"]
        if expect_alpha_zero and fit.alpha_emp > 1e-6:
            bad.append(f"unitary image fitted alpha {fit.alpha_emp:.3e}")
        return bad

    return check


def _modular_jobs(ctx: dict, seed: int, pass_index: int) -> list:
    mb, rp, qs, forms, growth = (ctx[k] for k in ("moebius", "representation", "qseries", "forms", "growth"))
    elements = [mb.GroupElement(*e) for e in element_entries(seed, pass_index, N_ELEMENTS)]
    jobs = []
    for i, g in enumerate(elements):
        jobs.append(Job(f"word_decompose.{i}", lambda g=g: mb.word_decompose(g), _check_word(g), seeded=True))
        for key in ("theta_eta_rep", "sym2_rep"):
            jobs.append(
                Job(
                    f"image.{key}.{i}",
                    lambda g=g, key=key: ctx[key].evaluate(g),
                    _check_image(ctx, key, elements, i),
                    seeded=True,
                )
            )
    kept: dict = {}  # results later jobs of this pass build on

    def keep(key, value):
        kept[key] = value
        return value

    jobs.append(Job("left_transversal.gamma5", lambda: keep("reps", mb.left_transversal(mb.gamma_n(5)))))
    jobs.append(
        Job(
            "induce.gamma5",
            lambda: keep("induced", rp.induce(rp.builtin("trivial", group=mb.gamma_n(5)), kept["reps"])),
            _check_induced,
        )
    )
    for i, g in enumerate(elements[:N_INDUCED_IMAGES]):
        jobs.append(
            Job(
                f"induced_image.{i}",
                lambda g=g: kept["induced"].evaluate(g),
                _check_permutation(elements, i),
                seeded=True,
            )
        )
    for level in (7, 11, 23):
        index = mb.gamma0_n(level).index
        jobs.append(
            Job(f"cusp_classes.gamma0_{level}", lambda n=level: mb.cusp_classes(mb.gamma0_n(n)), _check_cusps(index), values=_cusp_values)
        )
    sample_seed = int(_rng(seed, 5, pass_index).integers(0, 2**31))
    for key, unitary in (("theta_eta_rep", True), ("sym2_rep", False)):
        jobs.append(
            Job(
                f"growth_exponent.{key}",
                lambda key=key: rp.growth_exponent(ctx[key], rp.SamplerConfig(seed=sample_seed)),
                _check_fit(unitary),
                seeded=True,
            )
        )
        jobs.append(
            Job(
                f"is_unitary_sampled.{key}",
                lambda key=key: rp.is_unitary_sampled(ctx[key], seed=sample_seed),
                lambda result, _o, unitary=unitary: [] if result == unitary else [f"unitarity verdict {result}"],
                seeded=True,
            )
        )
    X = ctx["X200"]
    gammas = [("s", mb.gen_s()), ("t", mb.gen_t())]
    for j, (a, b) in enumerate(short_words(seed, pass_index)):
        gammas.append((f"word{j}", mb.t_power(a) * mb.gen_s() * mb.t_power(b)))
    for label, gamma in gammas:
        jobs.append(
            Job(
                f"check_transformation.{label}",
                lambda gamma=gamma: forms.check_transformation(X, gamma, TRANSFORM_TAUS),
                lambda r, _o: [] if r < 1e-8 else [f"transformation residual {r:.3e}"],
                seeded=label.startswith("word"),
            )
        )
    jobs.append(
        Job(
            "supnorm_scan.theta_eta",
            lambda: growth.supnorm_scan(X, 0.0),
            values=lambda r: {k: [r[k]] for k in ("max_weighted_norm", "max_below_unit_height", "max_above_unit_height", "verdict")},
        )
    )
    for j, (series, n, exponent, coeff) in enumerate(ctx["integral_targets"]):
        jobs.append(
            Job(
                f"coefficient_integral.{j}",
                lambda series=series, n=n, off=exponent - n: qs.coefficient_integral(series, n, off, y=0.1, T=256),
                lambda v, _o, coeff=coeff: [] if abs(v - coeff) < 1e-9 else [f"coefficient off by {abs(v - coeff):.3e}"],
                values=lambda v: {"value": _cplx(v)},
            )
        )
    return jobs


# -- cli ------------------------------------------------------------------------

README_COMMANDS = (
    ("repr_check", ["repr", "check", "--builtin", "theta-eta"]),
    ("repr_growth", ["repr", "growth", "--builtin", "nonpoly", "--param", "a=1j"]),
    ("vvaf_coeffs", ["vvaf", "coeffs", "--builtin", "theta-eta", "-N", "50", "--format", "csv"]),
    ("vvaf_transform_check", ["vvaf", "transform-check", "--builtin", "theta-eta", "--gamma", "s", "--gamma", "t", "--n-terms", "60"]),
    ("vvaf_growth", ["vvaf", "growth", "--builtin", "delta", "-N", "2000"]),
    ("vvaf_meansq", ["vvaf", "meansq", "--builtin", "eta4-theta-eta", "-N", "2000"]),
    ("lfunc_eval", ["lfunc", "eval", "--builtin", "delta", "--s", "8,6+3i", "--method", "both"]),
    ("lfunc_fe_scan", ["lfunc", "fe-scan", "--builtin", "delta", "--s-grid", "4,4.5,5,5.5,6,6.5,7,7.5,8,8.5"]),
    ("expsum_scan", ["expsum", "scan", "--builtin", "eta4-theta-eta", "--cutoffs", "100,250,500,1000,1500,2000"]),
)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_numbers(path: Path) -> list:
    rows = path.read_text().splitlines()[1:]
    return [float(x) for row in rows for x in row.split(",")]


def _cli_artifacts(command: str, out: Path) -> tuple:
    """(failure messages, reference values) read from a command's artifacts."""
    bad: list = []
    values: dict = {}
    if command == "repr_check":
        data = _read_json(out / "repr_check_theta-eta.json")
        if not (data["validation"]["passed"] and data["admissible"] and data["polynomial_growth"]):
            bad.append("theta-eta is not a valid admissible polynomial-growth representation")
    elif command == "repr_growth":
        data = _read_json(out / "repr_growth_nonpoly.json")
        if data["fit"]["classification"] != "exponential":
            bad.append(f"nonpoly classified {data['fit']['classification']}")
    elif command == "vvaf_coeffs":
        values = {f"c{i}": _csv_numbers(out / f"coeffs_theta-eta_c{i}.csv") for i in range(3)}
    elif command == "vvaf_transform_check":
        data = _read_json(out / "transform_theta-eta.json")
        bad += [] if data["verdict"] == "PASS" else ["transform check verdict FAIL"]
    elif command == "vvaf_growth":
        data = _read_json(out / "vvaf_growth_delta.json")
        bad += [] if data["report"]["verdict"] == "PASS" else ["delta growth verdict FAIL"]
        values = {"beta_emp": [data["report"]["beta_emp"]]}
    elif command == "vvaf_meansq":
        data = _read_json(out / "vvaf_meansq_eta4-theta-eta.json")
        bad += [] if data["verdict"] == "PASS" else ["mean-square verdict FAIL"]
        values = {"slope": [data["slope"]]}
    elif command == "lfunc_eval":
        for method in ("truncated-sum", "split-mellin"):
            rows = _csv_numbers(out / f"lfunc_eval_delta_{method}.csv")
            values[method] = [x for k, x in enumerate(rows) if k % 6 in (3, 4)]  # value_re, value_im
    elif command == "lfunc_fe_scan":
        data = _read_json(out / "lfunc_fescan_delta.json")
        bad += [] if data["selected_sign"] == 1 else [f"selected sign {data['selected_sign']}"]
    elif command == "expsum_scan":
        data = _read_json(out / "expsum_eta4-theta-eta.json")
        bad += [] if data["verdict"] == "PASS" else ["exponential-sum verdict FAIL"]
    return bad, values


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(command: str, argv: list, seed: int, out: Path, traces: list | None = None) -> dict:
    """Run one README command in a fresh interpreter; returns exit code and artifacts.

    With ``traces`` the command runs under the tracer (``probe.py cli``) and
    the totals it writes are appended there.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    totals = out / "trace_totals.json"
    if traces is None:
        cmd = [sys.executable, "-m", "vvaf.cli"]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), "cli", str(totals)]
    cmd += argv + ["--out-dir", str(out), "--seed", str(seed)]
    proc = subprocess.run(cmd, env=cli_env(), cwd=ROOT, capture_output=True, text=True, timeout=170)
    if traces is not None and totals.exists():
        traces.append(json.loads(totals.read_text()))
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-400:], "bad": [], "values": {}}
    bad, values = _cli_artifacts(command, out)
    return {"returncode": 0, "stderr": "", "bad": bad, "values": values}


def _cli_setup() -> dict:
    ctx: dict = {"out_root": OUT_DIR / f"cli-{os.getpid()}"}  # removed by the runner
    _import(ctx, ("cli",))
    return ctx


def _cli_check(result, _outputs) -> list:
    if result["returncode"] != 0:
        return [f"exit code {result['returncode']}: {result['stderr'].strip()}"]
    return result["bad"]


def _cli_jobs(ctx: dict, seed: int, pass_index: int) -> list:
    out_root = ctx["out_root"]
    traces = ctx.setdefault("cli_traces", []) if ctx.get("trace_cli") else None
    return [
        Job(
            f"cli.{command}",
            lambda c=command, a=argv: run_cli(c, a, seed, out_root / c, traces),
            _cli_check,
            values=lambda r: r["values"],
        )
        for command, argv in README_COMMANDS
    ]


WORKLOADS = {
    "mellin": Workload(
        modules=("forms", "lfunc"),
        setup=_mellin_setup,
        refresh=_mellin_refresh,
        jobs=_mellin_jobs,
        tail_percentile=75,
        min_passes=3,
    ),
    "coeffs": Workload(
        modules=("forms", "growth", "lfunc", "expsum"),
        setup=_coeffs_setup,
        refresh=lambda ctx: None,  # the builds are jobs
        jobs=_coeffs_jobs,
        tail_percentile=90,
        min_passes=6,
    ),
    "modular": Workload(
        modules=("moebius", "representation", "qseries", "forms", "growth"),
        setup=_modular_setup,
        refresh=_modular_refresh,
        jobs=_modular_jobs,
        tail_percentile=99,
        min_passes=3,
    ),
    "cli": Workload(
        modules=("cli",),
        setup=_cli_setup,
        refresh=lambda ctx: None,
        jobs=_cli_jobs,
        tail_percentile=50,
        min_passes=3,
        in_process=False,
    ),
}


# -- checks made once per run, outside the timing -------------------------------


def _mp_delta_completed(s: float) -> complex:
    """Lambda(s) of the weight-12 form through mpmath (the tests/test_oracles.py route)."""
    import mpmath

    def eta(tau):
        q = mpmath.exp(2j * mpmath.pi * tau)
        return mpmath.exp(1j * mpmath.pi * tau / 12) * mpmath.qp(q)

    with mpmath.workdps(20):
        upper = mpmath.quad(lambda y: eta(1j * y) ** 24 * y ** (s - 1), [1, 2, 4, 8])
        lower = mpmath.quad(lambda y: eta(1j * y) ** 24 * y ** (11 - s), [1, 2, 4, 8])
        return complex(upper + lower)


def oracle_and_honesty() -> dict:
    """mpmath oracle at s = 6 and 8, and measured over stated error.

    Returns failure messages (values off the oracle by more than 1e-12
    relative) and the ratios behind ``lfunc.err_understatement``: the
    split-Mellin error against mpmath at s = 6 and 8, and the gap between
    the two methods at 6+3i against the truncated sum's stated error.
    """
    import numpy as np

    from vvaf.forms import delta_form
    from vvaf.lfunc import completed_dirichlet_L, completed_L

    bad, ratios = [], {}
    for s in (6.0, 8.0):
        reference = _mp_delta_completed(s)
        value = completed_L(delta_form(300), s)
        measured = abs(value.value[0] - reference)
        if measured > 1e-12 * abs(reference):
            bad.append(f"completed_L({s}) off mpmath by {measured / abs(reference):.3e} relative")
        ratios[f"split-mellin s={s:g} vs mpmath"] = measured / max(value.error, 1e-300)
    D = delta_form(2100)
    summed = completed_dirichlet_L(D, 6 + 3j, n_terms=2000)
    gap = float(np.max(np.abs(summed.value - completed_L(D, 6 + 3j).value)))
    ratios["truncated-sum s=6+3i vs split-mellin"] = gap / max(summed.error, 1e-300)
    return {"failures": bad, "ratios": ratios}


def known_defects(workload: str) -> list:
    """Defects of the program at the benchmark's parent commit, probed each run.

    They sit outside the job lists because a workload's jobs must all
    succeed; each probe still runs and is reported on every run of its
    workload, and says FIXED once the program is corrected.
    """
    probes = []
    if workload == "modular":
        from vvaf.moebius import gamma0_n, left_transversal
        from vvaf.representation import builtin, induce

        def induce_gamma0_7():
            induce(builtin("trivial", group=gamma0_n(7)), left_transversal(gamma0_n(7)))

        probes.append(("induce(trivial on Gamma0(7), left_transversal(Gamma0(7)))", induce_gamma0_7))
    if workload == "coeffs":
        from vvaf.forms import delta_form

        def delta_large():
            delta_form.cache_clear()
            c = delta_form(5100).basis_coefficients(12)[:, 0].real
            if [round(v) for v in c[1:13]] != TAU_SMALL:
                raise ValueError(f"tau(1..3) read {c[1:4].tolist()}, expected [1, -24, 252]")

        probes.append(("delta_form(5100) coefficients tau(1..12)", delta_large))
    report = []
    for label, probe in probes:
        try:
            probe()
            report.append({"probe": label, "status": "FIXED", "detail": ""})
        except Exception as exc:  # the probe records whatever the defect raises
            report.append({"probe": label, "status": "FAILS", "detail": f"{type(exc).__name__}: {exc}"})
    return report


def setup_probe(workload: str) -> float:
    """Import the workload's modules and build its inputs; returns the import time."""
    start = time.perf_counter()
    for name in WORKLOADS[workload].modules:
        importlib.import_module(f"vvaf.{name}")
    imported = time.perf_counter() - start
    WORKLOADS[workload].setup()
    return imported
