"""Spans and counters around the package's public functions, from outside.

``Tracer.install`` wraps every public function and every public method of
the public classes in the layer modules, and rebinds each wrapped name
wherever a ``vvaf`` module looked it up (``forms`` imports ``combine`` by
name, ``cli`` imports most of the API).  A wrapper records one span per
call: name, start, end, parent span and job id.  Self time is the span's
duration minus the time its child spans cover; it is summed per name on
the fly, so the per-layer figures cover every traced call while the span
list kept for the JSON file is capped.

Constant-time accessors are left unwrapped (``SKIP``): a span would cost
more than the work it measures.  Their time counts towards their caller.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("moebius", "representation", "qseries", "forms", "growth", "lfunc", "expsum", "cli")

SKIP = {
    "moebius.identity",
    "moebius.gen_s",
    "moebius.gen_t",
    "moebius.t_power",
    "moebius.j_factor",
    "moebius.apply_moebius",
    "moebius.classify",
    "moebius.GroupElement.entries",
    "moebius.GroupElement.trace",
    "moebius.GroupElement.norm",
    "moebius.GroupElement.inverse",
    "qseries.FracQSeries.is_zero",
}

MAX_SPANS = 100_000

# self time of these span names makes up each per-layer time metric
SELF_TIME = {
    "qseries.build_s": (
        "qseries.eta_series",
        "qseries.eta_power_series",
        "qseries.theta_series",
        "qseries.combine",
        "qseries.log_recouple",
        "qseries.FracQSeries.zero",
        "qseries.FracQSeries.one",
        "qseries.LogQExpansion.from_series",
        "qseries.LogQExpansion.scale",
        "forms.theta_eta_form",
        "forms.eta4_theta_eta_form",
        "forms.delta_form",
        "forms.sym2_log_form",
        "forms.builtin_form",
        "forms.VVAF.component_expansion",
    ),
    "qseries.coeff_read_s": (
        "qseries.FracQSeries.coefficients_on_offset",
        "qseries.FracQSeries.coefficient",
        "qseries.FracQSeries.occupied",
        "qseries.FracQSeries.exponents",
        "qseries.LogQExpansion.occupied_exponents",
        "qseries.coefficient_integral",
    ),
    "qseries.eval_s": ("qseries.FracQSeries.evaluate", "qseries.LogQExpansion.evaluate"),
    "forms.eval_s": ("forms.VVAF.evaluate",),
    "forms.fourier_s": ("forms.VVAF.basis_coefficients", "forms.VVAF.fourier_vectors", "forms.VVAF.log_slots"),
    "forms.transform_s": ("forms.check_transformation",),
    "lfunc.mellin_s": ("lfunc.completed_L",),
    "lfunc.dirichlet_s": ("lfunc.dirichlet_L", "lfunc.completed_dirichlet_L"),
    "expsum.scan_s": ("expsum.bound_scan", "expsum.exp_sum"),
    "growth.report_s": ("growth.coefficient_growth_report",),
    "growth.meansq_s": ("growth.mean_square",),
    "growth.supnorm_s": ("growth.supnorm_scan",),
    "moebius.word_s": ("moebius.word_decompose", "moebius.Word.evaluate"),
    "moebius.coset_s": ("moebius.left_transversal", "moebius.cusp_classes", "moebius.cusp_width"),
    # Word.apply folds the generator images: the matrix products of an image
    "representation.image_s": ("representation.Representation.evaluate", "moebius.Word.apply"),
    "representation.induce_s": ("representation.induce", "representation.induced_image"),
    "representation.growth_fit_s": (
        "representation.growth_exponent",
        "representation.is_unitary_sampled",
        "representation.is_polynomial_growth",
        "representation.parabolic_power_norms",
    ),
}

# inclusive time (children included) of these span names
INCLUSIVE_TIME = {"lfunc.fe_scan_s": ("lfunc.functional_equation_sign", "lfunc.functional_equation_residual")}

COUNTS = (
    "qseries.build_terms",
    "qseries.coeff_reads",
    "qseries.eval_calls",
    "qseries.eval_terms",
    "forms.eval_points",
    "lfunc.mellin_calls",
    "lfunc.dirichlet_terms",
    "expsum.sums",
    "expsum.terms",
    "moebius.words",
    "moebius.word_letters",
    "representation.images",
)

def _arg(args, kwargs, position: int, name: str, default):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _slots(X) -> int:
    return sum(len(comp.terms) for comp in X.basis_components)


class PassStats:
    """Self times, inclusive times, counts and distinct keys of one pass."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.counts = defaultdict(float)
        self.coeff_prefix: dict = {}  # (series, key) -> coefficients read, prefix reads counted once
        self.eval_points: set = set()
        self.mellin_keys: set = set()
        self.top_level = 0.0  # time covered by spans without a parent

    def totals(self, wall: float) -> dict:
        """Additive figures of the pass; ``finish`` turns them into metrics."""
        out = {name: sum(self.self_time[n] for n in names) for name, names in SELF_TIME.items()}
        out.update({name: sum(self.inclusive[n] for n in names) for name, names in INCLUSIVE_TIME.items()})
        out.update({name: float(self.counts[name]) for name in COUNTS})
        out["distinct.coeff_reads"] = float(sum(self.coeff_prefix.values()))
        out["distinct.eval_points"] = float(len(self.eval_points))
        out["distinct.mellin_keys"] = float(len(self.mellin_keys))
        out["top_level_s"] = self.top_level
        out["wall_s"] = wall
        return out


def sum_totals(parts: list, wall: float) -> dict:
    """Totals of several processes (one per CLI command) within one pass of ``wall`` seconds."""
    out: dict = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            out[key] += value
    out["wall_s"] = wall
    return dict(out)


def scale_times(totals: dict, ratio: float) -> dict:
    """Multiply every time (keys ending in ``_s``) by ``ratio``; counts stay."""
    return {k: v * ratio if k.endswith("_s") else v for k, v in totals.items()}


def finish(t: dict) -> dict:
    """Per-layer metrics of one pass from its totals."""
    out = {name: t.get(name, 0.0) for name in list(SELF_TIME) + list(INCLUSIVE_TIME) + list(COUNTS)}
    out["qseries.coeff_useful_ratio"] = _ratio(t.get("distinct.coeff_reads", 0.0), out["qseries.coeff_reads"])
    out["forms.eval_distinct_ratio"] = _ratio(t.get("distinct.eval_points", 0.0), out["forms.eval_points"])
    out["lfunc.mellin_distinct_ratio"] = _ratio(t.get("distinct.mellin_keys", 0.0), out["lfunc.mellin_calls"])
    out["trace.unattributed_frac"] = _ratio(t["wall_s"] - t.get("top_level_s", 0.0), t["wall_s"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0 when the layer did no such work


def _hook(stats: PassStats, name: str, args, kwargs, result) -> None:
    """Work counters measured at the span boundary."""
    counts = stats.counts
    if name == "qseries.FracQSeries.evaluate":
        counts["qseries.eval_calls"] += 1
        counts["qseries.eval_terms"] += len(args[0].coeffs)
    elif name == "qseries.FracQSeries.coefficients_on_offset":
        series, nmax = args[0], _arg(args, kwargs, 2, "nmax", 0)
        key = (id(series), Fraction(_arg(args, kwargs, 1, "offset", 0)))
        counts["qseries.coeff_reads"] += nmax + 1
        stats.coeff_prefix[key] = max(stats.coeff_prefix.get(key, 0), nmax + 1)
    elif name == "qseries.FracQSeries.coefficient":
        counts["qseries.coeff_reads"] += 1
        stats.coeff_prefix[(id(args[0]), Fraction(args[1]), "single")] = 1
    elif name == "qseries.FracQSeries.occupied":
        counts["qseries.coeff_reads"] += len(args[0].coeffs)
        stats.coeff_prefix[(id(args[0]), "occupied")] = len(args[0].coeffs)
    elif name in ("qseries.eta_series", "qseries.eta_power_series", "qseries.theta_series", "qseries.combine"):
        counts["qseries.build_terms"] += len(result.coeffs)
    elif name == "forms.VVAF.evaluate":
        counts["forms.eval_points"] += 1
        stats.eval_points.add((id(args[0]), complex(args[1])))
    elif name == "lfunc.completed_L":
        counts["lfunc.mellin_calls"] += 1
        stats.mellin_keys.add((id(args[0]), complex(args[1]), float(_arg(args, kwargs, 2, "split", 1.0))))
    elif name in ("lfunc.dirichlet_L", "lfunc.completed_dirichlet_L"):
        counts["lfunc.dirichlet_terms"] += _arg(args, kwargs, 2, "n_terms", 1000) * _slots(args[0])
    elif name == "expsum.exp_sum":
        X = args[0]
        counts["expsum.sums"] += 1
        counts["expsum.terms"] += _arg(args, kwargs, 2, "cutoff", 0) * (_slots(X) if X.is_logarithmic else X.m)
    elif name == "moebius.word_decompose":
        counts["moebius.words"] += 1
        counts["moebius.word_letters"] += len(result)
    elif name in ("representation.Representation.evaluate", "representation.induced_image"):
        counts["representation.images"] += 1


# the objects the hook above keeps ids of must outlive the pass, so a
# recycled id cannot merge two keys; the tracer holds them until reset
_HOOKED = {
    "qseries.FracQSeries.coefficients_on_offset",
    "qseries.FracQSeries.coefficient",
    "qseries.FracQSeries.occupied",
    "forms.VVAF.evaluate",
    "lfunc.completed_L",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list = []
        self.spans: list = []  # [id, name index, start, end, parent id, job id]
        self.dropped = 0
        self._stack: list = []  # [span id, time covered by children]
        self._next_id = 0
        self._alive: dict = {}
        self.stats = PassStats()

    def new_pass(self) -> None:
        self.stats = PassStats()
        self._alive = {}

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, func, name: str):
        tracer = self
        name_index = len(self.names)
        self.names.append(name)
        hooked = name in _HOOKED

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats = tracer.stats
                stats.self_time[name] += duration - frame[1]
                stats.inclusive[name] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    stats.top_level += duration
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append([span_id, name_index, start, end, parent, tracer.job])
                else:
                    tracer.dropped += 1
            _hook(stats, name, args, kwargs, result)
            if hooked:
                tracer._alive[id(args[0])] = args[0]
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        for attr in ("cache_clear", "cache_info"):  # lru_cache factories stay clearable
            if hasattr(func, attr):
                setattr(traced, attr, getattr(func, attr))
        return traced

    def install(self) -> None:
        """Wrap the public API of each layer module."""
        replaced: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vvaf.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(obj, f"{layer}.{attr}")
                elif callable(obj) and f"{layer}.{attr}" not in SKIP:
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        # rebind every reference a vvaf module holds, including dict values
        for module in [m for n, m in sys.modules.items() if n == "vvaf" or n.startswith("vvaf.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replaced and replaced[id(item)][0] is item:
                            value[key] = replaced[id(item)][1]

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in SKIP:
                continue
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(value.__func__, name)))
            elif isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(value, name))

    # -- output -------------------------------------------------------------------

    def spans_payload(self) -> dict:
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "job"],
            "names": self.names,
            "spans": self.spans,
            "dropped": self.dropped,
        }


def median_metrics(per_pass: list) -> dict:
    """Median over passes of each per-pass metric."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
