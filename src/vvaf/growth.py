"""Empirical verification of the coefficient-growth statements.

Asymptotic claims are operationalized as desk-scale proxies: a log-log
slope fit with a fixed margin plus a bounded-ratio drift test.  All
verdicts are deterministic functions of the coefficients and the supplied
growth exponent; nothing here is randomized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vvaf.forms import VVAF

__all__ = [
    "GrowthReport",
    "coefficient_norms",
    "coefficient_growth_report",
    "supnorm_scan",
    "mean_square",
]

SLOPE_MARGIN = 0.15
RATIO_DRIFT_FACTOR = 10.0
MEANSQ_MARGIN = 0.3
SUPNORM_GRID = 40  # points per axis of the sup-norm scan


@dataclass(frozen=True)
class GrowthReport:
    beta_emp: float
    residual: float
    max_ratio: float
    target: float
    target_kind: str  # 'cusp', 'holomorphic' or 'degenerate'
    n_range: tuple
    verdict: str  # 'PASS', 'FAIL' or 'DEGENERATE'
    alpha_used: float
    log_alpha_used: float | None = None


def coefficient_norms(X: VVAF, nmax: int) -> np.ndarray:
    """Largest entry modulus of the n-th coefficient data, log slots included.

    The log-free slot counts through the Fourier vector P c[0, n]; each
    higher log power counts per basis component.
    """
    table = X.coefficient_table(nmax)
    table[0] = table[0] @ X.P.T
    # one row per (log power, entry): a max across contiguous rows is fast,
    # one across the short last axis is not
    return np.max(np.abs(table).transpose(0, 2, 1).reshape(-1, nmax + 1), axis=0)


def _fit_slope(ns: np.ndarray, values: np.ndarray) -> tuple:
    logs_n = np.log(ns)
    logs_v = np.log(values)
    slope, intercept = np.polyfit(logs_n, logs_v, 1)
    residual = float(np.sqrt(np.mean((logs_v - slope * logs_n - intercept) ** 2)))
    return float(slope), residual


def coefficient_growth_report(X: VVAF, nmax: int, alpha: float, log_extra: bool = False) -> GrowthReport:
    """Slope-fit the coefficient norms over the top half of the range.

    The target exponent is ``X.coefficient_exponent(alpha_used)``.  For
    logarithmic forms with ``log_extra`` the dimension is added to alpha,
    mirroring the weaker exponent the general argument yields; both
    variants are one call apart and the report records which alpha
    entered.  PASS needs the fitted slope within 0.15 of the target and no
    ratio drift beyond a factor 10 across the fit range.  Fewer than two
    nonzero norms in the range leave nothing to fit: DEGENERATE.
    """
    norms = coefficient_norms(X, nmax)
    alpha_used = alpha + (X.m if log_extra else 0.0)
    target = X.coefficient_exponent(alpha_used)
    lo = max(1, nmax // 2)
    ns = np.arange(lo, nmax + 1)
    vals = norms[lo:]
    keep = vals > 0
    if np.count_nonzero(keep) < 2:
        return GrowthReport(
            beta_emp=float("nan"),
            residual=float("nan"),
            max_ratio=0.0,
            target=target,
            target_kind="degenerate",
            n_range=(lo, nmax),
            verdict="DEGENERATE",
            alpha_used=alpha_used,
        )
    ns, vals = ns[keep], vals[keep]
    beta, residual = _fit_slope(ns, vals)
    ratios = vals / ns.astype(float) ** target
    head = ratios[: max(1, len(ratios) // 10)]
    top_half = ratios[len(ratios) // 2 :]
    drift_ok = float(np.max(top_half)) <= RATIO_DRIFT_FACTOR * float(np.max(head))
    verdict = "PASS" if (drift_ok and beta <= target + SLOPE_MARGIN) else "FAIL"
    return GrowthReport(
        beta_emp=beta,
        residual=residual,
        max_ratio=float(np.max(ratios)),
        target=target,
        target_kind="cusp" if X.cusp_form else "holomorphic",
        n_range=(int(ns[0]), int(ns[-1])),
        verdict=verdict,
        alpha_used=alpha_used,
        log_alpha_used=alpha + X.m if X.is_logarithmic else None,
    )


def supnorm_scan(X: VVAF, exponent: float) -> dict:
    """Scan y^e times the vector norm over a 40 by 40 strip grid.

    The strip covers one translation period at 40 equally spaced points
    and 40 geometrically spaced heights from 0.05 to 10, inside the
    evaluation-safe region.  PASS means the weighted norm near the real
    line stays within a factor 10 of its size at unit height and above,
    which is the finite proxy for boundedness.  Refuses a non-finite
    exponent.
    """
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent!r}")
    xs = np.linspace(0.0, X.h, SUPNORM_GRID, endpoint=False)
    ys = np.geomspace(0.05, 10.0, SUPNORM_GRID)
    norms = np.linalg.norm(X.evaluate_many((xs + 1j * ys[:, None]).ravel()), axis=-1)
    weighted = ys[:, None] ** exponent * norms.reshape(SUPNORM_GRID, SUPNORM_GRID)
    below = ys < 1.0
    low = float(np.max(weighted[below], initial=0.0))
    high = float(np.max(weighted[~below], initial=0.0))
    maximum = max(low, high)
    verdict = "PASS" if (maximum == 0.0 or low <= RATIO_DRIFT_FACTOR * max(high, 1e-300)) else "FAIL"
    return {
        "max_weighted_norm": maximum,
        "max_below_unit_height": low,
        "max_above_unit_height": high,
        "exponent": exponent,
        "verdict": verdict,
    }


def mean_square(X: VVAF, nmax: int, alpha: float = 0.0) -> dict:
    """Partial sums of squared coefficient norms and their log-log slope.

    The target exponent is twice ``X.coefficient_exponent(alpha)``; the
    verdict allows a 0.3 slope margin.  Fewer than two nonzero partial
    sums in the fit range leave nothing to fit: DEGENERATE.
    """
    norms = coefficient_norms(X, nmax)
    partial = np.cumsum(norms**2)
    target = 2.0 * X.coefficient_exponent(alpha)
    lo = max(2, nmax // 2)
    ms = np.arange(lo, nmax + 1)
    vals = partial[lo:]
    keep = vals > 0
    if np.count_nonzero(keep) < 2:
        return {"partial_sums": partial, "slope": float("nan"), "target": target, "verdict": "DEGENERATE"}
    slope, _ = _fit_slope(ms[keep], vals[keep])
    verdict = "PASS" if slope <= target + MEANSQ_MARGIN else "FAIL"
    return {"partial_sums": partial, "slope": slope, "target": target, "verdict": verdict}
