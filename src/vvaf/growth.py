"""Empirical verification of the coefficient-growth statements.

Asymptotic claims are operationalized as desk-scale proxies: a log-log
slope fit with a fixed margin plus a bounded-ratio drift test.  All
verdicts are deterministic functions of the coefficients and the supplied
growth exponent; nothing here is randomized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vvaf.forms import VVAF, check_transformation
from vvaf.moebius import gen_s, gen_t

__all__ = [
    "GrowthReport",
    "coefficient_norms",
    "coefficient_growth_report",
    "supnorm_scan",
    "converse_growth_check",
    "vanishing_check",
    "mean_square",
]

SLOPE_MARGIN = 0.15
RATIO_DRIFT_FACTOR = 10.0
MEANSQ_MARGIN = 0.3
VANISHING_TOL = 1e-8


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


def supnorm_scan(X: VVAF, exponent: float, nx: int = 40, ny: int = 40) -> dict:
    """Scan y^e times the vector norm over a strip grid.

    The strip covers one translation period and geometrically spaced
    heights from 0.05 to 10, inside the evaluation-safe region.  PASS
    means the weighted norm near the real line stays within a factor 10
    of its size at unit height and above, which is the finite proxy for
    boundedness.
    """
    xs = np.linspace(0.0, X.h, nx, endpoint=False)
    ys = np.geomspace(0.05, 10.0, ny)
    norms = np.linalg.norm(X.evaluate_many((xs + 1j * ys[:, None]).ravel()), axis=-1)
    weighted = ys[:, None] ** exponent * norms.reshape(ny, nx)
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


def converse_growth_check(
    X,
    rep,
    k: int,
    zeta: float,
    gammas,
    strip_samples=None,
    blocks=None,
    fe_check_taus=None,
) -> dict:
    """Check the converse direction: decay of X forces growth of the images.

    First verifies the functional equation on samples, then the decay
    hypothesis norm(X(x+iy)) <= C y^-zeta on the strip, and finally fits
    the constant of norm(rho(gamma)) <= C norm(gamma)^(2 zeta - k) on the ten
    percent of samples with smallest norm, counting violations beyond 3C.
    ``blocks`` restricts the norm to index ranges for block-diagonal
    images; the report carries one entry per block.
    """
    if fe_check_taus is not None:
        # the generators suffice: they generate the whole group
        fe_residual = max(
            check_transformation(X, gamma, fe_check_taus) for gamma in (gen_s(), gen_t())
        )
        if fe_residual > 1e-6:
            raise ValueError(f"functional equation fails before the growth check: {fe_residual:.2e}")
    else:
        fe_residual = float("nan")

    hypothesis_constant = 0.0
    if strip_samples is not None:
        taus = np.asarray(strip_samples, dtype=complex)
        values = np.linalg.norm(X.evaluate_many(taus), axis=-1)
        envelope = taus.imag ** (-zeta)
        hypothesis_constant = float(np.max(values / envelope, initial=0.0))

    if blocks is None:
        blocks = [range(0, rep.m)]
    exponent = 2.0 * zeta - k
    per_block = []
    for block in blocks:
        idx = np.asarray(list(block))
        entries = []
        for gamma in gammas:
            image = rep.evaluate(gamma)
            sub = image[np.ix_(idx, idx)]
            entries.append((gamma.norm(), float(np.linalg.norm(sub))))
        entries.sort(key=lambda pair: pair[0])
        n_fit = max(1, len(entries) // 10)
        C = max(rn / gn**exponent for gn, rn in entries[:n_fit])
        violations = [(gn, rn) for gn, rn in entries if rn > 3.0 * C * gn**exponent + 1e-12]
        per_block.append(
            {
                "block": [int(i) for i in idx],
                "fitted_constant": C,
                "violations": len(violations),
                "passed": len(violations) == 0,
            }
        )
    return {
        "fe_residual": fe_residual,
        "hypothesis_constant": hypothesis_constant,
        "exponent": exponent,
        "blocks": per_block,
        "any_block_passes": any(entry["passed"] for entry in per_block),
    }


def vanishing_check(k: int, alpha: float, candidate: VVAF | None = None) -> dict:
    """Consistency gate for the negative-weight vanishing criterion.

    Active only when k + 2 alpha < 0; then any supplied holomorphic
    candidate must have norm below 1e-8 on an 18-point grid in the strip
    0 < x < 1, at heights 0.4, 1 and 2.5.
    """
    active = (k + 2.0 * alpha) < 0.0
    result = {"active": active, "k_plus_2alpha": k + 2.0 * alpha, "consistent": True, "max_norm": 0.0}
    if not active or candidate is None:
        return result
    grid = [complex(x, y) for x in np.linspace(0.05, 0.95, 6) for y in (0.4, 1.0, 2.5)]
    max_norm = float(np.max(np.linalg.norm(candidate.evaluate_many(grid), axis=-1)))
    result["max_norm"] = max_norm
    result["consistent"] = max_norm < VANISHING_TOL
    return result


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
