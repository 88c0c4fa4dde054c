"""Dirichlet series and completed L-functions of vector-valued cusp forms.

The truncated Dirichlet sum carries a rigorous tail bound in the
half-plane where the coefficient-growth theorem guarantees convergence.
Closer to the critical line the sum converges only conditionally; its
value is still returned, with a heuristic error (the largest movement of
the partial sums over the second half of the cutoff) that is measured
against the continuation, not proved.

The completed function is computed for every argument by splitting the
Mellin integral at a finite point and routing the lower piece through the
inversion element, which is the numerical form of analytic continuation;
its error estimate is a quadrature heuristic.

The form values at the quadrature nodes do not depend on s, so each
quadrature rule evaluates the form once, in one call of the evaluation
kernel (which chunks the batch itself), and keeps nodes, weights and
values in a memo on the form instance; every later Mellin integral with
that rule, at any s, is one dot product.  The memo grows by one entry
per (lower limit, rule) pair.  The sign scan reads only the refined
rule, above its split point and above the mirrored one: two entries.

The truncated-sum route to the completed function weighs each log power j
with (2 pi)^-s Gamma(s + j), from a Lanczos approximation taken in log
form; its relative-error bound is part of the reported error.

Everything is pure: the memo holds only values computed from the
immutable form, so L-values over a grid of arguments can be computed
concurrently, and a race can at worst compute an entry twice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from vvaf.forms import VVAF
from vvaf.moebius import gen_s

__all__ = [
    "LValue",
    "dirichlet_L",
    "completed_L",
    "completed_dirichlet_L",
    "functional_equation_sign",
]

# the split-Mellin rule (panels, Gauss-Legendre nodes per panel) and its
# refinement, whose difference is the reported error
_RULE = (24, 24)
_REFINED_RULE = (32, 32)
# the sign scan's split point; at a split of exactly 1 the two sides of the
# functional equation agree identically by construction, so the comparison
# would test nothing
_FE_SPLIT = 1.3
# Lanczos's approximation to Gamma with g = 607/128 and fifteen coefficients
# (Godfrey's set, as in Numerical Recipes, 3rd ed., gammln).  Taken in 40
# digits, it came within 3.3e-15 relative of mpmath's Gamma on a grid of
# 1/2 <= Re z <= 100, |Im z| <= 300, largest on Re z = 1/2; _LANCZOS_ERROR
# bounds that with a margin
_LANCZOS_G = 607 / 128
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LANCZOS_ERROR = 5e-15
_LOG_2PI = math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LValue:
    s: complex
    value: np.ndarray
    method: str  # 'truncated-sum' or 'split-mellin'
    error: float
    rigorous: bool
    n_terms: int = 0


def _cusp_argument(X: VVAF, s) -> complex:
    """``s`` as a complex number; refuses a form that is not a cusp form and a non-finite s."""
    if not X.cusp_form:
        raise ValueError("L-values are defined here for cusp forms only")
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s = {s} is not finite")
    return s


def _truncated_sums(X: VVAF, s: complex, n_terms: int, alpha: float) -> tuple:
    """The (m, J + 1) array of slot sums, the truncation error and whether it is rigorous.

    Entry [i, j] sums component i's log-power-j coefficients over n <= n_terms,
    each divided by (n + mu_i)^(s + j); a slot that does not exist sums to 0.
    The error is the one ``dirichlet_L`` describes: the growth theorem's tail
    bound for Re s > sigma + 1, with sigma = ``X.coefficient_exponent(alpha)``,
    and elsewhere the largest movement of the partial sums over the second
    half, all of it scanned, since an oscillating tail can exceed the movement
    between two fixed cutoffs.  Refuses a cutoff below one term.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    table = X.coefficient_table(n_terms)
    shifts = s + np.arange(table.shape[0])[:, None]
    sigma = X.coefficient_exponent(alpha)
    rigorous = s.real > sigma + 1.0
    sums = np.empty((X.m, table.shape[0]), dtype=complex)
    last = []  # per component, the terms of indices N/2 + 1 .. N
    max_ratio = 0.0
    for i, off in enumerate(X.mu_offsets):
        ns = np.arange(n_terms + 1) + float(off)
        first = int(np.count_nonzero(ns <= 0))  # the leading indices with n + mu_i <= 0
        ns = ns[first:]
        coeffs = table[:, first:, i]
        terms = coeffs * ns**-shifts
        sums[i] = terms.sum(axis=-1)
        if rigorous:
            nz = np.abs(coeffs) > 0
            ratios = np.abs(coeffs[nz]) / np.broadcast_to(ns, coeffs.shape)[nz] ** sigma
            max_ratio = max(max_ratio, float(np.max(ratios, initial=0.0)))
        else:
            last.append(terms[:, n_terms // 2 - n_terms :])
    if rigorous:
        # |c_n| <= C n^sigma bounds the tail by C integral_N^inf x^(sigma - Re s) dx
        scale = float(np.max(np.abs(X.P))) * max(1.0, X.m)
        error = max_ratio * n_terms ** (sigma - s.real + 1.0) / (s.real - sigma - 1.0) * scale
    else:
        # heuristic: largest movement of the partial sums over the second half;
        # tails[i, t] = S_N - S_(N/2 + t) of component i
        tails = np.cumsum(np.array(last)[..., ::-1], axis=-1)[..., ::-1].sum(axis=1)
        error = float(np.max(np.abs(X.P @ tails), initial=0.0))
    return sums, error, rigorous


def dirichlet_L(X: VVAF, s: complex, n_terms: int = 1000, alpha: float = 0.0) -> LValue:
    """Truncated coefficient sum over the shifted integers.

    Each diagonal-basis component i contributes its coefficients divided
    by (n + mu_i)^s; logarithmic slots shift the exponent by their log
    power.  The tail bound is rigorous for Re(s) > e + 1, with
    e = ``X.coefficient_exponent(alpha)`` the exponent of the cusp-form
    coefficient growth; outside that half-plane the value is still
    returned but flagged heuristic.  The heuristic error is the
    largest change |P (S_N - S_M)| of the partial sums over
    N/2 <= M <= N; on the built-in forms it was measured to cover the gap
    to ``completed_L`` from the critical line to half a unit past the
    abscissa, but nothing proves that it does.
    """
    s = _cusp_argument(X, s)
    sums, error, rigorous = _truncated_sums(X, s, n_terms, alpha)
    value = X.P @ sums.sum(axis=-1)
    return LValue(s=s, value=value, method="truncated-sum", error=error, rigorous=rigorous, n_terms=n_terms)


def _log_gamma_factor(z: complex) -> tuple:
    """log((2 pi)^-z Gamma(z)) on some branch, and a bound on the relative error of its exponential.

    Lanczos's approximation (SIAM J. Numer. Anal. B 1, 1964) for Re z >= 1/2,
    with (2 pi)^-z folded into its power: (2 pi)^-z Gamma(z) =
    (t / 2 pi)^(z - 1/2) e^-t x, where t = z + g - 1/2 and x is the
    coefficient sum.  The exponential turns every rounding of the exponent
    into relative error, and the folded exponent is smaller than
    log Gamma(z) - z log 2 pi.  For Re z < 1/2 the reflection
    (2 pi)^-z Gamma(z) (2 pi)^(z-1) Gamma(1 - z) = 1 / (2 sin pi z), with the
    logarithm of 2 sin w taken without the sine where that overflows.  The
    bound adds the approximation's own error to eight roundings of each term
    of the exponent and, for the reflection, of pi z carried through the sine.
    Refuses the poles z = 0, -1, -2, ...
    """
    if z.imag == 0 and z.real <= 0 and z.real == math.floor(z.real):
        raise ValueError(f"Gamma has a pole at {z}")
    if z.real < 0.5:
        w = math.pi * z
        if abs(w.imag) < 40.0:
            log_two_sine = cmath.log(2.0 * cmath.sin(w))
        else:
            # 2 sin w = i e^(-i w) (1 - e^(2 i w)) for Im w > 0, and its
            # conjugate form below the axis; the last factor is 1 within
            # e^-80, while sin w itself overflows past |Im w| = 710
            sign = math.copysign(1.0, w.imag)
            log_two_sine = sign * 1j * (0.5 * math.pi - w)
        rest, rest_error = _log_gamma_factor(1.0 - z)
        error = rest_error + 8.0 * _EPS * (1.0 + abs(log_two_sine) + abs(w / cmath.tan(w)))
        return -log_two_sine - rest, error
    y = z - 1.0
    x = _LANCZOS[0] + sum(c / (y + k) for k, c in enumerate(_LANCZOS[1:], 1))
    t = y + (_LANCZOS_G + 0.5)
    power = (y + 0.5) * cmath.log(t / (2.0 * math.pi))
    log_x = cmath.log(x)
    return power - t + log_x, _LANCZOS_ERROR + 8.0 * _EPS * (1.0 + abs(power) + abs(t) + abs(log_x))


def completed_dirichlet_L(X: VVAF, s: complex, n_terms: int = 1000, alpha: float = 0.0) -> LValue:
    """Gamma-completed value assembled from the truncated coefficient sum.

    Admissible forms get (2 pi)^-s Gamma(s) L(s); logarithmic slots carry
    the alternating-sign shifted Gamma factors (-1)^j Gamma(s + j).  Each
    weight (-1)^j (2 pi)^-s Gamma(s + j) is one exponential of
    ``_log_gamma_factor(s + j)`` plus j log 2 pi, so it is finite wherever it
    is representable, although Gamma(s + j) alone may overflow.  The error is
    the truncation error carried through the j = 0 weight plus the error
    that the weights' own bounds put on the value.  Refuses an s at which
    some Gamma(s + j) has a pole.
    """
    s = _cusp_argument(X, s)
    sums, error, rigorous = _truncated_sums(X, s, n_terms, alpha)
    weights, bounds = [], []
    for j in range(sums.shape[1]):
        try:
            exponent, bound = _log_gamma_factor(s + j)
        except ValueError:
            raise ValueError(f"Gamma(s + j) has a pole at s = {s}, log power j = {j}") from None
        exponent += j * _LOG_2PI
        weights.append((-1) ** j * np.exp(exponent))
        bounds.append(bound + 4.0 * _EPS * abs(exponent))
    # products of numpy scalars, weight times sum: numpy's array complex
    # product fuses multiply-adds where the CPU has them and can round the
    # last bit otherwise
    value = X.P @ np.array([sum(w * x for w, x in zip(weights, row)) for row in sums])
    gamma_error = np.abs(X.P) @ (np.abs(sums) @ (np.abs(weights) * bounds))
    error = error * abs(weights[0]) + float(np.max(gamma_error))
    return LValue(s=s, value=value, method="truncated-sum", error=error, rigorous=rigorous, n_terms=n_terms)


def _decay_rate(X: VVAF) -> float:
    # at tau = i h y the nome is exp(-2 pi y) regardless of the width;
    # normalized series store no leading zero, so the lead is the lowest
    # occupied exponent
    leads = [
        series.leading_exponent
        for comp in X.basis_components
        for series in comp.terms.values()
        if not series.is_zero()
    ]
    if not leads:
        raise ValueError("X has no nonzero coefficient, so its Mellin integral is zero")
    return 2.0 * math.pi * float(min(leads))


def _node_set(X: VVAF, lower: float, rule: tuple) -> tuple:
    """Nodes, weights and form values X(i h y) of the panelled rule above ``lower``.

    ``rule`` is (panels, nodes per panel).  None of the returned arrays
    depends on s, so they are computed once per rule and memoized on the
    form, keyed by (lower, rule).
    The entries are read-only values; two threads racing on a key compute
    it twice and keep either result.
    """
    memo = vars(X).setdefault("_mellin_nodes", {})
    key = (lower, rule)
    entry = memo.get(key)
    if entry is not None:
        return entry
    rate = _decay_rate(X)
    upper = lower + max(46.0 / rate, 4.0)  # exp(-46) is below double noise
    n_panels, nodes_per_panel = rule
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    # geometric panels put more resolution near the lower endpoint where
    # y^(s-1) varies fastest
    edges = np.geomspace(lower, upper, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    ys = (mids[:, None] + halves[:, None] * nodes).ravel()
    ws = (halves[:, None] * weights).ravel()
    values = X.evaluate_many(1j * X.h * ys)
    for array in (ys, ws, values):
        array.setflags(write=False)
    entry = memo[key] = (ys, ws, values)
    return entry


def _upper_mellin(X: VVAF, s: complex, lower: float, rule: tuple) -> np.ndarray:
    """integral_lower^infinity X(i h y) y^(s-1) dy by panelled Gauss-Legendre."""
    ys, ws, values = _node_set(X, lower, rule)
    return (ws * ys ** (s - 1.0)) @ values


def _inversion_factor(X: VVAF, s: complex) -> complex:
    """(ih)^k h^(-2s): the factor that the inversion element puts on the mirrored integral."""
    return (1j * X.h) ** X.k * complex(X.h) ** (-2.0 * s)


def _split_mellin_value(X: VVAF, s: complex, split: float, rule: tuple, rho_S: np.ndarray) -> np.ndarray:
    # integral_0^split maps through the inversion element:
    # (ih)^k h^(-2s) rho(S) integral_(1/(h^2 split))^infinity X(ihu) u^(k-s-1) du
    h = X.h
    upper = _upper_mellin(X, s, split, rule)
    mirror = _upper_mellin(X, X.k - s, 1.0 / (h * h * split), rule)
    return upper + _inversion_factor(X, s) * (rho_S @ mirror)


def completed_L(X: VVAF, s: complex, split: float = 1.0) -> LValue:
    """Completed L-function by integral splitting; defined for every s.

    The Mellin integral over heights above the split point converges for
    every argument; the piece below the split is routed through the
    inversion element, which turns it into another rapidly convergent
    integral.  Both integrals use 24 geometric panels of 24 Gauss-Legendre
    nodes; the value comes from the refined 32 by 32 rule, and the error
    estimate, their difference, is heuristic.  Refuses a non-finite s, a
    split outside (0, inf) and a form with no nonzero coefficient.
    """
    s = _cusp_argument(X, s)
    if not 0 < split < math.inf:
        raise ValueError(f"split must be positive and finite, got {split!r}")
    rho_S = X.rep.evaluate(gen_s())
    value = _split_mellin_value(X, s, split, _RULE, rho_S)
    refined = _split_mellin_value(X, s, split, _REFINED_RULE, rho_S)
    error = float(np.max(np.abs(value - refined)))
    return LValue(s=s, value=refined, method="split-mellin", error=error, rigorous=False)


def functional_equation_sign(X: VVAF, s_grid, tol: float = 1e-6) -> dict:
    """Evaluate both signs over a grid and report which one vanishes.

    The residuals are the norms of rho(S) Lambda(s) -/+ (ih)^k h^(-2s)
    Lambda(k-s), with both values refined split-Mellin values split at 1.3,
    not 1, where both residuals would be empty comparisons.  An empty grid,
    which selects nothing, is refused.
    """
    s_grid = list(s_grid)
    if not s_grid:
        raise ValueError("s_grid is empty; there is no argument to compare the two sides at")
    rho_S = X.rep.evaluate(gen_s())
    rows = []
    for s in s_grid:
        s = _cusp_argument(X, s)
        left = rho_S @ _split_mellin_value(X, s, _FE_SPLIT, _REFINED_RULE, rho_S)
        right = _split_mellin_value(X, X.k - s, _FE_SPLIT, _REFINED_RULE, rho_S)
        factor = _inversion_factor(X, s)
        plus = float(np.linalg.norm(left - factor * right))
        minus = float(np.linalg.norm(left + factor * right))
        rows.append({"s": s, "residual_plus": plus, "residual_minus": minus})
    plus_ok = all(row["residual_plus"] < tol for row in rows)
    minus_ok = all(row["residual_minus"] < tol for row in rows)
    if plus_ok == minus_ok:
        selected = 0  # ambiguous or neither; caller decides how to report
    else:
        selected = 1 if plus_ok else -1
    return {"rows": rows, "selected_sign": selected}
