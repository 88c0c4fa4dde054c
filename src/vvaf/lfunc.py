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
per (lower limit, rule) pair.

Everything is pure: the memo holds only values computed from the
immutable form, so L-values over a grid of arguments can be computed
concurrently, and a race can at worst compute an entry twice.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class LValue:
    s: complex
    value: np.ndarray
    method: str  # 'truncated-sum' or 'split-mellin'
    error: float
    rigorous: bool
    n_terms: int = 0


def _truncated_sums(X: VVAF, s: complex, n_terms: int, alpha: float) -> tuple:
    """One pass over the coefficients of every slot, and the truncation error.

    Returns the per-slot sums (i, j, sum over n <= n_terms) in slot order,
    their per-component totals, the error estimate and whether it is
    rigorous.

    With sigma = ``X.coefficient_exponent(alpha)``, for Re s > sigma + 1
    the error is the tail bound of the growth theorem (see
    ``dirichlet_L``).  Elsewhere it is a heuristic: the
    largest movement of the partial sums over the second half,
    max over N/2 <= M <= N of |P (S_N - S_M)|, with S_M the per-component
    partial sums through index M.  An oscillating tail can exceed the
    movement between two fixed cutoffs, which is why the whole second half
    is scanned.  Nothing proves this estimate; it is measured against the
    split-Mellin value over a grid near the critical line (see the tests).
    Refuses a cutoff below one term.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    table = X.coefficient_table(n_terms)
    basis_values = np.zeros(X.m, dtype=complex)
    slot_sums = []
    max_ratio = 0.0
    sigma = X.coefficient_exponent(alpha)
    rigorous = s.real > sigma + 1.0
    half = n_terms // 2
    # basis_tails[i, t] = S_N - S_(half + t) of component i, for half <= half + t < N
    basis_tails = np.zeros((X.m, n_terms - half), dtype=complex)
    for i, (comp, off) in enumerate(zip(X.basis_components, X.mu_offsets)):
        ns = np.arange(n_terms + 1) + float(off)
        good = ns > 0
        ns = ns[good]
        for j in comp.terms:
            coeffs = table[j, :, i][good]
            terms = coeffs * ns ** (-(s + j))
            full = np.sum(terms)
            slot_sums.append((i, j, full))
            basis_values[i] += full
            if rigorous:
                nz = np.abs(coeffs) > 0
                if np.any(nz):
                    max_ratio = max(max_ratio, float(np.max(np.abs(coeffs[nz]) / ns[nz] ** sigma)))
            else:
                # only index 0 can be dropped, so the last N - half terms are
                # those of indices half+1 .. N; sum them from the end
                last = terms[len(terms) - (n_terms - half) :]
                basis_tails[i] += np.cumsum(last[::-1])[::-1]
    if rigorous:
        # |c_n| <= C n^sigma bounds the tail by C integral_N^inf x^(sigma - Re s) dx
        scale = float(np.max(np.abs(X.P))) * max(1.0, X.m)
        error = max_ratio * n_terms ** (sigma - s.real + 1.0) / (s.real - sigma - 1.0) * scale
    else:
        # heuristic: largest movement of the partial sums over the second half
        error = float(np.max(np.abs(X.P @ basis_tails), initial=0.0))
    return slot_sums, basis_values, error, rigorous


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
    if not X.cusp_form:
        raise ValueError("the coefficient sum is defined here for cusp forms only")
    s = complex(s)
    _, basis_values, error, rigorous = _truncated_sums(X, s, n_terms, alpha)
    return LValue(
        s=s,
        value=X.P @ basis_values,
        method="truncated-sum",
        error=error,
        rigorous=rigorous,
        n_terms=n_terms,
    )


def completed_dirichlet_L(X: VVAF, s: complex, n_terms: int = 1000, alpha: float = 0.0) -> LValue:
    """Gamma-completed value assembled from the truncated coefficient sum.

    Admissible forms get (2 pi)^-s Gamma(s) L(s); logarithmic slots carry
    the alternating-sign shifted Gamma factors.
    """
    if not X.cusp_form:
        raise ValueError("completion requires a cusp form")
    # Imported here so that loading the package does not load scipy.
    from scipy.special import gamma as complex_gamma

    s = complex(s)
    slot_sums, _, error, rigorous = _truncated_sums(X, s, n_terms, alpha)
    basis_values = np.zeros(X.m, dtype=complex)
    for i, j, full in slot_sums:
        basis_values[i] += (-1) ** j * complex_gamma(s + j) * full
    value = (2.0 * math.pi) ** (-s) * (X.P @ basis_values)
    gamma_scale = abs((2.0 * math.pi) ** (-s) * complex_gamma(s))
    return LValue(
        s=s,
        value=value,
        method="truncated-sum",
        error=error * gamma_scale,
        rigorous=rigorous,
        n_terms=n_terms,
    )


def _decay_rate(X: VVAF) -> float:
    # at tau = i h y the nome is exp(-2 pi y) regardless of the width;
    # normalized series store no leading zero, so the lead is the lowest
    # occupied exponent
    lead = min(
        series.leading_exponent
        for comp in X.basis_components
        for series in comp.terms.values()
        if not series.is_zero()
    )
    return 2.0 * math.pi * float(lead)


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


def _split_mellin_value(X: VVAF, s: complex, split: float, rule: tuple) -> np.ndarray:
    # integral_0^split maps through the inversion element:
    # (ih)^k h^(-2s) rho(S) integral_(1/(h^2 split))^infinity X(ihu) u^(k-s-1) du
    h = X.h
    rho_S = X.rep.evaluate(gen_s())
    upper = _upper_mellin(X, s, split, rule)
    mirror = _upper_mellin(X, X.k - s, 1.0 / (h * h * split), rule)
    prefactor = (1j * h) ** X.k * complex(h) ** (-2.0 * s)
    return upper + prefactor * (rho_S @ mirror)


def completed_L(X: VVAF, s: complex, split: float = 1.0) -> LValue:
    """Completed L-function by integral splitting; defined for every s.

    The Mellin integral over heights above the split point converges for
    every argument; the piece below the split is routed through the
    inversion element, which turns it into another rapidly convergent
    integral.  Both integrals use 24 geometric panels of 24 Gauss-Legendre
    nodes; the value comes from the refined 32 by 32 rule, and the error
    estimate, their difference, is heuristic.
    """
    if not X.cusp_form:
        raise ValueError("the Mellin integral diverges for non cusp forms")
    s = complex(s)
    value = _split_mellin_value(X, s, split, _RULE)
    refined = _split_mellin_value(X, s, split, _REFINED_RULE)
    error = float(np.max(np.abs(value - refined)))
    return LValue(s=s, value=refined, method="split-mellin", error=error, rigorous=False)


def _fe_residuals(X: VVAF, s: complex) -> tuple:
    """Norms of rho(S) Lambda(s) -/+ (h i)^-k h^(2k-2s) Lambda(k-s), as (plus, minus).

    Both completed values are computed at the same split, ``_FE_SPLIT``.
    """
    s = complex(s)
    h = X.h
    rho_S = X.rep.evaluate(gen_s())
    left = rho_S @ completed_L(X, s, split=_FE_SPLIT).value
    right = completed_L(X, X.k - s, split=_FE_SPLIT).value
    factor = (h * 1j) ** (-X.k) * complex(h) ** (2.0 * X.k - 2.0 * s)
    plus = float(np.linalg.norm(left - factor * right))
    minus = float(np.linalg.norm(left + factor * right))
    return plus, minus


def functional_equation_sign(X: VVAF, s_grid, tol: float = 1e-6) -> dict:
    """Evaluate both signs over a grid and report which one vanishes.

    Both completed values are split at 1.3, not 1, where both residuals
    would be empty comparisons.
    """
    rows = []
    for s in s_grid:
        plus, minus = _fe_residuals(X, s)
        rows.append({"s": complex(s), "residual_plus": plus, "residual_minus": minus})
    plus_ok = all(row["residual_plus"] < tol for row in rows)
    minus_ok = all(row["residual_minus"] < tol for row in rows)
    if plus_ok == minus_ok:
        selected = 0  # ambiguous or neither; caller decides how to report
    else:
        selected = 1 if plus_ok else -1
    return {"rows": rows, "selected_sign": selected}
