"""Exponential sums of Fourier coefficients and the associated bound scan.

Sums are plain partial sums twisted by e(n theta); the scan divides them
by the predicted envelope X^e log X, with e the form's
``coefficient_exponent``, and watches the ratio for drift across
cutoffs.  Scans parallelize trivially over the (theta, cutoff) grid;
everything here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vvaf.forms import VVAF

__all__ = ["ExpSumScan", "exp_sum", "bound_scan"]

DRIFT_FACTOR = 3.0


def exp_sum(X: VVAF, theta: float, cutoff: int) -> np.ndarray:
    """Sum of coefficient vectors against e(n theta) for n below the cutoff.

    Logarithmic forms sum over every (eigenvalue, log power) slot.  At
    theta = 0 this is exactly the plain partial sum of the coefficients.
    Refuses a non-finite theta.
    """
    _check_theta(theta)
    if cutoff < 1:
        return np.zeros(X.m, dtype=complex)
    phases = np.exp(2j * math.pi * theta * np.arange(cutoff))
    return _twisted_sum(X.coefficient_table(cutoff - 1), X.P, phases)


def _check_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")


def _twisted_sum(table: np.ndarray, P: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Sum over the log powers j of (c[j] P^T)^T phases."""
    total = (table[0] @ P.T).T @ phases
    for vectors in table[1:]:
        total += (vectors @ P.T).T @ phases
    return total


@dataclass(frozen=True)
class ExpSumScan:
    thetas: tuple
    cutoffs: tuple
    sums: np.ndarray  # shape (n_thetas, n_cutoffs, m)
    ratios: np.ndarray  # shape (n_thetas, n_cutoffs)
    sigma: int
    target_exponent: float
    verdict: str


def bound_scan(X: VVAF, thetas, cutoffs, alpha: float = 0.0) -> ExpSumScan:
    """Scan the sums against the predicted envelope over a grid.

    The envelope is X^e log X with e = ``X.coefficient_exponent(alpha)``;
    ``sigma`` records its factor on k/2 + alpha, 1 for cusp forms and 2
    for merely holomorphic ones.  The verdict passes when the worst ratio
    at the largest cutoff stays within a factor 3 of the worst ratio at
    the smallest cutoff.  Both lists must
    be nonempty; thetas must be finite, cutoffs increasing and at least 1.
    """
    thetas = tuple(float(t) for t in thetas)
    for theta in thetas:
        _check_theta(theta)
    cutoffs = tuple(int(c) for c in cutoffs)
    if not thetas:
        raise ValueError("thetas must not be empty")
    if not cutoffs:
        raise ValueError("cutoffs must not be empty")
    if sorted(cutoffs) != list(cutoffs):
        raise ValueError("cutoffs must be increasing")
    if cutoffs[0] < 1:
        raise ValueError(f"cutoffs must be at least 1, got {cutoffs[0]}")
    sigma = 1 if X.cusp_form else 2
    exponent = X.coefficient_exponent(alpha)
    # one read and one set of phases at the largest cutoff; each cutoff sums a prefix
    table = X.coefficient_table(cutoffs[-1] - 1)
    sums = np.zeros((len(thetas), len(cutoffs), X.m), dtype=complex)
    ratios = np.zeros((len(thetas), len(cutoffs)))
    for a, theta in enumerate(thetas):
        phases = np.exp(2j * math.pi * theta * np.arange(cutoffs[-1]))
        for b, cutoff in enumerate(cutoffs):
            value = _twisted_sum(table[:, :cutoff], X.P, phases[:cutoff])
            sums[a, b] = value
            envelope = cutoff**exponent * math.log(max(cutoff, 2))
            ratios[a, b] = float(np.linalg.norm(value)) / envelope
    worst_first = float(np.max(ratios[:, 0]))
    worst_last = float(np.max(ratios[:, -1]))
    if worst_first == 0.0 and worst_last == 0.0:
        verdict = "PASS"
    else:
        verdict = "PASS" if worst_last <= DRIFT_FACTOR * worst_first else "FAIL"
    return ExpSumScan(
        thetas=thetas,
        cutoffs=cutoffs,
        sums=sums,
        ratios=ratios,
        sigma=sigma,
        target_exponent=exponent,
        verdict=verdict,
    )
