"""Exponential sums of Fourier coefficients and the associated bound scan.

Sums are plain partial sums twisted by e(n theta); the scan divides them
by the predicted envelope X^(sigma (k/2 + alpha)) log X and watches the
ratio for drift across cutoffs.  Scans parallelize trivially over the
(theta, cutoff) grid; everything here is pure.
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
    """
    if cutoff < 1:
        return np.zeros(X.m, dtype=complex)
    phases = np.exp(2j * math.pi * theta * np.arange(cutoff))
    if not X.is_logarithmic:
        vectors = X.fourier_vectors(cutoff - 1)
        return vectors.T @ phases
    total = np.zeros(X.m, dtype=complex)
    for i, off, j, series in X.log_slots():
        coeffs = series.coefficients_on_offset(off, cutoff - 1)
        basis_vec = np.zeros(X.m, dtype=complex)
        basis_vec[i] = 1.0
        total += (X.P @ basis_vec) * np.sum(coeffs * phases)
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

    def as_dict(self) -> dict:
        return {
            "thetas": list(self.thetas),
            "cutoffs": list(self.cutoffs),
            "sigma": self.sigma,
            "target_exponent": self.target_exponent,
            "verdict": self.verdict,
            "ratios": self.ratios.tolist(),
        }


def bound_scan(X: VVAF, thetas, cutoffs, alpha: float = 0.0) -> ExpSumScan:
    """Scan the sums against the predicted envelope over a grid.

    sigma is 1 for cusp forms and 2 for merely holomorphic ones.  The
    verdict passes when the worst ratio at the largest cutoff stays within
    a factor 3 of the worst ratio at the smallest cutoff.  Both lists must
    be nonempty; cutoffs must be increasing and at least 1.
    """
    thetas = tuple(float(t) for t in thetas)
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
    exponent = sigma * (X.k / 2.0 + alpha)
    sums = np.zeros((len(thetas), len(cutoffs), X.m), dtype=complex)
    ratios = np.zeros((len(thetas), len(cutoffs)))
    for a, theta in enumerate(thetas):
        for b, cutoff in enumerate(cutoffs):
            value = exp_sum(X, theta, cutoff)
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
