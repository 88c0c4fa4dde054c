"""Vector-valued forms: assembly, evaluation, transformation checks.

A :class:`VVAF` couples an even weight, a representation and one expansion
per component.  Expansions are stored in the basis that makes the
translation image diagonal (or in Jordan form); the optional diagonalizer
P recovers the plain components as linear combinations, so the n-th
Fourier coefficient vector is P applied to the per-component grid reads.

Built-in forms: the weight-0 theta/eta quotient vector, its weight-2 cusp
form twist by the fourth eta power, the weight-12 discriminant form, and a
synthetic logarithmic fixture driven by the symmetric-square unipotent
block.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache

import numpy as np

from vvaf.moebius import GroupElement, apply_moebius, j_factor
from vvaf.qseries import (
    FracQSeries,
    LogQExpansion,
    eta_power_series,
    eta_series,
    log_recouple,
    theta_series,
)
from vvaf.representation import Representation, builtin, jordan_form

__all__ = [
    "VVAF",
    "check_transformation",
    "theta_eta_form",
    "eta4_theta_eta_form",
    "delta_form",
    "sym2_log_form",
    "builtin_form",
    "BUILTIN_FORMS",
]


class VVAF:
    """Weight, representation and per-component expansions.

    ``basis_components`` are expansions in the basis where the translation
    image is diagonal (or Jordan); ``diagonalizer`` maps that basis back to
    plain components.  Flags are always recomputed from the exponents,
    never taken on trust.
    """

    def __init__(self, k: int, rep: Representation, basis_components, diagonalizer=None, mu_offsets=None):
        if k % 2 != 0:
            raise ValueError("weight must be even")
        if len(basis_components) != rep.m:
            raise ValueError(f"expected {rep.m} component expansions, got {len(basis_components)}")
        self.k = int(k)
        self.rep = rep
        self.basis_components = [
            comp if isinstance(comp, LogQExpansion) else LogQExpansion({0: comp})
            for comp in basis_components
        ]
        self.P = np.eye(rep.m, dtype=complex) if diagonalizer is None else np.array(diagonalizer, dtype=complex)
        self.P.setflags(write=False)
        widths = {comp.h for comp in self.basis_components}
        if len(widths) != 1:
            raise ValueError("all component expansions must share one width")
        self.h = widths.pop()
        nonzero = [[s for s in comp.terms.values() if not s.is_zero()] for comp in self.basis_components]
        if mu_offsets is None:
            mu_offsets = [_lead_offset(series) for series in nonzero]
        for off in mu_offsets:
            if not isinstance(off, numbers.Rational):
                raise ValueError(f"mu offsets must be ints or Fractions, got {off!r}")
        self.mu_offsets = [Fraction(x) for x in mu_offsets]
        for comp, series, off in zip(self.basis_components, nonzero, self.mu_offsets):
            # every exponent is the lowest one plus a multiple of stride/D,
            # which is integral exactly when D divides the stride
            if any((s.leading_exponent - off).denominator != 1 or s.stride % s.D for s in series):
                e = next(e for e in comp.occupied_exponents() if (e - off).denominator != 1)
                raise ValueError(
                    f"component exponent {e} is not an integer shift of its offset {off}"
                )
        leads = [s.leading_exponent for series in nonzero for s in series]
        self.holomorphic_at_infinity = all(lead >= 0 for lead in leads)
        self.cusp_form = all(lead > 0 for lead in leads)
        self.is_logarithmic = any(comp.max_log_power() > 0 for comp in self.basis_components)

    @property
    def m(self) -> int:
        return self.rep.m

    # -- evaluation -----------------------------------------------------------

    def evaluate_many(self, taus, with_tail: bool = False):
        """Component vectors at a 1-d array of points, one row per point.

        With ``with_tail`` also returns, per point, the largest tail bound
        of a plain component, through |P|.  Refuses the batch if any point
        has |q| > 0.995.
        """
        parts = [comp.evaluate_many(taus, with_tail) for comp in self.basis_components]
        if not with_tail:
            return np.stack(parts, axis=-1) @ self.P.T
        values, tails = (np.stack(part, axis=-1) for part in zip(*parts))
        return values @ self.P.T, np.max(tails @ np.abs(self.P).T, axis=-1)

    def component_expansion(self, i: int) -> LogQExpansion:
        """The plain i-th component as a mixed-offset expansion."""
        acc = None
        for j in range(self.m):
            weight = self.P[i, j]
            if weight == 0:
                continue
            piece = self.basis_components[j].scale(weight)
            acc = piece if acc is None else acc + piece
        return acc if acc is not None else LogQExpansion({0: FracQSeries.zero(self.h)}, h=self.h)

    # -- coefficient access ------------------------------------------------------

    def coefficient_table(self, nmax: int) -> np.ndarray:
        """Array c[j, n, i]: basis component i's log-power-j coefficient at n + mu_i.

        The one reader of coefficients on the offset grids, for n = 0..nmax.
        The shape is (J + 1, nmax + 1, m) with J the largest log power; a
        slot that does not exist reads 0.  Refuses a negative ``nmax``.
        """
        if nmax < 0:
            raise ValueError(f"nmax must be at least 0, got {nmax}")
        J = max((j for comp in self.basis_components for j in comp.terms), default=0)
        out = np.zeros((J + 1, nmax + 1, self.m), dtype=complex)
        for i, (comp, off) in enumerate(zip(self.basis_components, self.mu_offsets)):
            for j, series in comp.terms.items():
                out[j, :, i] = series.coefficients_on_offset(off, nmax)
        return out

    def basis_coefficients(self, nmax: int) -> np.ndarray:
        """Array v[n, i]: the log-free slot c[0] of :meth:`coefficient_table`."""
        return self.coefficient_table(nmax)[0]

    def fourier_vectors(self, nmax: int) -> np.ndarray:
        """Array X[n] = P v[n] of Fourier coefficient vectors."""
        return self.basis_coefficients(nmax) @ self.P.T

    def coefficient_exponent(self, alpha: float) -> float:
        """Exponent e of the coefficient bound a_n = O(n^e) for growth exponent ``alpha``.

        k/2 + alpha for a cusp form and k + 2 alpha otherwise.  Refuses a
        non-finite alpha, which would turn every verdict against it into FAIL.
        """
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        return self.k / 2.0 + alpha if self.cusp_form else self.k + 2.0 * alpha


def _lead_offset(series: list) -> Fraction:
    if not series:
        return Fraction(0)
    lead = min(s.leading_exponent for s in series)
    return lead - math.floor(lead)


# the largest truncation tail at which a transformation residual still means something
_TAIL_BOUND = 1e-10


def check_transformation(X: VVAF, gamma: GroupElement, taus) -> float:
    """Max residual of the weight-k functional equation over sample points.

    Compares j(gamma, tau)^-k X(gamma tau) against rho(gamma) X(tau); a
    truncation tail above 1e-10 at any sample raises, since the
    residual would be meaningless there.  An empty sample set raises, since
    it would check nothing.
    """
    taus = [complex(tau) for tau in taus]
    if not taus:
        raise ValueError("no sample points to check the transformation at")
    lhs, tail1 = X.evaluate_many([apply_moebius(gamma, tau) for tau in taus], with_tail=True)
    rhs, tail2 = X.evaluate_many(taus, with_tail=True)
    tails = np.maximum(tail1, tail2)
    over = np.flatnonzero(tails > _TAIL_BOUND)
    if len(over):
        i = over[0]
        raise ValueError(f"truncation tail {tails[i]:.2e} exceeds {_TAIL_BOUND:.2e} at tau={taus[i]}")
    weights = np.array([j_factor(gamma, tau) ** (-X.k) for tau in taus])
    residuals = np.linalg.norm(weights[:, None] * lhs - rhs @ X.rep.evaluate(gamma).T, axis=-1)
    return float(np.max(residuals))


# -- built-in forms ---------------------------------------------------------------


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _theta_eta_diagonalizer() -> np.ndarray:
    # mixes the swapped pair of components into translation eigenvectors
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, _SQRT_HALF, _SQRT_HALF],
            [0.0, _SQRT_HALF, -_SQRT_HALF],
        ],
        dtype=complex,
    )


def _theta_basis(n_terms: int) -> list:
    """theta2 and the translation eigencombinations (theta3 +/- theta4)/sqrt 2."""
    t2, t3, t4 = (theta_series(variant, n_terms) for variant in (2, 3, 4))
    return [t2, (t3 + t4) * _SQRT_HALF, (t3 - t4) * _SQRT_HALF]


@lru_cache(maxsize=8)
def theta_eta_form(n_terms: int = 60) -> VVAF:
    """The weight-0 vector (theta2, theta3, theta4)/eta.

    Basis components are the translation eigencombinations; their leading
    offsets 1/12, 23/24 and 11/24 match the exponents of the eigenvalues
    of the translation image.
    """
    eta = eta_series(n_terms + 2)
    return VVAF(
        0,
        builtin("theta-eta"),
        [theta / eta for theta in _theta_basis(n_terms + 2)],
        diagonalizer=_theta_eta_diagonalizer(),
        mu_offsets=[Fraction(1, 12), Fraction(-1, 24), Fraction(11, 24)],
    )


@lru_cache(maxsize=8)
def eta4_theta_eta_form(n_terms: int = 60) -> VVAF:
    """The weight-2 cusp form eta^4 (theta2, theta3, theta4)/eta.

    Twisting multiplies the s-image by -1 and the t-image by exp(pi i/3);
    the leading exponents 1/4, 1/8 and 5/8 are strictly positive.
    """
    eta3 = eta_power_series(3, n_terms + 2)
    base = builtin("theta-eta")
    twisted = Representation(-base.mat_s, np.exp(1j * np.pi / 3) * base.mat_t)
    return VVAF(
        2,
        twisted,
        [eta3 * theta for theta in _theta_basis(n_terms + 2)],
        diagonalizer=_theta_eta_diagonalizer(),
        mu_offsets=[Fraction(1, 4), Fraction(1, 8), Fraction(5, 8)],
    )


@lru_cache(maxsize=8)
def delta_form(n_terms: int = 200) -> VVAF:
    """The weight-12 cusp form on the trivial line (24th eta power)."""
    rep = builtin("trivial")
    return VVAF(12, rep, [eta_power_series(24, n_terms)], mu_offsets=[Fraction(0)])


@lru_cache(maxsize=8)
def sym2_log_form(n_terms: int = 40) -> VVAF:
    """Synthetic logarithmic fixture for the symmetric-square block.

    Components are built from three pure seed expansions through the
    inverse recoupling, so the vector transforms under tau -> tau + 1
    exactly by the unipotent translation image.  Only the translation
    consistency is meaningful; this is not a full modular vector.
    """
    rep = builtin("sym2")
    data = jordan_form(rep.mat_t)
    # the unipotent block in lower bidiagonal form is the reversal conjugate
    # of the canonical one, so B = P_c R maps block components to the plain basis
    R = np.eye(3)[::-1]
    B = data.P @ R
    # pure seeds with the eigenvalue-1 offset (integer exponents, all positive)
    seeds = []
    for start, value in ((1, 1.0), (2, 1.0), (1, 0.5)):
        coeffs = np.zeros(n_terms - start, dtype=complex)
        coeffs[0] = value
        if len(coeffs) > 2:
            coeffs[2] = -0.25 * value
        seeds.append(FracQSeries(1, 1, start, coeffs, order=Fraction(n_terms)))
    block_components = log_recouple("backward", [LogQExpansion({0: s}) for s in seeds])
    return VVAF(
        0,
        rep,
        block_components,
        diagonalizer=B,
        mu_offsets=[Fraction(0), Fraction(0), Fraction(0)],
    )


BUILTIN_FORMS = {
    "theta-eta": theta_eta_form,
    "eta4-theta-eta": eta4_theta_eta_form,
    "delta": delta_form,
    "sym2-log": sym2_log_form,
}


def builtin_form(name: str, n_terms: int | None = None) -> VVAF:
    """Built-in forms by name; ``n_terms`` overrides the default order."""
    try:
        factory = BUILTIN_FORMS[name]
    except KeyError:
        raise ValueError(f"unknown builtin form {name!r}; choose from {sorted(BUILTIN_FORMS)}")
    return factory() if n_terms is None else factory(n_terms)
