import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from vvaf.forms import BUILTIN_FORMS, VVAF, builtin_form, delta_form, eta4_theta_eta_form
from vvaf.lfunc import (
    _FE_SPLIT,
    _decay_rate,
    _inversion_factor,
    _log_gamma_factor,
    _node_set,
    _tail_bound,
    completed_L,
    completed_dirichlet_L,
    dirichlet_L,
    functional_equation_sign,
)
from vvaf.moebius import gen_s
from vvaf.qseries import FracQSeries, LogQExpansion
from vvaf.representation import builtin


def fresh(X: VVAF) -> VVAF:
    """A copy of ``X`` with an empty Mellin node memo; the factories cache their forms."""
    return VVAF(X.k, X.rep, X.basis_components, diagonalizer=X.P, mu_offsets=X.mu_offsets)


def _fe_residuals(X: VVAF, s: complex) -> tuple:
    """Reference for the sign scan: (plus, minus) from two ``completed_L`` values.

    The norms of rho(S) Lambda(s) -/+ (ih)^k h^(-2s) Lambda(k-s), both
    values split at ``_FE_SPLIT``.
    """
    s = complex(s)
    rho_S = X.rep.evaluate(gen_s())
    left = rho_S @ completed_L(X, s, split=_FE_SPLIT).value
    right = completed_L(X, X.k - s, split=_FE_SPLIT).value
    factor = _inversion_factor(X, s)
    plus = float(np.linalg.norm(left - factor * right))
    minus = float(np.linalg.norm(left + factor * right))
    return plus, minus


def _per_slot_reference(X: VVAF, s: complex, n_terms: int, alpha: float = 0.0) -> tuple:
    """Reference for the two Dirichlet entry points: one sum per (component, log power) slot.

    The loop the (m, J + 1) array of sums replaced: per slot, a 1-d pairwise
    sum and a suffix cumulative sum, accumulated into per-component totals.
    The Gamma weights and their bounds come from the package's
    ``_log_gamma_factor``, so the comparison pins the arrangement of the sums.
    Returns ((value, error) of ``dirichlet_L``, (value, error) of
    ``completed_dirichlet_L``, rigorous).
    """
    s = complex(s)
    table = X.coefficient_table(n_terms)
    plain = np.zeros(X.m, dtype=complex)
    weighted = np.zeros(X.m, dtype=complex)
    slot_sums = np.zeros((X.m, table.shape[0]), dtype=complex)
    weights, bounds = [], []
    for j in range(table.shape[0]):
        exponent, bound = _log_gamma_factor(s + j)
        exponent += j * math.log(2.0 * math.pi)
        weights.append((-1) ** j * np.exp(exponent))
        bounds.append(bound + 4.0 * np.finfo(float).eps * abs(exponent))
    max_ratio = 0.0
    sigma = X.coefficient_exponent(alpha)
    rigorous = s.real > sigma + 1.0
    half = n_terms // 2
    tails = np.zeros((X.m, n_terms - half), dtype=complex)
    for i, (comp, off) in enumerate(zip(X.basis_components, X.mu_offsets)):
        ns = np.arange(n_terms + 1) + float(off)
        good = ns > 0
        ns = ns[good]
        for j in comp.terms:
            coeffs = table[j, :, i][good]
            terms = coeffs * ns ** (-(s + j))
            full = np.sum(terms)
            plain[i] += full
            weighted[i] += weights[j] * full
            slot_sums[i, j] = full
            nz = np.abs(coeffs) > 0
            if rigorous and np.any(nz):
                max_ratio = max(max_ratio, float(np.max(np.abs(coeffs[nz]) / ns[nz] ** sigma)))
            elif not rigorous:
                tails[i] += np.cumsum(terms[len(terms) - (n_terms - half) :][::-1])[::-1]
    if rigorous:
        scale = float(np.max(np.abs(X.P))) * max(1.0, X.m)
        error = max_ratio * n_terms ** (sigma - s.real + 1.0) / (s.real - sigma - 1.0) * scale
    else:
        error = float(np.max(np.abs(X.P @ tails), initial=0.0))
    gamma_error = np.abs(X.P) @ (np.abs(slot_sums) @ (np.abs(weights) * bounds))
    completed_error = error * abs(weights[0]) + float(np.max(gamma_error))
    return (X.P @ plain, error), (X.P @ weighted, completed_error), rigorous


def _non_cusp_form() -> VVAF:
    return VVAF(0, builtin("trivial"), [FracQSeries(1, 1, 0, [1.0], order=50)])


# every entry point refuses a form that is not a cusp form with this one message
_NOT_CUSP = "^L-values are defined here for cusp forms only$"


def _mp_gamma_factor(z: complex) -> complex:
    """(2 pi)^-z Gamma(z) from mpmath at 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        return complex((2 * mpmath.pi) ** (-z) * mpmath.gamma(z))


def _gamma_factor_error(z: complex) -> tuple:
    """The relative error of ``_log_gamma_factor``'s exponential against mpmath, and its bound."""
    value, bound = _log_gamma_factor(complex(z))
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        # taken in mpmath, where neither side underflows
        error = abs(mpmath.exp(mpmath.mpc(value)) / ((2 * mpmath.pi) ** (-z) * mpmath.gamma(z)) - 1)
    return float(error), bound


def _random_points(seed: int, re: tuple, im: float, count: int = 300) -> list:
    rng = np.random.default_rng(seed)
    return [complex(rng.uniform(*re), rng.uniform(-im, im)) for _ in range(count)]


class TestGammaPrimitive:
    """``_log_gamma_factor``, the package's Gamma, against mpmath."""

    @pytest.mark.parametrize(
        "points, tol",
        [
            (_random_points(41, (0.3, 14.0), 3.0), 2e-14),  # every README and benchmark argument
            (_random_points(42, (0.3, 14.0), 12.0), 1e-13),  # the criterion 7 grid reaches Im s = 12
            (_random_points(43, (14.0, 250.0), 60.0), 5e-13),  # rounding of the exponent grows with |z|
        ],
        ids=["im3", "im12", "large"],
    )
    def test_against_mpmath(self, points, tol):
        for z in points:
            error, bound = _gamma_factor_error(z)
            assert error <= tol, z
            assert error <= bound, z

    def test_log_slot_shifts(self):
        # completed_dirichlet_L weighs log power j with Gamma(s + j)
        for s in (8, 7.2, 9, 13, 6 + 3j, 7.9 + 1.3j, 5 - 2j, 0.5 + 0.4j, 10 + 10j, 4, 1 + 2j):
            for j in range(4):
                error, bound = _gamma_factor_error(complex(s) + j)
                assert error <= 2e-14 and error <= bound, (s, j)

    def test_reflection(self):
        # Re z < 1/2 goes through (2 pi)^-z Gamma(z) (2 pi)^(z-1) Gamma(1 - z) = 1 / (2 sin pi z);
        # near a pole the rounding of pi z dominates, and the bound says so
        for z in _random_points(44, (-8.0, 0.5), 3.0) + [-2.999999, -3.5, 1e-10, -0.25 + 12j]:
            error, bound = _gamma_factor_error(z)
            assert error <= bound, z
            distance = min(abs(z - n) for n in range(-9, 1))
            if distance > 0.1:
                assert error <= 2e-14, z

    @pytest.mark.parametrize("z", [0.3 + 300j, 0.3 - 300j, -0.3 + 300j, 0.25 - 2000j])
    def test_reflection_far_from_real_axis(self, z):
        # sin(pi z) overflows past |Im z| = 226; its logarithm does not
        error, bound = _gamma_factor_error(z)
        assert error <= 1e-12 and error <= bound

    def test_recurrence_cross_check(self):
        # Gamma(s + 1) = s Gamma(s), so (2 pi)^-(s+1) Gamma(s + 1) = s (2 pi)^-s Gamma(s) / (2 pi)
        rng = np.random.default_rng(103)
        for _ in range(50):
            s = complex(rng.uniform(-6, 6), rng.uniform(-4, 4))
            lhs = cmath.exp(_log_gamma_factor(s + 1)[0])
            rhs = s * cmath.exp(_log_gamma_factor(s)[0]) / (2 * math.pi)
            assert abs(lhs - rhs) <= 5e-14 * abs(rhs)

    @pytest.mark.parametrize("z", [0, -0.0, -1, -2, -17])
    def test_poles_refused(self, z):
        with pytest.raises(ValueError, match=r"^Gamma has a pole at "):
            _log_gamma_factor(complex(z))


class TestDirichlet:
    def test_zero_form(self):
        rep = builtin("trivial")
        X = VVAF(12, rep, [FracQSeries(1, 1, 1, [0.0, 1e-300], order=500)])
        value = dirichlet_L(X, 8, n_terms=100)
        assert abs(value.value[0]) < 1e-200

    def test_delta_truncation_stability(self):
        D = delta_form(2100)
        l1 = dirichlet_L(D, 8, n_terms=1000)
        l2 = dirichlet_L(D, 8, n_terms=2000)
        assert abs(l1.value[0] - l2.value[0]) < 1e-7
        assert l1.rigorous and l2.rigorous
        assert abs(l1.value[0] - l2.value[0]) <= l1.error + l2.error

    def test_eta4_truncation_stability(self):
        Y = eta4_theta_eta_form(2100)
        l1 = dirichlet_L(Y, 4, n_terms=1000)
        l2 = dirichlet_L(Y, 4, n_terms=2000)
        assert np.max(np.abs(l1.value - l2.value)) < 1e-8

    def test_outside_half_plane_flagged(self):
        D = delta_form(600)
        value = dirichlet_L(D, 6.5, n_terms=500)
        assert not value.rigorous
        assert 0 < value.error < float("inf")  # downgraded to a heuristic

    def test_non_cusp_form_rejected(self):
        for func in (dirichlet_L, completed_dirichlet_L):
            with pytest.raises(ValueError, match=_NOT_CUSP):
                func(_non_cusp_form(), 8)

    @pytest.mark.parametrize("func", [dirichlet_L, completed_dirichlet_L])
    @pytest.mark.parametrize("s", [9.0, 6.5])  # either side of Re s = k/2 + 1 = 7
    @pytest.mark.parametrize("n_terms", [0, -5])
    def test_cutoff_below_one_rejected(self, func, s, n_terms):
        with pytest.raises(ValueError, match="n_terms must be at least 1"):
            func(delta_form(300), s, n_terms)

    @pytest.mark.parametrize("func", [dirichlet_L, completed_dirichlet_L])
    @pytest.mark.parametrize("s", [math.nan, math.inf, complex(8, math.nan)])
    def test_non_finite_argument_refused(self, func, s):
        # a NaN argument used to return a NaN value with a NaN error
        with pytest.raises(ValueError, match="is not finite"):
            func(delta_form(300), s, 100)

    @pytest.mark.parametrize("func", [dirichlet_L, completed_dirichlet_L])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_refused(self, func, alpha):
        # NaN alpha used to return a value flagged heuristic, as if Re s were
        # outside the half-plane of the tail bound
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha!r}"):
            func(delta_form(300), 8, 100, alpha=alpha)


class TestSlotSums:
    """Both Dirichlet entry points keep the bits of the per-slot loop."""

    @staticmethod
    def _bits(value, error) -> list:
        return [float(x).hex() for z in value for x in (z.real, z.imag)] + [float(error).hex()]

    @pytest.mark.parametrize("name", ["delta", "eta4-theta-eta", "sym2-log"])
    def test_builtin_forms_match_per_slot_loop(self, name):
        X = builtin_form(name, n_terms=300)
        for s in (8, 7.2, 9, 13, 6 + 3j, 7.9 + 1.3j, 5 - 2j, 0.5 + 0.4j, 10 + 10j):
            for n_terms in (1, 2, 7, 151, 290):
                for alpha in (0.0, 0.5):
                    plain, completed, rigorous = _per_slot_reference(X, s, n_terms, alpha)
                    got = dirichlet_L(X, s, n_terms=n_terms, alpha=alpha)
                    assert self._bits(got.value, got.error) == self._bits(*plain)
                    got_completed = completed_dirichlet_L(X, s, n_terms=n_terms, alpha=alpha)
                    assert self._bits(got_completed.value, got_completed.error) == self._bits(*completed)
                    assert got.rigorous == got_completed.rigorous == rigorous

    def test_components_with_different_log_powers(self):
        # component 0 has log powers 0 and 1, the others only 0: their
        # missing slot is a zero entry of the sums array
        rep = builtin("sym2")
        base0 = FracQSeries(1, 1, 1, [1.0, 0.25], order=60)
        base1 = FracQSeries(1, 1, 2, [0.5], order=60)
        X = VVAF(4, rep, [LogQExpansion({0: base0, 1: base1}), LogQExpansion({0: base1}), LogQExpansion({0: base0})])
        for s in (5.0, 2.5 + 1j, 1.2):
            plain, completed, _ = _per_slot_reference(X, s, 50)
            got = dirichlet_L(X, s, n_terms=50)
            assert self._bits(got.value, got.error) == self._bits(*plain)
            got = completed_dirichlet_L(X, s, n_terms=50)
            assert self._bits(got.value, got.error) == self._bits(*completed)


class TestCompleted:
    def test_two_method_agreement_delta(self):
        # agreement holds where the coefficient sum converges comfortably;
        # near the abscissa (the critical line sits at Re s = 6) the plain
        # sum stalls around 1e-5 and is checked against its own error instead
        # (criterion 7 and the grid test below)
        D = delta_form(2100)
        for s in (7, 7.5 + 2j, 8):
            series = completed_dirichlet_L(D, s, n_terms=2000)
            mellin = completed_L(D, s)
            assert np.max(np.abs(series.value - mellin.value)) < 1e-6

    @pytest.mark.parametrize("factory", [delta_form, eta4_theta_eta_form])
    def test_series_error_covers_gap_near_critical_line(self, factory):
        # from the critical line to half a unit past the absolute-convergence
        # abscissa, the truncated sum's reported error must be at least its
        # measured gap to the split-Mellin value, at every cutoff
        X = factory(2100)
        misses = []
        for re in np.arange(0.0, 1.51, 0.25):
            for im in range(0, 13, 2):
                s = complex(X.k / 2 + re, im)
                reference = completed_L(X, s).value
                for n_terms in (250, 500, 1000, 1500, 2000):
                    series = completed_dirichlet_L(X, s, n_terms=n_terms)
                    gap = float(np.max(np.abs(series.value - reference)))
                    if series.error < gap:
                        misses.append((s, n_terms, series.error, gap))
        assert not misses

    def test_gamma_factor_identity(self):
        # the completed series value is (2 pi)^-s Gamma(s) L(s), with Gamma from mpmath
        D = delta_form(800)
        s = 8
        lhs = completed_dirichlet_L(D, s, n_terms=700).value[0]
        rhs = _mp_gamma_factor(s) * dirichlet_L(D, s, n_terms=700).value[0]
        assert abs(lhs - rhs) < 1e-15

    @pytest.mark.parametrize("name", ["delta", "sym2-log"])
    @pytest.mark.parametrize("s", [0, -1, -4])
    def test_gamma_pole_refused(self, name, s):
        # Gamma(s + j) has a pole when s + j is 0, -1, -2, ...; the value used to be NaN
        message = f"Gamma(s + j) has a pole at s = {complex(s)}, log power j = 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            completed_dirichlet_L(builtin_form(name, n_terms=300), s, 100)

    def test_large_argument_finite(self):
        # Gamma(200) overflows a double, (2 pi)^-200 Gamma(200) = 9.1e212 does not;
        # the product of the two used to be inf * 0 = NaN
        D = delta_form(200)
        s = 200
        got = completed_dirichlet_L(D, s, n_terms=200)
        taus = D.coefficient_table(200)[0, :, 0]
        with mpmath.workdps(30):
            total = mpmath.fsum(mpmath.mpf(float(taus[n].real)) * mpmath.mpf(n) ** -s for n in range(1, 201))
            reference = complex((2 * mpmath.pi) ** -s * mpmath.gamma(s) * total)
        assert np.all(np.isfinite(got.value)) and math.isfinite(got.error)
        assert abs(got.value[0] - reference) <= 1e-13 * abs(reference)
        assert abs(got.value[0] - reference) <= got.error

    @pytest.mark.parametrize("s", [20, 50, 150, 181])
    def test_large_real_argument_matches_truncated_sum(self, s):
        # the cutoff follows the peak of y^(s - 1) e^(-2 pi y) at (s - 1)/2 pi;
        # a cutoff fixed near y = 8.3 was off by 1.1e-7 at s = 20 and 36 % at s = 50.
        # s = 181 was refused while its weights were checked with the cutoff
        # itself as room for the panel weight
        D = delta_form(400)
        series = completed_dirichlet_L(D, s, n_terms=400).value[0]
        assert abs(completed_L(D, s).value[0] - series) <= 1e-13 * abs(series)

    @pytest.mark.parametrize("s, sigma", [(1, 11), (6 + 3j, 11), (11.5, 11), (20, 19), (-8 + 2j, 19)])
    def test_tail_bound_covers_the_integral_past_the_cutoff(self, s, sigma):
        # past the cutoff U the upper integral of Delta is
        # sum_n tau(n) (2 pi n)^-s Gamma(s, 2 pi n U); the bound, from the
        # coefficient moduli at U, must cover it and not by much more
        D = delta_form(400)
        upper = _node_set(D, 1.0, sigma)[4]
        (bound,) = _tail_bound(D, complex(s), 1.0, sigma)
        taus = D.coefficient_table(5)[0, :, 0]
        with mpmath.workdps(30):
            z = mpmath.mpc(s)
            tail = abs(
                mpmath.fsum(
                    int(taus[n].real) * (2 * mpmath.pi * n) ** -z * mpmath.gammainc(z, 2 * mpmath.pi * n * upper)
                    for n in range(1, 6)
                )
            )
        assert tail <= bound <= 2 * tail

    def test_cutoff_power_in_the_memo_key(self):
        # every s with 0 <= Re s <= k cuts off at the power k - 1; s = 20 at 19
        D = fresh(delta_form(300))
        for s in (1, 6 + 3j, 11.5, 20):
            completed_L(D, s)
        assert set(vars(D)["_mellin_nodes"]) == {(1.0, 11), (1.0, 19)}

    @pytest.mark.parametrize(
        "s, weight",
        [
            (1e300, "y^(s - 1)"),
            (182, "y^(s - 1)"),
            (200, "y^(s - 1)"),
            (-1e300, "y^(k - s - 1)"),
            (-190 + 1j, "y^(k - s - 1)"),
        ],
    )
    def test_overflowing_weight_refused_before_any_node_set(self, s, weight):
        # at s = 1e300 both methods used to return nan; at s = 182 the power
        # y^181 passes the largest double below delta's cutoff of 51.2
        D = fresh(delta_form(300))
        message = f"the Mellin weight {weight} overflows at s = {complex(s)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            completed_L(D, s)
        # the scan, split at 1.3, also reads the integral at k - s
        scan_message = rf"^the Mellin weight y\^\((s - 1|k - s - 1)\) overflows at s = {re.escape(str(complex(s)))}$"
        with pytest.raises(ValueError, match=scan_message):
            functional_equation_sign(D, [6, s])
        assert "_mellin_nodes" not in vars(D)

    @pytest.mark.parametrize(
        "s, message",
        [
            (1e300, "the Gamma weight (2 pi)^-s Gamma(s + 0) overflows"),
            (1e-300, "the Gamma-weighted sum overflows"),
            (-170 + 1j, "the Dirichlet weight (n + mu)^-(s + j) overflows"),
        ],
    )
    def test_truncated_sum_overflow_refused(self, s, message):
        # 1e300 used to give nan, 1e-300 -inf with an inf error
        message = f"{message} at s = {complex(s)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            completed_dirichlet_L(delta_form(300), s, 200)

    def test_split_point_independence(self):
        D = delta_form(400)
        a = completed_L(D, 6 + 3j, split=0.7)
        b = completed_L(D, 6 + 3j, split=1.3)
        assert np.max(np.abs(a.value - b.value)) < 1e-7

    def test_schwarz_reflection(self):
        D = delta_form(400)
        plus = completed_L(D, 6 + 3j)
        minus = completed_L(D, 6 - 3j)
        assert abs(abs(plus.value[0]) - abs(minus.value[0])) < 1e-8

    def test_eta4_at_small_argument(self):
        Y = eta4_theta_eta_form(200)
        value = completed_L(Y, 1)
        assert np.all(np.isfinite(value.value))
        assert value.error < 1e-6

    def test_continuity_along_segment(self):
        D = delta_form(400)
        ds = 0.01
        values = [completed_L(D, 6 + k * ds).value[0] for k in range(4)]
        derivative = abs(values[1] - values[0]) / ds
        for a, b in zip(values[2:], values[1:]):
            assert abs(a - b) <= 10 * ds * max(derivative, 1e-6)

    def test_non_cusp_form_rejected(self):
        with pytest.raises(ValueError, match=_NOT_CUSP):
            completed_L(_non_cusp_form(), 2)

    @pytest.mark.parametrize("split", [0, 0.0, -1.0, math.nan, math.inf])
    def test_split_outside_range_refused(self, split):
        # 0 used to fail inside numpy's geomspace, -1 and nan as a NaN point
        with pytest.raises(ValueError, match=f"split must be positive and finite, got {split!r}"):
            completed_L(delta_form(300), 8, split=split)

    @pytest.mark.parametrize("s", [math.nan, complex(8, math.inf), complex(math.nan, 1)])
    def test_non_finite_argument_refused(self, s):
        with pytest.raises(ValueError, match="is not finite"):
            completed_L(delta_form(300), s)

    def test_form_without_coefficients_refused(self):
        # the zero form counts as a cusp form, but has no decay rate to integrate with
        X = VVAF(12, builtin("trivial"), [FracQSeries.zero(order=100)])
        assert X.cusp_form
        with pytest.raises(ValueError, match="X has no nonzero coefficient"):
            completed_L(X, 8)

    def test_decay_rate_from_leading_exponents(self):
        for name in BUILTIN_FORMS:
            X = builtin_form(name)
            lowest = min(min(comp.occupied_exponents()) for comp in X.basis_components)
            assert _decay_rate(X) == 2.0 * math.pi * float(lowest)

    def test_node_values_shared_across_calls(self):
        # the sign scan fills the form's node memo at split 1.3 and its
        # mirror; later calls reading it, which add split 1, must match a
        # form with no memo
        D = delta_form(400)
        scanned = fresh(D)
        functional_equation_sign(scanned, [5, 7])
        for s, split in ((7, 1.3), (5, 1.3), (6 + 3j, 1.3), (8, 1.0)):
            a = completed_L(fresh(D), s, split=split)
            b = completed_L(scanned, s, split=split)
            assert np.array_equal(a.value, b.value)
            assert a.error == b.error


class TestFunctionalEquation:
    def test_delta_center_and_off_center(self):
        D = delta_form(400)
        for row in functional_equation_sign(D, [6, 7, 5])["rows"]:
            assert row["residual_plus"] < 1e-6
            if row["s"] != 6:
                assert row["residual_minus"] > 1e-5

    def test_eta4_sign_discrimination(self):
        Y = eta4_theta_eta_form(200)
        (row,) = functional_equation_sign(Y, [1 + 2j])["rows"]
        assert row["residual_plus"] < 1e-6
        assert row["residual_minus"] > 0.1

    @pytest.mark.parametrize(
        "factory, grid",
        [
            (delta_form, [4 + 0.5 * k for k in range(10)] + [6 + 3j]),
            (eta4_theta_eta_form, [complex(0.5 + 0.3 * k, 0.4) for k in range(10)]),
        ],
        ids=["delta", "eta4"],
    )
    def test_rows_match_completed_L_reference_bit_for_bit(self, factory, grid):
        X = factory(400 if factory is delta_form else 200)
        rows = functional_equation_sign(fresh(X), grid)["rows"]
        assert [row["s"] for row in rows] == [complex(s) for s in grid]
        reference = fresh(X)
        for row, s in zip(rows, grid):
            plus, minus = _fe_residuals(reference, s)
            # float.hex tells -0.0 from 0.0, which == does not
            assert (row["residual_plus"].hex(), row["residual_minus"].hex()) == (plus.hex(), minus.hex())

    @pytest.mark.parametrize("factory", [delta_form, eta4_theta_eta_form])
    def test_one_node_set_per_lower_limit(self, factory):
        # the rule and its embedded rule read the same nodes, so each lower
        # limit evaluates the form once; every argument lies in the strip
        # 0 < Re s < k, where the cutoff power is k - 1
        X = fresh(factory(200))
        batches = []
        evaluate_many = X.evaluate_many
        X.evaluate_many = lambda taus: batches.append(len(taus)) or evaluate_many(taus)
        functional_equation_sign(X, [1 + 2j, 1.5])
        for s in (1 + 2j, 1.5):
            completed_L(X, s)
            completed_L(X, s, split=_FE_SPLIT)
        lowers = {1.0, 1.0 / (X.h * X.h), _FE_SPLIT, 1.0 / (X.h * X.h * _FE_SPLIT)}
        assert set(vars(X)["_mellin_nodes"]) == {(lower, X.k - 1) for lower in lowers}
        assert batches == [32 * 32] * len(lowers)

    def test_non_cusp_form_rejected(self):
        with pytest.raises(ValueError, match=_NOT_CUSP):
            functional_equation_sign(_non_cusp_form(), [2])

    @pytest.mark.parametrize("grid", [[], (), iter([])])
    def test_empty_grid_refused(self, grid):
        # zero rows used to select sign 0, as if the scan were ambiguous
        with pytest.raises(ValueError, match="s_grid is empty"):
            functional_equation_sign(delta_form(300), grid)

    def test_non_finite_grid_point_refused(self):
        with pytest.raises(ValueError, match="is not finite"):
            functional_equation_sign(delta_form(300), [6, math.nan])

    def test_sign_scan_selects_plus(self):
        D = delta_form(400)
        grid = [4 + 0.5 * k for k in range(10)]
        result = functional_equation_sign(D, grid)
        assert result["selected_sign"] == 1
        Y = eta4_theta_eta_form(200)
        grid = [complex(0.5 + 0.3 * k, 0.4) for k in range(10)]
        result = functional_equation_sign(Y, grid)
        assert result["selected_sign"] == 1


class TestLogarithmicVariant:
    def test_gamma_shifted_terms_match_quadrature(self):
        # a synthetic logarithmic cusp expansion: the completed series with
        # alternating Gamma(s+j) factors must match direct integration of
        # the evaluated stack against y^(s-1)
        rep = builtin("sym2")
        base0 = FracQSeries(1, 1, 1, [1.0, 0.25], order=60)
        base1 = FracQSeries(1, 1, 2, [0.5], order=60)
        comps = [
            LogQExpansion({0: base0, 1: base1}),
            LogQExpansion({0: base1}),
            LogQExpansion({0: base0}),
        ]
        X = VVAF(4, rep, comps)
        assert X.is_logarithmic and X.cusp_form
        s = 5.0
        series_value = completed_dirichlet_L(X, s, n_terms=50).value
        nodes, weights = np.polynomial.legendre.leggauss(64)
        total = np.zeros(3, dtype=complex)
        # integrand is O(y^(s-1) polylog) near zero, so truncating the lower
        # limit at 2e-3 changes nothing at this tolerance
        for left, right in zip(np.geomspace(2e-3, 12.0, 41)[:-1], np.geomspace(2e-3, 12.0, 41)[1:]):
            mid, half = 0.5 * (left + right), 0.5 * (right - left)
            ys = mid + half * nodes
            vals = X.evaluate_many(1j * ys)
            total += half * np.sum(vals * (ys ** (s - 1.0))[:, None] * weights[:, None], axis=0)
        assert np.max(np.abs(series_value - total)) < 1e-8
