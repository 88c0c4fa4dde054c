import math

import numpy as np
import pytest

from vvaf.forms import VVAF, builtin_form, delta_form, eta4_theta_eta_form, sym2_log_form
from vvaf.growth import (
    coefficient_growth_report,
    coefficient_norms,
    mean_square,
    supnorm_scan,
)
from vvaf.qseries import FracQSeries, LogQExpansion
from vvaf.representation import builtin


def zero_form():
    rep = builtin("trivial")
    return VVAF(12, rep, [FracQSeries.zero(order=100)])


class TestCoefficientGrowth:
    def test_eta4_form_cusp_target(self):
        X = eta4_theta_eta_form(2100)
        report = coefficient_growth_report(X, 2000, alpha=0.0)
        assert report.verdict == "PASS"
        assert report.target == 1.0
        assert report.beta_emp <= 1.1

    def test_delta_classical_bound(self):
        D = delta_form(2100)
        report = coefficient_growth_report(D, 2000, alpha=0.0)
        assert report.verdict == "PASS"
        assert report.beta_emp <= 6.1

    def test_zero_form_degenerate(self):
        report = coefficient_growth_report(zero_form(), 80, alpha=0.0)
        assert report.verdict == "DEGENERATE"

    def test_scale_invariance(self):
        X = eta4_theta_eta_form(600)
        report1 = coefficient_growth_report(X, 500, alpha=0.0)
        scaled = VVAF(
            X.k,
            X.rep,
            [comp.scale(137.0) for comp in X.basis_components],
            diagonalizer=X.P,
            mu_offsets=X.mu_offsets,
        )
        report2 = coefficient_growth_report(scaled, 500, alpha=0.0)
        assert report1.verdict == report2.verdict
        assert report1.beta_emp == pytest.approx(report2.beta_emp, abs=1e-9)

    def test_determinism(self):
        X = delta_form(600)
        r1 = coefficient_growth_report(X, 500, alpha=0.0)
        r2 = coefficient_growth_report(X, 500, alpha=0.0)
        assert r1 == r2

    def test_cusp_target_below_holomorphic_target(self):
        for name in ("eta4-theta-eta", "delta"):
            X = builtin_form(name, 600)
            cusp_report = coefficient_growth_report(X, 500, alpha=0.0)
            assert cusp_report.target_kind == "cusp"
            assert cusp_report.target <= X.k + 0.0  # k/2 <= k for nonnegative k
            assert cusp_report.verdict == "PASS"

    def test_log_alpha_variant(self):
        S = sym2_log_form(80)
        base = coefficient_growth_report(S, 60, alpha=0.0)
        shifted = coefficient_growth_report(S, 60, alpha=0.0, log_extra=True)
        assert shifted.alpha_used == base.alpha_used + S.m
        assert shifted.target > base.target

    @pytest.mark.parametrize("nmax", [0, 1])
    def test_fewer_than_two_points_degenerate(self, nmax):
        # N = 1 leaves the single point n = 1, which no line fit can use
        report = coefficient_growth_report(delta_form(30), nmax, alpha=0.0)
        assert report.verdict == "DEGENERATE"
        assert report.target_kind == "degenerate"
        assert report.target == 6.0

    def test_refuses_negative_nmax(self):
        with pytest.raises(ValueError, match="nmax must be at least 0, got -4"):
            coefficient_growth_report(delta_form(30), -4, alpha=0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_refused(alpha):
    # NaN used to read as a FAIL verdict, as if the form broke its bound
    D = delta_form(300)
    with pytest.raises(ValueError, match="alpha must be finite"):
        coefficient_growth_report(D, 200, alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        mean_square(D, 200, alpha=alpha)


class TestCoefficientNorms:
    def test_plain_form_is_fourier_vector_max(self):
        X = eta4_theta_eta_form(100)
        assert np.array_equal(coefficient_norms(X, 80), np.max(np.abs(X.fourier_vectors(80)), axis=1))

    def test_log_slots_count(self):
        # the fixture with its log-power series scaled up, so they dominate
        S = sym2_log_form(80)
        comps = [
            LogQExpansion({j: series * (10.0 if j else 1.0) for j, series in comp.terms.items()})
            for comp in S.basis_components
        ]
        X = VVAF(S.k, S.rep, comps, diagonalizer=S.P, mu_offsets=S.mu_offsets)
        plain = np.max(np.abs(X.fourier_vectors(60)), axis=1)
        logs = np.max(np.abs(X.coefficient_table(60)[1:]), axis=(0, 2))
        norms = coefficient_norms(X, 60)
        assert np.array_equal(norms, np.maximum(plain, logs))
        assert np.any(norms > plain)


class TestSupnorm:
    def test_zero_form(self):
        scan = supnorm_scan(zero_form(), exponent=6.0)
        assert scan["max_weighted_norm"] == 0.0
        assert scan["verdict"] == "PASS"

    def test_eta4_weighted_norm_bounded(self):
        X = eta4_theta_eta_form(150)
        scan = supnorm_scan(X, exponent=1.0)
        assert scan["verdict"] == "PASS"

    def test_delta_weighted_norm_bounded(self):
        D = delta_form(150)
        scan = supnorm_scan(D, exponent=6.0)
        assert scan["verdict"] == "PASS"

    @pytest.mark.parametrize("exponent", [math.nan, math.inf])
    def test_non_finite_exponent_refused(self, exponent):
        with pytest.raises(ValueError, match=f"exponent must be finite, got {exponent!r}"):
            supnorm_scan(delta_form(150), exponent=exponent)


class TestMeanSquare:
    def test_zero_form(self):
        result = mean_square(zero_form(), 60)
        assert result["verdict"] == "DEGENERATE"
        assert np.all(result["partial_sums"] == 0)

    def test_eta4_form(self):
        X = eta4_theta_eta_form(2100)
        result = mean_square(X, 2000, alpha=0.0)
        assert result["verdict"] == "PASS"
        assert result["slope"] <= 2.3

    def test_delta(self):
        D = delta_form(2100)
        result = mean_square(D, 2000, alpha=0.0)
        assert result["verdict"] == "PASS"
        assert abs(result["slope"] - 12.0) <= 0.3

    @pytest.mark.parametrize("nmax", [0, 1, 2])
    def test_fewer_than_two_points_degenerate(self, nmax):
        # the fit starts at m = 2, so N = 2 leaves one point and N < 2 none
        result = mean_square(delta_form(30), nmax, alpha=0.0)
        assert result["verdict"] == "DEGENERATE"
        assert math.isnan(result["slope"])
        assert result["target"] == 12.0
        assert len(result["partial_sums"]) == nmax + 1

    def test_refuses_negative_nmax(self):
        with pytest.raises(ValueError, match="nmax must be at least 0, got -4"):
            mean_square(delta_form(30), -4)
