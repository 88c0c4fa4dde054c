import math

import numpy as np
import pytest

from vvaf.forms import VVAF, builtin_form, delta_form, eta4_theta_eta_form, sym2_log_form
from vvaf.growth import (
    coefficient_growth_report,
    coefficient_norms,
    converse_growth_check,
    mean_square,
    supnorm_scan,
    vanishing_check,
)
from vvaf.moebius import random_element
from vvaf.qseries import FracQSeries, LogQExpansion
from vvaf.representation import Representation, builtin


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
        scan = supnorm_scan(zero_form(), exponent=6.0, nx=8, ny=8)
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


class TestConverse:
    def test_delta_constant_sides(self):
        D = delta_form(200)
        rng = np.random.default_rng(83)
        gammas = [random_element(rng, entry_bound=500) for _ in range(60)]
        taus = [0.1 + 1.3j, 0.4 + 0.9j]
        strip = [complex(x, y) for x in (0.1, 0.5) for y in (0.2, 1.0, 3.0)]
        result = converse_growth_check(
            D, D.rep, 12, zeta=6.0, gammas=gammas, strip_samples=strip, fe_check_taus=taus
        )
        assert result["exponent"] == 0.0
        assert result["blocks"][0]["passed"]
        assert result["any_block_passes"]

    def test_eta4_unitary_image(self):
        Y = eta4_theta_eta_form(200)
        rng = np.random.default_rng(89)
        gammas = [random_element(rng, entry_bound=500) for _ in range(60)]
        result = converse_growth_check(Y, Y.rep, 2, zeta=1.0, gammas=gammas)
        # unitary image: constant sqrt(3) against a constant bound
        C = result["blocks"][0]["fitted_constant"]
        assert C == pytest.approx(np.sqrt(3.0), rel=1e-9)
        assert result["blocks"][0]["passed"]

    def test_block_diagonal_reducible(self):
        # one trivial block and one unitary block; both have constant growth,
        # so at least one block must pass
        Y = eta4_theta_eta_form(200)
        m = 4
        mat_s = np.eye(m, dtype=complex)
        mat_t = np.eye(m, dtype=complex)
        mat_s[1:, 1:] = Y.rep.mat_s
        mat_t[1:, 1:] = Y.rep.mat_t
        rep = Representation(mat_s, mat_t)
        rng = np.random.default_rng(97)
        gammas = [random_element(rng, entry_bound=300) for _ in range(40)]
        result = converse_growth_check(
            None, rep, 2, zeta=1.0, gammas=gammas, blocks=[range(0, 1), range(1, 4)]
        )
        assert result["any_block_passes"]

    def test_fe_precheck_failure(self):
        # the quotient vector has weight 0; fed in as weight 2 the functional
        # equation fails and the checker refuses to continue
        X = builtin_form("theta-eta", 60)
        bad = VVAF(
            2,
            Representation(X.rep.mat_s, X.rep.mat_t),
            X.basis_components,
            diagonalizer=X.P,
            mu_offsets=X.mu_offsets,
        )
        rng = np.random.default_rng(101)
        gammas = [random_element(rng, entry_bound=50) for _ in range(5)]
        with pytest.raises(ValueError):
            converse_growth_check(
                bad, bad.rep, 2, zeta=1.0, gammas=gammas, fe_check_taus=[0.1 + 1.2j]
            )


class TestVanishing:
    def test_gate_inactive(self):
        result = vanishing_check(0, 0.0)
        assert not result["active"]
        result = vanishing_check(-2, 1.0)
        assert not result["active"]  # k + 2 alpha = 0 is not negative

    def test_zero_candidate_consistent(self):
        result = vanishing_check(-2, 0.0, candidate=zero_form())
        assert result["active"] and result["consistent"]

    def test_nonzero_constant_flagged(self):
        rep = builtin("trivial")
        constant = VVAF(-2, rep, [FracQSeries(1, 1, 0, [1.0])])
        result = vanishing_check(-2, 0.0, candidate=constant)
        assert result["active"] and not result["consistent"]


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
