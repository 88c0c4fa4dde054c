import math
import re
from fractions import Fraction

import numpy as np
import pytest

from vvaf.forms import (
    BUILTIN_FORMS,
    VVAF,
    builtin_form,
    check_transformation,
    delta_form,
    eta4_theta_eta_form,
    sym2_log_form,
    theta_eta_form,
)
from vvaf.moebius import GroupElement, gen_s, gen_t
from vvaf.qseries import FracQSeries, LogQExpansion, eta_power_series, eta_series, theta_series
from vvaf.representation import builtin

TAUS = [0.1 + 1j * y for y in np.linspace(0.8, 2.5, 10)]


class TestAssembly:
    def test_component_count_enforced(self):
        rep = builtin("theta-eta")
        with pytest.raises(ValueError):
            VVAF(0, rep, [eta_series(10)])

    def test_weight_must_be_even(self):
        rep = builtin("trivial")
        with pytest.raises(ValueError):
            VVAF(3, rep, [eta_series(10)])

    def test_flags_recomputed_from_exponents(self):
        # basis leading exponents 1/4, 1/8, 5/8 are all positive
        X = eta4_theta_eta_form(40)
        assert X.cusp_form and X.holomorphic_at_infinity
        leads = [min(c.occupied_exponents()) for c in X.basis_components]
        assert leads == [Fraction(1, 4), Fraction(1, 8), Fraction(5, 8)]
        # plain components lead with 1/4, 1/8, 1/8
        plain = [min(X.component_expansion(i).occupied_exponents()) for i in range(3)]
        assert plain == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
        # the weight-0 quotient has a pole at the cusp, so neither flag holds
        X0 = theta_eta_form(40)
        assert not X0.cusp_form and not X0.holomorphic_at_infinity


def _flags_by_definition(X):
    """Flags and default offsets from every occupied exponent, as Fractions."""
    exponents = [comp.occupied_exponents() for comp in X.basis_components]
    every = [e for exps in exponents for e in exps]
    offsets = [min(exps) - math.floor(min(exps)) if exps else Fraction(0) for exps in exponents]
    return all(e >= 0 for e in every), all(e > 0 for e in every), offsets


def _hand_built_forms():
    trivial = builtin("trivial")
    # q^(-23/24) + 3 q^(1/24) - q^(25/24): a pole at the cusp
    negative = FracQSeries(1, 24, -23, np.r_[1.0, np.zeros(23), 3.0, np.zeros(23), -1.0], order=3)
    # a truncated zero between two nonzero components
    zero = FracQSeries.zero(1, order=Fraction(5))
    # the log term leads at -1/2, below the log-free lead 1/2
    log_below = LogQExpansion(
        {0: FracQSeries(1, 2, 1, [1.0, 0.0, 0.5], order=6), 1: FracQSeries(1, 2, -1, [0.25, 0.0, 2.0], order=6)}
    )
    # the log term leads at 0, below the log-free lead 1
    log_at_zero = LogQExpansion({0: FracQSeries(1, 1, 1, [1.0, 2.0], order=6), 1: FracQSeries(1, 1, 0, [0.5], order=6)})
    return {
        "negative-lead": VVAF(0, trivial, [negative]),
        "truncated-zero-component": VVAF(0, builtin("theta-eta"), [eta_series(10), zero, theta_series(2, 10)]),
        "all-zero": VVAF(0, trivial, [zero]),
        "log-lead-below": VVAF(0, trivial, [log_below]),
        "log-lead-at-zero": VVAF(0, trivial, [log_at_zero]),
    }


class TestFlagDefinition:
    """Flags and default offsets read from leading exponents agree with the definition."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_FORMS))
    @pytest.mark.parametrize("n_terms", [40, 300])
    def test_builtins(self, name, n_terms):
        self._check(builtin_form(name, n_terms))

    @pytest.mark.parametrize(
        "name", ["negative-lead", "truncated-zero-component", "all-zero", "log-lead-below", "log-lead-at-zero"]
    )
    def test_hand_built(self, name):
        self._check(_hand_built_forms()[name])

    def test_hand_built_flag_values(self):
        forms = _hand_built_forms()
        flags = {name: (X.holomorphic_at_infinity, X.cusp_form) for name, X in forms.items()}
        assert flags == {
            "negative-lead": (False, False),
            "truncated-zero-component": (True, True),
            "all-zero": (True, True),
            "log-lead-below": (False, False),
            "log-lead-at-zero": (True, False),
        }
        assert forms["negative-lead"].mu_offsets == [Fraction(1, 24)]
        assert forms["log-lead-below"].mu_offsets == [Fraction(1, 2)]

    @staticmethod
    def _check(X):
        holomorphic, cusp, offsets = _flags_by_definition(X)
        assert X.holomorphic_at_infinity == holomorphic
        assert X.cusp_form == cusp
        default = VVAF(X.k, X.rep, X.basis_components, diagonalizer=X.P)
        assert default.mu_offsets == offsets

    @pytest.mark.parametrize("offset", [1 / 24, np.float64(0.0), 0j], ids=["float", "numpy-float", "complex"])
    def test_float_offset_refused_by_name(self, offset):
        with pytest.raises(ValueError, match=re.escape(f"mu offsets must be ints or Fractions, got {offset!r}")):
            VVAF(0, builtin("trivial"), [eta_series(10)], mu_offsets=[offset])

    def test_numpy_integer_offset_accepted(self):
        X = VVAF(12, builtin("trivial"), [eta_power_series(24, 10)], mu_offsets=[np.int64(0)])
        assert X.mu_offsets == [Fraction(0)]

    def test_lead_off_its_offset_refused(self):
        with pytest.raises(ValueError, match="component exponent 1/24 is not an integer shift of its offset 0"):
            VVAF(0, builtin("trivial"), [eta_series(10)], mu_offsets=[0])

    def test_interior_index_off_the_offset_class_refused(self):
        # exponents 0, 1 and 3/2: the lead sits on the offset, 3/2 does not
        series = FracQSeries(1, 2, 0, [1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="component exponent 3/2 is not an integer shift of its offset 0"):
            VVAF(0, builtin("trivial"), [series], mu_offsets=[0])
        # the default offset follows the lead and still misses 1/2
        with pytest.raises(ValueError, match="component exponent 1/2 is not an integer shift of its offset 0"):
            VVAF(0, builtin("trivial"), [FracQSeries(1, 2, 0, [1.0, 1.0])])

    def test_log_term_off_the_offset_class_refused(self):
        comp = LogQExpansion({0: FracQSeries(1, 1, 1, [1.0]), 1: FracQSeries(1, 3, 1, [1.0])})
        with pytest.raises(ValueError, match="component exponent 1/3 is not an integer shift of its offset 0"):
            VVAF(0, builtin("trivial"), [comp], mu_offsets=[0])


def _stored_series(X):
    return [series for comp in X.basis_components for series in comp.terms.values() if not series.is_zero()]


class TestStoredGrid:
    """Every stored series of a built-in form is trimmed and knows its stride."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_FORMS))
    @pytest.mark.parametrize("n_terms", [60, 100])
    def test_first_and_last_slots_occupied(self, name, n_terms):
        # a dead trailing slot would still be exponentiated by evaluate_many
        for series in _stored_series(builtin_form(name, n_terms)):
            assert series.coeffs[0] != 0 and series.coeffs[-1] != 0

    @pytest.mark.parametrize("name", sorted(BUILTIN_FORMS))
    @pytest.mark.parametrize("n_terms", [60, 100])
    def test_stride_is_gcd_of_occupied_indices(self, name, n_terms):
        for series in _stored_series(builtin_form(name, n_terms)):
            assert series.stride == np.gcd.reduce(np.flatnonzero(series.coeffs))


class TestEvaluation:
    def test_component_views_match_direct_series(self):
        # plain components of the quotient vector are theta_j / eta
        from vvaf.qseries import theta_series

        X = theta_eta_form(40)
        eta = eta_series(42)
        tau = 0.3 + 1.2j
        values = X.evaluate_many([tau])[0]
        for i, variant in enumerate((2, 3, 4)):
            direct = theta_series(variant, 42).evaluate_many([tau])[0] / eta.evaluate_many([tau])[0]
            assert abs(values[i] - direct) < 1e-10
            view = X.component_expansion(i)
            assert abs(view.evaluate_many([tau])[0] - direct) < 1e-10

    def test_zero_expansion_evaluates_to_zero(self):
        rep = builtin("trivial")
        X = VVAF(0, rep, [FracQSeries.zero()])
        assert X.evaluate_many([1j])[0, 0] == 0

    def test_log_term_evaluation(self):
        # (log q) * q at tau = i equals (2 pi i * i) * exp(-2 pi)
        from vvaf.qseries import LogQExpansion

        term = LogQExpansion({1: FracQSeries(1, 1, 1, [1.0])})
        value = term.evaluate_many([1j])[0]
        expected = (2j * math.pi * 1j) * math.exp(-2 * math.pi)
        assert abs(value - expected) < 1e-15

    def test_translation_consistency_all_builtins(self):
        for name in ("theta-eta", "eta4-theta-eta", "delta", "sym2-log"):
            X = builtin_form(name, 60)
            mat_t = X.rep.mat_t
            taus = np.linspace(0.02, 0.9, 20) + 1.1j
            lhs, tail1 = X.evaluate_many(taus + X.h, with_tail=True)
            rhs, tail2 = X.evaluate_many(taus, with_tail=True)
            gaps = np.linalg.norm(lhs - rhs @ mat_t.T, axis=-1)
            assert np.all(gaps <= np.maximum(1e-10, 10 * (tail1 + tail2)))


def _term_scale(X, tau):
    """Sum of the moduli of the terms behind X(tau), times the largest |P| entry.

    Rounding in a sum scales with this, not with the sum, which for the
    weight-12 form cancels to far less near the real line.
    """
    total = 0.0
    for comp in X.basis_components:
        log_q = abs(2 * math.pi * tau / comp.h)
        for j, series in comp.terms.items():
            exponents = (series.start + np.arange(len(series))) / series.D
            total += log_q**j * np.sum(np.abs(series.coeffs) * np.exp(-2 * math.pi * tau.imag * exponents / series.h))
    return total * float(np.max(np.abs(X.P)))


def _per_point_vector(X, tau):
    """X(tau) and its tail bound, summed point by point as the reference for the kernel.

    Each series term sum has a Python-complex phase and a 1-d np.sum.
    """
    values, tails = [], []
    for comp in X.basis_components:
        log_q = 2j * math.pi * tau / comp.h
        q_abs = math.exp(-2 * math.pi * tau.imag / comp.h)
        value, tail = 0j, 0.0
        for j, series in comp.terms.items():
            if not series.is_zero():
                w = 2j * math.pi * tau / (series.h * series.D)
                exponents = series.start + np.arange(len(series))
                value += log_q**j * complex(np.sum(series.coeffs * np.exp(w * exponents)))
            if series.order is not None:
                cap = float(np.max(np.abs(series.coeffs))) if len(series) else 1.0
                tail += abs(log_q) ** j * cap * q_abs ** float(series.order) / (1.0 - q_abs ** (1.0 / series.D))
        values.append(value)
        tails.append(tail)
    return X.P @ np.array(values), float(np.max(np.abs(X.P) @ np.array(tails)))


class TestEvaluateMany:
    def test_rows_match_evaluate(self):
        rng = np.random.default_rng(211)
        taus = rng.uniform(-1.0, 1.0, 30) + 1j * np.exp(rng.uniform(math.log(0.05), math.log(10.0), 30))
        for name in BUILTIN_FORMS:
            X = builtin_form(name)
            rows = X.evaluate_many(taus)
            tail_rows, tails = X.evaluate_many(taus, with_tail=True)
            assert rows.shape == tail_rows.shape == (len(taus), X.m)
            assert tails.shape == (len(taus),)
            for tau, row, tail_row, tail in zip(taus, rows, tail_rows, tails):
                single, single_tail = _per_point_vector(X, complex(tau))
                scale = max(float(np.max(np.abs(single))), _term_scale(X, complex(tau)))
                assert np.max(np.abs(row - single)) <= 1e-13 * scale
                assert np.max(np.abs(tail_row - single)) <= 1e-13 * scale
                assert abs(tail - single_tail) <= 1e-12 * single_tail

    def test_refuses_near_real_line(self):
        X = delta_form(200)
        with pytest.raises(ValueError):
            X.evaluate_many([1j, 0.3 + 1e-4j])


class TestTransformation:
    def test_theta_eta_under_t(self):
        X = theta_eta_form(60)
        assert check_transformation(X, gen_t(), [2j]) < 1e-12

    def test_theta_eta_under_s(self):
        X = theta_eta_form(60)
        assert check_transformation(X, gen_s(), [2j]) < 1e-8

    def test_twisted_form_under_s_off_axis(self):
        Y = eta4_theta_eta_form(60)
        assert check_transformation(Y, gen_s(), [0.5 + 2j]) < 1e-8

    def test_acceptance_gamma_set(self):
        X = theta_eta_form(60)
        for gamma in (gen_s(), gen_t(), GroupElement(2, 1, 1, 1)):
            assert check_transformation(X, gamma, TAUS) < 1e-8

    def test_delta_weight_12(self):
        D = delta_form(80)
        for gamma in (gen_s(), GroupElement(2, 1, 1, 1)):
            assert check_transformation(D, gamma, TAUS) < 1e-10

    def test_empty_sample_set_refused(self):
        with pytest.raises(ValueError, match="no sample points"):
            check_transformation(delta_form(80), gen_s(), [])

    def test_refuses_sample_over_tail_bound(self):
        # the truncated weight-12 series leaves a large tail low in the strip;
        # the first sample over the bound is named
        taus = [0.3 + 1.5j, 0.2 + 0.1j, 0.4 + 0.05j]
        with pytest.raises(ValueError, match=r"exceeds 1\.00e-10 at tau=\(0\.2\+0\.1j\)"):
            check_transformation(delta_form(20), gen_t(), taus)

    def test_tail_guard_raises(self):
        X = theta_eta_form(10)
        with pytest.raises(ValueError, match=r"truncation tail 2\.88e\+01 exceeds 1\.00e-10"):
            check_transformation(X, gen_s(), [0.49 + 0.08j])


class TestCoefficients:
    def test_fourier_vectors_shape_and_values(self):
        D = delta_form(30)
        vecs = D.fourier_vectors(5)
        assert vecs.shape == (6, 1)
        assert vecs[1, 0] == pytest.approx(1.0)
        assert vecs[2, 0] == pytest.approx(-24.0)

    def test_leading_offsets_match_eigenvalue_exponents(self):
        from vvaf.representation import mu

        X = theta_eta_form(40)
        eigs = np.linalg.eigvals(X.rep.mat_t)
        exponents = sorted(mu(lam) for lam in eigs)
        offsets = sorted(off % 1 for off in X.mu_offsets)
        assert exponents == [Fraction(1, 12), Fraction(11, 24), Fraction(23, 24)]
        assert offsets == exponents

    def test_component_leading_coefficients(self):
        X = theta_eta_form(40)
        comp0 = X.component_expansion(0).terms[0]
        assert comp0.leading_exponent == Fraction(1, 12)
        assert abs(comp0.coefficient(Fraction(1, 12)) - 2.0) < 1e-13


def _per_slot_table(X, nmax):
    """c[j, n, i] by one coefficients_on_offset read per existing slot."""
    J = max(j for comp in X.basis_components for j in comp.terms)
    table = np.zeros((J + 1, nmax + 1, X.m), dtype=complex)
    for i, (comp, off) in enumerate(zip(X.basis_components, X.mu_offsets)):
        for j, series in comp.terms.items():
            table[j, :, i] = series.coefficients_on_offset(off, nmax)
    return table


class TestCoefficientTable:
    @pytest.mark.parametrize("name", sorted(BUILTIN_FORMS))
    def test_rows_match_per_slot_reads(self, name):
        X = builtin_form(name, 60)
        table = X.coefficient_table(40)
        assert table.shape == (3 if name == "sym2-log" else 1, 41, X.m)
        assert np.array_equal(table, _per_slot_table(X, 40))

    def test_sym2_log_powers_and_absent_slots(self):
        S = sym2_log_form(60)
        table = S.coefficient_table(40)
        for i, comp in enumerate(S.basis_components):
            for j in range(3):
                assert np.any(table[j, :, i]) == (j in comp.terms)
        assert sorted(j for comp in S.basis_components for j in comp.terms) == [0, 0, 0, 1, 1, 2]

    @pytest.mark.parametrize("name", sorted(BUILTIN_FORMS))
    def test_basis_coefficients_is_log_free_slot(self, name):
        X = builtin_form(name, 60)
        v = X.basis_coefficients(40)
        assert v.flags.c_contiguous
        assert np.array_equal(v, X.coefficient_table(40)[0])
        assert np.array_equal(X.fourier_vectors(40), v @ X.P.T)

    def test_refuses_negative_nmax(self):
        with pytest.raises(ValueError, match="nmax must be at least 0, got -4"):
            delta_form(30).coefficient_table(-4)


class TestCoefficientExponent:
    def test_cusp_form(self):
        D = delta_form(30)
        assert D.cusp_form
        assert D.coefficient_exponent(0.0) == 6.0
        assert D.coefficient_exponent(0.25) == 6.25

    def test_non_cusp_form(self):
        X = theta_eta_form(30)
        assert not X.cusp_form
        assert X.coefficient_exponent(0.0) == 0.0
        assert X.coefficient_exponent(0.25) == 0.5

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        # every growth target reads this exponent; NaN used to turn each verdict into FAIL
        for X in (delta_form(30), theta_eta_form(30)):
            with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha!r}"):
                X.coefficient_exponent(alpha)


class TestSym2Fixture:
    def test_is_logarithmic(self):
        S = sym2_log_form(30)
        assert S.is_logarithmic
        assert max(comp.max_log_power() for comp in S.basis_components) == 2

    def test_translation_consistency(self):
        S = sym2_log_form(30)
        rho_t = S.rep.mat_t
        taus = np.linspace(0.0, 0.95, 20) + 1.2j
        gaps = np.linalg.norm(S.evaluate_many(taus + 1) - S.evaluate_many(taus) @ rho_t.T, axis=-1)
        assert np.max(gaps) < 1e-12

    def test_flags(self):
        S = sym2_log_form(30)
        assert S.cusp_form  # all seed exponents are at least 1
