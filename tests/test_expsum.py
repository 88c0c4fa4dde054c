import numpy as np
import pytest

from vvaf.expsum import bound_scan, exp_sum
from vvaf.forms import VVAF, delta_form, eta4_theta_eta_form, sym2_log_form
from vvaf.qseries import FracQSeries
from vvaf.representation import builtin

THETAS = [0.0, 1.0 / 3.0, 0.7071067811865475, 0.7]
CUTOFFS = [100, 250, 500, 1000, 1500, 2000]


def zero_form():
    return VVAF(12, builtin("trivial"), [FracQSeries.zero(order=3000)])


class TestExpSum:
    def test_theta_zero_is_partial_sum(self):
        D = delta_form(300)
        value = exp_sum(D, 0.0, 200)
        direct = np.sum(D.fourier_vectors(199), axis=0)
        assert np.allclose(value, direct)

    def test_alternating_sum_against_coefficients(self):
        D = delta_form(50)
        tau = D.basis_coefficients(9)[:, 0]
        value = exp_sum(D, 0.5, 10)
        expected = np.sum(tau * np.array([(-1) ** n for n in range(10)]))
        assert abs(value[0] - expected) < 1e-9 * max(1.0, abs(expected))

    def test_zero_form(self):
        assert np.all(exp_sum(zero_form(), 0.3, 100) == 0)

    def test_conjugation_symmetry(self):
        # real coefficients pair the sums at opposite angles
        D = delta_form(600)
        for theta in (0.17, 0.43):
            plus = exp_sum(D, theta, 500)
            minus = exp_sum(D, -theta, 500)
            assert abs(abs(plus[0]) - abs(minus[0])) < 1e-6 * max(1.0, abs(plus[0]))

    def test_periodicity(self):
        D = delta_form(300)
        a = exp_sum(D, 0.3, 200)
        b = exp_sum(D, 1.3, 200)
        assert np.allclose(a, b, rtol=1e-10)

    def test_cutoff_additivity(self):
        # the full sum splits exactly into a head and a shifted remainder
        D = delta_form(300)
        theta = 0.21
        full = exp_sum(D, theta, 200)
        head = exp_sum(D, theta, 120)
        coeffs = D.fourier_vectors(199)
        phases = np.exp(2j * np.pi * theta * np.arange(200))
        remainder = (coeffs[120:].T @ phases[120:])
        assert np.allclose(full, head + remainder)

    def test_logarithmic_form_sums_all_slots(self):
        S = sym2_log_form(60)
        value = exp_sum(S, 0.0, 40)
        # every (component, log power) slot contributes its plain partial sum
        expected = np.zeros(3, dtype=complex)
        for i, off, j, series in S.log_slots():
            basis = np.zeros(3, dtype=complex)
            basis[i] = 1.0
            expected += (S.P @ basis) * np.sum(series.coefficients_on_offset(off, 39))
        assert np.allclose(value, expected)


class TestBoundScan:
    def test_eta4_form(self):
        Y = eta4_theta_eta_form(2100)
        scan = bound_scan(Y, THETAS, CUTOFFS, alpha=0.0)
        assert scan.sigma == 1
        assert scan.target_exponent == 1.0
        assert scan.verdict == "PASS"

    def test_delta(self):
        D = delta_form(2100)
        scan = bound_scan(D, THETAS, CUTOFFS, alpha=0.0)
        assert scan.target_exponent == 6.0
        assert scan.verdict == "PASS"

    def test_zero_form(self):
        scan = bound_scan(zero_form(), THETAS, [100, 500, 1000], alpha=0.0)
        assert np.all(scan.ratios == 0)
        assert scan.verdict == "PASS"

    def test_requires_increasing_cutoffs(self):
        with pytest.raises(ValueError):
            bound_scan(delta_form(300), THETAS, [200, 100], alpha=0.0)

    @pytest.mark.parametrize("cutoffs", [[0, 10], [-5, 10]])
    def test_refuses_cutoff_below_one(self, cutoffs):
        with pytest.raises(ValueError, match="cutoffs must be at least 1"):
            bound_scan(delta_form(100), THETAS, cutoffs, alpha=0.0)

    @pytest.mark.parametrize("thetas, cutoffs, name", [([0.0], [], "cutoffs"), ([], [10], "thetas")])
    def test_refuses_empty_lists(self, thetas, cutoffs, name):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            bound_scan(delta_form(50), thetas, cutoffs, alpha=0.0)

    def test_serializable(self):
        import json

        scan = bound_scan(delta_form(600), [0.0, 0.5], [100, 200, 500], alpha=0.0)
        payload = json.dumps(scan.as_dict())
        assert "PASS" in payload
