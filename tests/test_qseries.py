import math
import operator
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from vvaf import lfunc, qseries
from vvaf.forms import BUILTIN_FORMS, delta_form, eta4_theta_eta_form, sym2_log_form, theta_eta_form
from vvaf.qseries import (
    FracQSeries,
    LogQExpansion,
    coefficient_integral,
    eta_power_series,
    eta_series,
    log_recouple,
    theta_series,
)


def mp_eta(tau: complex) -> complex:
    # independent route: exp(pi i tau/12) * q-Pochhammer of exp(2 pi i tau)
    q = mpmath.exp(2j * mpmath.pi * tau)
    return complex(mpmath.exp(1j * mpmath.pi * tau / 12) * mpmath.qp(q))


def mp_theta(variant: int, tau: complex) -> complex:
    return complex(mpmath.jtheta(variant, 0, mpmath.exp(1j * mpmath.pi * tau)))


def _per_point_value(series: FracQSeries, tau: complex) -> complex:
    """sum_j c_j q^((start+j)/D) at one point, the reference for the kernel.

    The phase is a Python complex and the terms are summed by a 1-d
    np.sum, which is how the series was evaluated point by point.  Each
    term is exp times c, in the kernel's order: numpy's complex product
    (with FMA) does not round c exp and exp c alike.
    """
    w = 2j * math.pi * tau / (series.h * series.D)
    exponents = series.start + np.arange(len(series.coeffs))
    return complex(np.sum(np.exp(w * exponents) * series.coeffs))


class TestEta:
    def test_first_twelve_coefficients(self):
        eta = eta_series(30)
        values = [int(eta.coefficient(Fraction(1, 24) + j).real) for j in range(12)]
        assert values == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0]

    def test_value_at_i_closed_form(self):
        eta = eta_series(60)
        reference = math.gamma(0.25) / (2.0 * math.pi**0.75)
        assert abs(eta.evaluate_many([1j])[0] - reference) < 1e-12

    def test_against_mpmath(self):
        eta = eta_series(60)
        for tau in (0.3 + 0.9j, -0.4 + 1.7j, 2.2j):
            assert abs(eta.evaluate_many([tau])[0] - mp_eta(tau)) < 1e-12

    def test_translation_phase(self):
        eta = eta_series(60)
        tau = 2j
        ratio = eta.evaluate_many([tau + 1])[0] / eta.evaluate_many([tau])[0]
        assert abs(ratio - np.exp(1j * np.pi / 12)) < 1e-12

    def test_eta_power_matches_mpmath(self):
        delta = eta_power_series(24, 40)
        tau = 0.1 + 1.1j
        assert abs(delta.evaluate_many([tau])[0] - mp_eta(tau) ** 24) < 1e-10


class TestTheta:
    def test_theta3_leading_terms(self):
        t3 = theta_series(3, 30)
        assert t3.coefficient(0) == 1
        assert t3.coefficient(Fraction(1, 2)) == 2

    def test_theta2_leading_term(self):
        t2 = theta_series(2, 30)
        assert t2.leading_exponent == Fraction(1, 8)
        assert t2.coefficient(Fraction(1, 8)) == 2

    def test_theta3_value_closed_form(self):
        t3 = theta_series(3, 60)
        reference = math.pi**0.25 / math.gamma(0.75)
        assert abs(t3.evaluate_many([1j])[0] - reference) < 1e-12

    def test_all_variants_against_mpmath(self):
        for variant in (2, 3, 4):
            series = theta_series(variant, 60)
            for tau in (0.2 + 1.0j, 1.5j):
                assert abs(series.evaluate_many([tau])[0] - mp_theta(variant, tau)) < 1e-12


class TestCombine:
    def test_inverse_round_trip(self):
        eta = eta_series(40)
        one = eta / eta
        assert one.coefficient(0) == 1
        assert all(abs(c) < 1e-14 for _, c in one.occupied()[1:])

    def test_quotient_leading_terms(self):
        eta = eta_series(40)
        x3 = theta_series(3, 40) / eta
        assert x3.leading_exponent == Fraction(-1, 24)
        assert abs(x3.coefficient(Fraction(-1, 24)) - 1.0) < 1e-14
        x2 = theta_series(2, 40) / eta
        assert x2.leading_exponent == Fraction(1, 12)
        assert abs(x2.coefficient(Fraction(1, 12)) - 2.0) < 1e-14

    def test_mul_div_round_trip(self):
        eta = eta_series(40)
        t3 = theta_series(3, 40)
        back = eta * (t3 / eta)
        for e in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(9, 2)):
            assert abs(back.coefficient(e) - t3.coefficient(e)) < 1e-12

    def test_mul_matches_dense_convolution(self):
        # the stride-class product against np.convolve of the upsampled
        # dense arrays; integer coefficients keep every sum exact, so any
        # grouping of the terms gives the same bits
        rng = np.random.default_rng(83)

        def random_series(stride, D):
            if stride == 0:  # a point mass
                coeffs = [int(rng.integers(1, 9))]
            else:
                coeffs = np.zeros(stride * int(rng.integers(1, 40)) + 1)
                coeffs[::stride] = rng.integers(-9, 10, size=len(coeffs[::stride]))
                coeffs[0] = coeffs[-1] = 1
            start = int(rng.integers(-30, 30))
            # a truncation order, if any, keeps at least the first term
            order = None
            if rng.random() < 0.5:
                order = Fraction(start + int(rng.integers(1, 2 * len(coeffs) + 1)), D)
            return FracQSeries(1, D, start, coeffs, order=order)

        def dense(f, D):
            out = np.zeros((len(f.coeffs) - 1) * (D // f.D) + 1, dtype=complex)
            out[:: D // f.D] = f.coeffs
            return out

        for _ in range(200):
            f, g = (random_series(int(rng.choice([0, 1, 2, 3, 8])), int(rng.choice([1, 2, 3, 8, 24]))) for _ in "fg")
            prod = f * g
            D = math.lcm(f.D, g.D)
            start = f.start * (D // f.D) + g.start * (D // g.D)
            reference = FracQSeries(1, D, start, np.convolve(dense(f, D), dense(g, D)), order=prod.order)
            assert (prod.D, prod.start, prod.stride) == (reference.D, reference.start, reference.stride)
            assert np.array_equal(prod.coeffs, reference.coeffs)

    def test_mul_associative_commutative(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            a = FracQSeries(1, 3, int(rng.integers(-3, 3)), rng.normal(size=8) + 1j * rng.normal(size=8), order=Fraction(12))
            b = FracQSeries(1, 4, int(rng.integers(-3, 3)), rng.normal(size=8) + 1j * rng.normal(size=8), order=Fraction(12))
            c = FracQSeries(1, 2, int(rng.integers(-3, 3)), rng.normal(size=6) + 1j * rng.normal(size=6), order=Fraction(12))
            ab = a * b
            ba = b * a
            assert ab.D == ba.D and ab.start == ba.start
            assert np.allclose(ab.coeffs, ba.coeffs, atol=1e-12)
            left = ab * c
            right = a * (b * c)
            assert left.D == right.D and left.start == right.start
            assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)

    def test_add_merges_grids(self):
        a = FracQSeries(1, 3, 1, [1.0])  # q^(1/3)
        b = FracQSeries(1, 4, 1, [2.0])  # q^(1/4)
        c = a + b
        assert c.coefficient(Fraction(1, 3)) == 1.0
        assert c.coefficient(Fraction(1, 4)) == 2.0

    def test_div_rejects_zero_leading(self):
        a = FracQSeries(1, 1, 0, [1.0])
        with pytest.raises(ZeroDivisionError):
            a / FracQSeries.zero()

    def test_width_mismatch(self):
        # every operation checks the widths first, also before the shortcuts
        # for a zero operand and the refusal of a zero divisor
        a = FracQSeries(1, 1, 0, [1.0])
        b = FracQSeries(2, 1, 0, [1.0])
        pairs = [(a, b), (FracQSeries.zero(1), b), (a, FracQSeries.zero(2))]
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for f, g in pairs:
                with pytest.raises(ValueError, match="series widths differ"):
                    op(f, g)

    def test_order_tracking_through_mul(self):
        a = FracQSeries(1, 1, 1, np.ones(5), order=Fraction(6))
        b = FracQSeries(1, 1, 2, np.ones(3), order=Fraction(5))
        prod = a * b
        # unknown tail of b (from exponent 5) times the lead of a (1): order 6
        assert prod.order == Fraction(6)
        assert max(e for e, _ in prod.occupied()) < prod.order


# numpy 2 runs the C++ pocketfft that scipy.fft runs, so the FFT branch of
# _convolve has fftconvolve's bits.  numpy 1.x runs an older C pocketfft
# whose butterflies round differently; there each entry of a product agrees
# only to the transforms' rounding error, about eps log2(m) |a|_2 |b|_2
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 24.1),
# which is under 2e-14 of the largest coefficient of the forms built here.
_SAME_POCKETFFT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"
_FORM_TABLE_TOL = 1e-12  # relative to the largest coefficient, for numpy 1.x only


def _convolve_by_fftconvolve(a, b):
    """``_convolve`` as it was, with the long products from scipy.signal.fftconvolve."""
    if len(a) + len(b) > qseries._BIG_CONV:
        return fftconvolve(a, b)
    return np.convolve(a, b)


def _assert_same_product(ours, reference, a, b):
    assert ours.dtype == reference.dtype and ours.shape == reference.shape
    if _SAME_POCKETFFT:
        assert ours.tobytes() == reference.tobytes()
    else:
        m = next_fast_len(len(a) + len(b) - 1, real=False)
        bound = np.finfo(float).eps * math.log2(m) * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.abs(ours - reference).max() <= bound


class TestFFTConvolution:
    @staticmethod
    def _random(rng, n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def test_length_is_scipys_fast_complex_length(self):
        assert [qseries._fft_length(n) for n in range(1, 40001)] == [
            next_fast_len(n, real=False) for n in range(1, 40001)
        ]

    @pytest.mark.parametrize("lengths", [(1, 9000), (9000, 1), (1, 8192), (8192, 1)])
    def test_length_one_operand_is_the_plain_product(self, lengths):
        # no transform, so these bits hold on every numpy
        rng = np.random.default_rng(11)
        a, b = (self._random(rng, n) for n in lengths)
        product = qseries._convolve(a, b)
        assert product.tobytes() == (a * b).tobytes() == fftconvolve(a, b).tobytes()

    def test_switch_at_big_conv(self):
        rng = np.random.default_rng(12)
        a, b = self._random(rng, 4096), self._random(rng, 4096)
        assert qseries._convolve(a, b).tobytes() == np.convolve(a, b).tobytes()
        b = self._random(rng, 4097)
        _assert_same_product(qseries._convolve(a, b), fftconvolve(a, b), a, b)

    def test_random_lengths_match_the_replaced_product(self):
        rng = np.random.default_rng(13)
        for la, lb in rng.integers(1, 12001, size=(60, 2)).tolist():
            a, b = self._random(rng, la), self._random(rng, lb)
            _assert_same_product(qseries._convolve(a, b), _convolve_by_fftconvolve(a, b), a, b)

    def test_squaring_transforms_once_with_the_same_bits(self):
        rng = np.random.default_rng(14)
        a = self._random(rng, 6001)
        squared = qseries._convolve(a, a)
        assert squared.tobytes() == qseries._convolve(a, a.copy()).tobytes()
        _assert_same_product(squared, fftconvolve(a, a), a, a)

    @pytest.mark.parametrize("factory, n_terms", [(delta_form, 9000), (eta4_theta_eta_form, 5100)])
    def test_long_forms_keep_the_fftconvolve_coefficients(self, monkeypatch, factory, n_terms):
        build = factory.__wrapped__  # past the cache, so both builds run
        ours = build(n_terms)
        monkeypatch.setattr(qseries, "_convolve", _convolve_by_fftconvolve)
        reference = build(n_terms)
        table, reference_table = ours.basis_coefficients(n_terms - 1), reference.basis_coefficients(n_terms - 1)
        if _SAME_POCKETFFT:
            for series, expected in zip(_stored_series(ours), _stored_series(reference)):
                assert (series.D, series.start) == (expected.D, expected.start)
                assert series.coeffs.tobytes() == expected.coeffs.tobytes()
            assert table.tobytes() == reference_table.tobytes()
        else:
            assert np.abs(table - reference_table).max() <= _FORM_TABLE_TOL * np.abs(reference_table).max()


class TestEvaluation:
    def test_refuses_near_real_line(self):
        eta = eta_series(10)
        with pytest.raises(ValueError):
            eta.evaluate_many([0.5 + 1e-6j])

    def test_tail_bound_reported(self):
        eta = eta_series(10)
        values, tails = eta.evaluate_many([0.2 + 0.9j], with_tail=True)
        value, tail = values[0], tails[0]
        assert tail > 0
        reference = mp_eta(0.2 + 0.9j)
        # truncation is inside the tail bound; double rounding adds its own floor
        assert abs(value - reference) <= max(10 * tail, 1e-15 * abs(value))

    def test_evaluate_many_refuses_near_real_line(self):
        eta = eta_series(10)
        with pytest.raises(ValueError, match=r"^\|q\| = 1\.0000 too close to 1; move tau upward$"):
            eta.evaluate_many([1j, 0.5 + 1e-6j])
        with pytest.raises(ValueError):
            FracQSeries.zero().evaluate_many([0.5 + 1e-6j])

    def test_exact_series_zero_tail(self):
        exact = FracQSeries(1, 2, 1, [1.0])
        _, tails = exact.evaluate_many([1j], with_tail=True)
        assert tails[0] == 0.0

    @pytest.mark.parametrize(
        "tau",
        [complex("nan+nanj"), complex(0.3, math.inf), complex(math.inf, 1), 0.2 - 0.5j, 0.5 + 0j],
        ids=["nan", "inf-imag", "inf-real", "lower-half-plane", "real-line"],
    )
    def test_refuses_point_outside_upper_half_plane(self, tau):
        eta = eta_series(40)
        for series in (eta, FracQSeries.zero(), LogQExpansion({0: eta, 1: eta}), LogQExpansion({})):
            with pytest.raises(ValueError, match=r"is not a finite point of the upper half plane"):
                series.evaluate_many([1j, tau])

    def test_refusal_names_first_point_outside(self):
        with pytest.raises(ValueError, match=r"^tau = \(0\.2-0\.5j\) is not a finite point"):
            eta_series(40).evaluate_many([[1j, 0.2 - 0.5j], [complex("nan+nanj"), 0.3 - 1j]])


def _stored_series(X):
    return [series for comp in X.basis_components for series in comp.terms.values()]


_KERNEL_CASES = {
    **{name: lambda factory=factory: _stored_series(factory()) for name, factory in BUILTIN_FORMS.items()},
    "theta-eta-200": lambda: _stored_series(theta_eta_form(200)),
    "eta4-theta-eta-100": lambda: _stored_series(eta4_theta_eta_form(100)),
    "eta-40": lambda: [eta_series(40)],
}


# heights from 0.05 up to 200 and back down: chunks with a narrow cut follow
# chunks with a wide one and precede them, and the plateau near the top has
# chunks where every row of delta underflows
_UNDERFLOW_HEIGHTS = np.concatenate(
    [np.geomspace(0.05, 200.0, 160), np.geomspace(200.0, 120.0, 40), np.geomspace(120.0, 0.05, 160)]
)


def _sparse_high_lead():
    # exponents 300 up to 2347: every row at y >= 0.4 underflows
    coeffs = np.zeros(2048)
    coeffs[[0, 5, 40, 700, 2047]] = [-1.5, 2.0, -0.25, 3.0, -1.0]
    return FracQSeries(1, 1, 300, coeffs)


def _complex_coefficients(start: int, width: int, occupied) -> FracQSeries:
    rng = np.random.default_rng(start + width)
    coeffs = np.zeros(width, dtype=complex)
    coeffs[occupied] = rng.normal(size=len(occupied)) + 1j * rng.normal(size=len(occupied))
    return FracQSeries(1, 1, start, coeffs)


# complex coefficients low in the strip, where numpy's complex product
# (with FMA) rounds c exp and exp c apart at a quarter to a third of the points
_COMPLEX_CASES = {
    "point-300": lambda: [FracQSeries(1, 1, 300, [1.5 - 2j])],
    "dense-1": lambda: [_complex_coefficients(1, 400, np.arange(400))],
    "sparse-300": lambda: [_complex_coefficients(300, 2048, [0, 5, 40, 700, 2047])],
    "eta-twisted": lambda: [eta_series(200) * (0.6 - 0.8j)],
}


_UNDERFLOW_CASES = {
    "delta-2100": lambda: _stored_series(delta_form(2100)),
    "eta-8": lambda: [eta_power_series(8, 300)],
    "theta-eta-200-negative-start": lambda: [
        series for series in _stored_series(theta_eta_form(200)) if series.start < 0
    ],
    "sparse-lead-300": lambda: [_sparse_high_lead()],
    "point-300": lambda: [FracQSeries(1, 1, 300, [-1.5])],
}


class TestKernelBits:
    """evaluate_many keeps the bits of the per-point sum, dense or sparse."""

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_matches_per_point_sums_bit_for_bit(self, case):
        # 301 points span several chunks and leave a short last one
        # (13 rows per chunk at 2425 slots)
        rng = np.random.default_rng(301)
        taus = rng.uniform(-1.5, 1.5, 301) + 1j * rng.uniform(0.05, 2.0, 301)
        for series in _KERNEL_CASES[case]():
            values = series.evaluate_many(taus)
            reference = np.array([_per_point_value(series, complex(tau)) for tau in taus])
            assert np.array_equal(values, reference)
            # sign bits too: == does not tell +0 from -0
            assert values.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes()

    @pytest.mark.parametrize("case", sorted(_COMPLEX_CASES))
    def test_complex_coefficients_bit_for_bit(self, case):
        rng = np.random.default_rng(2000)
        taus = rng.uniform(-1.5, 1.5, 2000) + 1j * rng.uniform(0.01, 0.3, 2000)
        for series in _COMPLEX_CASES[case]():
            values = series.evaluate_many(taus)
            reference = np.array([_per_point_value(series, complex(tau)) for tau in taus])
            assert values.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes()

    @pytest.mark.parametrize("case", sorted(_UNDERFLOW_CASES))
    def test_underflowing_rows_bit_for_bit(self, case):
        rng = np.random.default_rng(26)
        taus = rng.uniform(-1.5, 1.5, len(_UNDERFLOW_HEIGHTS)) + 1j * _UNDERFLOW_HEIGHTS
        # above y = 0.4 a series that starts at q^300 keeps no slot at all
        for batch in (taus, taus[_UNDERFLOW_HEIGHTS >= 0.4]):
            for series in _UNDERFLOW_CASES[case]():
                values = series.evaluate_many(batch)
                reference = np.array([_per_point_value(series, complex(tau)) for tau in batch])
                assert np.array_equal(values, reference)
                assert values.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes()

    def test_underflow_cases_cover_every_kind_of_chunk(self):
        # per chunk: how many rows underflow in full, and the chunk's lowest point
        kinds = set()
        for case in _UNDERFLOW_CASES.values():
            for series in case():
                rows = qseries._CHUNK_BYTES // (16 * len(series.coeffs))
                lead = 2 * math.pi * series.start / (series.h * series.D)
                lowest = []
                for lo in range(0, len(_UNDERFLOW_HEIGHTS), rows):
                    ys = _UNDERFLOW_HEIGHTS[lo : lo + rows]
                    full = np.count_nonzero(lead * ys > 746)
                    kinds.add("all rows" if full == len(ys) else "some rows" if full else "no row")
                    lowest.append(ys.min())
                if np.any(np.diff(lowest) > 0):
                    kinds.add("narrower cut after a wider one")
        assert kinds == {"all rows", "some rows", "no row", "narrower cut after a wider one"}

    @pytest.mark.parametrize(
        "series",
        [eta_series(40), FracQSeries(1, 1, 0, np.arange(1.0, 6.0)), FracQSeries.zero(order=3)],
        ids=["sparse", "dense", "zero"],
    )
    def test_empty_batch(self, series):
        assert series.evaluate_many([]).shape == (0,)
        values, tails = series.evaluate_many(np.zeros((0, 3)), with_tail=True)
        assert values.shape == tails.shape == (0, 3)

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_occupied_indices_stored_read_only(self, case):
        for series in _KERNEL_CASES[case]():
            assert np.array_equal(series._occupied, np.flatnonzero(series.coeffs))
            assert not series._occupied.flags.writeable
            with pytest.raises(ValueError):
                series._occupied[...] = 0


class TestKernelWork:
    """evaluate_many exponentiates no slot whose term underflows to zero."""

    @staticmethod
    def _count_complex_exps(monkeypatch):
        counts = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            x = np.asarray(x)
            if x.dtype.kind == "c":
                counts.append(x.size)
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        return counts

    def test_split_mellin_nodes_skip_underflowing_slots(self, monkeypatch):
        ys = lfunc._node_set(delta_form(2100), 1.0, 11)[0]
        (series,) = _stored_series(delta_form(2100))
        counts = self._count_complex_exps(monkeypatch)
        series.evaluate_many(1j * ys)
        # about 2.2 % at this rule; without the cut every slot is exponentiated
        assert 0 < sum(counts) <= 0.06 * len(ys) * len(series.coeffs)

    def test_no_cut_below_the_underflow_line(self, monkeypatch):
        # the coefficient integrals run at y = 0.1, where no term underflows
        eta = eta_series(40)
        taus = np.linspace(0.0, 1.0, 50, endpoint=False) + 0.1j
        counts = self._count_complex_exps(monkeypatch)
        eta.evaluate_many(taus)
        assert sum(counts) == len(taus) * len(eta._occupied)


def _coefficients_on_offset_loop(series, offset, nmax):
    """The per-n read that the strided slice replaced, kept as the reference."""
    offset = Fraction(offset)
    if series.order is not None and nmax + offset >= series.order:
        raise ValueError("beyond the truncation order")
    out = np.zeros(nmax + 1, dtype=complex)
    for n in range(nmax + 1):
        num = (offset + n) * series.D
        if num.denominator != 1:
            continue
        j = int(num) - series.start
        if 0 <= j < len(series.coeffs):
            out[n] = series.coeffs[j]
    return out


def _coefficient_by_index(series, exponent):
    """The one-exponent read that the one-slot read replaced, kept as the reference."""
    num = Fraction(exponent) * series.D
    if num.denominator != 1:
        return 0j
    j = int(num) - series.start
    return complex(series.coeffs[j]) if 0 <= j < len(series.coeffs) else 0j


class TestCoefficientsOnOffset:
    def test_slice_matches_loop(self):
        rng = np.random.default_rng(29)
        # exact series (reads run past the stored terms) and truncated ones, D = 1, 8, 24
        all_series = [
            FracQSeries(1, 1, 3, rng.normal(size=20)),
            FracQSeries(1, 8, 5, rng.normal(size=70) + 1j * rng.normal(size=70)),
            FracQSeries(1, 24, -7, rng.normal(size=200)),
            eta_series(20),
            theta_series(2, 12),
        ]
        offsets = [0, Fraction(1, 24), Fraction(5, 8), Fraction(-7, 24), Fraction(3, 8), -3, 4, 40]
        offsets += [Fraction(1, 5), Fraction(1, 48), Fraction(-2, 7)]  # off every grid above
        for series in all_series:
            assert series.D in (1, 8, 24)
            for offset in offsets:
                for nmax in (0, 1, 5, 9, 60):
                    if series.order is not None and nmax + offset >= series.order:
                        continue
                    expected = _coefficients_on_offset_loop(series, offset, nmax)
                    assert np.array_equal(series.coefficients_on_offset(offset, nmax), expected)

    @pytest.mark.parametrize("nmax", [-1, -2])
    def test_negative_nmax_refused_by_name(self, nmax):
        series = eta_series(10)
        with pytest.raises(ValueError, match=f"nmax must be at least 0, got {nmax}"):
            series.coefficients_on_offset(0, nmax)
        with pytest.raises(ValueError, match=f"nmax must be at least 0, got {nmax}"):
            FracQSeries(1, 3, 1, [1.0, 2.0]).coefficients_on_offset(Fraction(1, 3), nmax)

    def test_order_error(self):
        eta = eta_series(10)
        eta.coefficients_on_offset(Fraction(1, 24), 10)
        with pytest.raises(ValueError):
            eta.coefficients_on_offset(Fraction(1, 24), 11)

    @pytest.mark.parametrize(
        "value", [1 / 3, 0.0, np.float64(1 / 3), 1 / 3 + 0j], ids=["float", "zero", "numpy-float", "complex"]
    )
    def test_float_offset_refused_by_name(self, value):
        # 1/3 as a float is a binary rational off the grid: it used to read 0
        series = FracQSeries(1, 3, 1, [1.0, 2.0, 3.0])
        message = f"must be an int or a Fraction, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            series.coefficients_on_offset(value, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            series.coefficient(value)

    def test_rational_offsets_accepted(self):
        series = FracQSeries(1, 3, 1, [1.0, 2.0, 3.0])
        assert series.coefficient(Fraction(1, 3)) == 1.0
        assert series.coefficient(np.int64(1)) == 3.0
        assert series.coefficient(True) == 3.0
        assert np.array_equal(series.coefficients_on_offset(np.int32(0), 1), [0, 3.0])

    def test_coefficient_matches_index_read(self):
        for series in (eta_series(20), theta_series(2, 12), FracQSeries(1, 8, 5, np.arange(1.0, 71.0))):
            for e in (Fraction(k, 24) for k in range(-30, 24 * 15)):
                if series.order is None or e < series.order:
                    assert series.coefficient(e) == _coefficient_by_index(series, e)
        with pytest.raises(ValueError, match="beyond truncation order"):
            eta_series(10).coefficient(Fraction(265, 24))


def _div_dense(f, g):
    """The dense division that the stride-aware one replaced, kept as the reference."""
    lead_f = f.order if f.is_zero() else f.leading_exponent
    r_lead = lead_f - g.leading_exponent
    bounds = []
    if f.order is not None:
        bounds.append(f.order - g.leading_exponent)
    if g.order is not None:
        bounds.append(g.order - g.leading_exponent + r_lead)
    order = min(bounds) if bounds else None
    D, fa, fs, ga, gs = qseries._aligned(f, g)
    r_start = fs - gs
    if order is not None:
        n_terms = min(max(0, math.ceil(order * D - r_start)), len(fa) + len(ga))
    else:
        n_terms = len(fa)
    out = np.zeros(n_terms, dtype=complex)
    g0 = ga[0]
    fa_padded = np.zeros(n_terms, dtype=complex)
    take = min(n_terms, len(fa))
    fa_padded[:take] = fa[:take]
    for k in range(n_terms):
        acc = fa_padded[k]
        j_max = min(k, len(ga) - 1)
        if j_max >= 1:
            stop = k - j_max - 1
            acc -= np.dot(ga[1 : j_max + 1], out[k - 1 : (stop if stop >= 0 else None) : -1])
        out[k] = acc / g0
    return FracQSeries(f.h, D, r_start, out, order=order)


def _assert_same_series(a, b):
    assert (a.h, a.D, a.start, a.order) == (b.h, b.D, b.start, b.order)
    assert a.coeffs.tobytes() == b.coeffs.tobytes()


class TestDivision:
    @pytest.mark.parametrize("n", [40, 400])
    @pytest.mark.parametrize("variant", [2, 3, 4])
    def test_theta_over_eta_matches_dense(self, variant, n):
        f, g = theta_series(variant, n), eta_series(n)
        _assert_same_series(f / g, _div_dense(f, g))

    def test_random_dense_divisor(self):
        rng = np.random.default_rng(41)
        f = FracQSeries(1, 1, 2, rng.normal(size=80) + 1j * rng.normal(size=80))
        coeffs = 0.3 * (rng.normal(size=60) + 1j * rng.normal(size=60))
        coeffs[0] = 1.0 - 0.5j
        g = FracQSeries(1, 1, 1, coeffs, order=61)
        _assert_same_series(f / g, _div_dense(f, g))

    def test_stride_three_divisor_two_classes_filled(self):
        rng = np.random.default_rng(43)
        coeffs = np.zeros(150, dtype=complex)
        coeffs[::3] = 0.3 * (rng.normal(size=50) + 1j * rng.normal(size=50))
        coeffs[0] = -1.25 + 0.5j  # a negative real part flips the sign of zero quotients
        g = FracQSeries(1, 1, 0, coeffs, order=Fraction(301, 2))
        dividend = np.zeros(240, dtype=complex)
        dividend[::3] = rng.normal(size=80)
        dividend[1::3] = rng.normal(size=80) + 1j * rng.normal(size=80)
        # scaling by -1 leaves negative zeros in the empty class
        f = FracQSeries(1, 1, 0, dividend) * -1
        assert f.D == 1 and not np.any(f.coeffs[2::3])
        quotient = f / g
        _assert_same_series(quotient, _div_dense(f, g))
        assert not np.any(quotient.coeffs[2::3])


def _coefficient_integral_by_terms(f, n, offset, y, T):
    """The per-term period scan that the grid-derived period replaced, kept as the reference."""
    target = Fraction(offset) + n
    deltas = [e - target for e, _ in f.occupied()]
    p = math.lcm(*(delta.denominator for delta in deltas))
    span = max((abs(int(delta * p)) for delta in deltas), default=0)
    T = max(T, 2 * span // p + 8)
    total = T * p
    taus = np.arange(total) * (f.h / T) + 1j * y
    freq = -2j * math.pi * float(target) / f.h
    return complex(np.sum(f.evaluate_many(taus) * np.exp(freq * taus)) / total)


def _builtin_series():
    """Every stored series and every plain-component series of the built-in forms, once each."""
    out = {}
    for series in [eta_series(40), theta_series(2, 20), FracQSeries(1, 7, 3, [2.0]), FracQSeries.zero(order=5)]:
        out[repr(series), series.coeffs.tobytes()] = series
    for name, factory in sorted(BUILTIN_FORMS.items()):
        X = factory()
        for i, comp in enumerate(X.basis_components):
            for series in [*comp.terms.values(), *X.component_expansion(i).terms.values()]:
                out[repr(series), series.coeffs.tobytes()] = series
    return list(out.values())


class TestCoefficientIntegral:
    def test_zero_function(self):
        assert coefficient_integral(FracQSeries.zero(), 3, Fraction(0)) == 0

    @pytest.mark.parametrize(
        "n, offset",
        [(1, 1 / 24), (1.0, Fraction(1, 24)), (1, np.float64(0.5))],
        ids=["float-offset", "float-n", "numpy-float-offset"],
    )
    def test_float_exponent_refused_by_name(self, n, offset):
        # a float offset used to reach numpy as a huge period and fail there
        with pytest.raises(ValueError, match=re.escape(f"got n={n!r}, offset={offset!r}")):
            coefficient_integral(eta_series(10), n, offset, y=0.5)

    def test_period_from_grid_matches_term_scan(self):
        # the same period and span, so the same points and the same bits,
        # on grids with one and with several offset classes
        for series in _builtin_series():
            exponents = [e for e, _ in series.occupied()[:3]]
            exponents += [Fraction(1, 24), Fraction(5, 3), Fraction(-1, 24)]  # mostly off the grid
            for e in exponents:
                n = math.floor(e)
                got = coefficient_integral(series, n, e - n, y=0.1, T=64)
                want = _coefficient_integral_by_terms(series, n, e - n, 0.1, 64)
                assert np.array(got).tobytes() == np.array(want).tobytes()  # sign bits too

    def test_eta_first_coefficient(self):
        eta = eta_series(40)
        value = coefficient_integral(eta, 1, Fraction(1, 24), y=1.0, T=256)
        assert abs(value - (-1.0)) < 1e-10

    def test_y_independence(self):
        # rounding in the extraction grows like exp(2 pi y n), so the heights
        # must stay of order 1/n for the larger indices; the first few
        # coefficients tolerate heights beyond 1
        eta = eta_series(40)
        for n in range(2):
            lo = coefficient_integral(eta, n, Fraction(1, 24), y=0.5, T=256)
            hi = coefficient_integral(eta, n, Fraction(1, 24), y=1.5, T=256)
            assert abs(lo - hi) < 1e-9
        for n in range(10):
            lo = coefficient_integral(eta, n, Fraction(1, 24), y=0.1, T=256)
            hi = coefficient_integral(eta, n, Fraction(1, 24), y=0.25, T=256)
            assert abs(lo - hi) < 1e-9

    def test_mixed_offset_component(self):
        # theta3/eta carries two offset classes; the extraction must still
        # land on the symbolic coefficients
        x3 = theta_series(3, 40) / eta_series(40)
        for exponent, coeff in x3.occupied()[:10]:
            n = math.floor(exponent)
            offset = exponent - n
            got = coefficient_integral(x3, n, offset, y=0.1, T=256)
            assert abs(got - coeff) < 1e-9

    def test_zero_coefficients_match_per_point_sums(self):
        # the trapezoid sum at a zero coefficient of eta is pure rounding
        # noise, so it is reproducible only if every sample has the bits of
        # the per-point sum
        eta = eta_series(40)
        y, T = 0.1, 256
        taus = np.arange(T) * (1 / T) + 1j * y  # one period: eta has the single offset 1/24
        values = np.array([_per_point_value(eta, complex(tau)) for tau in taus])
        for n in (3, 4, 6, 8, 9):
            assert eta.coefficient(n + Fraction(1, 24)) == 0
            freq = -2j * math.pi * float(n + Fraction(1, 24))
            reference = complex(np.sum(values * np.exp(freq * taus)) / T)
            assert coefficient_integral(eta, n, Fraction(1, 24), y=y, T=T) == reference


def _log_recouple_upoly(direction, components):
    """The u-polynomial recoupling that the LogQExpansion one replaced, kept as the reference.

    Each stack is rewritten in u = tau/h as {j: series (2 pi i)^j}, the
    binomial polynomials act there, and the sums are rewritten in log q.
    """
    h = components[0].h
    polys = [{j: series * (2j * math.pi) ** j for j, series in x.terms.items()} for x in components]
    out = []
    for i in range(len(components)):
        acc = {}
        for j in range(i + 1):
            if direction == "forward":
                scalar = ((-1) ** j) * qseries._binom_poly(Fraction(j - 1), j)
            else:
                scalar = qseries._binom_poly(Fraction(0), j)
            product = {}
            for power, series in polys[i - j].items():
                for k, c in enumerate(scalar):
                    if c == 0:
                        continue
                    key = power + k
                    product[key] = product[key] + series * c if key in product else series * c
            for key, series in product.items():
                acc[key] = acc[key] + series if key in acc else series
        result = LogQExpansion({j: series * (2j * math.pi) ** (-j) for j, series in acc.items()}, h=h)
        if direction == "forward":
            result = LogQExpansion({0: result.terms.get(0, FracQSeries.zero(h))}, h=h)
        out.append(result)
    return out


def _sym2_seeds(n_terms):
    """The pure seeds of ``sym2_log_form``."""
    seeds = []
    for start, value in ((1, 1.0), (2, 1.0), (1, 0.5)):
        coeffs = np.zeros(n_terms - start, dtype=complex)
        coeffs[0] = value
        if len(coeffs) > 2:
            coeffs[2] = -0.25 * value
        seeds.append(LogQExpansion({0: FracQSeries(1, 1, start, coeffs, order=Fraction(n_terms))}))
    return seeds


class TestLogRecouple:
    def test_block_size_one_is_identity(self):
        base = LogQExpansion({0: FracQSeries(1, 3, 1, [1.0, 0.5])})
        out = log_recouple("forward", [base])
        tau = 0.2 + 1.2j
        assert abs(out[0].evaluate_many([tau])[0] - base.evaluate_many([tau])[0]) < 1e-14

    def test_round_trip_jordan_two(self):
        # X0 = q^(1/3), X1 = (tau/h) q^(1/3) under the eigenvalue exp(2 pi i/3)
        base = FracQSeries(1, 3, 1, [1.0])
        u_factor = 1.0 / (2j * math.pi)  # u = log q/(2 pi i)
        x0 = LogQExpansion({0: base})
        x1 = LogQExpansion({1: base * u_factor})
        forward = log_recouple("forward", [x0, x1])
        assert all(f.is_pure() for f in forward)
        back = log_recouple("backward", forward)
        for tau in (0.3 + 1.1j, -0.2 + 0.8j, 2.0j):
            assert abs(back[0].evaluate_many([tau])[0] - x0.evaluate_many([tau])[0]) < 1e-12
            assert abs(back[1].evaluate_many([tau])[0] - x1.evaluate_many([tau])[0]) < 1e-12

    def test_forward_produces_pure_series(self):
        base = FracQSeries(1, 3, 1, [1.0])
        u_factor = 1.0 / (2j * math.pi)
        x0 = LogQExpansion({0: base})
        x1 = LogQExpansion({1: base * u_factor})
        h0, h1 = log_recouple("forward", [x0, x1])
        assert abs(h0.evaluate_many([1j])[0] - base.evaluate_many([1j])[0]) < 1e-14
        # the recoupled second component collapses to zero for this fixture
        assert abs(h1.evaluate_many([1j])[0]) < 1e-14

    def test_block_action_consistency(self):
        # the fixture transforms by the loweredged block: check the phase law
        lam = np.exp(2j * math.pi / 3)
        base = FracQSeries(1, 3, 1, [1.0])
        u_factor = 1.0 / (2j * math.pi)
        x0 = LogQExpansion({0: base})
        x1 = LogQExpansion({1: base * u_factor})
        tau = 0.4 + 1.3j
        (v0, v1), (w0, w1) = (x.evaluate_many([tau, tau + 1]) for x in (x0, x1))
        assert abs(v1 - lam * v0) < 1e-12
        assert abs(w1 - lam * (w0 + v0)) < 1e-12

    def test_width_two_round_trip(self):
        # the width comes from the components: under tau -> tau + 2 the pure
        # exponents 1/3 and 4/3 both pick up lambda = exp(2 pi i/3)
        lam = np.exp(2j * math.pi / 3)
        pure = [
            LogQExpansion({0: FracQSeries(2, 3, 1, coeffs)})
            for coeffs in ([1.0, 0, 0, 0.5], [0.3], [2.0, 0, 0, -1.0])
        ]
        mixed = log_recouple("backward", pure)
        assert [x.h for x in mixed] == [2, 2, 2]
        tau = 0.4 + 1.3j
        for i in (1, 2):
            shifted = mixed[i].evaluate_many([tau + 2])[0]
            assert abs(shifted - lam * (mixed[i].evaluate_many([tau])[0] + mixed[i - 1].evaluate_many([tau])[0])) < 1e-12
        back = log_recouple("forward", mixed)
        for tau in (0.3 + 1.1j, -0.2 + 0.8j, 2.0j):
            for x, y in zip(back, pure):
                assert abs(x.evaluate_many([tau])[0] - y.evaluate_many([tau])[0]) < 1e-12

    def test_mixed_widths_rejected(self):
        x0 = LogQExpansion({0: FracQSeries(1, 3, 1, [1.0])})
        x1 = LogQExpansion({0: FracQSeries(2, 3, 1, [1.0])})
        with pytest.raises(ValueError, match="share one width"):
            log_recouple("forward", [x0, x1])

    @pytest.mark.parametrize("n_terms", [40, 4000])
    def test_sym2_blocks_match_upoly_reference(self, n_terms):
        # the seeds are dyadic, so the two routes agree to the last bit
        blocks = sym2_log_form(n_terms).basis_components  # recoupled backward from the seeds
        assert [sorted(x.terms) for x in blocks] == [[0], [0, 1], [0, 1, 2]]
        pairs = [
            (blocks, _log_recouple_upoly("backward", _sym2_seeds(n_terms))),
            (log_recouple("forward", blocks), _log_recouple_upoly("forward", blocks)),
        ]
        for got, want in pairs:
            for x, y in zip(got, want, strict=True):
                assert list(x.terms) == list(y.terms)
                for a, b in zip(x.terms.values(), y.terms.values()):
                    _assert_same_series(a, b)

    def test_random_blocks_match_upoly_reference(self):
        # non-dyadic coefficients: the two routes round differently, by a few ulps
        rng = np.random.default_rng(53)
        for _ in range(60):
            size, D, h = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            pure = [
                LogQExpansion({0: FracQSeries(h, D, int(rng.integers(0, 3)), rng.normal(size=6) + 1j * rng.normal(size=6), order=10)})
                for _ in range(size)
            ]
            mixed = log_recouple("backward", pure)
            for direction, inputs, got in (("backward", pure, mixed), ("forward", mixed, log_recouple("forward", mixed))):
                want = _log_recouple_upoly(direction, inputs)
                for x, y in zip(got, want):
                    assert list(x.terms) == list(y.terms)
                    for a, b in zip(x.terms.values(), y.terms.values()):
                        gap = float(np.linalg.norm((a - b).coeffs))
                        assert gap <= 1e-15 * float(np.linalg.norm(b.coeffs))

    def test_not_closed_inputs_rejected(self):
        # a lone log term with no partner is not closed under the block action
        base = FracQSeries(1, 3, 1, [1.0])
        bad = LogQExpansion({1: base})
        with pytest.raises(ValueError):
            log_recouple("forward", [bad, LogQExpansion({0: base})])
