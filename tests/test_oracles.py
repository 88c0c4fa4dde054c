"""Cross-checks against independent implementations.

The series, Jordan and Mellin machinery each get compared here with a
route that shares no code with the package: mpmath's q-functions and
quadrature, sympy's exact Jordan decomposition, and a breadth-first
word search over the generators.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from vvaf.forms import delta_form, eta4_theta_eta_form, theta_eta_form
from vvaf.lfunc import completed_L
from vvaf.moebius import GroupElement, gen_s, gen_t, identity, t_power, word_decompose
from vvaf.representation import jordan_form


class TestWordOracle:
    def test_bfs_reachability_agrees(self):
        # breadth-first closure over the generators finds each small element;
        # the Euclidean decomposition must reproduce exactly those elements
        frontier = {identity()}
        seen = {identity()}
        for _ in range(6):
            nxt = set()
            for g in frontier:
                for step in (gen_s(), gen_t(), gen_t().inverse()):
                    h = g * step
                    if h not in seen and max(abs(e) for e in h.entries()) <= 40:
                        seen.add(h)
                        nxt.add(h)
            frontier = nxt
        assert len(seen) > 100
        for g in seen:
            assert word_decompose(g).evaluate() == g


class TestJordanOracle:
    def test_against_sympy_exact(self):
        # integer-spectrum matrices keep sympy's exact algorithm fast; the
        # numeric block structure must match it after unimodular conjugation
        rng = np.random.default_rng(271)
        cases = [
            ([2, 2, 2, 5], [(2, 3), (5, 1)]),
            ([1, 1, 3, 3], [(1, 2), (3, 2)]),
            ([0, 0, 0, 0], [(0, 2), (0, 2)]),
            ([4, 4, -1, 7], [(4, 2), (-1, 1), (7, 1)]),
        ]
        for _, blocks in cases:
            J = np.zeros((4, 4))
            pos = 0
            for lam, size in blocks:
                for i in range(size):
                    J[pos + i, pos + i] = lam
                    if i + 1 < size:
                        J[pos + i, pos + i + 1] = 1.0
                pos += size
            # random unimodular conjugator built from integer shears
            P = np.eye(4)
            for _ in range(6):
                i, j = rng.choice(4, size=2, replace=False)
                shear = np.eye(4)
                shear[i, j] = float(rng.integers(-2, 3))
                P = P @ shear
            M = P @ J @ np.linalg.inv(P)
            M_int = np.rint(M).astype(int)
            assert np.max(np.abs(M - M_int)) < 1e-9  # conjugation stays integral
            _, J_sym = sympy.Matrix(M_int.tolist()).jordan_form()
            sizes_exact = sorted(int(b.rows) for b in J_sym.get_diag_blocks())
            data = jordan_form(M_int.astype(float), tol=1e-6)
            sizes_numeric = sorted(size for _, size in data.blocks)
            assert sizes_numeric == sizes_exact

    def test_known_nilpotent_structure(self):
        # one 3-chain and one 2-chain, conjugated by a fixed integer basis;
        # a defective zero of index 3 splits its computed eigenvalues at the
        # cube root of rounding (~5e-6 here), so the clustering tolerance
        # must sit above that spread
        J = np.zeros((5, 5))
        J[0, 1] = J[1, 2] = J[3, 4] = 1.0
        P = np.array(
            [
                [1, 2, 0, 1, 0],
                [0, 1, 1, 0, 2],
                [1, 0, 1, 1, 0],
                [0, 1, 0, 2, 1],
                [1, 1, 0, 0, 1],
            ],
            dtype=float,
        )
        M = P @ J @ np.linalg.inv(P)
        data = jordan_form(M, tol=1e-4)
        assert sorted(size for _, size in data.blocks) == [2, 3]

    def test_too_tight_tolerance_is_signalled(self):
        from vvaf.representation import IllConditionedJordanError
        import pytest

        J = np.zeros((5, 5))
        J[0, 1] = J[1, 2] = J[3, 4] = 1.0
        P = np.array(
            [
                [1, 2, 0, 1, 0],
                [0, 1, 1, 0, 2],
                [1, 0, 1, 1, 0],
                [0, 1, 0, 2, 1],
                [1, 1, 0, 0, 1],
            ],
            dtype=float,
        )
        M = P @ J @ np.linalg.inv(P)
        with pytest.raises(IllConditionedJordanError):
            jordan_form(M, tol=1e-7)


def _mp_eta(tau):
    q = mpmath.exp(2j * mpmath.pi * tau)
    return mpmath.exp(1j * mpmath.pi * tau / 12) * mpmath.qp(q)


class TestMellinOracle:
    def test_delta_completed_value_against_mpmath(self):
        # independent route: Delta(iy) through mpmath's q-Pochhammer and the
        # Mellin integral through mpmath.quad, split at 1 with the inversion
        # symmetry Delta(i/y) = y^12 Delta(iy); the integrand beyond y = 8
        # is below exp(-16 pi), far under the tolerance
        with mpmath.workdps(20):
            for s in (8.0, 6.0):
                upper = mpmath.quad(lambda y: _mp_eta(1j * y) ** 24 * y ** (s - 1), [1, 2, 4, 8])
                lower = mpmath.quad(lambda y: _mp_eta(1j * y) ** 24 * y ** (11 - s), [1, 2, 4, 8])
                reference = complex(upper + lower)
                value = completed_L(delta_form(300), s).value[0]
                assert abs(value - reference) < 1e-10

    def test_eta4_component_values_against_mpmath(self):
        # the first component of the weight-2 form is eta^3 theta2
        Y = eta4_theta_eta_form(200)
        with mpmath.workdps(25):
            for y in (0.6, 1.0, 2.3):
                tau = 1j * mpmath.mpf(y)
                reference = complex(
                    _mp_eta(tau) ** 3 * mpmath.jtheta(2, 0, mpmath.exp(1j * mpmath.pi * tau))
                )
                value = Y.evaluate_many([complex(0, y)])[0, 0]
                assert abs(value - reference) < 1e-12


def _tau(nmax: int) -> list:
    """[0, tau(1), ..., tau(nmax)] as Python ints: the coefficients of q prod (1 - q^n)^24."""
    prod = [1] + [0] * (nmax - 1)  # prod (1 - q^n)^24 through q^(nmax - 1)
    for n in range(1, nmax):
        for _ in range(24):
            for i in range(nmax - 1, n - 1, -1):
                prod[i] -= prod[i - n]
    return [0] + prod


# Re s and Im s of the grid on which split-Mellin is checked against the oracle below
_GRID_RE = (0.5, 1, 2, 3, 4, 6, 8, 9, 10, 11, 11.5)
_GRID_IM = (0, 1, 3, 6, 10)


class TestSplitMellinGridOracle:
    def test_delta_grid_against_incomplete_gamma(self):
        # the Mellin integral of Delta split at y = 1, term by term:
        # Lambda(s) = sum_n tau(n) [(2 pi n)^-s Gamma(s, 2 pi n) + (2 pi n)^(s-12) Gamma(12 - s, 2 pi n)];
        # terms past n = 20 are below e^(-40 pi) of the first.  The sum is
        # symmetric under s -> 12 - s and tau is real, so the value at
        # 12 - conj(s) is the conjugate of the value at s
        tau = _tau(20)
        reference = {}
        with mpmath.workdps(30):
            for re in _GRID_RE[: len(_GRID_RE) // 2 + 1]:
                for im in _GRID_IM:
                    z = mpmath.mpc(re, im)
                    total = mpmath.mpf(0)
                    for n in range(1, 21):
                        x = 2 * mpmath.pi * n
                        total += tau[n] * (x**-z * mpmath.gammainc(z, x) + x ** (z - 12) * mpmath.gammainc(12 - z, x))
                    reference[complex(re, im)] = complex(total)
                    reference[complex(12 - re, im)] = complex(total).conjugate()
        D = delta_form(400)
        values = {s: completed_L(D, s) for s in reference}
        gaps = {s: abs(values[s].value[0] - value) for s, value in reference.items()}
        assert len(gaps) == len(_GRID_RE) * len(_GRID_IM)
        relative = {s: gap / abs(reference[s]) for s, gap in gaps.items()}
        worst = max(relative, key=relative.get)
        assert relative[worst] <= 1e-12, f"gap {relative[worst]:.2e} at s = {worst}"
        # the reported error covers the gap everywhere, and by a median
        # factor of about 7, not orders of magnitude
        short = {s: (values[s].error, gap) for s, gap in gaps.items() if values[s].error < gap}
        assert not short, f"error below the gap at {short}"
        assert np.median([values[s].error / max(gap, 1e-300) for s, gap in gaps.items()]) <= 10

    @pytest.mark.parametrize("s", [1, 1 + 5j, 0.5 + 10j, 0.7 + 0.5j, 1.5 + 3j])
    def test_eta4_against_incomplete_gamma(self, s):
        # each diagonal component sum_n c[n, i] q^(n + mu_i) integrates term by
        # term: from the split 1 up, lambda^-s Gamma(s, lambda) with
        # lambda = 2 pi (n + mu_i), and from the mirrored 1/h^2 up,
        # lambda^(s - k) Gamma(k - s, lambda / h^2); P maps both to the form,
        # and the mirror enters through (ih)^k h^(-2s) rho(S).  Terms past
        # n = 40 are below e^(-80 pi) of the first
        Y = eta4_theta_eta_form(100)
        table = Y.coefficient_table(40)[0]
        z = mpmath.mpc(s)
        upper, mirror = np.zeros(Y.m, dtype=complex), np.zeros(Y.m, dtype=complex)
        with mpmath.workdps(30):
            for i, offset in enumerate(Y.mu_offsets):
                above = below = mpmath.mpc(0)
                for n, c in enumerate(table[:, i]):
                    if c == 0:
                        continue
                    lam = 2 * mpmath.pi * (n + mpmath.mpf(offset.numerator) / offset.denominator)
                    above += complex(c) * lam**-z * mpmath.gammainc(z, lam)
                    below += complex(c) * lam ** (z - Y.k) * mpmath.gammainc(Y.k - z, lam / Y.h**2)
                upper[i], mirror[i] = complex(above), complex(below)
        factor = (1j * Y.h) ** Y.k * complex(Y.h) ** (-2.0 * complex(s))
        reference = Y.P @ upper + factor * (Y.rep.evaluate(gen_s()) @ (Y.P @ mirror))
        got = completed_L(Y, s)
        gap = float(np.max(np.abs(got.value - reference)))
        # at 0.7 + 0.5i the error from two rules' difference, 1.6e-15, fell below the gap, 1.8e-15
        assert gap <= got.error <= 100 * gap + 1e-15 * float(np.max(np.abs(reference)))


class TestCoefficientOracle:
    def test_delta_against_pentagonal_recursion(self):
        # independent tau(n) values from the classical divisor-sum recursion
        # n tau(n) sums sigma(k) tau(n-k) terms; use the Niebur formula
        # tau(n) = n^4 sigma(n) - 24 sum_{k<n} (35k^4 - 52k^3 n + 18k^2 n^2) sigma(k) sigma(n-k)
        def sigma(n):
            return sum(d for d in range(1, n + 1) if n % d == 0)

        def tau_niebur(n):
            total = n**4 * sigma(n)
            for k in range(1, n):
                total -= 24 * (35 * k**4 - 52 * k**3 * n + 18 * k**2 * n**2) * sigma(k) * sigma(n - k)
            return total

        D = delta_form(40)
        coeffs = D.basis_coefficients(12)[:, 0]
        for n in range(1, 13):
            assert int(round(coeffs[n].real)) == tau_niebur(n)


def _partitions(nmax: int) -> list:
    """p(0..nmax) as Python ints, by Euler's pentagonal recurrence."""
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if e <= n:
                    p[n] += sign * p[n - e]
            k += 1
    return p


class TestThetaEtaOracle:
    @pytest.mark.xfail(
        strict=True, reason="dividing by the eta series loses digits as N grows (3.8e-9 relative at N = 400)"
    )
    def test_basis_coefficients_against_partitions(self):
        # theta2/eta at n + 1/12 is 2 sum_m p(n - m(m+1)/2), and
        # (theta3 + theta4)/(sqrt 2 eta) at n - 1/24 is sqrt(1/2) (2 p(n) + 4 sum_k p(n - 2k^2))
        nmax = 400
        p = _partitions(nmax)

        def shifted_sum(n, gaps):
            return sum(p[n - gap] for gap in gaps if gap <= n)

        triangular = [m * (m + 1) // 2 for m in range(nmax)]
        twice_squares = [2 * k * k for k in range(1, nmax)]
        comp0 = [2 * shifted_sum(n, triangular) for n in range(nmax + 1)]
        comp1 = [2 * p[n] + 4 * shifted_sum(n, twice_squares) for n in range(nmax + 1)]
        reference = np.column_stack([np.array(comp0, dtype=float), math.sqrt(0.5) * np.array(comp1, dtype=float)])
        got = theta_eta_form(nmax).basis_coefficients(nmax)[:, :2]
        assert np.max(np.abs(got - reference) / reference) < 1e-12

    def test_accurate_up_to_the_largest_accepted_order(self):
        # at the 600 terms theta_eta_form accepts, every component is within
        # 1e-6 relative of its partition sum (3.9e-7 measured); the error
        # first passes 1e-6 at n = 635.  (theta3 - theta4)/(sqrt 2 eta) at
        # n + 11/24 is 2 sqrt 2 sum_k p(n - 2k(k+1))
        nmax = 600
        p = _partitions(nmax)

        def shifted_sum(n, gaps):
            return sum(p[n - gap] for gap in gaps if gap <= n)

        triangular = [m * (m + 1) // 2 for m in range(nmax)]
        twice_squares = [2 * k * k for k in range(1, nmax)]
        twice_pronic = [2 * k * (k + 1) for k in range(nmax)]
        reference = np.column_stack(
            [
                [2.0 * shifted_sum(n, triangular) for n in range(nmax + 1)],
                [math.sqrt(0.5) * (2 * p[n] + 4 * shifted_sum(n, twice_squares)) for n in range(nmax + 1)],
                [2.0 * math.sqrt(2.0) * shifted_sum(n, twice_pronic) for n in range(nmax + 1)],
            ]
        )
        got = theta_eta_form(nmax).basis_coefficients(nmax)
        assert np.max(np.abs(got - reference) / reference) < 1e-6

    def test_refused_past_the_accurate_order(self):
        with pytest.raises(ValueError, match="^theta-eta takes at most 600 terms, got 601: dividing by the eta series"):
            theta_eta_form(601)


# Kohnen and Zagier, "Modular forms with rational periods" (1984): the
# period polynomial of Delta makes Lambda(3)/Lambda(1), Lambda(5)/Lambda(1),
# Lambda(4)/Lambda(2) and Lambda(6)/Lambda(2) rational
_DELTA_PERIOD_RATIOS = {
    (3, 1): Fraction(691, 1620),
    (5, 1): Fraction(691, 2520),
    (4, 2): Fraction(25, 48),
    (6, 2): Fraction(5, 12),
}


class TestPeriodRatios:
    @pytest.fixture(scope="class")
    def values(self):
        return {s: completed_L(delta_form(400), s) for s in range(1, 7)}

    @pytest.mark.parametrize("pair", list(_DELTA_PERIOD_RATIOS), ids=lambda pair: f"L{pair[0]}/L{pair[1]}")
    def test_ratio_within_todays_error(self, values, pair):
        # the Mellin cutoff leaves the ratios off by up to 1.0e-12 relative;
        # a change that moves them further fails here
        top, bottom = (values[s].value[0] for s in pair)
        assert abs(top / bottom / float(_DELTA_PERIOD_RATIOS[pair]) - 1) < 5e-12

    @pytest.mark.parametrize("pair", list(_DELTA_PERIOD_RATIOS), ids=lambda pair: f"L{pair[0]}/L{pair[1]}")
    def test_ratio_within_reported_error(self, values, pair):
        # first-order propagation of each value's reported error into the
        # ratio, plus two roundings: the division and the rational's float
        top, bottom = (values[s] for s in pair)
        ratio = top.value[0] / bottom.value[0]
        budget = top.error / abs(top.value[0]) + bottom.error / abs(bottom.value[0]) + 2 * np.finfo(float).eps
        assert abs(ratio / float(_DELTA_PERIOD_RATIOS[pair]) - 1) <= budget


class TestEichlerOracle:
    def test_shift_against_brute_force(self):
        from vvaf.moebius import eichler_shift, random_element

        rng = np.random.default_rng(313)
        for _ in range(200):
            g = random_element(rng, entry_bound=10**5)
            n, tail = eichler_shift(g, 1)
            best = min(range(-12, 13), key=lambda m: (g.a - m * g.c) ** 2 + (g.b - m * g.d) ** 2)
            size = (g.a - n * g.c) ** 2 + (g.b - n * g.d) ** 2
            brute = (g.a - best * g.c) ** 2 + (g.b - best * g.d) ** 2
            if abs(n) <= 12:
                assert size == brute
            assert t_power(n) * tail == g
