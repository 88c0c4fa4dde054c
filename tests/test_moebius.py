import math
from fractions import Fraction

import numpy as np
import pytest

from vvaf.moebius import (
    INF,
    GroupElement,
    Word,
    apply_moebius,
    classify,
    cusp_classes,
    cusp_width,
    eichler_shift,
    gamma0_n,
    gamma_n,
    gen_s,
    gen_t,
    identity,
    integral_scaling_matrix,
    j_factor,
    left_transversal,
    psl2z,
    random_element,
    t_power,
    word_decompose,
)


class TestGroupElement:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(1, 0, 0, 2)

    def test_sign_normalization_idempotent(self):
        g = GroupElement(-2, -1, -1, -1)
        assert g.entries() == (2, 1, 1, 1)
        again = GroupElement(*g.entries())
        assert again.entries() == g.entries()

    def test_minus_g_normalizes_identically(self):
        g = GroupElement(2, 1, 1, 1)
        neg = GroupElement(-2, -1, -1, -1)
        assert g == neg

    def test_c_zero_sign_rule(self):
        g = GroupElement(-1, 3, 0, -1)
        assert g.entries() == (1, -3, 0, 1)

    def test_inverse_and_product(self):
        g = GroupElement(2, 1, 1, 1)
        assert g * g.inverse() == identity()

    def test_power(self):
        assert gen_t() ** 5 == t_power(5)
        assert gen_t() ** -3 == t_power(-3)

    def test_json_round_trip(self):
        g = GroupElement(2, 1, 1, 1)
        assert GroupElement.from_json(g.to_json()) == g

    @pytest.mark.parametrize("entries", [(1.0, 0, 0, 1), (Fraction(1, 2), 0, 0, 2), (1, 0, 0, "1")])
    def test_refuses_non_integer_entries(self, entries):
        with pytest.raises(ValueError, match="entries must be integers"):
            GroupElement(*entries)

    def test_numpy_integers_become_ints(self):
        g = GroupElement(np.int64(2), 1, 1, 1)
        assert g == GroupElement(2, 1, 1, 1)
        assert all(type(x) is int for x in g.entries())
        assert word_decompose(g).evaluate() == g

    def test_sign_classes_collapse_in_set_and_dict(self):
        g = GroupElement(2, 1, 1, 1)
        neg = GroupElement(-2, -1, -1, -1)
        assert len({g, neg}) == 1
        assert {g: "g", neg: "neg"} == {g: "neg"}


class TestApply:
    def test_s_fixes_i(self):
        assert abs(apply_moebius(gen_s(), 1j) - 1j) < 1e-15

    def test_t_translates(self):
        tau = 0.3 + 1.7j
        assert abs(apply_moebius(gen_t(), tau) - (tau + 1)) < 1e-15

    def test_hyperbolic_example(self):
        # ((2,1),(1,1)) at i: (2i+1)/(i+1) = (3+i)/2 by direct arithmetic
        g = GroupElement(2, 1, 1, 1)
        expected = (2 * 1j + 1) / (1j + 1)
        assert abs(apply_moebius(g, 1j) - expected) < 1e-15
        assert abs(expected - (3 + 1j) / 2) < 1e-15

    def test_infinity_handling(self):
        g = GroupElement(2, 1, 1, 1)
        assert apply_moebius(g, INF) == 2
        assert apply_moebius(gen_t(), INF) == INF
        assert apply_moebius(gen_s(), 0) == INF

    def test_preserves_upper_half_plane(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_element(rng, entry_bound=50)
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            assert apply_moebius(g, tau).imag > 0

    def test_imaginary_part_identity(self):
        # Im(g tau) = Im(tau) / |j(g, tau)|^2
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_element(rng, entry_bound=1000)
            tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 5))
            lhs = apply_moebius(g, tau).imag
            rhs = tau.imag / abs(j_factor(g, tau)) ** 2
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestClassify:
    def test_generators(self):
        assert classify(gen_s()) == "elliptic"
        assert classify(t_power(3)) == "parabolic"
        assert classify(GroupElement(2, 1, 1, 1)) == "hyperbolic"
        assert classify(identity()) == "identity"

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        samples = [gen_s(), t_power(4), GroupElement(2, 1, 1, 1), GroupElement(1, -1, 1, 0)]
        for g in samples:
            label = classify(g)
            for _ in range(20):
                h = random_element(rng, entry_bound=100)
                assert classify(h * g * h.inverse()) == label


class TestJFactor:
    def test_simple_values(self):
        assert j_factor(gen_t(), 2j) == 1
        assert j_factor(gen_s(), 1j) == 1j

    def test_cocycle_single(self):
        # j(st, 2i) = j(s, t(2i)) * j(t, 2i), both sides evaluated numerically
        tau = 2j
        st = gen_s() * gen_t()
        lhs = j_factor(st, tau)
        rhs = j_factor(gen_s(), apply_moebius(gen_t(), tau)) * j_factor(gen_t(), tau)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_cocycle_random(self):
        # elements are sign-normalized, so the identity holds up to the
        # PSL2 sign; even weights make that ambiguity invisible downstream
        rng = np.random.default_rng(5)
        for _ in range(1000):
            g1 = random_element(rng, entry_bound=200)
            g2 = random_element(rng, entry_bound=200)
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
            lhs = j_factor(g1 * g2, tau)
            rhs = j_factor(g1, apply_moebius(g2, tau)) * j_factor(g2, tau)
            assert min(abs(lhs - rhs), abs(lhs + rhs)) <= 1e-10 * max(1.0, abs(rhs))


class TestWordDecompose:
    def test_generator(self):
        w = word_decompose(gen_s())
        assert w.letters == (("s", 1),)

    def test_translation_power(self):
        w = word_decompose(GroupElement(1, 5, 0, 1))
        assert w.letters == (("t", 5),)

    def test_known_word(self):
        # t s t^-1 s multiplies out to -((2,1),(1,1)), i.e. the same PSL2 element
        g = GroupElement(2, 1, 1, 1)
        w = word_decompose(g)
        assert w.evaluate() == g
        product = gen_t() * gen_s() * t_power(-1) * gen_s()
        assert product == g

    def test_rejects_non_integral(self):
        # a non-integral matrix never becomes an element, so it never reaches word_decompose
        with pytest.raises(ValueError, match=r"entries must be integers, got a=Fraction\(1, 2\)$"):
            word_decompose(GroupElement(Fraction(1, 2), -1, 1, 0))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            g = random_element(rng)
            w = word_decompose(g)
            assert w.evaluate() == g
            bound = 4 * math.log2(max(abs(e) for e in g.entries()) + 2) + 10
            assert len(w) <= bound

    def test_product_reconstruction(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            g1 = random_element(rng, entry_bound=1000)
            g2 = random_element(rng, entry_bound=1000)
            assert word_decompose(g1 * g2).evaluate() == g1 * g2

    def test_word_reduction_no_adjacent_repeats(self):
        w = Word((("t", 2), ("t", 3), ("s", 1), ("s", 1), ("t", -5)))
        assert w.letters == ()  # t^5 s s t^-5 collapses entirely
        w2 = Word((("s", -1), ("t", 0), ("s", 1)))
        assert w2.letters == ()

    def test_word_json(self):
        w = word_decompose(GroupElement(2, 1, 1, 1))
        assert Word.from_json(w.to_json()) == w


class TestCusps:
    def test_cusp_width_full_group(self):
        assert cusp_width(psl2z(), INF) == 1

    def test_cusp_width_gamma2(self):
        # smallest h with t^h = I mod 2
        assert cusp_width(gamma_n(2), INF) == 2

    def test_cusp_width_gamma0_4(self):
        assert cusp_width(gamma0_n(4), Fraction(1, 2)) == 1
        assert cusp_width(gamma0_n(4), INF) == 1
        assert cusp_width(gamma0_n(4), 0) == 4

    def test_integral_scaling(self):
        sigma = integral_scaling_matrix(Fraction(1, 2))
        assert all(type(x) is int for x in sigma.entries())
        assert apply_moebius(sigma, INF) == 0.5

    def test_cusp_classes_gamma2(self):
        classes = cusp_classes(gamma_n(2))
        assert len(classes) == 3
        widths = sorted(w for _, w, _ in classes)
        assert widths == [2, 2, 2]
        group = gamma_n(2)
        for _, width, generator in classes:
            assert group.contains(generator)
            assert classify(generator) == "parabolic"

    def test_cusp_classes_gamma0_4(self):
        classes = cusp_classes(gamma0_n(4))
        widths = sorted(w for _, w, _ in classes)
        assert widths == [1, 1, 4]


class TestEichlerShift:
    def test_pure_translation(self):
        n, tail = eichler_shift(t_power(7), 1)
        assert n == 7
        assert tail == identity()

    def test_known_example(self):
        # brute force over n in [-10, 10] minimizing the top row size
        g = GroupElement(5, 2, 2, 1)
        best = min(
            range(-10, 11),
            key=lambda n: (g.a - n * g.c) ** 2 + (g.b - n * g.d) ** 2,
        )
        n, tail = eichler_shift(g, 1)
        assert n == best == 2
        assert tail == GroupElement(1, 0, 2, 1)

    def test_s_already_minimal(self):
        n, tail = eichler_shift(gen_s(), 1)
        assert n == 0
        assert tail == gen_s()

    def test_local_optimality(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_element(rng, entry_bound=10**4)
            n, tail = eichler_shift(g, 1)
            size = tail.a**2 + tail.b**2
            for dn in range(-5, 6):
                aa = g.a - (n + dn) * g.c
                bb = g.b - (n + dn) * g.d
                assert size <= aa * aa + bb * bb

    def test_decomposition_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = random_element(rng, entry_bound=10**4)
            n, tail = eichler_shift(g, 1)
            assert t_power(n) * tail == g


class TestTransversals:
    def test_gamma2_transversal(self):
        group = gamma_n(2)
        reps = left_transversal(group)
        assert len(reps) == 6
        assert reps[0] == identity()
        for i, gi in enumerate(reps):
            for j, gj in enumerate(reps):
                if i != j:
                    assert not group.contains(gi.inverse() * gj)

    def test_index_values(self):
        assert gamma_n(2).index == 6
        assert gamma_n(3).index == 12
        assert gamma0_n(2).index == 3
        assert gamma0_n(4).index == 6
