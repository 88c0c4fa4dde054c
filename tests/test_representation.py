import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from vvaf.moebius import (
    GroupElement,
    cusp_classes,
    gamma0_n,
    gamma_n,
    gen_s,
    gen_t,
    identity,
    left_transversal,
    random_element,
    t_power,
)
from vvaf.representation import (
    Representation,
    SamplerConfig,
    builtin,
    growth_exponent,
    induce,
    induced_image,
    is_admissible,
    is_polynomial_growth,
    is_unitary_sampled,
    jordan_form,
    mu,
    parabolic_power_norms,
    validate,
)

PHI = (1 + math.sqrt(5)) / 2


class TestValidate:
    def test_theta_eta_passes(self):
        report = validate(builtin("theta-eta"))
        assert report.passed
        assert report.s_relation_deviation < 1e-14
        assert report.st_relation_deviation < 1e-14

    def test_nonpoly_passes(self):
        rho = builtin("nonpoly", a=1j)
        # the construction constraints, then the relations
        lam = np.diag(rho.mat_t)
        assert abs(lam[0] * lam[1] + lam[2] ** 2) < 1e-12  # l1 l2 = -l3^2
        assert abs(1.0 / (lam[0] * lam[1] * (lam[0] - lam[1])) - 1j) < 1e-12
        report = validate(rho)
        assert report.passed

    def test_failing_pair(self):
        # s = I, t = translation: (st)^3 = ((1,3),(0,1)) != I by direct multiplication
        rho = Representation(np.eye(2), np.array([[1, 1], [0, 1]]))
        report = validate(rho)
        assert not report.passed
        assert report.st_relation_deviation == pytest.approx(3.0)

    def test_nonpoly_warns_off_axis(self):
        with pytest.warns(UserWarning):
            builtin("nonpoly", a=0.5 + 1j)

    def test_singular_image_rejected(self):
        with pytest.raises(ValueError):
            Representation(np.array([[1, 0], [0, 1e-14]]), np.eye(2))


class TestEvaluate:
    def test_identity(self):
        rho = builtin("theta-eta")
        assert np.allclose(rho.evaluate(identity()), np.eye(3))

    def test_translation_power(self):
        rho = builtin("theta-eta")
        expected = np.linalg.matrix_power(rho.mat_t, 5)
        assert np.allclose(rho.evaluate(t_power(5)), expected, atol=1e-13)

    def test_alternative_word_cross_check(self):
        # ((2,1),(1,1)) equals t s t^-1 s up to sign
        rho = builtin("theta-eta")
        g = GroupElement(2, 1, 1, 1)
        direct = rho.evaluate(g)
        t_inv = np.linalg.inv(rho.mat_t)
        alt = rho.mat_t @ rho.mat_s @ t_inv @ rho.mat_s
        assert np.allclose(direct, alt, atol=1e-12)

    def test_homomorphism_all_builtins(self):
        rng = np.random.default_rng(41)
        for name, kwargs, pairs, maxexp in [
            ("theta-eta", {}, 500, 6),
            ("sym2", {}, 500, 6),
            ("trivial", {}, 100, 6),
            ("nonpoly", {"a": 1j}, 500, 3),
        ]:
            rho = builtin(name, **kwargs)
            for _ in range(pairs):
                g1 = _short_word_element(rng, maxexp)
                g2 = _short_word_element(rng, maxexp)
                lhs = rho.evaluate(g1 * g2)
                rhs = rho.evaluate(g1) @ rho.evaluate(g2)
                scale = max(1.0, float(np.linalg.norm(lhs)))
                assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("theta-eta", {"a": 2}, "'theta-eta' takes no parameters; got a"),
            ("sym2", {"group": gamma_n(2)}, "'sym2' takes no parameters; got group"),
            ("nonpoly", {"group": gamma_n(2)}, "'nonpoly' takes only a; got group"),
            ("trivial", {"a": 1j, "b": 0}, "'trivial' takes only group; got a, b"),
        ],
        ids=["theta-eta", "sym2", "nonpoly", "trivial"],
    )
    def test_builtin_refuses_parameters_not_taken(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            builtin(name, **params)

    def test_builtin_applies_parameter_a(self):
        a = 0.5j
        assert np.allclose(builtin("nonpoly", a=a).mat_s[0], [a, -(a + 1), 1])

    def test_group_must_be_a_subgroup_descriptor(self):
        with pytest.raises(ValueError, match="group must be a SubgroupDescriptor, got 2"):
            Representation(np.eye(1), np.eye(1), group=2)

    def test_membership_enforced(self):
        rho = builtin("trivial", group=gamma_n(2))
        with pytest.raises(ValueError):
            rho.evaluate(gen_t())
        assert np.allclose(rho.evaluate(t_power(2)), np.eye(1))

    def test_repeated_evaluation_equal(self):
        rho = Representation(builtin("theta-eta").mat_s, builtin("theta-eta").mat_t)
        g = GroupElement(2, 1, 1, 1)
        first = rho.evaluate(g)
        second = rho.evaluate(g)
        assert np.allclose(first, second)

    def test_removed_delta_alias_unknown(self):
        with pytest.raises(ValueError, match="unknown builtin representation"):
            builtin("delta-multiplier-weight-12-trivial")


def _short_word_element(rng, max_exponent):
    g = identity()
    for _ in range(int(rng.integers(1, 7))):
        exp = int(rng.integers(-max_exponent, max_exponent + 1))
        g = g * t_power(exp) * gen_s()
    return g


# elements whose theta-eta images drifted off unitarity by 1.1e-10 when
# rho(t)^e came from repeated squaring (words with t^356615 and t^364203)
_LONG_T_ELEMENTS = [
    GroupElement(411976815334, 281808245029, -991568965315, -678271930701),
    GroupElement(-705863605075, -2117592753327, 221377842638, 664134135755),
]
_BIT_EXPONENTS = [e for n in range(1, 71) for e in (n, -n)] + [e for k in range(21) for e in (2**k, -(2**k))] + [6620]


def _theta_eta_t_power_exact(e: int) -> np.ndarray:
    """rho(t)^e of theta-eta from e mod 12 and e mod 24: diag(w6^e, w12^e X^e), X the swap."""
    exact = np.zeros((3, 3), dtype=complex)
    exact[0, 0] = np.exp(1j * np.pi * (e % 12) / 6)
    exact[1:, 1:] = np.exp(-1j * np.pi * (e % 24) / 12) * (np.eye(2) if e % 2 == 0 else np.eye(2)[::-1])
    return exact


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _mixed_elements() -> list:
    rng = np.random.default_rng(71)
    return [random_element(rng, entry_bound=10**9) for _ in range(40)] + [t_power(e) for e in (-6620, -3, 3, 25, 6620)]


class TestTranslationPowers:
    @pytest.mark.parametrize(
        "e", [e for n in range(1, 31) for e in (n, -n)] + [6620, 364203, 10**6 + 1, 10**9 + 7, -(10**12) - 3]
    )
    def test_theta_eta_power_matches_exact_value(self, e):
        gap = np.max(np.abs(builtin("theta-eta").evaluate(t_power(e)) - _theta_eta_t_power_exact(e)))
        assert gap <= 4e-15

    @pytest.mark.parametrize("g", _LONG_T_ELEMENTS, ids=["long-t-356615", "long-t-364203"])
    def test_theta_eta_image_of_long_t_word_is_unitary(self, g):
        image = builtin("theta-eta").evaluate(g)
        assert np.max(np.abs(image @ image.conj().T - np.eye(3))) <= 1e-13

    def test_finite_order_keeps_matrix_power_bits_below_the_order(self):
        rho = builtin("theta-eta")  # rho(t) has order 24
        for e in range(24):
            assert _same_bits(rho.evaluate(t_power(e)), np.linalg.matrix_power(rho.mat_t, e)), e

    @pytest.mark.parametrize("name", ["sym2", "nonpoly"])
    def test_infinite_order_keeps_matrix_power_bits(self, name):
        rho = builtin(name)
        with np.errstate(over="ignore", invalid="ignore"):  # nonpoly's powers overflow from 2^11 on
            for e in _BIT_EXPONENTS:
                assert _same_bits(rho.evaluate(t_power(e)), np.linalg.matrix_power(rho.mat_t, e)), e

    def test_induced_gamma5_images_stay_permutation_matrices(self):
        group = gamma_n(5)
        induced = induce(builtin("trivial", group=group), left_transversal(group))
        for g in _mixed_elements():
            image = induced.evaluate(g)
            assert np.all((image == 0) | (image == 1))
            assert np.all(image.sum(axis=0) == 1) and np.all(image.sum(axis=1) == 1)

    @pytest.mark.parametrize("name, e", [("theta-eta", 5), ("theta-eta", -7), ("sym2", 4), ("sym2", -8192)])
    def test_memoized_power_refuses_writes(self, name, e):
        image = builtin(name).evaluate(t_power(e))
        with pytest.raises(ValueError, match="read-only"):
            image[0, 0] = 0

    @pytest.mark.parametrize("name", ["theta-eta", "sym2"])
    def test_fresh_memo_gives_serial_bits_in_any_order(self, name):
        elements = _mixed_elements()
        serial = [builtin(name).evaluate(g) for g in elements]
        backwards = builtin(name)
        reversed_images = [backwards.evaluate(g) for g in reversed(elements)][::-1]
        assert all(_same_bits(a, b) for a, b in zip(reversed_images, serial))
        shared = builtin(name)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the memo updates
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda: [shared.evaluate(g) for g in elements]) for _ in range(4)]
                runs = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_bits(a, b) for images in runs for a, b in zip(images, serial))


def _mu_by_search(angles):
    """The search loop that ``limit_denominator`` replaced, kept as the reference.

    For each lam = exp(2 pi i angle) it tries k = 1..1000 in turn and
    returns Fraction(p % k, k) for the first k whose nearest p/k lies
    within 1e-10/(2 pi) of the angle, else the float angle.  The k run as
    one array per angle: round(value * k) and p / k are exact or correctly
    rounded either way, so each test has the loop's bits.
    """
    ks = np.arange(1, 1001)
    out = []
    for angle in angles:
        lam = complex(np.exp(2j * np.pi * angle))
        value = math.atan2(lam.imag, lam.real) / (2 * math.pi) % 1.0
        ps = np.rint(value * ks)
        hits = np.flatnonzero(np.abs(value - ps / ks) < 1e-10 / (2 * math.pi))
        if len(hits):
            k = int(ks[hits[0]])
            out.append(Fraction(int(ps[hits[0]]) % k, k))
        else:
            out.append(value)
    return out


class TestMu:
    def test_simple_values(self):
        assert mu(1) == 0
        assert mu(-1) == Fraction(1, 2)

    def test_forced_value(self):
        assert mu(-np.exp(-1j * np.pi / 12)) == Fraction(11, 24)

    def test_round_trip_on_floats(self):
        for value in np.linspace(0.0, 0.999, 37):
            lam = np.exp(2j * np.pi * value)
            out = mu(lam)
            assert abs(float(out) - value) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            mu(1.5)

    @pytest.mark.parametrize(
        "lam",
        [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)],
        ids=["nan-real", "nan-imag", "inf"],
    )
    def test_rejects_non_finite_by_name(self, lam):
        # abs(abs(nan) - 1) > tol is False, so NaN used to reach Fraction
        with pytest.raises(ValueError, match="is not on the unit circle"):
            mu(lam)

    def test_float_fallback_beyond_order_bound(self):
        value = mu(np.exp(2j * np.pi * 0.123456789))
        assert isinstance(value, float)

    def test_matches_search_loop(self):
        # roots of unity of every order up to 1000, exact and moved by less
        # and by more than the tolerance, plus random angles
        rng = np.random.default_rng(59)
        roots = [Fraction(p, k) for k in range(1, 1001) for p in {1 % k, int(rng.integers(0, k))}]
        angles = [float(r) + shift for r in roots for shift in (0.0, 1e-13, -1e-13, 2e-11, -2e-11)]
        angles += rng.uniform(-1.0, 2.0, size=2000).tolist()
        for angle, want in zip(angles, _mu_by_search(angles), strict=True):
            got = mu(np.exp(2j * np.pi * angle))
            assert type(got) is type(want)
            assert got == want


class TestJordan:
    def test_diagonal(self):
        data = jordan_form(np.diag([2.0, 3.0]))
        assert data.blocks == ((2 + 0j, 1), (3 + 0j, 1))
        assert np.allclose(data.P, np.eye(2))

    def test_canonical_block(self):
        data = jordan_form(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert len(data.blocks) == 1
        assert data.blocks[0][1] == 2

    def test_rotation_eigenvalues(self):
        # characteristic polynomial x^2 + 1 has roots +-i
        data = jordan_form(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        eigs = sorted((lam.imag for lam, _ in data.blocks))
        assert eigs == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_reconstruction_invariant_on_builtins(self):
        for name in ("theta-eta", "sym2", "trivial"):
            M = builtin(name).mat_t
            data = jordan_form(M)
            J = np.zeros_like(M)
            pos = 0
            for lam, size in data.blocks:
                J[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.eye(size, k=1)
                pos += size
            recon = data.P @ J @ np.linalg.inv(data.P)
            assert np.linalg.norm(recon - M) <= 1e-7 * max(1.0, np.linalg.norm(M))
            assert sum(size for _, size in data.blocks) == M.shape[0]

    def test_random_conjugated_blocks(self):
        rng = np.random.default_rng(51)
        J = np.array(
            [
                [2.0, 1.0, 0.0, 0.0],
                [0.0, 2.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 2.0],
            ]
        )
        for _ in range(20):
            P = rng.normal(size=(4, 4)) + 0.1 * np.eye(4)
            while abs(np.linalg.det(P)) < 0.5:
                P = rng.normal(size=(4, 4)) + 0.1 * np.eye(4)
            M = P @ J @ np.linalg.inv(P)
            data = jordan_form(M, tol=1e-6)
            sizes = sorted(size for _, size in data.blocks)
            assert sizes == [1, 1, 2]


class TestStructure:
    def test_admissibility(self):
        assert is_admissible(builtin("theta-eta"))
        assert not is_admissible(builtin("sym2"))
        assert is_admissible(builtin("trivial"))

    def test_polynomial_growth_flags(self):
        assert is_polynomial_growth(builtin("theta-eta"))
        assert is_polynomial_growth(builtin("sym2"))
        assert is_polynomial_growth(builtin("trivial"))
        assert not is_polynomial_growth(builtin("nonpoly", a=1j))

    def test_parabolic_power_norms_trivial(self):
        out = parabolic_power_norms(builtin("trivial"), nmax=50)
        assert np.allclose(out["norms"], 1.0)
        assert abs(out["loglog_slope"]) < 1e-10

    def test_parabolic_power_norms_sym2(self):
        out = parabolic_power_norms(builtin("sym2"), nmax=200)
        assert out["loglog_slope"] <= 2.1  # dimension 3, slope bound m - 1 + 0.1

    @pytest.mark.parametrize("nmax", [0, -3])
    def test_parabolic_power_norms_refuses_nmax_below_one(self, nmax):
        with pytest.raises(ValueError, match=f"nmax must be at least 1, got {nmax}"):
            parabolic_power_norms(builtin("sym2"), nmax=nmax)

    def test_nonpoly_exponential_rate(self):
        out = parabolic_power_norms(builtin("nonpoly", a=1j), nmax=60)
        assert out["exp_rate"] == pytest.approx(math.log(PHI), abs=0.01)

    def test_nonpoly_beats_fixed_powers(self):
        # doubling n multiplies any n^p law by 2^p; the observed factor over
        # n = 30 -> 60 is phi^30 ~ 2e6, far beyond 2^8
        out = parabolic_power_norms(builtin("nonpoly", a=1j), nmax=60)
        assert out["norms"][59] / out["norms"][29] > 2.0**8


class TestInduce:
    def test_identity_induction(self):
        rho = builtin("theta-eta")
        out = induce(rho, [identity()])
        assert np.allclose(out.mat_s, rho.mat_s)
        assert np.allclose(out.mat_t, rho.mat_t)

    def test_gamma2_permutation_representation(self):
        group = gamma_n(2)
        rho = builtin("trivial", group=group)
        reps = left_transversal(group)
        induced = induce(rho, reps)
        assert induced.m == 6
        assert validate(induced).passed
        # each generator image is a permutation matrix
        for mat in (induced.mat_s, induced.mat_t):
            binary = np.abs(mat)
            assert np.allclose(binary @ binary.T, np.eye(6), atol=1e-12)
            assert np.allclose(np.sum(binary, axis=0), 1.0)
        eigs = np.linalg.eigvals(induced.mat_t)
        assert np.allclose(np.abs(eigs), 1.0, atol=1e-10)

    def test_gamma0_permutation_representation(self):
        # Gamma0(N) is not normal, so only a transversal of left cosets works
        for level in (7, 11):
            group = gamma0_n(level)
            induced = induce(builtin("trivial", group=group), left_transversal(group))
            assert induced.m == group.index
            assert validate(induced).passed

    def test_block_pattern_random_elements(self):
        group = gamma_n(2)
        rho = builtin("trivial", group=group)
        reps = left_transversal(group)
        rng = np.random.default_rng(61)
        for _ in range(100):
            g = random_element(rng, entry_bound=500)
            image = induced_image(rho, reps, g)
            binary = (np.abs(image) > 1e-12).astype(int)
            assert np.all(binary.sum(axis=0) == 1)
            assert np.all(binary.sum(axis=1) == 1)

    def test_induced_matches_word_evaluation(self):
        group = gamma_n(2)
        rho = builtin("trivial", group=group)
        reps = left_transversal(group)
        induced = induce(rho, reps)
        rng = np.random.default_rng(67)
        for _ in range(50):
            g = random_element(rng, entry_bound=200)
            assert np.allclose(induced.evaluate(g), induced_image(rho, reps, g), atol=1e-9)

    def test_induction_preserves_growth_class(self):
        group = gamma_n(2)
        reps = left_transversal(group)
        trivial = builtin("trivial", group=group)
        assert is_polynomial_growth(trivial)
        assert is_polynomial_growth(induce(trivial, reps))
        nonpoly = builtin("nonpoly", a=1j)
        nonpoly_restricted = Representation(nonpoly.mat_s, nonpoly.mat_t, group=group)
        assert not is_polynomial_growth(nonpoly_restricted)
        assert not is_polynomial_growth(induce(nonpoly_restricted, reps))

    def test_invalid_transversal_rejected(self):
        group = gamma_n(2)
        rho = builtin("trivial", group=group)
        reps = left_transversal(group)
        with pytest.raises(ValueError):
            induce(rho, reps[:3])
        with pytest.raises(ValueError, match="representatives 1 and 2 lie in the same coset"):
            induce(rho, [reps[0], reps[1], reps[1] * t_power(2)] + reps[3:])

    def test_empty_transversal_rejected(self):
        rho = builtin("trivial", group=gamma_n(2))
        with pytest.raises(ValueError, match="expected 6 coset representatives, got 0"):
            induce(rho, [])

    @pytest.mark.parametrize("group", [gamma0_n(101), gamma_n(5), gamma0_n(36)], ids=lambda group: group.name)
    def test_coset_work_linear_in_index(self, group):
        # a pairwise coset search would make about index^2 label calls
        calls = [0]

        def coset(g):
            calls[0] += 1
            return group.coset(g)

        counted = dataclasses.replace(group, coset=coset)
        calls[0] = 0
        reps = left_transversal(counted)
        assert calls[0] <= 3 * group.index + 1
        calls[0] = 0
        cusp_classes(counted)
        assert calls[0] <= 6 * group.index
        rho = builtin("trivial", group=counted)
        calls[0] = 0
        induce(rho, reps)
        assert calls[0] <= 60 * group.index


class TestGrowthExponent:
    def test_trivial_is_flat(self):
        fit = growth_exponent(builtin("trivial"), SamplerConfig(seed=1, n_samples=100))
        assert fit.classification == "polynomial"
        assert fit.alpha_emp == pytest.approx(0.0, abs=1e-9)

    def test_theta_eta_nearly_flat(self):
        fit = growth_exponent(builtin("theta-eta"), SamplerConfig(seed=2, n_samples=200))
        assert fit.classification == "polynomial"
        assert fit.alpha_emp <= 0.05
        # unitary image keeps the norm pinned at sqrt(3)
        assert fit.max_ratio <= math.sqrt(3) * 1.05

    def test_refuses_fewer_than_one_sample(self):
        with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
            growth_exponent(builtin("trivial"), SamplerConfig(n_samples=0))

    def test_nonpoly_exponential(self):
        fit = growth_exponent(builtin("nonpoly", a=1j))
        assert fit.classification == "exponential"
        assert fit.exp_rate == pytest.approx(math.log(PHI), abs=0.01)

    def test_unitary_detection(self):
        assert is_unitary_sampled(builtin("theta-eta"))
        assert not is_unitary_sampled(builtin("nonpoly", a=1j))
        assert not is_unitary_sampled(builtin("sym2"))

    def test_polynomial_direction_of_dichotomy(self):
        # polynomial-growth flag true implies the sampler also fits polynomial
        for name in ("theta-eta", "sym2", "trivial"):
            fit = growth_exponent(builtin(name), SamplerConfig(seed=3, n_samples=150))
            assert fit.classification == "polynomial"
