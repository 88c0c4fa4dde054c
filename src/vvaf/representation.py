"""Finite-dimensional representations of PSL2(Z) and finite-index subgroups.

A representation is specified by the images of the generators s and t;
arbitrary elements are evaluated by multiplying generator images along the
Euclidean word decomposition.  Subgroup representations reuse the same
generator-image data restricted to the subgroup, whose descriptor labels
right cosets (all built-in subgroup cases arise as restrictions).

The generator images never change after construction.  A representation
memoizes the powers of its translation image that evaluation forms, as
read-only arrays, and publishes each new memo entry or list in a single
assignment, so concurrent evaluation is safe and reads the bits of serial
evaluation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from vvaf import moebius
from vvaf.moebius import GroupElement, SubgroupDescriptor, gen_s, gen_t, psl2z, word_decompose

__all__ = [
    "Representation",
    "ValidationReport",
    "JordanData",
    "GrowthFit",
    "IllConditionedJordanError",
    "SamplerConfig",
    "validate",
    "mu",
    "jordan_form",
    "is_admissible",
    "is_polynomial_growth",
    "parabolic_power_norms",
    "induce",
    "induced_image",
    "growth_exponent",
    "is_unitary_sampled",
    "builtin",
]

_COND_GUARD = 1e-10
_RELATION_TOL = 1e-10  # s^2 = 1 and (st)^3 = 1, entrywise
_MU_MAX_ORDER = 1000  # largest root-of-unity order mu recognizes
_UNIT_CIRCLE_TOL = 1e-8  # distance of a parabolic eigenvalue from |z| = 1
_UNITARY_SAMPLES = 50
_UNITARY_TOL = 1e-10
_WORD_ENTRY_BOUND = 10**6  # largest entry a sampled word may reach


class Representation:
    """Generator images (mat_s, mat_t) plus an optional subgroup restriction."""

    def __init__(self, mat_s, mat_t, group: SubgroupDescriptor | None = None):
        self.mat_s = np.array(mat_s, dtype=complex)
        self.mat_t = np.array(mat_t, dtype=complex)
        if self.mat_s.shape != self.mat_t.shape or self.mat_s.ndim != 2:
            raise ValueError("generator images must be square matrices of equal size")
        if self.mat_s.shape[0] != self.mat_s.shape[1]:
            raise ValueError("generator images must be square")
        self.m = self.mat_s.shape[0]
        if group is not None and not isinstance(group, SubgroupDescriptor):
            raise ValueError(f"group must be a SubgroupDescriptor, got {group!r}")
        self.group = group if group is not None else psl2z()
        for name, mat in (("s", self.mat_s), ("t", self.mat_t)):
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= _COND_GUARD * sv[0]:
                raise ValueError(f"generator image {name} is numerically singular")
        self.mat_s.setflags(write=False)
        self.mat_t.setflags(write=False)
        self._t_order = None  # order of mat_t, 0 if infinite; found on the first t-letter
        self._t_table = {}  # k -> mat_t^k, for 0 <= k < the order
        self._t_squares = {}  # inverted? -> (a, a^2, a^4, ...), a = mat_t or its inverse

    def __repr__(self):
        return f"Representation(m={self.m}, group={self.group.name})"

    def evaluate(self, g: GroupElement) -> np.ndarray:
        """Image of a group element, via the word decomposition.

        When mat_t has a finite order r (at most 1000, checked to 1e-10), a
        letter t^e is a lookup of mat_t^(e mod r), computed once by
        ``np.linalg.matrix_power``, so its error does not grow with |e|.
        Otherwise t^e is ``matrix_power``'s own product of the memoized
        squarings of mat_t (of its inverse for e < 0), with its bits.  A
        one-letter word may return a memoized, read-only array.
        """
        if not self.group.contains(g):
            raise ValueError(f"element {g.entries()} is not in {self.group.name}")
        result = None
        for gen, exp in word_decompose(g).letters:
            factor = self.mat_s if gen == "s" else self._t_power(exp)
            result = factor if result is None else np.matmul(result, factor)
        if result is None:
            result = np.eye(self.m, dtype=complex)
        return result

    def _t_power(self, e: int) -> np.ndarray:
        if self._t_order is None:
            self._t_order = self._finite_t_order()
        if self._t_order:
            k = e % self._t_order
            power = self._t_table.get(k)
            if power is None:
                power = _read_only(np.linalg.matrix_power(self.mat_t, k))
                self._t_table[k] = power
            return power
        n = abs(e)
        if n == 0:
            return np.eye(self.m, dtype=complex)
        cached = self._t_squares.get(e < 0)
        squares = cached or (_read_only(np.linalg.inv(self.mat_t)) if e < 0 else self.mat_t,)
        while len(squares) < n.bit_length():
            squares = squares + (_read_only(np.matmul(squares[-1], squares[-1])),)
        if squares is not cached:
            self._t_squares[e < 0] = squares
        # matrix_power's order of products: (a a) a for n = 3, else the
        # squarings of the set bits, least significant first
        if n == 3:
            return np.matmul(squares[1], squares[0])
        result = None
        for j in range(n.bit_length()):
            if n >> j & 1:
                result = squares[j] if result is None else np.matmul(result, squares[j])
        return result

    def _finite_t_order(self) -> int:
        """The order of mat_t, from the exponents of its eigenvalues; 0 if none is found."""
        try:
            exponents = [mu(lam) for lam in np.linalg.eigvals(self.mat_t)]
        except ValueError:  # an eigenvalue off the unit circle
            return 0
        if not all(isinstance(x, Fraction) for x in exponents):
            return 0
        order = math.lcm(*(x.denominator for x in exponents))
        if order > _MU_MAX_ORDER:
            return 0
        deviation = float(np.max(np.abs(np.linalg.matrix_power(self.mat_t, order) - np.eye(self.m))))
        return order if deviation <= _RELATION_TOL else 0


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class ValidationReport:
    s_relation_deviation: float
    st_relation_deviation: float
    passed: bool
    tolerance: float


def validate(rho: Representation) -> ValidationReport:
    """Check the defining relations s^2 = 1 and (st)^3 = 1 on the images, entrywise to 1e-10."""
    eye = np.eye(rho.m)
    dev_s = float(np.max(np.abs(rho.mat_s @ rho.mat_s - eye)))
    st = rho.mat_s @ rho.mat_t
    dev_st = float(np.max(np.abs(st @ st @ st - eye)))
    passed = dev_s < _RELATION_TOL and dev_st < _RELATION_TOL
    return ValidationReport(dev_s, dev_st, passed=passed, tolerance=_RELATION_TOL)


# -- exponents of unitary eigenvalues ---------------------------------------


def mu(lam: complex):
    """The exponent in [0, 1) with lam = exp(2 pi i mu).

    Returns an exact Fraction when lam is (within 1e-10) a root of unity of
    order at most 1000, otherwise a float.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= _UNIT_CIRCLE_TOL:  # also refuses NaN
        raise ValueError(f"eigenvalue {lam} is not on the unit circle")
    value = math.atan2(lam.imag, lam.real) / (2 * math.pi) % 1.0
    # fractions of denominator at most 1000 lie at least 1e-6 apart, so the
    # nearest one is the only candidate within the tolerance
    nearest = Fraction(value).limit_denominator(_MU_MAX_ORDER)
    if abs(value - nearest) < 1e-10 / (2 * math.pi):
        return nearest % 1
    return value


# -- numerical Jordan form ---------------------------------------------------


@dataclass(frozen=True)
class JordanData:
    """Change of basis and block structure of a numerical Jordan form."""

    P: np.ndarray
    blocks: tuple  # ((eigenvalue, size), ...)
    tol: float
    residual: float


def _jordan_matrix(blocks) -> np.ndarray:
    m = sum(size for _, size in blocks)
    J = np.zeros((m, m), dtype=complex)
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            J[pos + i, pos + i] = lam
            if i + 1 < size:
                J[pos + i, pos + i + 1] = 1.0
        pos += size
    return J


class IllConditionedJordanError(ValueError):
    """Raised when the Jordan reconstruction residual exceeds the guard."""

    def __init__(self, residual, message):
        super().__init__(message)
        self.residual = residual


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> list:
    clusters: list = []
    for lam in eigs:
        for cluster in clusters:
            if abs(lam - np.mean(cluster)) < tol:
                cluster.append(lam)
                break
        else:
            clusters.append([lam])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def _null_space(mat: np.ndarray, rcond: float, floor: float = 0.0) -> np.ndarray:
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    # the absolute floor keeps numerically-zero powers (all entries at
    # rounding scale) from masquerading as full rank under a relative cut
    cutoff = max(rcond * s[0], floor)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def jordan_form(M, tol: float = 1e-8) -> JordanData:
    """Eigenvalue clustering plus generalized eigenvector chains.

    Block sizes come from the rank profile of (M - lambda I)^j; the chains
    are assembled top-down through SVD null spaces.  Documented working
    range is dimension at most 16; a reconstruction residual beyond 1e-6
    relative raises :class:`IllConditionedJordanError`.
    """
    M = np.array(M, dtype=complex)
    m = M.shape[0]
    scale = max(float(np.linalg.norm(M)), 1.0)
    eigs = np.linalg.eigvals(M)
    clusters = _cluster_eigenvalues(eigs, tol)

    columns = []
    blocks = []
    for lam, mult in clusters:
        A = M - lam * np.eye(m)
        norm_A = max(float(np.linalg.norm(A, 2)), 1.0)
        nulls = [np.zeros((m, 0), dtype=complex)]
        power = np.eye(m, dtype=complex)
        j = 0
        while True:
            power = power @ A
            j += 1
            ns = _null_space(power, tol, floor=tol * norm_A**j)
            nulls.append(ns)
            if ns.shape[1] >= mult or ns.shape[1] == nulls[-2].shape[1]:
                break
        dims = [blockmat.shape[1] for blockmat in nulls]
        p = len(dims) - 1
        chains = []
        for j in range(p, 0, -1):
            ge_j = dims[j] - dims[j - 1]
            ge_j1 = (dims[j + 1] - dims[j]) if j + 1 <= p else 0
            n_new = ge_j - ge_j1
            if n_new <= 0:
                continue
            exclude = [nulls[j - 1]] + [
                chain[j - 1][:, None] for chain in chains if len(chain) >= j
            ]
            E = np.hstack(exclude) if exclude else np.zeros((m, 0), dtype=complex)
            if E.shape[1]:
                Q, _ = np.linalg.qr(E)
                proj = nulls[j] - Q @ (Q.conj().T @ nulls[j])
            else:
                proj = nulls[j]
            _, _, vh = np.linalg.svd(proj)
            for i in range(n_new):
                top = nulls[j] @ vh[i].conj()
                top = top / np.linalg.norm(top)
                chain = [top]
                for _ in range(j - 1):
                    chain.append(A @ chain[-1])
                chain.reverse()  # eigenvector first
                chains.append(chain)
        chains.sort(key=len, reverse=True)
        for chain in chains:
            # fix the free phase so the largest entry of the eigenvector is
            # positive real; makes P deterministic and P = I on diagonal input
            pivot = chain[0][int(np.argmax(np.abs(chain[0])))]
            phase = abs(pivot) / pivot if abs(pivot) else 1.0
            for vec in chain:
                columns.append(vec * phase)
            blocks.append((lam, len(chain)))

    if sum(size for _, size in blocks) != m:
        raise IllConditionedJordanError(
            float("nan"),
            f"chain construction produced {sum(s for _, s in blocks)} of {m} columns; "
            "defective eigenvalues split at the cube root of rounding, so a "
            "clustering tolerance looser than that spread is usually needed",
        )
    P = np.column_stack(columns)
    try:
        recon = P @ _jordan_matrix(blocks) @ np.linalg.inv(P)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedJordanError(float("inf"), f"singular chain basis: {exc}") from exc
    residual = float(np.max(np.abs(recon - M))) / scale
    if residual > 1e-6:
        raise IllConditionedJordanError(
            residual, f"Jordan reconstruction residual {residual:.3e} exceeds 1e-6"
        )
    return JordanData(P=P, blocks=tuple(blocks), tol=tol, residual=residual)


# -- structural predicates ----------------------------------------------------


def is_admissible(rho: Representation) -> bool:
    """True when the translation image is diagonalizable (Jordan tolerance 1e-8).

    For the full group every parabolic element is conjugate to a power of
    t, so the single Jordan test on mat_t decides admissibility.
    """
    data = jordan_form(rho.mat_t)
    return all(size == 1 for _, size in data.blocks)


def is_polynomial_growth(rho: Representation) -> bool:
    """True iff every parabolic image has only unitary eigenvalues, to within 1e-8.

    For the full group this reduces to the eigenvalues of mat_t; for a
    subgroup the conjugated stabilizer generator of each cusp class is
    checked.
    """
    for _, _, generator in moebius.cusp_classes(rho.group):
        eigs = np.linalg.eigvals(rho.evaluate(generator))
        if np.any(np.abs(np.abs(eigs) - 1.0) > _UNIT_CIRCLE_TOL):
            return False
    return True


def parabolic_power_norms(rho: Representation, nmax: int = 200) -> dict:
    """Frobenius norms of the powers of the translation image.

    Returns the norm sequence, the log-log slope fitted over the upper
    half of the range, and the exponential rate log norm(t^n)/n at nmax.
    """
    if nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    norms = np.empty(nmax)
    power = np.eye(rho.m, dtype=complex)
    for n in range(1, nmax + 1):
        power = power @ rho.mat_t
        norms[n - 1] = np.linalg.norm(power)
    ns = np.arange(1, nmax + 1)
    lo = max(1, nmax // 2)
    slope = float(np.polyfit(np.log(ns[lo:]), np.log(norms[lo:]), 1)[0]) if nmax - lo > 1 else 0.0
    return {
        "norms": norms,
        "loglog_slope": slope,
        "exp_rate": float(np.log(norms[-1]) / nmax),
    }


# -- induction ----------------------------------------------------------------


def induced_image(rho: Representation, reps: list, x: GroupElement) -> np.ndarray:
    """Block matrix of the induced representation at a single element.

    Block (i, j) is the image of reps[i]^-1 * x * reps[j] when that element
    lies in the subgroup and zero otherwise; exactly one block per row and
    per column is nonzero, in the row whose left coset holds x * reps[j].
    """
    m = rho.m
    out = np.zeros((len(reps) * m, len(reps) * m), dtype=complex)
    rows = {}  # left-coset label -> position
    for j, rj in enumerate(reps):
        i = rows.setdefault(rho.group.coset(rj.inverse()), j)
        if i != j:
            raise ValueError(f"representatives {i} and {j} lie in the same coset")
    for j, rj in enumerate(reps):
        xr = x * rj
        i = rows.get(rho.group.coset(xr.inverse()))
        if i is None:
            raise ValueError(f"column {j} has no nonzero block; transversal is invalid")
        out[i * m : (i + 1) * m, j * m : (j + 1) * m] = rho.evaluate(reps[i].inverse() * xr)
    return out


def induce(rho: Representation, reps: list) -> Representation:
    """Induced representation of the full group from a subgroup.

    ``reps`` must be a full left transversal starting with the identity;
    distinct cosets are checked through the coset labels, and the
    homomorphism property of the block formula is spot-checked on a few
    products before the result is returned.
    """
    if len(reps) != rho.group.index:
        raise ValueError(f"expected {rho.group.index} coset representatives, got {len(reps)}")
    if reps[0] != moebius.identity():
        raise ValueError("first coset representative must be the identity")
    mat_s = induced_image(rho, reps, gen_s())
    mat_t = induced_image(rho, reps, gen_t())
    s, t = gen_s(), gen_t()
    for x, y in ((s, t), (t, s), (s * t, t), (t * t, s * t)):
        lhs = induced_image(rho, reps, x * y)
        rhs = induced_image(rho, reps, x) @ induced_image(rho, reps, y)
        scale = max(1.0, float(np.linalg.norm(lhs)))
        if np.max(np.abs(lhs - rhs)) > 1e-9 * scale:
            raise ValueError("induced block formula is not multiplicative on sampled pairs")
    return Representation(mat_s, mat_t, group=psl2z())


# -- empirical growth ----------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    n_samples: int = 400

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")


@dataclass(frozen=True)
class GrowthFit:
    classification: str  # 'polynomial' or 'exponential'
    alpha_emp: float
    max_ratio: float
    n_samples: int
    exp_rate: float = 0.0


def _random_word_element(rng, max_word_len: int, max_exponent: int) -> GroupElement:
    """A word of up to ``max_word_len`` letters t^e s, |e| <= ``max_exponent``."""
    length = int(rng.integers(1, max_word_len + 1))
    g = moebius.identity()
    for _ in range(length):
        exp = int(rng.integers(-max_exponent, max_exponent + 1))
        nxt = g * moebius.t_power(exp) * gen_s()
        if max(abs(e) for e in nxt.entries()) > _WORD_ENTRY_BOUND:
            break
        g = nxt
    return g


def is_unitary_sampled(rho: Representation, seed: int = 0) -> bool:
    """Whether the images of 50 sampled words are unitary, entrywise to 1e-10."""
    rng = np.random.default_rng(seed)
    eye = np.eye(rho.m)
    for _ in range(_UNITARY_SAMPLES):
        image = rho.evaluate(_random_word_element(rng, max_word_len=12, max_exponent=4))
        if np.max(np.abs(image @ image.conj().T - eye)) > _UNITARY_TOL:
            return False
    return True


def growth_exponent(rho: Representation, config: SamplerConfig | None = None) -> GrowthFit:
    """Empirical norm-growth fit over random group elements.

    Polynomial-growth representations get a fitted exponent of
    log norm(rho(g)) against log norm(g), and ``max_ratio`` is the largest
    norm(rho(g)) / norm(g)^alpha over the samples; everything else is
    classified exponential with the translation-power rate.
    """
    config = config or SamplerConfig()
    if not is_polynomial_growth(rho):
        rates = parabolic_power_norms(rho, nmax=60)
        return GrowthFit(
            classification="exponential",
            alpha_emp=float("inf"),
            max_ratio=float("inf"),
            n_samples=0,
            exp_rate=rates["exp_rate"],
        )
    rng = np.random.default_rng(config.seed)
    log_gnorm, log_rnorm = [], []
    for i in range(config.n_samples):
        g = (
            _random_word_element(rng, max_word_len=30, max_exponent=6)
            if i % 2 == 0
            else moebius.random_element(rng)
        )
        if g == moebius.identity():
            continue
        log_gnorm.append(math.log(g.norm()))
        log_rnorm.append(math.log(float(np.linalg.norm(rho.evaluate(g)))))
    log_gnorm = np.array(log_gnorm)
    log_rnorm = np.array(log_rnorm)
    spread = float(np.ptp(log_gnorm))
    if spread < 1e-9:
        alpha = 0.0
    else:
        alpha = float(np.polyfit(log_gnorm, log_rnorm, 1)[0])
    alpha = max(alpha, 0.0)
    ratios = np.exp(log_rnorm - alpha * log_gnorm)
    return GrowthFit(
        classification="polynomial",
        alpha_emp=alpha,
        max_ratio=float(np.max(ratios)),
        n_samples=len(log_gnorm),
    )


# -- built-in representations ---------------------------------------------------


def _theta_eta() -> Representation:
    mat_s = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    w6 = np.exp(1j * np.pi / 6)
    w12 = np.exp(-1j * np.pi / 12)
    mat_t = np.array([[w6, 0, 0], [0, 0, w12], [0, w12, 0]], dtype=complex)
    return Representation(mat_s, mat_t)


def _nonpoly(a: complex = 1j) -> Representation:
    a = complex(a)
    if a == 0:
        raise ValueError("a must be nonzero: the eigenvalues of t differ by -1/a")
    if abs(a.real) > 1e-12:
        warnings.warn(
            "the non-unitarity argument needs purely imaginary a; "
            f"got a = {a} with nonzero real part",
            stacklevel=3,
        )
    mat_s = np.array(
        [[a, -(a + 1), 1], [a - 1, -a, 1], [0, 0, 1]],
        dtype=complex,
    )
    # lambda3 = 1, lambda1*lambda2 = -1, lambda1 - lambda2 = -1/a
    diff = -1.0 / a
    total = np.sqrt(diff * diff + 4.0 * (-1.0 + 0j))
    lam1 = (total + diff) / 2.0
    lam2 = (total - diff) / 2.0
    mat_t = np.diag([lam1, lam2, 1.0 + 0j])
    return Representation(mat_s, mat_t)


def _sym2() -> Representation:
    def sym_square(g: GroupElement) -> np.ndarray:
        a, b, c, d = (complex(x) for x in g.entries())
        return np.array(
            [
                [a * a, 2 * a * b, b * b],
                [a * c, a * d + b * c, b * d],
                [c * c, 2 * c * d, d * d],
            ]
        )

    return Representation(sym_square(gen_s()), sym_square(gen_t()))


def _trivial(group: SubgroupDescriptor | None = None) -> Representation:
    return Representation(np.eye(1), np.eye(1), group=group)


# name -> (factory, the parameters it takes)
_BUILTINS = {
    "theta-eta": (_theta_eta, ()),
    "nonpoly": (_nonpoly, ("a",)),
    "sym2": (_sym2, ()),
    "trivial": (_trivial, ("group",)),
}


def builtin(name: str, **params) -> Representation:
    """Built-in representations by name.

    Names: 'theta-eta' (the rank-3 unitary example), 'nonpoly' (the
    non-polynomial-growth family, parameter ``a``, default 1j), 'sym2'
    (symmetric square of the standard integral action, a single unipotent
    block at t) and 'trivial' (optionally restricted via ``group``).  A
    parameter the named representation does not take is refused.
    """
    try:
        factory, accepted = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin representation {name!r}") from None
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        takes = f"takes only {', '.join(accepted)}" if accepted else "takes no parameters"
        raise ValueError(f"builtin representation {name!r} {takes}; got {', '.join(unknown)}")
    return factory(**params)
