"""Exact arithmetic and word machinery for elements of PSL2(Z).

Elements are 2x2 determinant-one matrices with Python int entries,
identified up to sign.  Everything here is immutable and side-effect free,
so the whole module is safe to use from multiple threads.

The point at infinity is represented by ``math.inf`` and is a first-class
value for the Moebius action.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable

__all__ = [
    "INF",
    "GroupElement",
    "Word",
    "SubgroupDescriptor",
    "psl2z",
    "gamma_n",
    "gamma0_n",
    "identity",
    "gen_s",
    "gen_t",
    "t_power",
    "apply_moebius",
    "classify",
    "j_factor",
    "word_decompose",
    "integral_scaling_matrix",
    "cusp_width",
    "eichler_shift",
    "left_transversal",
    "cusp_classes",
    "random_element",
]

INF = math.inf


@dataclass(frozen=True)
class GroupElement:
    """A determinant-one integer 2x2 matrix up to sign.

    Entries are stored as Python ints; anything ``operator.index`` accepts
    (numpy integers, say) is converted and anything else is refused.  The
    sign is normalized so that the first nonzero entry of the bottom row
    ``(c, d)`` is positive; normalizing twice is the same as normalizing
    once, and ``g`` and ``-g`` normalize identically.  The entries are then
    canonical, so the dataclass equality and hash are exact.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        entries = (self.a, self.b, self.c, self.d)
        try:
            a, b, c, d = map(operator.index, entries)
        except TypeError:
            bad = ", ".join(f"{n}={x!r}" for n, x in zip("abcd", entries) if not hasattr(x, "__index__"))
            raise ValueError(f"entries must be integers, got {bad}") from None
        det = a * d - b * c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")
        # sign normalization: first nonzero of (c, d) positive
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- basic structure ------------------------------------------------

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def trace(self):
        return self.a + self.d

    def norm(self) -> float:
        """Euclidean norm of the four entries."""
        a, b, c, d = (float(x) for x in self.entries())
        return math.sqrt(a * a + b * b + c * c + d * d)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        # adjugate; valid because det = 1
        return GroupElement(self.d, -self.b, -self.c, self.a)


def identity() -> GroupElement:
    return GroupElement(1, 0, 0, 1)


def gen_s() -> GroupElement:
    return GroupElement(0, -1, 1, 0)


def gen_t() -> GroupElement:
    return GroupElement(1, 1, 0, 1)


def t_power(n: int) -> GroupElement:
    return GroupElement(1, n, 0, 1)


# -- Moebius action --------------------------------------------------------


def apply_moebius(g: GroupElement, tau):
    """Moebius image of ``tau`` under ``g``; ``tau`` may be INF.

    Maps the upper half plane to itself; a real fixed point of the
    denominator or the point at infinity returns ``INF`` or ``a/c``.
    """
    a, b, c, d = g.entries()
    if tau == INF:
        if c == 0:
            return INF
        return a / c
    num = a * tau + b
    den = c * tau + d
    if den == 0:
        return INF
    w = num / den
    if isinstance(tau, complex) and tau.imag != 0:
        # det = 1 makes Im(g tau) = Im(tau)/|c tau + d|^2 exactly; computing it
        # this way avoids the cancellation of the plain complex quotient
        return complex(w.real, tau.imag / abs(den) ** 2)
    return w


def classify(g: GroupElement) -> str:
    """One of 'identity', 'elliptic', 'parabolic', 'hyperbolic'."""
    if g == identity():
        return "identity"
    tr = abs(g.trace())
    if tr < 2:
        return "elliptic"
    if tr == 2:
        return "parabolic"
    return "hyperbolic"


def j_factor(g: GroupElement, tau) -> complex:
    """Automorphy factor c*tau + d."""
    return complex(g.c) * tau + complex(g.d)


# -- words in the generators -----------------------------------------------


@dataclass(frozen=True)
class Word:
    """A word in the generators s and t, kept as ``word_decompose`` emits it.

    Letters are (generator, exponent) pairs, and the Euclidean reduction
    leaves them reduced: s and t alternate, t-exponents are nonzero and
    s-exponents are 1.  Only its first round can have n = 0 (no t-letter
    is emitted then); every later round starts from |a/c| >= 2, so its
    t-exponent is nonzero.  The letters are neither checked nor reduced.
    """

    letters: tuple

    def __len__(self) -> int:
        return len(self.letters)

    def evaluate(self) -> GroupElement:
        g = identity()
        for gen, exp in self.letters:
            if gen == "s":
                g = g * gen_s()
            else:
                g = g * t_power(exp)
        return g


def word_decompose(g: GroupElement) -> Word:
    """Write an element as a word in s and t.

    Euclidean reduction on the bottom row: peel t^n from the left with n
    the nearest integer to a/c, then swap rows with s.  The magnitude of c
    at least halves per round, so the word length is O(log max entry).
    Evaluating the word reproduces ``g`` up to sign.
    """
    letters: list = []
    a, b, c, d = g.entries()
    while c != 0:
        # nearest integer to a/c
        n = (2 * a + c) // (2 * c) if c > 0 else (2 * a - c) // (2 * c)
        if abs(a - n * c) * 2 > abs(c):  # guard against ties rounding badly
            n += 1 if (a - n * c) * c > 0 else -1
        if n:
            letters.append(("t", n))
        letters.append(("s", 1))
        # g <- s^{-1} t^{-n} g, i.e. rows ((c, d), (-(a - n c), -(b - n d)))
        a, b, c, d = c, d, -(a - n * c), -(b - n * d)
    # remainder is +-t^m
    m = b * d  # d = +-1 and m = b/d
    if m:
        letters.append(("t", m))
    return Word(tuple(letters))


# -- cusps and scaling matrices ---------------------------------------------


def integral_scaling_matrix(cusp) -> GroupElement:
    """An element of PSL2(Z) sending infinity to the rational cusp.

    A cusp is ``INF``, an int or a ``Fraction``; a float is refused, since
    it stands for its binary rational, not for the cusp it approximates.
    """
    if cusp == INF:
        return identity()
    if not isinstance(cusp, (int, Fraction)):
        raise ValueError(f"cusp must be INF, an int or a Fraction, got {cusp!r}")
    frac = Fraction(cusp)
    p, q = frac.numerator, frac.denominator
    # p*d - b*q = 1 via the extended Euclidean algorithm: a Fraction is in
    # lowest terms, so p*x + q*y = 1 and d = x, b = -y
    _, x, y = _xgcd(p, q)
    return GroupElement(p, -y, q, x)


def _xgcd(a: int, b: int) -> tuple:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# -- subgroup descriptors ---------------------------------------------------


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A finite-index subgroup H given by its right-coset label.

    ``coset(g)`` returns a hashable label of the right coset H g: two
    elements get the same label exactly when they lie in the same right
    coset; membership, transversals, cusp widths and induction all read it.
    The left coset g H is labelled ``coset(g.inverse())``.  ``index`` is
    the exact index in PSL2(Z).
    """

    name: str
    coset: Callable
    index: int
    _identity_label: Hashable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_identity_label", self.coset(identity()))

    def __repr__(self):
        return f"SubgroupDescriptor({self.name}, index={self.index})"

    def contains(self, g: GroupElement) -> bool:
        return self.coset(g) == self._identity_label


def psl2z() -> SubgroupDescriptor:
    return SubgroupDescriptor("PSL2Z", lambda g: 0, 1)


def _prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _level(n) -> int:
    if not hasattr(n, "__index__") or operator.index(n) < 1:
        raise ValueError(f"level must be a positive integer, got {n!r}")
    return operator.index(n)


def gamma_n(n: int) -> SubgroupDescriptor:
    """Principal congruence subgroup: g == +-I mod n; H g is labelled by g mod n up to sign."""
    n = _level(n)
    if n == 1:
        return psl2z()

    def coset(g: GroupElement) -> tuple:
        a, b, c, d = g.entries()
        return min((a % n, b % n, c % n, d % n), (-a % n, -b % n, -c % n, -d % n))

    index = n**3
    for p in _prime_factors(n):
        index = index // (p * p) * (p * p - 1)
    if n > 2:
        index //= 2
    return SubgroupDescriptor(f"Gamma({n})", coset, index)


def gamma0_n(n: int) -> SubgroupDescriptor:
    """Hecke congruence subgroup: lower-left entry divisible by n.

    H g is labelled by its bottom row (c : d) in P^1(Z/n), the Manin symbol:
    (c / d mod n, 1) for a unit d, otherwise the least unit multiple.
    """
    n = _level(n)
    if n == 1:
        return psl2z()
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]

    def coset(g: GroupElement) -> tuple:
        if math.gcd(g.d, n) == 1:
            return (g.c * pow(g.d, -1, n) % n, 1)
        return min((u * g.c % n, u * g.d % n) for u in units)

    index = n
    for p in _prime_factors(n):
        index = index // p * (p + 1)
    return SubgroupDescriptor(f"Gamma0({n})", coset, index)


def _translation_orbit(group: SubgroupDescriptor, g: GroupElement) -> list:
    """Labels of the right cosets H g t^j, j = 0, 1, ..., until the orbit closes.

    Its length is the width of the cusp g(INF); an orbit longer than the
    index signals an inconsistent descriptor and raises.
    """
    t = gen_t()
    orbit = [group.coset(g)]
    current = g * t
    while (label := group.coset(current)) != orbit[0]:
        if len(orbit) == group.index:
            raise ValueError(f"translation orbit of {g.entries()} is longer than the index {group.index}")
        orbit.append(label)
        current = current * t
    return orbit


def cusp_width(group: SubgroupDescriptor, cusp) -> int:
    """Smallest h > 0 whose translation stabilizes the cusp inside the group.

    Uses an integral scaling matrix sigma for finite cusps, so widths agree
    with the usual congruence-subgroup tables; h is the orbit length of H sigma.
    """
    return len(_translation_orbit(group, integral_scaling_matrix(cusp)))


def eichler_shift(g: GroupElement, h: int = 1) -> tuple:
    """Split off the translation part: g = t^(n*h) * g~ with minimal top row.

    The integer n minimizes a~^2 + b~^2; the quadratic in n is convex so
    testing the two integers around the real minimizer suffices.
    """
    a, b, c, d = g.entries()
    denom = h * h * (c * c + d * d)
    if denom == 0:
        raise ValueError("degenerate element")
    n_real = (a * c + b * d) / (h * (c * c + d * d))
    best = None
    for n in {math.floor(n_real), math.ceil(n_real)}:
        aa = a - n * h * c
        bb = b - n * h * d
        size = aa * aa + bb * bb
        if best is None or size < best[0]:
            best = (size, n, aa, bb)
    _, n, aa, bb = best
    return n, GroupElement(aa, bb, c, d)


# -- coset machinery --------------------------------------------------------


def _transversal(group: SubgroupDescriptor, side: str) -> list:
    """Coset representatives by breadth-first search over the generators.

    ``side`` 'left' gives g_i with PSL2(Z) the disjoint union of g_i H,
    'right' gives the union of H g_i.  The group acts on left cosets by
    left multiplication and on right cosets by right multiplication, so
    candidates are gen * r and r * gen respectively; a candidate is kept
    when its coset label is new.  The first representative is the identity.
    """
    left = side == "left"
    reps = [identity()]
    seen = {group.coset(identity())}
    frontier = [identity()]
    gens = (gen_s(), gen_t(), gen_t().inverse())
    while frontier and len(reps) < group.index:
        nxt = []
        for r in frontier:
            for gen in gens:
                cand = gen * r if left else r * gen
                label = group.coset(cand.inverse() if left else cand)
                if label not in seen:
                    seen.add(label)
                    reps.append(cand)
                    nxt.append(cand)
        frontier = nxt
    if len(reps) != group.index:
        raise ValueError(f"transversal search found {len(reps)} cosets, expected {group.index}")
    return reps


def left_transversal(group: SubgroupDescriptor) -> list:
    """Coset representatives g_i, the identity first, with PSL2(Z) the disjoint union of g_i H."""
    return _transversal(group, "left")


def cusp_classes(group: SubgroupDescriptor) -> list:
    """Cusp classes of a finite-index subgroup.

    Returns (cusp, width, stabilizer generator) triples, one per class.
    Right cosets are grouped into orbits of the translation action; the
    orbit length is the width and the conjugated translation generates the
    stabilizer of the representative cusp.
    """
    seen = set()
    classes = []
    for g in _transversal(group, "right"):
        if group.coset(g) in seen:
            continue
        orbit = _translation_orbit(group, g)
        seen.update(orbit)
        width = len(orbit)
        cusp = INF if g.c == 0 else Fraction(g.a, g.c)
        generator = g * t_power(width) * g.inverse()
        classes.append((cusp, width, generator))
    return classes


def random_element(rng, entry_bound: int = 10**6) -> GroupElement:
    """A pseudorandom integral element with entries up to the bound.

    Draws a coprime bottom row and completes it to determinant one; the
    completion is shifted by a random multiple of the bottom row while the
    top row stays inside the bound.
    """
    if entry_bound < 1:
        raise ValueError(f"entry_bound must be at least 1, got {entry_bound}")
    while True:
        c = int(rng.integers(-entry_bound, entry_bound + 1))
        d = int(rng.integers(-entry_bound, entry_bound + 1))
        if math.gcd(c, d) == 1 and (c, d) != (0, 0):
            break
    g, x, y = _xgcd(c, d)
    # c*x + d*y = 1, so a = y, b = -x gives a*d - b*c = 1
    a, b = y, -x
    shifts = [m for m in range(-5, 6) if abs(a + m * c) <= entry_bound and abs(b + m * d) <= entry_bound]
    m = int(rng.choice(shifts)) if shifts else 0
    return GroupElement(a + m * c, b + m * d, c, d)
