"""Exact arithmetic in the modular group: words, classes, cusps.

Every integral matrix of determinant one factors into the two standard
generators by a Euclidean reduction on the bottom row.  This script walks
through the decomposition, the trace classification and congruence-cusp
widths.
"""

from fractions import Fraction

import numpy as np

from vvaf.moebius import (
    GroupElement,
    apply_moebius,
    classify,
    cusp_classes,
    cusp_width,
    eichler_shift,
    gamma0_n,
    gamma_n,
    random_element,
    word_decompose,
)

g = GroupElement(19, 7, 8, 3)
word = word_decompose(g)
print(f"element {g.entries()} decomposes into {len(word)} letters:")
print("  ", " ".join(f"{gen}^{exp}" if exp != 1 else gen for gen, exp in word.letters))
print("  reconstruction matches:", word.evaluate() == g)
print("  class:", classify(g))

print("\nMoebius action moves i around the upper half plane:")
for name, mat in [("g", g), ("g^-1", g.inverse())]:
    print(f"  {name} . i = {apply_moebius(mat, 1j):.6f}")

print("\ntranslation part of an element (the shift minimizing the top row):")
n, tail = eichler_shift(GroupElement(5, 2, 2, 1))
print(f"  (5,2;2,1) = t^{n} * {tail.entries()}")

print("\ncusp widths in congruence subgroups:")
print("  Gamma(2) at infinity:", cusp_width(gamma_n(2), np.inf))
print("  Gamma0(4) at 0:      ", cusp_width(gamma0_n(4), 0))
print("  Gamma0(4) at 1/2:    ", cusp_width(gamma0_n(4), Fraction(1, 2)))

print("\ncusp classes of Gamma(2): (cusp, width)")
for cusp, width, _ in cusp_classes(gamma_n(2)):
    print(f"  {cusp} width {width}")

rng = np.random.default_rng(0)
lengths = [len(word_decompose(random_element(rng))) for _ in range(200)]
print(f"\nword lengths over 200 random elements with entries up to 1e6:")
print(f"  mean {np.mean(lengths):.1f}, max {max(lengths)}")
