"""Computational vector-valued automorphic forms for PSL2(Z).

Subpackages cover exact group arithmetic (:mod:`vvaf.moebius`),
finite-dimensional representations (:mod:`vvaf.representation`),
fractional and logarithmic q-expansions (:mod:`vvaf.qseries`),
vector-valued forms and built-in examples (:mod:`vvaf.forms`),
coefficient-growth verification (:mod:`vvaf.growth`), L-functions
(:mod:`vvaf.lfunc`) and exponential sums (:mod:`vvaf.expsum`).
"""

__version__ = "0.1.0"
