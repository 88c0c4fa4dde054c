"""Fractional-exponent q-expansions and logarithmic expansions.

A :class:`FracQSeries` is a truncated sum of c_j * q^((start+j)/D) with
q = exp(2 pi i tau / h); exponents are exact rationals on an integer grid
with denominator D, which keeps offsets like 1/24 and 1/12 from drifting
through arithmetic.  A :class:`LogQExpansion` stacks such series against
powers of log q = 2 pi i tau / h.

Series are immutable; arithmetic and evaluation are pure functions, so
batch evaluation over tau grids can run concurrently without coordination.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "FracQSeries",
    "LogQExpansion",
    "eta_series",
    "theta_series",
    "eta_power_series",
    "coefficient_integral",
    "log_recouple",
]

_Q_ABS_LIMIT = 0.995
_BIG_CONV = 8192
_CHUNK_BYTES = 1 << 19  # one evaluate_many chunk; its three passes then run in cache
_PURITY_TOL = 1e-9  # largest log-term coefficient a forward recoupling may leave


def _two_pi_i_over(taus: np.ndarray, n: int) -> np.ndarray:
    """2 pi i tau / n, divided part by part like a Python complex by an int.

    numpy's complex division rounds differently, which would move the
    values of the series in their last bits.
    """
    return ((2j * math.pi * taus).view(float) / n).view(complex)


def _upper_half_plane(taus) -> np.ndarray:
    """``taus`` as a complex array, refused if a point is not finite or has Im tau <= 0."""
    taus = np.asarray(taus, dtype=complex)
    outside = ~np.isfinite(taus) | (taus.imag <= 0)
    if np.any(outside):
        tau = complex(taus.flat[np.argmax(outside)])
        raise ValueError(f"tau = {tau} is not a finite point of the upper half plane")
    return taus


def _fft_length(n: int) -> int:
    """The smallest m >= n with no prime factor above 11: pocketfft's fast complex length."""
    m = n
    # below 2**64, m divides (2 * 3 * 5 * 7 * 11)**64 exactly when it has no larger prime factor
    while pow(2310, 64, m):
        m += 1
    return m


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full linear convolution of two complex coefficient arrays.

    Operands with at most ``_BIG_CONV`` slots between them go through
    ``np.convolve``.  Longer ones are multiplied as ``numpy.fft``
    transforms at ``_fft_length(len(a) + len(b) - 1)``, the length that
    ``scipy.signal.fftconvolve`` pads a complex product to, so the result
    has ``fftconvolve``'s bits; a squaring (``b is a``) transforms once.
    As in ``fftconvolve``, an operand of length 1 is the plain product
    ``a * b``, with no transform.
    """
    if len(a) + len(b) <= _BIG_CONV:
        return np.convolve(a, b)
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    m = _fft_length(n)
    fa = np.fft.fft(a, m)
    fb = fa if b is a else np.fft.fft(b, m)
    return np.fft.ifft(fa * fb, m)[:n]


class FracQSeries:
    """Truncated series sum_j c_j q^((start+j)/D) with q = exp(2 pi i tau/h).

    ``order`` is the exponent up to which the stored coefficients are
    complete (exclusive); ``None`` marks an exact series with no tail.
    Construction drops the terms at or beyond the order, trims zero
    fringes and reduces the grid so that the denominator and the occupied
    indices share no common factor.  A nonzero series therefore stores
    nonzero coefficients at its first and last index, and its lowest
    exponent is start/D.  The indices of the nonzero coefficients are
    kept, read-only, in ``_occupied``.  ``stride`` is their gcd: every
    exponent is start/D plus a multiple of stride/D (0 for a single term
    or none).
    """

    __slots__ = ("h", "D", "start", "coeffs", "order", "_occupied")

    def __init__(self, h: int, D: int, start: int, coeffs, order=None):
        coeffs = np.array(coeffs, dtype=complex)  # own copy: the series is immutable
        if h < 1 or D < 1:
            raise ValueError("width and exponent denominator must be positive")
        if order is not None:
            order = Fraction(order)
        h, D, start, coeffs, order, occupied = _normalize(h, D, start, coeffs, order)
        self.h = h
        self.D = D
        self.start = int(start)
        self.coeffs = np.ascontiguousarray(coeffs)
        self.coeffs.setflags(write=False)
        self.order = order
        occupied.setflags(write=False)
        self._occupied = occupied

    # -- structure ----------------------------------------------------------

    @property
    def stride(self) -> int:
        return int(np.gcd.reduce(self._occupied))

    def __len__(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def leading_exponent(self) -> Fraction:
        """Lowest stored exponent; for the zero series, the order."""
        if self.is_zero():
            if self.order is None:
                raise ValueError("the exact zero series has no leading exponent")
            return self.order
        return Fraction(self.start, self.D)

    def occupied(self) -> list:
        """(exponent, coefficient) pairs of the nonzero stored terms."""
        return [(Fraction(self.start + j, self.D), self.coeffs[j]) for j in self._occupied.tolist()]

    def coefficient(self, exponent) -> complex:
        """The coefficient at one exponent; see :meth:`coefficients_on_offset`."""
        return complex(self.coefficients_on_offset(exponent, 0)[0])

    def coefficients_on_offset(self, offset, nmax: int) -> np.ndarray:
        """Coefficients at exponents n + offset for n = 0..nmax; a float offset is refused."""
        if not isinstance(offset, numbers.Rational):
            raise ValueError(f"exponent offset must be an int or a Fraction, got {offset!r}")
        if nmax < 0:
            raise ValueError(f"nmax must be at least 0, got {nmax}")
        offset = Fraction(offset)
        if self.order is not None and nmax + offset >= self.order:
            raise ValueError(
                f"requested exponent {nmax + offset} beyond truncation order {self.order}"
            )
        out = np.zeros(nmax + 1, dtype=complex)
        num = offset * self.D
        if num.denominator != 1:
            return out  # the offset misses the exponent grid
        # exponent n + offset sits at index j0 + n D; keep the n inside the stored range
        j0 = int(num) - self.start
        lo = max(0, -(j0 // self.D))
        hi = min(nmax, (len(self.coeffs) - 1 - j0) // self.D)
        if lo <= hi:
            out[lo : hi + 1] = self.coeffs[j0 + lo * self.D : j0 + hi * self.D + 1 : self.D]
        return out

    # -- evaluation -----------------------------------------------------------

    def evaluate_many(self, taus, with_tail: bool = False):
        """Values at an array of points, optionally with geometric tail bounds.

        The one kernel that turns coefficients into values.  Each value is
        the pairwise sum of c_j exp(w (start + j)), w = 2 pi i tau/(h D),
        so it has the bits of a 1-d ``np.sum`` over the terms; the batch
        runs in chunks of half a megabyte of temporaries.  ``exp`` runs only
        at the occupied slots, and of those only on the prefix that can be
        nonzero at the chunk's lowest point: past it every term underflows
        to a zero.  Unless a dense series keeps every slot, the terms are
        scattered into a zeroed row of full width, and the row sum adds
        exact zeros at the other slots, which leaves every bit as the full
        sum has it (a row whose every term underflows sums to +0 either
        way).
        Refuses the batch if any point is not finite or not in the upper
        half plane, or has |q| > 0.995, where the tail bound is
        meaningless.
        """
        taus = _upper_half_plane(taus)
        q_abs = np.exp(-2 * math.pi * taus.imag / self.h)
        if np.any(q_abs > _Q_ABS_LIMIT):
            raise ValueError(f"|q| = {float(np.max(q_abs)):.4f} too close to 1; move tau upward")
        values = np.zeros(taus.shape, dtype=complex)
        if not self.is_zero():
            w = _two_pi_i_over(taus.ravel(), self.h * self.D)
            occ, width = self._occupied, len(self.coeffs)
            real_exponents = (self.start + occ).astype(float)  # ascending
            # complex up front, as the product would cast them chunk by chunk
            exponents, coeffs = real_exponents.astype(complex), self.coeffs[occ]
            rows = max(1, _CHUNK_BYTES // (16 * width))
            buf, written = None, 0  # occupied columns of buf that may be nonzero
            flat = values.reshape(-1)
            for lo in range(0, len(w), rows):
                chunk = w[lo : lo + rows]
                # exp(x + iy) is +-0 for x < -745.14, and the chunk's lowest
                # point has its largest Re w: past this prefix of columns every
                # term of every row is a zero
                keep = np.searchsorted(real_exponents, 746.0 / -chunk.real.max(), side="right")
                terms = np.multiply.outer(chunk, exponents[:keep])
                np.exp(terms, out=terms)
                terms *= coeffs[:keep]
                if keep < len(occ) or len(occ) < width:
                    # a zeroed full-width row keeps the pairwise tree of the
                    # dense sum; empty slots are never written and stay +0
                    if buf is None:
                        buf = np.zeros((min(rows, len(w)), width), dtype=complex)
                    if written > keep:
                        buf[:, occ[keep:written]] = 0  # left by a wider cut
                    buf[: len(terms), occ[:keep]] = terms
                    written = keep
                    terms = buf[: len(terms)]
                flat[lo : lo + rows] = terms.sum(axis=-1)
        if not with_tail:
            return values
        if self.order is None:
            return values, np.zeros(taus.shape)
        cap = float(np.max(np.abs(self.coeffs))) if len(self.coeffs) else 1.0
        return values, cap * q_abs ** float(self.order) / (1.0 - q_abs ** (1.0 / self.D))

    # -- arithmetic -------------------------------------------------------------
    # Sums and products merge exponent grids via the lcm of the denominators,
    # and the result's truncation order is the tightest bound the inputs
    # imply; a divisor needs a nonzero leading coefficient.  Both operands
    # of a series operation must share the width h.

    def __add__(self, other):
        if isinstance(other, FracQSeries):
            return _add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, FracQSeries):
            return _add(self, other._scale(-1))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, FracQSeries):
            return _mul(self, other)
        if isinstance(other, (int, float, complex)):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FracQSeries):
            return _div(self, other)
        if isinstance(other, (int, float, complex)):
            return self._scale(1.0 / other)
        return NotImplemented

    def _scale(self, factor) -> "FracQSeries":
        return FracQSeries(self.h, self.D, self.start, self.coeffs * factor, order=self.order)

    def __repr__(self):
        lead = None if self.is_zero() else str(self.leading_exponent)
        return (
            f"FracQSeries(h={self.h}, D={self.D}, lead={lead}, "
            f"terms={len(self.coeffs)}, order={self.order})"
        )

    @staticmethod
    def zero(h: int = 1, order=None) -> "FracQSeries":
        return FracQSeries(h, 1, 0, np.zeros(0), order=order)


def _normalize(h, D, start, coeffs, order):
    """(h, D, start, coeffs, order, occupied indices) of the reduced series."""
    # drop stored terms at or beyond the truncation order, then trim the zero fringe
    if order is not None:
        coeffs = coeffs[: max(0, math.ceil(order * D - start))]  # indices j with (start+j)/D < order
    nz = np.flatnonzero(coeffs)
    if len(nz) == 0:
        return h, 1, 0, np.zeros(0, dtype=complex), order, nz
    coeffs = coeffs[nz[0] : nz[-1] + 1]
    start += int(nz[0])
    nz = nz - nz[0]
    # reduce the exponent grid; index 0 is occupied, so every occupied
    # index is a multiple of g and the reduced grid starts at start/g
    g = math.gcd(D, start, int(np.gcd.reduce(nz)))
    if g > 1:
        reduced = coeffs[::g]
        # unoccupied slots read +0, whatever the sign of the zero they held
        coeffs, start, D, nz = np.where(reduced != 0, reduced, 0), start // g, D // g, nz // g
    return h, D, start, np.ascontiguousarray(coeffs), order, nz


def _same_width(f: FracQSeries, g: FracQSeries) -> None:
    if f.h != g.h:
        raise ValueError("series widths differ")


def _aligned(f: FracQSeries, g: FracQSeries):
    D = math.lcm(f.D, g.D)
    fa, fs = _upsample(f, D)
    ga, gs = _upsample(g, D)
    return D, fa, fs, ga, gs


def _upsample(f: FracQSeries, D: int):
    k = D // f.D
    if k == 1:
        return f.coeffs, f.start
    out = np.zeros((len(f.coeffs) - 1) * k + 1 if len(f.coeffs) else 0, dtype=complex)
    out[::k] = f.coeffs
    return out, f.start * k


def _min_order(*orders):
    known = [o for o in orders if o is not None]
    return min(known) if known else None


def _add(f: FracQSeries, g: FracQSeries) -> FracQSeries:
    _same_width(f, g)
    order = _min_order(f.order, g.order)
    if f.is_zero():
        return FracQSeries(g.h, g.D, g.start, g.coeffs, order=order)
    if g.is_zero():
        return FracQSeries(f.h, f.D, f.start, f.coeffs, order=order)
    D, fa, fs, ga, gs = _aligned(f, g)
    start = min(fs, gs)
    end = max(fs + len(fa), gs + len(ga))
    out = np.zeros(end - start, dtype=complex)
    out[fs - start : fs - start + len(fa)] += fa
    out[gs - start : gs - start + len(ga)] += ga
    return FracQSeries(f.h, D, start, out, order=order)


def _mul(f: FracQSeries, g: FracQSeries) -> FracQSeries:
    _same_width(f, g)
    if (f.is_zero() and f.order is None) or (g.is_zero() and g.order is None):
        return FracQSeries.zero(f.h)  # an exact zero factor
    # for a truncated zero, the order doubles as the earliest possible exponent
    lead_f = f.order if f.is_zero() else f.leading_exponent
    lead_g = g.order if g.is_zero() else g.leading_exponent
    bounds = []
    if f.order is not None:
        bounds.append(f.order + lead_g)
    if g.order is not None:
        bounds.append(g.order + lead_f)
    order = min(bounds) if bounds else None
    if f.is_zero() or g.is_zero():
        return FracQSeries.zero(f.h, order=order)
    D, fa, fs, ga, gs = _aligned(f, g)
    # convolve only the occupied stride class; sparse factors like the eta
    # powers stay exact and the work drops by the stride squared.  A point
    # mass (stride 0) sits in every class; two of them give step 0, which
    # the max turns into 1
    step = max(1, math.gcd(f.stride * (D // f.D), g.stride * (D // g.D)))
    conv = _convolve(fa[::step], ga[::step])
    out = np.zeros((len(conv) - 1) * step + 1, dtype=complex)
    out[::step] = conv
    return FracQSeries(f.h, D, fs + gs, out, order=order)


def _div(f: FracQSeries, g: FracQSeries) -> FracQSeries:
    _same_width(f, g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero series")
    if abs(g.coeffs[0]) == 0:
        raise ZeroDivisionError("divisor has zero leading coefficient")
    if f.is_zero() and f.order is None:
        return FracQSeries.zero(f.h)
    lead_f = f.order if f.is_zero() else f.leading_exponent
    r_lead = lead_f - g.leading_exponent
    bounds = []
    if f.order is not None:
        bounds.append(f.order - g.leading_exponent)
    if g.order is not None:
        bounds.append(g.order - g.leading_exponent + r_lead)
    order = min(bounds) if bounds else None
    if f.is_zero():
        return FracQSeries.zero(f.h, order=order)
    D, fa, fs, ga, gs = _aligned(f, g)
    r_start = fs - gs
    if order is not None:
        n_terms = max(0, math.ceil(order * D - r_start))
        n_terms = min(n_terms, len(fa) + len(ga))
    else:
        n_terms = len(fa)
    if n_terms <= 0:
        return FracQSeries.zero(f.h, order=order)
    g0 = ga[0]
    fa_padded = np.zeros(n_terms, dtype=complex)
    take = min(n_terms, len(fa))
    fa_padded[:take] = fa[:take]
    # the divisor couples only indices in one residue class mod its stride,
    # so a class where the dividend vanishes keeps fa / g0 (a signed zero)
    # and the recurrence runs on the other classes only; each dot still
    # reads the full dense prefix, so the sums are grouped as in the dense
    # recurrence and the quotient is the same to the last bit
    out = fa_padded / g0
    step = g.stride * (D // g.D) or 1
    live = np.zeros(step, dtype=bool)
    live[np.flatnonzero(fa_padded) % step] = True
    for k in np.flatnonzero(live[np.arange(n_terms) % step]).tolist():
        acc = fa_padded[k]
        j_max = min(k, len(ga) - 1)
        if j_max >= 1:
            stop = k - j_max - 1
            acc -= np.dot(ga[1 : j_max + 1], out[k - 1 : (stop if stop >= 0 else None) : -1])
        out[k] = acc / g0
    return FracQSeries(f.h, D, r_start, out, order=order)


# -- built-in scalar series ----------------------------------------------------


@lru_cache(maxsize=32)
def _euler_product(n_terms: int) -> tuple:
    """Integer-grid coefficients of prod_{n>=1} (1 - x^n) up to x^n_terms."""
    out = np.zeros(n_terms + 1)
    k = 0
    while True:
        advanced = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= n_terms:
                out[e] += (-1) ** kk
                advanced = True
        if not advanced:
            break
        k += 1
    return tuple(out)


def eta_series(n_terms: int) -> FracQSeries:
    """The Dedekind eta expansion exp(pi i tau/12) prod (1 - exp(2 pi i n tau)).

    Coefficients live on the grid with denominator 24 and leading exponent
    1/24; complete through exponent n_terms + 1/24.
    """
    return eta_power_series(1, n_terms)


def eta_power_series(power: int, n_terms: int) -> FracQSeries:
    """Integer power of eta; the weight-12 cusp form is the 24th power."""
    if power < 1:
        raise ValueError("power must be positive")
    if n_terms < 1:
        raise ValueError("need at least one term")
    euler = np.array(_euler_product(n_terms), dtype=complex)
    acc = np.ones(1, dtype=complex)
    base = euler
    p = power
    while p:
        if p & 1:
            acc = _convolve(acc, base)[: n_terms + 1]
        p >>= 1
        if p:
            base = _convolve(base, base)[: n_terms + 1]
    num = power  # leading exponent power/24
    den = 24
    g = math.gcd(num, den)
    num, den = num // g, den // g
    coeffs = np.zeros(den * n_terms + 1, dtype=complex)
    coeffs[::den] = acc
    return FracQSeries(1, den, num, coeffs, order=Fraction(den * (n_terms + 1) + num, den))


def theta_series(variant: int, n_terms: int) -> FracQSeries:
    """Jacobi theta constants as q-series.

    Variant 2 sums exp(pi i tau (n + 1/2)^2) over the integers (grid
    denominator 8), variants 3 and 4 sum exp(pi i tau n^2) with and without
    the alternating sign (grid denominator 2).
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    if variant == 2:
        coeffs = np.zeros(8 * n_terms + 1, dtype=complex)
        n = 0
        while (2 * n + 1) ** 2 <= 8 * n_terms + 1:
            coeffs[(2 * n + 1) ** 2 - 1] += 2.0
            n += 1
        return FracQSeries(1, 8, 1, coeffs, order=Fraction(8 * n_terms + 2, 8))
    if variant in (3, 4):
        coeffs = np.zeros(2 * n_terms + 1, dtype=complex)
        coeffs[0] = 1.0
        n = 1
        while n * n <= 2 * n_terms:
            coeffs[n * n] += 2.0 if variant == 3 else 2.0 * (-1) ** n
            n += 1
        return FracQSeries(1, 2, 0, coeffs, order=Fraction(2 * n_terms + 1, 2))
    raise ValueError("variant must be 2, 3 or 4")


# -- coefficient extraction -----------------------------------------------------


def coefficient_integral(f: FracQSeries, n: int, offset, y: float = 1.0, T: int = 256) -> complex:
    """Recover the coefficient of ``f`` at exponent n + offset by a trapezoid sum.

    Averages f(x + iy) exp(-2 pi i (n + offset)(x + iy)/h) over equally
    spaced x.  The sum runs over as many base periods as the integrand
    needs to be exactly periodic: one for a single-offset expansion, more
    when the exponent grid mixes offset classes.  The trapezoid rule is
    exact on trigonometric polynomials, so for a truncated expansion the
    result is exact once the per-period sample count T clears the
    frequency span.

    Exactness holds up to rounding amplified by exp(2 pi y (n + offset)/h):
    the target term is exponentially small inside f at height y, so keep
    y at most of order h/(n + offset) when extracting the n-th coefficient.
    ``n`` and ``offset`` are ints or ``Fraction``s; a float is refused, as
    by :meth:`FracQSeries.coefficients_on_offset`.
    """
    if not all(isinstance(x, numbers.Rational) for x in (n, offset)):
        raise ValueError(f"n and offset must be ints or Fractions, got n={n!r}, offset={offset!r}")
    target = Fraction(offset) + n
    # the exponents minus the target are lead + j stride/D: the period is the
    # lcm of the two denominators, and the widest frequency sits at an end
    p, span = 1, 0
    if not f.is_zero():
        lead = Fraction(f.start, f.D) - target
        p = math.lcm(lead.denominator, Fraction(f.stride, f.D).denominator)
        last = lead + Fraction(len(f.coeffs) - 1, f.D)
        span = int(max(abs(lead), abs(last)) * p)
    T = max(T, 2 * span // p + 8)
    total = T * p
    taus = np.arange(total) * (f.h / T) + 1j * y
    freq = -2j * math.pi * float(target) / f.h
    return complex(np.sum(f.evaluate_many(taus) * np.exp(freq * taus)) / total)


# -- logarithmic expansions -------------------------------------------------------


class LogQExpansion:
    """A stack of q-expansions against powers of log q.

    ``terms`` maps the log power j to a FracQSeries; admissible expansions
    have the single power zero.
    """

    __slots__ = ("terms", "h")

    def __init__(self, terms, h: int | None = None):
        collected: dict = {}
        for j, series in dict(terms).items():
            j = int(j)
            if j < 0:
                raise ValueError("log powers must be nonnegative")
            if h is None:
                h = series.h
            elif series.h != h:
                raise ValueError("inconsistent widths in expansion terms")
            if not series.is_zero() or series.order is not None:
                collected[j] = series
        self.terms = dict(sorted(collected.items()))
        self.h = h if h is not None else 1

    def max_log_power(self) -> int:
        powers = [j for j, s in self.terms.items() if not s.is_zero()]
        return max(powers) if powers else 0

    def is_pure(self, tol: float = 0.0) -> bool:
        """True when only the log-free term carries coefficients."""
        for j, series in self.terms.items():
            if j == 0 or series.is_zero():
                continue
            if tol and float(np.max(np.abs(series.coeffs))) <= tol:
                continue
            return False
        return True

    def occupied_exponents(self) -> list:
        out = set()
        for series in self.terms.values():
            out.update(e for e, _ in series.occupied())
        return sorted(out)

    def evaluate_many(self, taus, with_tail: bool = False):
        """Values at an array of points; see :meth:`FracQSeries.evaluate_many`.

        The tail bound of a log power j is |log q|^j times that of its series.
        """
        taus = _upper_half_plane(taus)
        log_q = _two_pi_i_over(taus.ravel(), self.h).reshape(taus.shape)
        value = np.zeros(taus.shape, dtype=complex)
        tail = np.zeros(taus.shape)
        for j, series in self.terms.items():
            weight = log_q**j
            if with_tail:
                v, t = series.evaluate_many(taus, with_tail=True)
                tail += np.abs(weight) * t
            else:
                v = series.evaluate_many(taus)
            value += weight * v
        return (value, tail) if with_tail else value

    def scale(self, factor) -> "LogQExpansion":
        return LogQExpansion({j: s * factor for j, s in self.terms.items()}, h=self.h)

    def __add__(self, other: "LogQExpansion") -> "LogQExpansion":
        terms = dict(self.terms)
        for j, series in other.terms.items():
            terms[j] = terms[j] + series if j in terms else series
        return LogQExpansion(terms, h=self.h)


# -- recoupling between log stacks and pure expansions -------------------------


def _binom_poly(shift: Fraction, j: int) -> np.ndarray:
    """Coefficients (ascending, in u = tau/h) of binom(u + shift, j)."""
    poly = np.array([1.0 + 0j])
    for l in range(j):
        # multiply by (u + shift - l)
        root = complex(shift - l)
        poly = np.concatenate([poly * root, [0j]]) + np.concatenate([[0j], poly])
    return poly / math.factorial(j)


def log_recouple(direction: str, components: list) -> list:
    """Recouple the components of a single Jordan block.

    Inputs share one width h and transform under tau -> tau + h by the
    lower bidiagonal block action X_i -> lambda (X_i + X_{i-1}).  The
    forward direction produces the pure q-expansions obtained by
    alternating binomial combinations; the backward direction reassembles
    the original components from pure expansions.  The binomials, in
    u = tau/h, act on the log stacks through u^k = (log q)^k / (2 pi i)^k.
    Forward outputs that keep a log-term coefficient above 1e-9 raise,
    since that means the inputs were not closed under the block action.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    widths = {x.h for x in components}
    if len(widths) > 1:
        raise ValueError(f"components of one block must share one width, got {sorted(widths)}")
    h = widths.pop() if widths else 1
    out = []
    for i in range(len(components)):
        terms: dict = {}  # log power -> series
        for j in range(i + 1):
            if direction == "forward":
                scalar = ((-1) ** j) * _binom_poly(Fraction(j - 1), j)
            else:
                scalar = _binom_poly(Fraction(0), j)
            # c_k u^k moves a log-power-p series to p + k, scaled by c_k (2 pi i)^-k
            for power, series in components[i - j].terms.items():
                for k, c in enumerate(scalar):
                    if c == 0:
                        continue
                    term = series * (c * (2j * math.pi) ** (-k))
                    key = power + k
                    terms[key] = terms[key] + term if key in terms else term
        result = LogQExpansion(terms, h=h)
        if direction == "forward":
            if not result.is_pure(tol=_PURITY_TOL):
                raise ValueError(
                    f"component {i} is not closed under the block action; "
                    "a log term survives the recoupling"
                )
            result = LogQExpansion({0: result.terms.get(0, FracQSeries.zero(h))}, h=h)
        out.append(result)
    return out
