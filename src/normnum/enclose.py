"""Certified enclosures of real quantities with exact rational endpoints.

Irrational quantities are evaluated by a small outward-rounded interval
kernel, `DyadicInterval`. Each endpoint is a dyadic number m * 2**e rounded
to the working precision `DyadicInterval.prec` (in bits), toward -inf for a
lower endpoint and toward +inf for an upper one:

- +, -, * and / take the exact extreme result and round it outward. An
  `int` operand is first rounded outward to the working precision; a
  `Fraction` is its rounded numerator over its rounded denominator
  (`iv_fraction`).
- `sqrt` comes from `math.isqrt`.
- `log` and `exp` map [lo, hi] to [f(lo), f(hi)], each end from its own
  fixed-point series with a floor and a ceiling bound: atanh after
  square-root reduction for log, Taylor after reduction by k ln 2 and by
  halving for exp. A Ziv loop widens the series until both bounds round
  to the same endpoint, so each endpoint is correctly rounded. After
  `_ZIV_ROUNDS` rounds it rounds each bound outward, still a bracket.

mpmath's interval type follows the same rules and its operations are
correctly rounded too, so an expression gets the endpoints mpmath gives it
at the same precision. Endpoints convert to fractions exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Union

from .measure import RationalLike, Record, as_fraction, format_fraction


class Enclosure(Record):
    """Closed rational bracket [lo, hi] around a real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalLike, hi: RationalLike):
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        if lo > hi:
            raise ValueError("enclosure endpoints out of order")
        self._fill(lo, hi)

    @classmethod
    def exact(cls, value: RationalLike) -> "Enclosure":
        v = as_fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("enclosures are disjoint")
        return Enclosure(lo, hi)

    def to_json(self) -> list:
        return [format_fraction(self.lo), format_fraction(self.hi)]


# An endpoint is a pair (m, e) standing for m * 2**e.


def _round(m: int, e: int, prec: int, up: bool) -> tuple:
    """m * 2**e rounded to prec bits, toward +inf if up else toward -inf."""
    shift = m.bit_length() - prec
    if shift > 0:
        m = -(-m >> shift) if up else m >> shift
        e += shift
        if m.bit_length() > prec:  # the rounding carried into a new bit
            m >>= 1
            e += 1
    return m, e


def _fraction(x: tuple) -> Fraction:
    m, e = x
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _sum(x: tuple, y: tuple, prec: int, up: bool) -> tuple:
    """x + y rounded to prec bits."""
    (m1, e1), (m2, e2) = x, y
    if e1 > e2:
        return _round((m1 << (e1 - e2)) + m2, e2, prec, up)
    return _round(m1 + (m2 << (e2 - e1)), e1, prec, up)


def _div(x: tuple, y: tuple, prec: int, up: bool) -> tuple:
    """x / y rounded to prec bits, for y > 0."""
    (m1, e1), (m2, e2) = x, y
    if not m1:
        return 0, 0
    # a quotient of at least prec + 2 bits rounds like the exact one
    shift = max(0, prec + 2 + m2.bit_length() - m1.bit_length())
    q = -(-(m1 << shift) // m2) if up else (m1 << shift) // m2
    return _round(q, e1 - e2 - shift, prec, up)


def _sqrt(x: tuple, prec: int, up: bool) -> tuple:
    m, e = x
    if m < 0:
        raise ValueError("square root of an interval reaching below zero")
    # at least 2 * prec + 2 bits under the root, and an even exponent
    shift = max(0, 2 * prec + 2 - m.bit_length())
    shift += (e - shift) & 1
    m <<= shift
    r = isqrt(m)
    if up and r * r != m:
        r += 1
    return _round(r, (e - shift) // 2, prec, up)


_LN2 = [0, 0]  # bits p and a value l with l <= ln(2) * 2**p <= l + 2


def _ln2(p: int) -> int:
    """l with l <= ln(2) * 2**p <= l + 2, from the widest value cached."""
    if _LN2[0] < p:
        # ln 2 = 2 atanh(1/3), every term floored at b + g bits; the n
        # terms lose under 3n + 2 units in all, which is below 2**g. b is
        # p rounded up to 256 bits, so nearby precisions share one value.
        b = -(-p // 256) * 256
        g = b.bit_length() + 2
        power = (2 << (b + g)) // 3
        total, n = power, 1
        while power:
            power //= 9
            n += 2
            total += power // n
        _LN2[:] = b, total >> g
    bits, value = _LN2
    return value >> (bits - p)


def _exp_bounds(x: tuple, work: int) -> tuple:
    """(lo, hi, e) with lo * 2**e <= exp(x) <= hi * 2**e, hi - lo of about
    2**-work relative, for x = m * 2**e.

    x = k ln 2 + r with 0 <= r < ln 2 and exp(x) = 2**k exp(r); exp(r) is
    the Taylor sum at t = r / 2**s squared s times. r is known to p bits
    and the sum runs at big = p + s bits, so s squarings leave p good bits.
    """
    m, e = x
    if not m:
        return 1, 1, 0
    t = m.bit_length() + e  # 2**(t - 1) <= |x| < 2**t
    if t < -work:
        # 1 + |x| < exp(|x|) < 1 + 2|x| and 1 - |x| < exp(-|x|) < 1 - |x|/2
        one = 1 << (2 - t)
        return (one + 2, one + 8, t - 2) if m > 0 else (one - 4, one - 1, t - 2)
    top = max(t, 0)  # |k| < 2**(top + 1)
    s = isqrt(work) // 3 + 1
    p = work + top + 20
    if e + p >= 0:
        x_lo = x_hi = m << (e + p)
    else:
        x_lo, x_hi = m >> -(e + p), -(-m >> -(e + p))
    ln2 = _ln2(p)
    # r in [r_lo, r_hi] * 2**-p, with 0 <= r_lo < (ln 2) * 2**p + 2
    if x_lo >= 0:
        k = x_lo // (ln2 + 2)
        r_lo, r_hi = x_lo - k * (ln2 + 2), x_hi - k * ln2
    else:
        k = x_lo // ln2
        r_lo, r_hi = x_lo - k * ln2, x_hi - k * (ln2 + 2)
    big = p + s
    # every step floors, so the sum is short by under 4 units a term
    lo, term, n = 0, 1 << big, 0
    while term:
        lo += term
        n += 1
        term = (term // n) * r_lo >> big
    err = 4 * n + 10
    for _ in range(s):
        # (lo + err)**2 = lo**2 + err (2 lo + err)
        lo, err = lo * lo >> big, (err * (2 * lo + err) >> big) + 2
    # exp(r_hi) <= exp(r_lo) (1 + 2 (r_hi - r_lo) 2**-p) and exp(r_lo) < 4
    return lo, lo + err + ((r_hi - r_lo) << (s + 3)), k - big


def _log_bounds(x: tuple, work: int) -> tuple:
    """(lo, hi, e) with lo * 2**e <= log(x) <= hi * 2**e, hi - lo of about
    2**-work relative, for x = m * 2**e positive.

    x = 2**k y with 3/4 <= y < 3/2, and log(x) = k ln 2 + 2**(j+1)
    atanh(z) with z = (y' - 1) / (y' + 1) for y' the j-th square root of
    y, so |z| <= 1/5 / 2**j. atanh(z) = z * sum(w**n / (2n + 1)) with
    w = z**2.
    """
    m, e = x
    bits = m.bit_length()
    k = bits + e - 1
    if bits > 1 and m >> (bits - 2) == 3:  # y >= 3/2
        k += 1
    tiny = 0  # log(x) is at least 2**-(tiny + 2) in size
    if k == 0:  # x = y, and y - 1 = d * 2**e
        d = m - (1 << -e)
        if not d:
            return 0, 0, 0
        tiny = max(0, -(d.bit_length() + e))
    j = isqrt(work) // 8
    big = work + tiny + j + 20
    one = 1 << big
    # y in [y_lo, y_lo + 3] * 2**-big, through every square root taken
    shift = big + e - k
    y_lo = m << shift if shift >= 0 else m >> -shift
    if y_lo != one:
        for _ in range(j):
            y_lo = isqrt(y_lo << big)
    # z in [z_lo, z_lo + 3] * 2**-big, as dz/dy < 2/3 for y >= 3/4
    z_lo = ((y_lo - one) << big) // (y_lo + one)
    # atanh(|z_lo|) from below, short by under 5 units a term
    z = abs(z_lo)
    w = z * z >> big
    total, power, n = 0, one, 0
    while power:
        total += power // (2 * n + 1)
        n += 1
        power = power * w >> big
    total = total * z >> big
    err = 5 * n + 10
    a_lo = total if z_lo >= 0 else -(total + err)
    # atanh(z) <= atanh(z_lo) + 3 * 1.05 for |z| <= 1/5
    a_hi = a_lo + err + 4
    ln2 = _ln2(big)
    k_lo, k_hi = (k * ln2, k * (ln2 + 2)) if k >= 0 else (k * (ln2 + 2), k * ln2)
    return k_lo + (a_lo << (j + 1)), k_hi + (a_hi << (j + 1)), -big


# Ziv rounds for log and exp: the working precision starts at prec + 24
# bits and doubles, so the third round carries over 4 * prec bits, more
# than any value this close to a rounding boundary needs.
_ZIV_ROUNDS = 3


def _monotone(bounds, lo: tuple, hi: tuple, prec: int) -> tuple:
    """[f(lo) rounded down, f(hi) rounded up] for an increasing f.

    bounds(x, work) gives (l, h, e) with l * 2**e <= f(x) <= h * 2**e,
    about work bits apart, and is evaluated at lo and, unless hi is lo, at
    hi. The Ziv loop ends once each endpoint's two bounds round alike;
    after `_ZIV_ROUNDS` rounds each endpoint is its bound rounded outward.
    """
    work = prec + 24
    for _ in range(_ZIV_ROUNDS):
        l, h, e = bounds(lo, work)
        l2, h2, e2 = (l, h, e) if lo == hi else bounds(hi, work)
        down, up = _round(l, e, prec, False), _round(h2, e2, prec, True)
        if down == _round(h, e, prec, False) and up == _round(l2, e2, prec, True):
            break
        work *= 2
    return down, up


class DyadicInterval:
    """Closed interval [lo, hi] with dyadic endpoints (m, e), m * 2**e.

    Operations round outward to `prec` bits; `eval_iv` sets it for the
    length of one evaluation, as mpmath's `iv.prec`.
    """

    __slots__ = ("lo", "hi")
    prec = 53

    def __init__(self, lo: tuple, hi: tuple):
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_int(cls, n: int) -> "DyadicInterval":
        prec = cls.prec
        return cls(_round(n, 0, prec, False), _round(n, 0, prec, True))

    def to_enclosure(self) -> Enclosure:
        return Enclosure(_fraction(self.lo), _fraction(self.hi))

    def __neg__(self) -> "DyadicInterval":
        (m1, e1), (m2, e2) = self.lo, self.hi
        return DyadicInterval((-m2, e2), (-m1, e1))

    def __add__(self, other) -> "DyadicInterval":
        other = _coerce(other)
        prec = self.prec
        return DyadicInterval(
            _sum(self.lo, other.lo, prec, False), _sum(self.hi, other.hi, prec, True)
        )

    __radd__ = __add__

    def __sub__(self, other) -> "DyadicInterval":
        return self + -_coerce(other)

    def __mul__(self, other) -> "DyadicInterval":
        other = _coerce(other)
        prec = self.prec
        (a, ae), (b, be) = self.lo, self.hi
        (c, ce), (d, de) = other.lo, other.hi
        if a >= 0 and c >= 0:
            return DyadicInterval(
                _round(a * c, ae + ce, prec, False), _round(b * d, be + de, prec, True)
            )
        products = [
            (m1 * m2, e1 + e2)
            for m1, e1 in (self.lo, self.hi)
            for m2, e2 in (other.lo, other.hi)
        ]
        e = min(pe for _, pe in products)
        exact = [pm << (pe - e) for pm, pe in products]
        return DyadicInterval(
            _round(min(exact), e, prec, False), _round(max(exact), e, prec, True)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DyadicInterval":
        other = _coerce(other)
        prec = self.prec
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if d[0] < 0:
            a, b, c, d = (-b[0], b[1]), (-a[0], a[1]), (-d[0], d[1]), (-c[0], c[1])
        elif c[0] <= 0:
            raise ValueError("interval division by an interval containing zero")
        return DyadicInterval(
            _div(a, d if a[0] >= 0 else c, prec, False),
            _div(b, c if b[0] >= 0 else d, prec, True),
        )

    def __rtruediv__(self, other) -> "DyadicInterval":
        return _coerce(other) / self

    def sqrt(self) -> "DyadicInterval":
        prec = self.prec
        return DyadicInterval(_sqrt(self.lo, prec, False), _sqrt(self.hi, prec, True))

    def log(self) -> "DyadicInterval":
        if self.lo[0] <= 0:
            raise ValueError("logarithm of an interval reaching zero or below")
        ends = _monotone(_log_bounds, self.lo, self.hi, self.prec)
        return DyadicInterval(*ends)

    def exp(self) -> "DyadicInterval":
        ends = _monotone(_exp_bounds, self.lo, self.hi, self.prec)
        return DyadicInterval(*ends)


def _coerce(x) -> DyadicInterval:
    if isinstance(x, DyadicInterval):
        return x
    if isinstance(x, int):
        return DyadicInterval.from_int(x)
    return iv_fraction(x)


def iv_fraction(x: RationalLike) -> DyadicInterval:
    """Interval enclosing an exact rational: its numerator and denominator
    rounded outward, then divided with outward rounding."""
    x = as_fraction(x)
    num = DyadicInterval.from_int(x.numerator)
    if x.denominator == 1:
        return num
    return num / DyadicInterval.from_int(x.denominator)


def eval_iv(bits: int, fn: Callable[[], DyadicInterval]) -> Enclosure:
    """Evaluate an interval expression at the given working precision.

    The kernel precision is process global; it is restored on exit.
    """
    old = DyadicInterval.prec
    DyadicInterval.prec = max(int(bits), 16)
    try:
        return fn().to_enclosure()
    finally:
        DyadicInterval.prec = old


def eval_iv_tight(precision: int, fn: Callable[[], DyadicInterval]) -> Enclosure:
    """Evaluate until the relative width is at most 2**-precision.

    The working precision doubles at most 12 times. Successive evaluations
    are intersected, so refining the precision argument always yields a
    nested enclosure.
    """
    bits = max(precision + 16, 64)
    tol = Fraction(1, 2**precision)
    enc = eval_iv(bits, fn)
    for _ in range(12):
        bound = max(abs(enc.lo), abs(enc.hi))
        if enc.width <= tol * bound or (enc.lo == enc.hi):
            return enc
        bits *= 2
        enc = enc.intersect(eval_iv(bits, fn))
    return enc


def naive_cost_log2(n: int, precision: int = 96) -> Union[int, Enclosure]:
    """log2 of the brute-force state count a depth-n exhaustive scan visits.

    Exact integer when the alphabet size 2n+2 is a power of two, otherwise
    a rational enclosure. Rejects n > 10, where even the logarithm stops
    being printable.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 10:
        raise ValueError("n larger than 10 is not supported")
    states = 2 * n + 2
    factor = 2 ** (2 ** (2 * n + 2))
    if states & (states - 1) == 0:
        return factor * (states.bit_length() - 1)
    lg = eval_iv_tight(
        precision, lambda: iv_fraction(states).log() / iv_fraction(2).log()
    )
    return Enclosure(factor * lg.lo, factor * lg.hi)
