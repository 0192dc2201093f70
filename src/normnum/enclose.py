"""Certified enclosures of real quantities with exact rational endpoints.

Transcendental evaluation is delegated to mpmath's interval type, which
rounds outward, so every returned Enclosure genuinely brackets its target.
Endpoint floats convert to fractions exactly (binary floats are rationals),
no decimal round trip is involved.

mpmath is imported by the functions that evaluate an interval, not by the
module: a call that never evaluates one (exact enclosures, powers of two,
the pointwise and DP checks) never pays for loading it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

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


def _mpf_to_fraction(raw) -> Fraction:
    # raw is an mpf value tuple as stored inside an iv endpoint
    from mpmath import libmp

    if raw in (libmp.finf, libmp.fninf, libmp.fnan):
        raise ValueError("enclosure endpoint is not finite")
    num, den = libmp.to_rational(raw)
    return Fraction(int(num), int(den))


def from_iv(value) -> Enclosure:
    lo_raw, hi_raw = value._mpi_
    return Enclosure(_mpf_to_fraction(lo_raw), _mpf_to_fraction(hi_raw))


def iv_fraction(x: RationalLike):
    """Interval element enclosing an exact rational (division rounds outward)."""
    from mpmath import iv

    x = as_fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def eval_iv(bits: int, fn: Callable[[], object]) -> Enclosure:
    """Evaluate an interval expression at the given working precision.

    The iv context precision is process global; it is restored on exit.
    """
    from mpmath import iv

    old = iv.prec
    iv.prec = max(int(bits), 16)
    try:
        return from_iv(fn())
    finally:
        iv.prec = old


def eval_iv_tight(precision: int, fn: Callable[[], object]) -> Enclosure:
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


def enclose_log2(x: RationalLike, precision: int = 64) -> Enclosure:
    x = as_fraction(x)
    if x <= 0:
        raise ValueError("logarithm of a non-positive rational")
    num, den = x.numerator, x.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return Enclosure.exact(num.bit_length() - den.bit_length())
    from mpmath import iv

    return eval_iv_tight(
        precision, lambda: iv.log(iv_fraction(x)) / iv.log(iv.mpf(2))
    )
