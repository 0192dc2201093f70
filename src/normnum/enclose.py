"""Certified enclosures of real quantities with exact rational endpoints.

Transcendental evaluation is delegated to mpmath's interval type, which
rounds outward, so every returned Enclosure genuinely brackets its target.
Endpoint floats convert to fractions exactly (binary floats are rationals),
no decimal round trip is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import iv

from .measure import RationalLike, as_fraction, format_fraction, parse_fraction


@dataclass(frozen=True)
class Enclosure:
    """Closed rational bracket [lo, hi] around a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = as_fraction(self.lo)
        hi = as_fraction(self.hi)
        if lo > hi:
            raise ValueError("enclosure endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, value: RationalLike) -> "Enclosure":
        v = as_fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, value: RationalLike) -> bool:
        v = as_fraction(value)
        return self.lo <= v <= self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def scaled(self, c: RationalLike) -> "Enclosure":
        c = as_fraction(c)
        if c >= 0:
            return Enclosure(self.lo * c, self.hi * c)
        return Enclosure(self.hi * c, self.lo * c)

    def shifted(self, c: RationalLike) -> "Enclosure":
        c = as_fraction(c)
        return Enclosure(self.lo + c, self.hi + c)

    def mul(self, other: "Enclosure") -> "Enclosure":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("enclosures are disjoint")
        return Enclosure(lo, hi)

    def to_json(self) -> list:
        return [format_fraction(self.lo), format_fraction(self.hi)]

    @classmethod
    def from_json(cls, data) -> "Enclosure":
        return cls(parse_fraction(data[0]), parse_fraction(data[1]))


def _mpf_to_fraction(raw) -> Fraction:
    # raw is an mpf value tuple as stored inside an iv endpoint
    if raw in (mpmath.libmp.finf, mpmath.libmp.fninf, mpmath.libmp.fnan):
        raise ValueError("enclosure endpoint is not finite")
    num, den = mpmath.libmp.to_rational(raw)
    return Fraction(int(num), int(den))


def from_iv(value) -> Enclosure:
    lo_raw, hi_raw = value._mpi_
    return Enclosure(_mpf_to_fraction(lo_raw), _mpf_to_fraction(hi_raw))


def iv_fraction(x: RationalLike):
    """Interval element enclosing an exact rational (division rounds outward)."""
    x = as_fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def eval_iv(bits: int, fn: Callable[[], object]) -> Enclosure:
    """Evaluate an interval expression at the given working precision.

    The iv context precision is process global; it is restored on exit.
    """
    old = iv.prec
    iv.prec = max(int(bits), 16)
    try:
        return from_iv(fn())
    finally:
        iv.prec = old


def eval_iv_tight(
    precision: int,
    fn: Callable[[], object],
    start_bits: int = 0,
    max_rounds: int = 12,
) -> Enclosure:
    """Evaluate until the relative width is at most 2**-precision.

    Successive evaluations are intersected, so refining the precision
    argument always yields a nested enclosure.
    """
    bits = max(start_bits, precision + 16, 64)
    tol = Fraction(1, 2**precision)
    enc = eval_iv(bits, fn)
    for _ in range(max_rounds):
        bound = max(abs(enc.lo), abs(enc.hi))
        if enc.width <= tol * bound or (enc.lo == enc.hi):
            return enc
        bits *= 2
        enc = enc.intersect(eval_iv(bits, fn))
    return enc


def enclose_sqrt(x: RationalLike, precision: int = 64) -> Enclosure:
    x = as_fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Enclosure.exact(0)
    return eval_iv_tight(precision, lambda: iv.sqrt(iv_fraction(x)))


def enclose_exp(x: RationalLike, precision: int = 64) -> Enclosure:
    x = as_fraction(x)
    return eval_iv_tight(precision, lambda: iv.exp(iv_fraction(x)))


def enclose_log(x: RationalLike, precision: int = 64) -> Enclosure:
    x = as_fraction(x)
    if x <= 0:
        raise ValueError("logarithm of a non-positive rational")
    if x == 1:
        return Enclosure.exact(0)
    return eval_iv_tight(precision, lambda: iv.log(iv_fraction(x)))


def enclose_log2(x: RationalLike, precision: int = 64) -> Enclosure:
    x = as_fraction(x)
    if x <= 0:
        raise ValueError("logarithm of a non-positive rational")
    num, den = x.numerator, x.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return Enclosure.exact(num.bit_length() - den.bit_length())
    return eval_iv_tight(
        precision, lambda: iv.log(iv_fraction(x)) / iv.log(iv.mpf(2))
    )


def enclose_loglog(x: RationalLike, precision: int = 64) -> Enclosure:
    x = as_fraction(x)
    if x <= 1:
        raise ValueError("iterated logarithm needs an argument above 1")
    return eval_iv_tight(precision, lambda: iv.log(iv.log(iv_fraction(x))))


def enclose_pow2(exponent: RationalLike, precision: int = 64) -> Enclosure:
    """2**exponent for a rational exponent."""
    e = as_fraction(exponent)
    if e.denominator == 1:
        n = e.numerator
        if n >= 0:
            return Enclosure.exact(2**n)
        return Enclosure.exact(Fraction(1, 2**-n))
    return eval_iv_tight(
        precision, lambda: iv.exp(iv_fraction(e) * iv.log(iv.mpf(2)))
    )
