"""Exact discrepancy of finite rational point sets and orbit prefixes.

Both discrepancy flavors are suprema over interval families, and for a
finite point set both have closed forms over the sorted points
x_(1) <= ... <= x_(N) (Kuipers-Niederreiter, Uniform Distribution of
Sequences, ch. 2, Thms 1.4-1.5):

    D_N  = 1/N + max(i/N - x_(i)) - min(i/N - x_(i))
    D*_N = 1/(2N) + max |x_(i) - (2i-1)/(2N)|

Each is one pass over the sorted points in exact rationals, so the cost is
the O(N log N) sort: no search, no rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from mpmath import iv

from .enclose import Enclosure, eval_iv_tight, iv_fraction
from .measure import RationalLike, as_fraction


def orbit_points(x: RationalLike, base: int, count: int) -> list[Fraction]:
    """The first `count` points frac(base**j * x), j = 0, 1, ..."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if count < 1:
        raise ValueError("count must be positive")
    y = as_fraction(x)
    y -= y.numerator // y.denominator
    points = []
    for _ in range(count):
        points.append(y)
        y = y * base
        y -= y.numerator // y.denominator
    return points


def _prepare(points: Sequence[RationalLike]) -> list[Fraction]:
    if not points:
        raise ValueError("discrepancy needs at least one point")
    values = sorted(as_fraction(p) for p in points)
    if values[0] < 0 or values[-1] >= 1:
        raise ValueError("points must lie in [0, 1)")
    return values


def extreme_discrepancy(points: Sequence[RationalLike]) -> Fraction:
    """Exact two-sided interval discrepancy of a finite point multiset.

    D_N = 1/N + max(i/N - x_(i)) - min(i/N - x_(i)) over the sorted points
    x_(1) <= ... <= x_(N), repeats counted with multiplicity.
    """
    pts = _prepare(points)
    n = len(pts)
    gaps = [Fraction(i, n) - x for i, x in enumerate(pts, 1)]
    return Fraction(1, n) + max(gaps) - min(gaps)


def star_discrepancy(points: Sequence[RationalLike]) -> Fraction:
    """Exact anchored discrepancy sup over [0, v), 0 < v <= 1.

    D*_N = 1/(2N) + max |x_(i) - (2i-1)/(2N)| over the sorted points.
    """
    pts = _prepare(points)
    n = len(pts)
    return Fraction(1, 2 * n) + max(
        abs(x - Fraction(2 * i - 1, 2 * n)) for i, x in enumerate(pts, 1)
    )


def normality_ratio(
    x: RationalLike, base: int, count: int, precision: int = 64
) -> tuple[Fraction, Enclosure]:
    """Exact orbit discrepancy and its normalized_ratio."""
    disc = extreme_discrepancy(orbit_points(x, base, count))
    return disc, normalized_ratio(disc, count, precision)


def normalized_ratio(
    disc: Fraction, count: int, precision: int = 64
) -> Enclosure:
    """Enclosure of disc * sqrt(count / loglog count).

    That divides a discrepancy by sqrt(count * loglog count) / count, the
    scale against which the construction's thresholds are calibrated;
    count must be at least 16 so the inner logarithm is safely positive.
    """
    if count < 16:
        raise ValueError("normalized ratio needs count >= 16")
    return eval_iv_tight(
        precision,
        lambda: iv_fraction(disc)
        * iv.sqrt(iv.mpf(count) / iv.log(iv.log(iv.mpf(count)))),
    )


def philipp_constant(base: int, precision: int = 64) -> Enclosure:
    """Classical almost-sure discrepancy constant 166 + 664/(sqrt(base)-1)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    root = _exact_sqrt(Fraction(base))
    if root is not None:
        return Enclosure.exact(166 + Fraction(664, 1) / (root - 1))
    return eval_iv_tight(
        precision,
        lambda: 166 + 664 / (iv.sqrt(iv.mpf(base)) - 1),
    )


def fukuyama_constant(theta: int, precision: int = 64) -> Enclosure:
    """Sharp almost-sure constants for geometric sequences theta**j.

    theta = 2 gives sqrt(84)/9; odd theta gives
    sqrt(2(theta+1)/(theta-1))/2; even theta >= 4 gives
    sqrt(2(theta+1)theta(theta-2)/(theta-1)**3)/2. Exact whenever the
    radicand is a rational square.
    """
    if theta < 2:
        raise ValueError("theta must be at least 2")
    if theta == 2:
        radicand = Fraction(84, 81)
    elif theta % 2 == 1:
        radicand = Fraction(2 * (theta + 1), theta - 1) / 4
    else:
        radicand = Fraction(
            2 * (theta + 1) * theta * (theta - 2), (theta - 1) ** 3
        ) / 4
    root = _exact_sqrt(radicand)
    if root is not None:
        return Enclosure.exact(root)
    return eval_iv_tight(precision, lambda: iv.sqrt(iv_fraction(radicand)))


def _exact_sqrt(value: Fraction):
    from math import isqrt

    num = isqrt(value.numerator)
    den = isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None
