"""Exact discrepancy of finite rational point sets and orbit prefixes.

Both discrepancy flavors are suprema over interval families, and for a
finite point set both have closed forms over the sorted points
x_(1) <= ... <= x_(N) (Kuipers-Niederreiter, Uniform Distribution of
Sequences, ch. 2, Thms 1.4-1.5):

    D_N  = 1/N + max(i/N - x_(i)) - min(i/N - x_(i))
    D*_N = 1/(2N) + max |x_(i) - (2i-1)/(2N)|

Each is one pass over the sorted points: no search, no rounding. The points
are integer numerators over one common denominator Q, the shape
`orbit_points` gives: the orbit of x = p/q in lowest terms is the residue
walk p * base**j mod q. So the sort and both passes compare integers, and
each form builds one `Fraction`, at the end. Each form sorts its own input;
on points already sorted that sort is linear.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .enclose import Enclosure, eval_iv_tight, iv_fraction


def orbit_points(x: Fraction, base: int, count: int) -> tuple[list[int], int]:
    """The first `count` points frac(base**j * x), j = 0, 1, ..., as their
    numerators over x's reduced denominator q, with q."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if count < 1:
        raise ValueError("count must be positive")
    q = x.denominator
    p = x.numerator % q
    points = []
    for _ in range(count):
        points.append(p)
        p = p * base % q
    return points, q


def _sorted(points: Sequence[int], denominator: int) -> list[int]:
    """The numerators in ascending order, checked to lie in [0, denominator)."""
    if not points:
        raise ValueError("discrepancy needs at least one point")
    pts = sorted(points)
    if pts[0] < 0 or pts[-1] >= denominator:
        raise ValueError("points must lie in [0, 1)")
    return pts


def extreme_discrepancy(points: Sequence[int], denominator: int) -> Fraction:
    """Exact two-sided interval discrepancy of the point multiset
    {m / denominator : m in points}.

    D_N = 1/N + max(i/N - x_(i)) - min(i/N - x_(i)) over the sorted points
    x_(1) <= ... <= x_(N), repeats counted with multiplicity. With
    x_(i) = m_i / Q each gap is (i*Q - N*m_i) / (N*Q).
    """
    pts = _sorted(points, denominator)
    n, q = len(pts), denominator
    gaps = [i * q - n * m for i, m in enumerate(pts, 1)]
    return Fraction(q + max(gaps) - min(gaps), n * q)


def star_discrepancy(points: Sequence[int], denominator: int) -> Fraction:
    """Exact anchored discrepancy sup over [0, v), 0 < v <= 1, of the point
    multiset {m / denominator : m in points}.

    D*_N = 1/(2N) + max |x_(i) - (2i-1)/(2N)| over the sorted points; with
    x_(i) = m_i / Q each term is |2N*m_i - (2i-1)*Q| / (2N*Q).
    """
    pts = _sorted(points, denominator)
    n, q = len(pts), denominator
    return Fraction(
        q + max(abs(2 * n * m - (2 * i - 1) * q) for i, m in enumerate(pts, 1)),
        2 * n * q,
    )


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

    def ratio():
        n = iv_fraction(count)
        return iv_fraction(disc) * (n / n.log().log()).sqrt()

    return eval_iv_tight(precision, ratio)


def philipp_constant(base: int, precision: int = 64) -> Enclosure:
    """Classical almost-sure discrepancy constant 166 + 664/(sqrt(base)-1)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    root = _exact_sqrt(Fraction(base))
    if root is not None:
        return Enclosure.exact(166 + Fraction(664, 1) / (root - 1))
    return eval_iv_tight(
        precision, lambda: 166 + 664 / (iv_fraction(base).sqrt() - 1)
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
    return eval_iv_tight(precision, lambda: iv_fraction(radicand).sqrt())


def _exact_sqrt(value: Fraction):
    from math import isqrt

    num = isqrt(value.numerator)
    den = isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None
