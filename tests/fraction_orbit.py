"""Fraction reference for the integer orbit walk of `normnum.discrepancy`.

The library keeps orbit points as integer numerators over x's reduced
denominator. These helpers keep the plain rational shape: one `Fraction`
per point, and the lcm gridding that turns any rational points into the
integer numerators and common denominator the closed forms take.
"""

from fractions import Fraction
from math import lcm


def fraction_orbit_points(x, base: int, count: int) -> list[Fraction]:
    """The first `count` points frac(base**j * x), j = 0, 1, ..."""
    y = Fraction(x)
    y -= y.numerator // y.denominator
    points = []
    for _ in range(count):
        points.append(y)
        y = y * base
        y -= y.numerator // y.denominator
    return points


def grid(points) -> tuple[list[int], int]:
    """The points, in their order, as integer numerators over their least
    common denominator, with that denominator."""
    values = [Fraction(p) for p in points]
    common = lcm(*{v.denominator for v in values})
    return [v.numerator * (common // v.denominator) for v in values], common
