"""Membership oracles for normnum's exact regions.

The tests judge regions point by point: a sampled or witnessed x against
the set a region stands for. The library only measures regions and
intersects them with intervals, so point membership lives here.
"""

from bisect import bisect_right

from normnum.badsets import BadFamily
from normnum.measure import PeriodicIntervalSet, RationalLike, as_fraction


def contains(region, x: RationalLike) -> bool:
    """Whether x lies in an IntervalSet, a PeriodicIntervalSet, or the
    region of some component of a BadFamily."""
    x = as_fraction(x)
    if isinstance(region, BadFamily):
        return any(contains(comp.region, x) for comp in region.components)
    if isinstance(region, PeriodicIntervalSet):
        y = x * region.base**region.level
        return contains(region.core, y - y.numerator // y.denominator)
    # an odd number of ends at or below x * denom puts x inside a part
    rank = bisect_right(region.ends, x.numerator * region.denom // x.denominator)
    return rank % 2 == 1


def member_of(region):
    """The membership function of a region, as the estimator takes it."""
    return lambda x: contains(region, x)
