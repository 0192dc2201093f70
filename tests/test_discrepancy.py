"""Exact discrepancy values against brute-force enumeration."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st
from mpmath import mp
from mpmath.libmp import to_rational

from normnum.discrepancy import (
    extreme_discrepancy,
    normalized_ratio,
    orbit_points,
    star_discrepancy,
)
from normnum.orbit import Window, f_value

from closed_forms import fukuyama_constant, philipp_constant
from fraction_orbit import fraction_orbit_points, grid


def brute_interval_discrepancy(pts):
    """Try every endpoint pair and every closure combination directly."""
    n = len(pts)
    candidates = sorted(set(pts) | {F(0), F(1)})
    best = F(0)
    for u in candidates:
        for v in candidates:
            if v < u:
                continue
            for lo_closed in (False, True):
                for hi_closed in (False, True):
                    inside = 0
                    for p in pts:
                        past_lo = p > u or (lo_closed and p == u)
                        before_hi = p < v or (hi_closed and p == v)
                        if past_lo and before_hi:
                            inside += 1
                    gap = abs(F(inside, n) - (v - u))
                    if gap > best:
                        best = gap
    return best


def staircase_star(pts):
    """Anchored discrepancy via the sorted-sample staircase formula."""
    ordered = sorted(pts)
    n = len(ordered)
    best = F(0)
    for i, p in enumerate(ordered):
        best = max(best, abs(F(i, n) - p), abs(F(i + 1, n) - p))
    return best


def encloses_irrational_sqrt(enclosure, radicand):
    """0 <= lo < sqrt(radicand) < hi, checked with exact squares."""
    lo, hi = enclosure.lo, enclosure.hi
    assert 0 <= lo < hi
    assert lo * lo < radicand < hi * hi


# -- pinned values -----------------------------------------------------------


def test_single_point_values():
    assert extreme_discrepancy(*grid([F(0)])) == 1
    assert extreme_discrepancy(*grid([F(1, 2)])) == 1
    assert star_discrepancy(*grid([F(1, 2)])) == F(1, 2)
    assert star_discrepancy(*grid([F(0)])) == 1


def test_quarter_pair_values():
    pts = [F(1, 4), F(3, 4)]
    assert extreme_discrepancy(*grid(pts)) == F(1, 2)
    assert star_discrepancy(*grid(pts)) == F(1, 4)


def test_centered_eighths_values():
    pts = [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
    assert extreme_discrepancy(*grid(pts)) == F(1, 4)
    assert star_discrepancy(*grid(pts)) == F(1, 8)


def test_repeated_thirds_values():
    # duplicates count with multiplicity; the closed hull of the four
    # points holds everything at only a third of the length
    pts = [F(2, 3), F(1, 3), F(2, 3), F(1, 3)]
    assert extreme_discrepancy(*grid(pts)) == F(2, 3)
    assert star_discrepancy(*grid(pts)) == F(1, 3)


def test_uniform_grid_is_optimal():
    # left-endpoint grid {0, 1/n, ..., (n-1)/n} achieves the 1/n floor
    for n in (1, 2, 5, 8):
        pts = [F(k, n) for k in range(n)]
        assert extreme_discrepancy(*grid(pts)) == F(1, n)


# -- input validation --------------------------------------------------------


def test_rejects_bad_points():
    with pytest.raises(ValueError):
        extreme_discrepancy(*grid([]))
    with pytest.raises(ValueError):
        extreme_discrepancy(*grid([F(1)]))
    with pytest.raises(ValueError):
        star_discrepancy(*grid([F(-1, 2)]))


def test_orbit_points_examples():
    # numerators over x's reduced denominator: 5/8, 1/4, 1/2, 0
    assert orbit_points(F(5, 8), 2, 4) == ([5, 2, 4, 0], 8)
    assert orbit_points(F(1, 3), 2, 4) == ([1, 2, 1, 2], 3)
    assert orbit_points(F(1, 4), 3, 3) == ([1, 3, 1], 4)
    assert orbit_points(F(0), 2, 2) == ([0, 0], 1)
    # inputs outside [0, 1) are reduced to their fractional part first
    assert orbit_points(F(7, 3), 2, 1) == ([1], 3)
    assert orbit_points(F(-1, 3), 2, 1) == ([2], 3)
    with pytest.raises(ValueError):
        orbit_points(F(1, 3), 1, 4)
    with pytest.raises(ValueError):
        orbit_points(F(1, 3), 2, 0)


# -- randomized agreement with brute force -----------------------------------


def test_matches_brute_force_enumeration():
    rng = random.Random(20260819)
    denominators = [2, 3, 4, 6, 8, 9, 12, 16, 24, 27, 32]
    samples = []
    for _ in range(200):
        n = rng.randrange(1, 13)
        den = rng.choice(denominators)
        samples.append([F(rng.randrange(den), den) for _ in range(n)])
    # orbit prefixes of short-period rationals: each point repeats many times
    for _ in range(60):
        q = rng.randrange(2, 32)
        x = F(rng.randrange(q), q)
        samples.append(
            fraction_orbit_points(x, rng.choice([2, 3, 5]), rng.randrange(1, 41))
        )
    for pts in samples:
        n = len(pts)
        fast = extreme_discrepancy(*grid(pts))
        star = star_discrepancy(*grid(pts))
        assert fast == brute_interval_discrepancy(pts)
        assert star == staircase_star(pts)
        assert F(1, n) <= fast <= 1
        assert star <= fast <= 2 * star
        assert star >= F(1, 2 * n)


def test_band_counts_never_beat_supremum():
    # any half-open band's counting error is a lower bound for the
    # two-sided discrepancy of the same orbit prefix
    rng = random.Random(4096)
    for _ in range(50):
        base = rng.choice([2, 3, 5])
        count = rng.randrange(1, 9)
        x = F(rng.randrange(1, 81), 81)
        k = rng.randrange(8)
        lo = F(k, 8)
        hi = F(k + rng.randrange(1, 9 - k), 8)
        window = Window(base, 0, count)
        deviation = f_value(x, window, (lo, hi))
        assert deviation <= count * extreme_discrepancy(*orbit_points(x, base, count))


RATIONALS = st.builds(
    F,
    st.integers(-(2**80), 2**80),
    st.one_of(st.integers(1, 64), st.integers(1, 2**80)),
)


@given(RATIONALS, st.integers(2, 10), st.integers(1, 300))
def test_integer_orbit_matches_fraction_walk(x, base, count):
    # the residue walk p * base**j mod q against one Fraction per point
    points, q = orbit_points(x, base, count)
    reference = grid(fraction_orbit_points(x, base, count))
    assert (points, q) == reference
    assert extreme_discrepancy(points, q) == extreme_discrepancy(*reference)
    assert star_discrepancy(points, q) == star_discrepancy(*reference)


# -- growth-normalized ratio -------------------------------------------------


def test_normality_ratio_guard_and_value():
    with pytest.raises(ValueError):
        normalized_ratio(extreme_discrepancy(*orbit_points(F(1, 3), 2, 15)), 15)
    disc = extreme_discrepancy(*orbit_points(F(1, 3), 2, 16))
    assert disc == F(2, 3)
    ratio = normalized_ratio(disc, 16)
    # reference value at much higher precision than the enclosure, turned
    # into an exact rational so the containment check cannot round
    mp.prec = 200
    target = mp.mpf(2) / 3 * mp.sqrt(16 / mp.log(mp.log(16)))
    reference = F(*to_rational(target._mpf_))
    assert ratio.lo <= reference <= ratio.hi
    assert ratio.width < F(1, 2**30)


# -- classical constants -----------------------------------------------------


def test_philipp_constant_values():
    at_four = philipp_constant(4)
    assert at_four.lo == at_four.hi == 830
    at_nine = philipp_constant(9)
    assert at_nine.lo == at_nine.hi == 498
    # base 2 value is 830 + 664*sqrt(2); compare squares exactly
    at_two = philipp_constant(2)
    assert ((at_two.lo - 830) / 664) ** 2 < 2 < ((at_two.hi - 830) / 664) ** 2
    wide = philipp_constant(2, precision=32)
    tight = philipp_constant(2, precision=128)
    assert tight.width < wide.width
    with pytest.raises(ValueError):
        philipp_constant(1)


def test_fukuyama_constant_values():
    at_three = fukuyama_constant(3)
    assert at_three.lo == at_three.hi == 1
    # odd theta = 17 gives sqrt(9/16), another exact point
    at_seventeen = fukuyama_constant(17)
    assert at_seventeen.lo == at_seventeen.hi == F(3, 4)
    encloses_irrational_sqrt(fukuyama_constant(2), F(84, 81))
    encloses_irrational_sqrt(fukuyama_constant(4), F(20, 27))
    encloses_irrational_sqrt(fukuyama_constant(6), F(84, 125))
    with pytest.raises(ValueError):
        fukuyama_constant(1)
