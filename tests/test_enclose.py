"""Rational enclosures of irrational quantities via outward interval rounding."""

from fractions import Fraction

import pytest
from mpmath import iv

from normnum.enclose import Enclosure, enclose_log2, eval_iv_tight, iv_fraction

F = Fraction


def test_enclosure_invariants():
    e = Enclosure(F(1, 3), F(1, 2))
    assert e.width == F(1, 6)
    assert e.lo < e.hi
    with pytest.raises(ValueError):
        Enclosure(F(1, 2), F(1, 3))


def test_enclosure_intersect():
    a = Enclosure(F(0), F(1, 2))
    b = Enclosure(F(1, 4), F(3, 4))
    assert a.intersect(b) == Enclosure(F(1, 4), F(1, 2))
    with pytest.raises(ValueError):
        a.intersect(Enclosure(F(2, 3), F(3, 4)))


def tight_sqrt(x, precision=64):
    """eval_iv_tight of sqrt(x) from an outward-rounded rational."""
    return eval_iv_tight(precision, lambda: iv.sqrt(iv_fraction(x)))


def test_sqrt_brackets_truth():
    for n in (2, 3, 5, 7, 10, 33):
        e = tight_sqrt(n)
        assert e.lo > 0
        assert e.lo**2 <= n <= e.hi**2
        assert e.width <= F(1, 2**60)


def test_log2_exact_for_powers_of_two():
    assert enclose_log2(8) == Enclosure.exact(3)
    assert enclose_log2(F(1, 4)) == Enclosure.exact(-2)


def test_refinement_is_nested():
    for target in (2, 7, 97):
        wide = tight_sqrt(target, 24)
        tight = tight_sqrt(target, 120)
        assert wide.lo <= tight.lo <= tight.hi <= wide.hi
        assert tight.width < wide.width or wide.lo == wide.hi


def test_eval_iv_tight_hits_requested_relative_width():
    e = eval_iv_tight(100, lambda: __import__("mpmath").iv.sqrt(3))
    assert e.width <= F(1, 2**100) * max(abs(e.lo), abs(e.hi))


def test_hard_start_floor_value():
    # least integer strictly above exp(12 / ln 2)
    from normnum.badsets import HARD_START_FLOOR
    from normnum.enclose import eval_iv

    import mpmath

    e = eval_iv_tight(
        96, lambda: mpmath.iv.exp(12 / mpmath.iv.log(2))
    )
    assert e.hi < HARD_START_FLOOR
    assert e.lo > HARD_START_FLOOR - 1
    assert HARD_START_FLOOR == 33010640

