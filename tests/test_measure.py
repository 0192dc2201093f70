"""Interval set arithmetic: canonicalization, measure, and periodic wrappers."""

import importlib.util
import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from normnum.badsets import BadFamily, FamilyComponent, SetEnclosure
from normnum.constructor import Certificate, StepRecord, VerificationReport
from normnum.enclose import Enclosure
from normnum.mc import SamplerSpec
from normnum import measure
from normnum.measure import (
    BudgetError,
    IntervalSet,
    PeriodicIntervalSet,
    decimal_string,
    format_fraction,
    parse_fraction,
)
from normnum.orbit import Band, Window
from normnum.schedule import Schedule

from membership import contains

F = Fraction


def iset(*pairs):
    return IntervalSet([(F(a), F(b)) for a, b in pairs])


# -- fraction formatting -------------------------------------------------


def test_fraction_round_trip():
    for value in (F(0), F(1, 3), F(-2, 7), F(5)):
        assert parse_fraction(format_fraction(value)) == value


def test_format_always_carries_denominator():
    assert format_fraction(F(0)) == "0/1"
    assert format_fraction(F(3)) == "3/1"
    assert format_fraction(F(1, 2)) == "1/2"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_fraction("1/2/3")
    with pytest.raises(ValueError):
        parse_fraction("pi")


@pytest.mark.parametrize(
    "text",
    ["1_0/3", " 1/2 ", "+1/2", "1/ 2", "1/-2", "\u0661/2", "1/2\n"],
)
def test_parse_accepts_only_ascii_digits(text):
    # int() reads each of these; a fraction is -?digits or -?digits/digits
    with pytest.raises(ValueError):
        parse_fraction(text)


@pytest.fixture
def no_int_string_limit():
    # str() of an integer past 4300 digits needs the limit lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_decimal_string_matches_str(no_int_string_limit):
    rng = random.Random(20261019)
    bound = measure._PLAIN_DECIMAL_BITS
    values = [0, 1, -1, 10**2466, 10**2467 - 1, rng.getrandbits(1 << 20)]
    for bits in [*range(bound - 2, bound + 3), 2 * bound + 1, 5 * bound]:
        top = 1 << bits
        values += [top - 1, top, top + 1, rng.getrandbits(bits) | top >> 1]
    for value in values:
        assert decimal_string(value) == str(value)
        assert decimal_string(-value) == str(-value)
    assert format_fraction(F(-values[-1], 3)) == "-%d/3" % values[-1]


def _parse_decimal(text: str) -> int:
    # int(text) by halves, so only products of the halves are big: none
    # of CPython's quadratic int/str conversions, which take minutes here
    powers = {}

    def parse(text):
        if len(text) <= 2000:
            return int(text)
        low = len(text) // 2
        if low not in powers:
            powers[low] = 10**low
        return parse(text[:-low]) * powers[low] + parse(text[-low:])

    return parse(text)


def test_decimal_string_at_seven_megabits():
    value = random.Random(7).getrandbits(7 << 20) | 1 << (7 << 20) - 1
    text = decimal_string(value)
    assert text[0] != "0"
    assert _parse_decimal(text) == value


# -- canonical interval sets ---------------------------------------------


def test_empty_and_unit_sets():
    assert IntervalSet.empty().measure() == 0
    assert IntervalSet.empty().is_empty()
    unit = IntervalSet([(0, 1)])
    assert unit.measure() == 1
    assert not unit.is_empty()
    assert unit == IntervalSet.on_grid(8, (0, 8))


def test_overlapping_parts_merge():
    s = iset((0, F(1, 2)), (F(1, 4), F(3, 4)))
    assert s.pairs == ((F(0), F(3, 4)),)
    assert s.measure() == F(3, 4)


def test_adjacent_parts_merge():
    s = iset((0, F(1, 3)), (F(1, 3), F(1, 2)))
    assert s.pairs == ((F(0), F(1, 2)),)


def test_disjoint_parts_stay_separate():
    s = iset((0, F(1, 4)), (F(1, 2), F(3, 4)))
    assert len(s.pairs) == 2
    assert s.measure() == F(1, 2)


def test_zero_length_parts_vanish():
    s = iset((F(1, 3), F(1, 3)))
    assert s.is_empty()


def test_order_does_not_matter():
    a = iset((0, F(1, 8)), (F(1, 2), F(5, 8)), (F(1, 4), F(3, 8)))
    b = iset((F(1, 4), F(3, 8)), (0, F(1, 8)), (F(1, 2), F(5, 8)))
    assert a == b
    assert hash(a) == hash(b)
    # the same set given over 8, over 4, and as a union whose merged ends
    # (2/8, 4/8) share a factor with the lcm 8 of its operands
    grid = IntervalSet.on_grid(8, (2, 4))
    given = iset((F(1, 4), F(1, 2)))
    merged = iset((F(1, 4), F(3, 8))).union(iset((F(3, 8), F(1, 2))))
    assert grid == given == merged
    assert hash(grid) == hash(given) == hash(merged)
    assert (merged.denom, merged.ends) == (4, (1, 2))


def test_contains_is_half_open():
    s = iset((F(1, 4), F(1, 2)))
    assert contains(s, F(1, 4))
    assert contains(s, F(3, 8))
    assert not contains(s, F(1, 2))
    assert not contains(s, F(0))


def test_union_and_intersect():
    a = iset((0, F(1, 2)))
    b = iset((F(1, 4), F(3, 4)))
    assert a.union(b).measure() == F(3, 4)
    assert a.intersect(b).pairs == ((F(1, 4), F(1, 2)),)


def test_intersect_interval_and_measure():
    s = iset((0, F(1, 4)), (F(1, 2), 1))
    assert s.intersect_measure(F(1, 8), F(3, 4)) == F(1, 8) + F(1, 4)


# -- property tests ------------------------------------------------------

frac01 = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    pairs = []
    for _ in range(n):
        a = draw(frac01)
        b = draw(frac01)
        if a > b:
            a, b = b, a
        pairs.append((a, b))
    return IntervalSet(pairs)


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_inclusion_exclusion(a, b):
    assert a.union(b).measure() + a.intersect(b).measure() == (
        a.measure() + b.measure()
    )


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets(), frac01)
def test_membership_consistency(a, b, x):
    u = a.union(b)
    i = a.intersect(b)
    assert contains(u, x) == (contains(a, x) or contains(b, x))
    assert contains(i, x) == (contains(a, x) and contains(b, x))


@settings(max_examples=100, deadline=None)
@given(interval_sets())
def test_canonical_parts_are_sorted_disjoint(a):
    pairs = a.pairs
    for lo, hi in pairs:
        assert lo < hi
    for (_, hi1), (lo2, _) in zip(pairs, pairs[1:]):
        assert hi1 < lo2


@settings(max_examples=300, deadline=None)
@given(interval_sets(), interval_sets())
def test_to_json_matches_formatted_pairs(a, b):
    # the ends of a union sit over the lcm of both denominators, so each
    # end reduces by a different factor
    for s in (a, b, a.union(b)):
        assert s.to_json() == [
            [format_fraction(lo), format_fraction(hi)] for lo, hi in s.pairs
        ]


def reference_union(a, b):
    """The sort-based union: canonicalise the concatenated parts with
    Fraction comparisons."""
    return IntervalSet(a.pairs + b.pairs)


DENOMINATORS = {
    "dyadic": (1, 2, 4, 8, 16, 32),
    "triadic": (1, 3, 9, 27),
    "mixed": (1, 2, 3, 4, 6, 9, 12, 16, 27),
}


@st.composite
def set_pairs(draw):
    """Two sets whose parts share endpoints from one small pool, so parts
    touch, nest, repeat or stay disjoint across the two operands."""
    dens = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    point = st.sampled_from(dens).flatmap(
        lambda d: st.integers(0, d).map(lambda n: F(n, d))
    )
    pool = draw(st.lists(point, min_size=1, max_size=8))
    part = st.tuples(st.sampled_from(pool), st.sampled_from(pool)).map(sorted)
    return tuple(
        IntervalSet(draw(st.lists(part, max_size=6))) for _ in range(2)
    )


@settings(max_examples=300, deadline=None)
@given(set_pairs())
def test_union_matches_sort_reference(sets):
    a, b = sets
    union = a.union(b)
    assert union == reference_union(a, b)
    assert all(type(x) is F for part in union.pairs for x in part)


def reference_intersect_measure(a, lo, hi):
    """Walk the canonical Fraction pairs from the first part ending after lo."""
    parts = a.pairs
    total = F(0)
    i = bisect_right(parts, lo, key=lambda p: p[1])
    while i < len(parts):
        plo, phi = parts[i]
        if plo >= hi:
            break
        seg_lo = plo if plo > lo else lo
        seg_hi = phi if phi < hi else hi
        if seg_hi > seg_lo:
            total += seg_hi - seg_lo
        i += 1
    return total


@st.composite
def sets_and_points(draw):
    """Raw parts, their set, and query points on part ends, inside parts,
    in gaps, and anywhere in [0, 1]."""
    n = draw(st.integers(min_value=0, max_value=5))
    raw = [tuple(sorted((draw(frac01), draw(frac01)))) for _ in range(n)]
    a = IntervalSet(raw)
    ends = [x for part in a.pairs for x in part]
    between = [(x + y) / 2 for x, y in zip([F(0)] + ends, ends + [F(1)])]
    point = st.one_of(st.sampled_from(ends + between), frac01)
    return raw, a, draw(st.lists(point, min_size=2, max_size=2))


@settings(max_examples=300, deadline=None)
@given(sets_and_points())
def test_contains_and_intersect_measure_match_references(case):
    raw, a, (lo, hi) = case
    for x in (lo, hi):
        assert contains(a, x) == any(plo <= x < phi for plo, phi in raw)
    # reversed and empty queries measure zero
    assert a.intersect_measure(lo, hi) == reference_intersect_measure(a, lo, hi)


@settings(max_examples=100, deadline=None)
@given(interval_sets(), frac01, frac01)
def test_intersect_measure_matches_intersect(a, lo, hi):
    # reversed or empty queries measure zero
    query = IntervalSet([(lo, hi)]) if lo < hi else IntervalSet.empty()
    assert a.intersect_measure(lo, hi) == a.intersect(query).measure()


# -- periodic wrappers ----------------------------------------------------


def test_periodic_measure_and_membership():
    core = iset((0, F(1, 4)))
    p = PeriodicIntervalSet(core, 2, 1)  # preimage of [0,1/4) under x -> {2x}
    assert p.measure() == F(1, 4)
    assert contains(p, F(0))
    assert contains(p, F(1, 16))
    assert not contains(p, F(1, 4))
    assert contains(p, F(1, 2))  # {2 * 1/2} = 0
    assert contains(p, F(9, 16))
    assert not contains(p, F(3, 4))


def test_periodic_level_zero_is_plain():
    core = iset((F(1, 8), F(1, 2)))
    p = PeriodicIntervalSet(core, 3, 0)
    assert p.measure() == core.measure()
    assert contains(p, F(1, 4)) == contains(core, F(1, 4))


def test_periodic_aligned_intersect_measure():
    core = iset((0, F(1, 3)))
    p = PeriodicIntervalSet(core, 2, 2)
    # [1/4, 3/4) spans 2 of the 4 aligned copies
    assert p.intersect_measure(F(1, 4), F(3, 4)) == F(1, 2) * core.measure()
    assert p.intersect_measure(F(0), F(1)) == core.measure()


def test_periodic_unaligned_intersect_measure_matches_materialized():
    core = iset((F(1, 8), F(1, 2)))
    p = PeriodicIntervalSet(core, 2, 2)
    lo, hi = F(1, 5), F(7, 9)
    flat = p.materialize(10**6)
    assert p.intersect_measure(lo, hi) == flat.intersect_measure(lo, hi)


def test_periodic_budget_guard():
    core = iset((F(1, 3), F(2, 3)))
    p = PeriodicIntervalSet(core, 2, 24)
    # 2**24 = 1 mod 7, so [1/7, 6/7) covers 11983724 whole copies and the
    # last 6/7 and first 6/7 of two more, each holding the whole core
    assert p.intersect_measure(F(1, 7), F(6, 7)) == F(11983726, 3 * 2**24)
    # aligned query stays cheap no matter the level
    assert p.intersect_measure(F(1, 4), F(1, 2)) == F(1, 4) * core.measure()
    # expanding the 2**24 copies stays refused
    with pytest.raises(BudgetError):
        p.materialize()


def reference_periodic_intersect_measure(p, lo, hi):
    """Sum the core's measure in each copy that [lo, hi) overlaps."""
    lo, hi = max(lo, F(0)), min(hi, F(1))
    if hi <= lo:
        return F(0)
    scale = p.base**p.level
    a, b = lo * scale, hi * scale
    total = F(0)
    for i in range(math.floor(a), math.ceil(b)):
        seg_lo = max(a - i, F(0))
        seg_hi = min(b - i, F(1))
        if seg_hi > seg_lo:
            total += p.core.intersect_measure(seg_lo, seg_hi)
    return total / scale


@settings(max_examples=300, deadline=None)
@given(
    interval_sets(),
    st.sampled_from((2, 3, 5)),
    st.integers(min_value=0, max_value=4),
    frac01,
    frac01,
)
def test_periodic_intersect_measure_matches_copy_loop(core, base, level, lo, hi):
    p = PeriodicIntervalSet(core, base, level)
    assert p.intersect_measure(lo, hi) == reference_periodic_intersect_measure(
        p, lo, hi
    )


def test_periodic_materialize_round_trip():
    core = iset((0, F(1, 4)), (F(1, 2), F(9, 16)))
    p = PeriodicIntervalSet(core, 2, 3)
    flat = p.materialize(10**6)
    assert flat.measure() == p.measure()
    for k in range(64):
        x = F(2 * k + 1, 128)
        assert contains(flat, x) == contains(p, x)



# -- records -------------------------------------------------------------

_SCHEDULE = Schedule(
    "t", F(-2, 5), F(1, 8), ((2, 4),), 4, 2, 4, ((F(0), F(1, 2)),)
)
_REGION = iset((0, F(1, 4)), (F(1, 2), F(3, 4)))
_COMPONENT = FamilyComponent("block", "block", _REGION, 3)
_STEP = StepRecord(
    1, 4, (F(0), F(1)), 0, (F(0), F(1, 2)), F(1, 8), None, F(1, 16), F(1, 2), 64,
    ({"label": "block"},),
)

# class: (every field in slot order, the defaults of the trailing fields);
# the values are already in the form the constructor stores
RECORDS = {
    Enclosure: ((F(1, 3), F(1, 2)), ()),
    Band: ((1, 2), ()),
    Window: ((2, 3, 8), ()),
    Schedule: (
        ("t", F(-2, 5), F(1, 8), ((2, 4),), 4, 2, 4, ((F(0), F(1, 2)),)),
        (None, None, None, None, None),
    ),
    SetEnclosure: (
        ("s", Window(2, 0, 16), Band(0, 1), Enclosure(1, 2), _REGION), (),
    ),
    FamilyComponent: (("block", "block", _REGION, 3), (0,)),
    BadFamily: (((_COMPONENT,),), ()),
    StepRecord: (
        (1, 4, (F(0), F(1)), 0, (F(0), F(1, 2)), F(1, 8), None, F(1, 16), F(1, 2),
         64, ({"label": "block"},)),
        (),
    ),
    Certificate: ((_SCHEDULE, "0", (_STEP,)), ()),
    VerificationReport: ((True, 1, ("step 1: digit 1, schedule says 0",)), ()),
    SamplerSpec: ((1, 100), ()),
    PeriodicIntervalSet: ((_REGION, 2, 3), ()),
}
# component rows are JSON objects, so these records cannot be hashed
UNHASHABLE = {StepRecord, Certificate}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    values, defaults = RECORDS[cls]
    fields = [name for name in cls.__slots__ if not name.startswith("_")]
    assert len(fields) == len(values)
    record = cls(*values)
    assert [getattr(record, name) for name in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == record
    required = len(values) - len(defaults)
    bare = cls(*values[:required])
    assert [getattr(bare, name) for name in fields[required:]] == list(defaults)
    # reading every property leaves equality with a fresh copy intact
    for name in dir(cls):
        if isinstance(getattr(cls, name), property):
            getattr(record, name)
    copy = cls(*values)
    assert copy == record and not copy != record
    assert record != values and record != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(values)


def test_launcher_wrapped_methods_live_in_their_class():
    # bench/launcher.py looks each traced method up in its class's own
    # __dict__, so every method its METHODS table lists must be defined
    # there, not inherited or renamed away
    path = Path(__file__).parents[1] / "bench" / "launcher.py"
    spec = importlib.util.spec_from_file_location("bench_launcher", path)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    assert launcher.METHODS
    for layer, classes in launcher.METHODS.items():
        module = importlib.import_module("normnum." + layer)
        for class_name, methods in classes.items():
            cls = getattr(module, class_name)
            for method in methods:
                assert method in cls.__dict__, (layer, class_name, method)
