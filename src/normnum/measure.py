"""Exact subsets of the unit interval: rational endpoints, canonical unions.

Every measure is an exact rational. An IntervalSet stores its parts as
strictly increasing integer ends over one denominator, reduced by their
common factor, so set equality is representation equality and every
operation is oracle-checkable by structural comparison. Unions, measures
and overlap queries work on the integers; `Fraction`s are built only for
`pairs`, and `to_json` formats the integer ends directly.

PeriodicIntervalSet represents the full preimage of a core set under
x -> frac(base**level * x), i.e. base**level scaled translates of the
core, without expanding the translates. Measure queries against any
interval take two core queries at any level.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[Fraction, int, str]

DEFAULT_COPY_BUDGET = 65536


class BudgetError(RuntimeError):
    """An operation would exceed its explicit work budget."""


class DomainError(ValueError):
    """A closed-form bound was queried outside its hypotheses."""


# Events a region walk may visit unless a caller grants another budget.
DEFAULT_EVENT_BUDGET = 5_000_000

# Largest event budget a caller may grant a sweep. It bounds the leaves of
# each cell branch of the region walk, base**(end - 1), and the region's
# parts, one per two events; an unbounded budget means unbounded memory.
MAX_EVENT_BUDGET = 1 << 23

# Digit steps above which `digits --count` and `verify` are refused before
# any family is built, and digits above which a digit file is refused: step
# k carries k-bit denominators in every field, and a point of k digits has
# a 2**k denominator that every orbit point carries.
MAX_DIGIT_COUNT = 1 << 12

# Bit length up to which an integer is printed with "%d". CPython converts
# an int to decimal in quadratic time, so longer ones are split in halves by
# a power of two and joined in `decimal`, whose products are subquadratic.
# The bound sits below the 4300 digits of the default int-string limit.
_PLAIN_DECIMAL_BITS = 1 << 13


def decimal_string(value: int) -> str:
    """The integer in decimal, as "%d" gives it, in subquadratic time."""
    if value.bit_length() <= _PLAIN_DECIMAL_BITS:
        return "%d" % value
    import decimal

    powers = {}

    def power(bits):  # 2**bits as a Decimal, each size built once
        if bits not in powers:
            if bits <= _PLAIN_DECIMAL_BITS:
                powers[bits] = decimal.Decimal(1 << bits)
            else:
                half = bits >> 1
                powers[bits] = power(half) * power(bits - half)
        return powers[bits]

    def convert(n, bits):  # n < 2**bits
        if bits <= _PLAIN_DECIMAL_BITS:
            return decimal.Decimal(n)
        half = bits >> 1
        high = n >> half
        return convert(high, bits - half) * power(half) + convert(
            n - (high << half), half
        )

    with decimal.localcontext() as ctx:
        # integers only, each exact: no rounding, no exponent
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(value), value.bit_length()))
    return "-" + text if value < 0 else text


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_fraction(value)
    return Fraction(value)


def format_fraction(value: RationalLike) -> str:
    """Serialize as "num/den", always with an explicit denominator."""
    x = as_fraction(value)
    num, den = x.numerator, x.denominator
    if num.bit_length() > _PLAIN_DECIMAL_BITS or den.bit_length() > _PLAIN_DECIMAL_BITS:
        return "%s/%s" % (decimal_string(num), decimal_string(den))
    return "%d/%d" % (num, den)


def parse_fraction(text: str) -> Fraction:
    """Parse "num/den" or an integer; anything else raises ValueError."""
    if not isinstance(text, str):
        raise ValueError("expected a fraction string, got %r" % (text,))
    text = text.strip()
    num, den = text.split("/", 1) if "/" in text else (text, "1")
    denominator = int(den)
    if denominator == 0:
        raise ValueError("zero denominator in %r" % text)
    return Fraction(int(num), denominator)


def floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


class Record:
    """Immutable value whose fields are the public names of its class's
    `__slots__`; a slot named with a leading underscore is a cache.

    Each subclass writes its own `__init__`, which checks and coerces the
    arguments and stores them through `_fill` in slot order. Records
    compare and hash as the tuple of their fields (so two records are equal
    only when they are of one class), show their fields in `repr`, and
    refuse any assignment after construction.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__
            if name[0] != "_"
        )
        return "%s(%s)" % (type(self).__name__, shown)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)


def _merged_ends(runs: list) -> list:
    """Ends of the union of integer runs (start, stop), start < stop.

    Runs that overlap or touch merge, so the ends strictly increase.
    """
    runs.sort()
    ends: list = []
    for lo, hi in runs:
        if ends and lo <= ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            ends += (lo, hi)
    return ends


class IntervalSet:
    """Canonical finite union of half-open subintervals of [0, 1).

    Stored as integer ends over one denominator: part i is
    [ends[2i], ends[2i+1]) / denom, the ends strictly increase (parts are
    sorted, disjoint and non-adjacent) and gcd(denom, *ends) == 1, so set
    equality is representation equality.
    """

    __slots__ = ("denom", "ends")

    def __init__(self, parts: Iterable = ()):
        pairs = [
            (lo, hi)
            for lo, hi in (map(as_fraction, part) for part in parts)
            if hi > lo
        ]
        denom = lcm(*(x.denominator for pair in pairs for x in pair))
        ends = _merged_ends([(int(lo * denom), int(hi * denom)) for lo, hi in pairs])
        if ends and (ends[0] < 0 or ends[-1] > denom):
            raise ValueError("interval set must stay inside [0, 1]")
        self._reduce(denom, ends)

    def _reduce(self, denom: int, ends) -> None:
        g = gcd(denom, *ends)
        self.denom = denom // g
        self.ends = tuple(ends) if g == 1 else tuple(e // g for e in ends)

    @classmethod
    def on_grid(cls, denom: int, ends) -> "IntervalSet":
        """The set with parts [ends[2i], ends[2i+1]) / denom.

        The ends must strictly increase within [0, denom]; they are taken
        as given, and only reduced by their common factor with denom.
        """
        region = cls.__new__(cls)
        region._reduce(denom, ends)
        return region

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls.on_grid(1, ())

    @property
    def pairs(self) -> tuple:
        # consecutive ends pair up as (start, stop)
        points = iter([Fraction(e, self.denom) for e in self.ends])
        return tuple(zip(points, points))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalSet)
            and self.denom == other.denom
            and self.ends == other.ends
        )

    def __hash__(self) -> int:
        return hash((self.denom, self.ends))

    def __len__(self) -> int:
        return len(self.ends) // 2

    def __repr__(self) -> str:
        shown = ", ".join("[%s, %s)" % pair for pair in self.pairs[:6])
        if len(self) > 6:
            return "IntervalSet(%s, ... %d parts)" % (shown, len(self))
        return "IntervalSet(%s)" % shown

    def measure(self) -> Fraction:
        return Fraction(sum(self.ends[1::2]) - sum(self.ends[::2]), self.denom)

    def is_empty(self) -> bool:
        return not self.ends

    def _rank(self, x: Fraction) -> int:
        """Number of ends at or below x * denom."""
        return bisect_right(self.ends, x.numerator * self.denom // x.denominator)

    def _runs(self, denom: int) -> list:
        """The parts as integer runs over a multiple of the denominator."""
        k = denom // self.denom
        ends = self.ends
        return [(lo * k, hi * k) for lo, hi in zip(ends[::2], ends[1::2])]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Canonical union, by one merge of both operands' integer runs over
        the lcm of their denominators."""
        if not self.ends:
            return other
        if not other.ends:
            return self
        denom = lcm(self.denom, other.denom)
        return IntervalSet.on_grid(
            denom, _merged_ends(self._runs(denom) + other._runs(denom))
        )

    def reflected(self) -> "IntervalSet":
        """The image under x -> 1 - x, as a half-open set again: part
        [lo, hi) becomes [1 - hi, 1 - lo)."""
        denom = self.denom
        return IntervalSet.on_grid(denom, [denom - e for e in reversed(self.ends)])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        denom = lcm(self.denom, other.denom)
        a, b = self._runs(denom), other._runs(denom)
        ends = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
            hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
            if hi > lo:
                ends += (lo, hi)
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        # pieces inherit the gaps of both inputs, so the result is canonical
        return IntervalSet.on_grid(denom, ends)

    def intersect_measure(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """Exact measure of the intersection with [lo, hi).

        The measure below t is the signed sum of the ends below t * denom
        (stops minus starts), plus t itself when t lies inside a part; the
        query is the difference of its values at hi and lo.
        """
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        if hi <= lo:
            return ZERO
        ends = self.ends
        i, j = self._rank(lo), self._rank(hi)
        # from index i on, odd-indexed ends are stops and even-indexed starts
        stops = sum(ends[i | 1 : j : 2])
        starts = sum(ends[i + (i & 1) : j : 2])
        total = Fraction(stops - starts, self.denom)
        if j % 2:
            total += hi
        if i % 2:
            total -= lo
        return total

    def to_json(self) -> list:
        # each end as format_fraction shows it, reduced by its own gcd
        # with the denominator instead of through a Fraction
        denom = self.denom
        shown = []
        for e in self.ends:
            g = gcd(e, denom)
            shown.append("%d/%d" % (e // g, denom // g))
        points = iter(shown)
        return [list(pair) for pair in zip(points, points)]


class PeriodicIntervalSet(Record):
    """Preimage of a core subset of [0, 1) under x -> frac(base**level * x).

    Geometrically: base**level translated and scaled copies of the core,
    one per cylinder of depth `level`, kept implicit so the level may be
    far too large for the copies to be expanded.
    """

    __slots__ = ("core", "base", "level", "_measure")

    def __init__(self, core: IntervalSet, base: int, level: int):
        if base < 2:
            raise ValueError("base must be at least 2")
        if level < 0:
            raise ValueError("level must be non-negative")
        self._fill(core, base, level, None)

    def is_empty(self) -> bool:
        return self.core.is_empty()

    def measure(self) -> Fraction:
        # each of the base**level copies has measure core/base**level; the
        # core never changes, so its measure is summed once
        if self._measure is None:
            object.__setattr__(self, "_measure", self.core.measure())
        return self._measure

    def intersect_measure(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """Exact measure of the intersection with [lo, hi).

        In copy units the measure below t is floor(t) whole copies plus the
        core's measure below frac(t), so any query takes two core queries
        whatever the level.
        """
        lo = max(as_fraction(lo), ZERO)
        hi = min(as_fraction(hi), ONE)
        if hi <= lo:
            return ZERO
        scale = self.base**self.level

        def below(t: Fraction) -> Fraction:
            copies = floor_fraction(t)
            return copies * self.measure() + self.core.intersect_measure(
                ZERO, t - copies
            )

        return (below(hi * scale) - below(lo * scale)) / scale

    def materialize(self, budget: int = DEFAULT_COPY_BUDGET) -> IntervalSet:
        copies = self.base**self.level
        work = copies * max(1, len(self.core))
        if work > budget:
            raise BudgetError(
                "materializing needs %d intervals, budget is %d" % (work, budget)
            )
        pairs = []
        core_pairs = self.core.pairs
        for i in range(copies):
            for lo, hi in core_pairs:
                pairs.append(((i + lo) / copies, (i + hi) / copies))
        return IntervalSet(pairs)

    def to_json(self) -> dict:
        return {
            "kind": "periodic",
            "base": self.base,
            "level": self.level,
            "core": self.core.to_json(),
        }


RegionLike = Union[IntervalSet, PeriodicIntervalSet]


def region_to_json(region: RegionLike):
    if isinstance(region, PeriodicIntervalSet):
        return region.to_json()
    return {"kind": "flat", "parts": region.to_json()}

