"""Exact subsets of the unit interval: rational endpoints, canonical unions.

All endpoints are `fractions.Fraction` and every measure is an exact
rational. An IntervalSet keeps its parts sorted, pairwise disjoint and
non-adjacent, so set equality is representation equality and every
operation is oracle-checkable by structural comparison.

PeriodicIntervalSet represents the full preimage of a core set under
x -> frac(base**level * x), i.e. base**level scaled translates of the
core, without expanding the translates. Measure queries against
intervals aligned to the base**level grid stay exact at any level.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[Fraction, int, str]

DEFAULT_COPY_BUDGET = 65536


class BudgetError(RuntimeError):
    """An operation would exceed its explicit work budget."""


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_fraction(value)
    return Fraction(value)


def format_fraction(value: RationalLike) -> str:
    """Serialize as "num/den", always with an explicit denominator."""
    x = as_fraction(value)
    return "%d/%d" % (x.numerator, x.denominator)


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


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Interval:
    """Half-open interval [lo, hi) inside the unit interval."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = as_fraction(self.lo)
        hi = as_fraction(self.hi)
        if not (ZERO <= lo <= ONE and ZERO <= hi <= ONE):
            raise ValueError("interval endpoints must lie in [0, 1]")
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def is_empty(self) -> bool:
        return self.hi <= self.lo

    def contains(self, x: RationalLike) -> bool:
        x = as_fraction(x)
        return self.lo <= x < self.hi

    def halves(self) -> tuple["Interval", "Interval"]:
        mid = (self.lo + self.hi) / 2
        return Interval(self.lo, mid), Interval(mid, self.hi)

    def to_json(self) -> list:
        return [format_fraction(self.lo), format_fraction(self.hi)]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Interval":
        lo, hi = data
        return cls(parse_fraction(lo), parse_fraction(hi))


UNIT = Interval(ZERO, ONE)


def _canonical_pairs(parts: Iterable) -> tuple:
    pairs = []
    for part in parts:
        if isinstance(part, Interval):
            lo, hi = part.lo, part.hi
        else:
            lo, hi = as_fraction(part[0]), as_fraction(part[1])
        if hi > lo:
            pairs.append((lo, hi))
    pairs.sort()
    if pairs and (pairs[0][0] < ZERO or max(hi for _, hi in pairs) > ONE):
        raise ValueError("interval set must stay inside [0, 1]")
    merged: list = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class IntervalSet:
    """Canonical finite union of half-open subintervals of [0, 1)."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable = (), _canonical: bool = False):
        if _canonical:
            self._parts = tuple(parts)
        else:
            self._parts = _canonical_pairs(parts)

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls((), _canonical=True)

    @classmethod
    def unit(cls) -> "IntervalSet":
        return cls(((ZERO, ONE),), _canonical=True)

    @property
    def pairs(self) -> tuple:
        return self._parts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __repr__(self) -> str:
        if len(self._parts) > 6:
            shown = ", ".join("[%s, %s)" % (lo, hi) for lo, hi in self._parts[:6])
            return "IntervalSet(%s, ... %d parts)" % (shown, len(self._parts))
        shown = ", ".join("[%s, %s)" % (lo, hi) for lo, hi in self._parts)
        return "IntervalSet(%s)" % shown

    def measure(self) -> Fraction:
        total = ZERO
        for lo, hi in self._parts:
            total += hi - lo
        return total

    def is_empty(self) -> bool:
        return not self._parts

    def contains(self, x: RationalLike) -> bool:
        x = as_fraction(x)
        i = bisect_right(self._parts, x, key=lambda p: p[0]) - 1
        return i >= 0 and self._parts[i][0] <= x < self._parts[i][1]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Canonical union, by one merge of the two canonical operands.

        Endpoints are compared as integer numerators over the lcm of the
        operands' denominators, so no Fraction is compared. That lcm stays
        small for regions built on one power denominator; the general
        constructor keeps Fraction comparisons, since many coprime
        denominators would make it huge.
        """
        if not self._parts:
            return other
        if not other._parts:
            return self
        parts = self._parts + other._parts
        denom = lcm(*{x.denominator for part in parts for x in part})
        keyed = [
            (
                lo.numerator * (denom // lo.denominator),
                hi.numerator * (denom // hi.denominator),
                i,
            )
            for i, (lo, hi) in enumerate(parts)
        ]
        # the two sorted runs are merged in one pass of the sort
        keyed.sort()
        merged = []
        end = -1
        for lo_key, hi_key, i in keyed:
            if lo_key > end:
                merged.append(parts[i])
                end = hi_key
            elif hi_key > end:
                merged[-1] = (merged[-1][0], parts[i][1])
                end = hi_key
        return IntervalSet(merged, _canonical=True)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        a, b = self._parts, other._parts
        i = j = 0
        while i < len(a) and j < len(b):
            lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
            hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
            if hi > lo:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        # pieces inherit the gaps of both inputs, so the result is canonical
        return IntervalSet(out, _canonical=True)

    def intersect_measure(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """Exact measure of the intersection with [lo, hi)."""
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        parts = self._parts
        total = ZERO
        # the first part ending after lo
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

    def to_json(self) -> list:
        return [[format_fraction(lo), format_fraction(hi)] for lo, hi in self._parts]


class PeriodicIntervalSet:
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
        self.core = core
        self.base = base
        self.level = level
        self._measure = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PeriodicIntervalSet)
            and self.base == other.base
            and self.level == other.level
            and self.core == other.core
        )

    def __hash__(self) -> int:
        return hash((self.base, self.level, self.core))

    def __repr__(self) -> str:
        return "PeriodicIntervalSet(base=%d, level=%d, core=%r)" % (
            self.base,
            self.level,
            self.core,
        )

    def is_empty(self) -> bool:
        return self.core.is_empty()

    def measure(self) -> Fraction:
        # each of the base**level copies has measure core/base**level; the
        # core never changes, so its measure is summed once
        if self._measure is None:
            self._measure = self.core.measure()
        return self._measure

    def contains(self, x: RationalLike) -> bool:
        y = as_fraction(x) * self.base**self.level
        y -= y.numerator // y.denominator
        return self.core.contains(y)

    def intersect_measure(
        self,
        lo: RationalLike,
        hi: RationalLike,
        budget: int = DEFAULT_COPY_BUDGET,
    ) -> Fraction:
        """Exact measure of the intersection with [lo, hi).

        Interval endpoints that are multiples of base**-level need no
        expansion; anything else walks the overlapped copies and must fit
        in `budget`.
        """
        lo = max(as_fraction(lo), ZERO)
        hi = min(as_fraction(hi), ONE)
        if hi <= lo:
            return ZERO
        scale = self.base**self.level
        a = lo * scale
        b = hi * scale
        if a.denominator == 1 and b.denominator == 1:
            # whole copies only
            return (hi - lo) * self.measure()
        first = floor_fraction(a)
        last = ceil_fraction(b)
        if last - first > budget:
            raise BudgetError(
                "periodic intersection touches %d copies, budget is %d"
                % (last - first, budget)
            )
        total = ZERO
        for i in range(first, last):
            seg_lo = max(a - i, ZERO)
            seg_hi = min(b - i, ONE)
            if seg_hi > seg_lo:
                total += self.core.intersect_measure(seg_lo, seg_hi)
        return total / scale

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

