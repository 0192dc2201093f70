"""Exact orbit statistics for the maps x -> frac(base**j * x).

The central quantity is the windowed counting deviation: over a window of
consecutive orbit indices and a target interval, the absolute difference
between how many orbit points land in the target and how many a perfectly
equidistributed orbit would deposit there. The module computes it three
ways, each exact:

* pointwise, by walking the orbit of a rational;
* as a region {x : deviation meets a threshold}, by sweeping the sorted
  preimage breakpoints over a common power denominator;
* as a measure alone, from the exact distribution of the window's hit
  count along the cell chain of the digit process, with each cell's count
  polynomial packed into one integer; this stays feasible when windows
  are far too long for the region itself to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Optional, Sequence, Union

from .measure import (
    ONE,
    ZERO,
    BudgetError,
    IntervalSet,
    RationalLike,
    as_fraction,
)

DEFAULT_EVENT_BUDGET = 5_000_000


@dataclass(frozen=True)
class Band:
    """Dyadic target interval [a / 2**k, (a + 1) / 2**k)."""

    a: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("band depth must be non-negative")
        if not 0 <= self.a < 2**self.k:
            raise ValueError("band index out of range for depth %d" % self.k)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, 2**self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.a + 1, 2**self.k)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 2**self.k)

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi


@dataclass(frozen=True)
class Window:
    """Orbit index window [offset, offset + length) for one base."""

    base: int
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.offset < 0:
            raise ValueError("window offset must be non-negative")
        if self.length < 1:
            raise ValueError("window length must be positive")

    @property
    def end(self) -> int:
        return self.offset + self.length


BandLike = Union[Band, tuple]


def _band_bounds(band: BandLike) -> tuple[Fraction, Fraction]:
    if isinstance(band, Band):
        return band.bounds()
    lo, hi = as_fraction(band[0]), as_fraction(band[1])
    if not (ZERO <= lo < hi <= ONE):
        raise ValueError("target interval must satisfy 0 <= lo < hi <= 1")
    return lo, hi


def orbit_point(x: RationalLike, base: int, j: int) -> Fraction:
    """frac(base**j * x) as an exact rational."""
    y = as_fraction(x) * base**j
    return y - (y.numerator // y.denominator)


def hit_count(x: RationalLike, window: Window, band: BandLike) -> int:
    lo, hi = _band_bounds(band)
    y = orbit_point(x, window.base, window.offset)
    count = 0
    for _ in range(window.length):
        if lo <= y < hi:
            count += 1
        y = y * window.base
        y -= y.numerator // y.denominator
    return count


def f_value(x: RationalLike, window: Window, band: BandLike) -> Fraction:
    """|hits - expected hits| for the window against the target interval."""
    lo, hi = _band_bounds(band)
    expected = (hi - lo) * window.length
    return abs(hit_count(x, window, (lo, hi)) - expected)


def preimage_interval(base: int, j: int, lo: RationalLike, hi: RationalLike) -> IntervalSet:
    """Exact preimage of [lo, hi) under x -> frac(base**j * x)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if j < 0:
        raise ValueError("iterate index must be non-negative")
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if not (ZERO <= lo < hi <= ONE):
        raise ValueError("target interval must satisfy 0 <= lo < hi <= 1")
    scale = base**j
    pairs = [((m + lo) / scale, (m + hi) / scale) for m in range(scale)]
    canonical = lo > 0 or hi < 1
    if canonical:
        return IntervalSet(pairs, _canonical=True)
    return IntervalSet(pairs)


def preimage_band(base: int, j: int, band: BandLike) -> IntervalSet:
    lo, hi = _band_bounds(band)
    return preimage_interval(base, j, lo, hi)


def sweep_cost(window: Window, budget: Optional[int] = None) -> int:
    """Number of breakpoint events a region sweep would generate."""
    b = window.base
    # total >= 2 * b**(end-1) >= 2**end, so reject oversized windows before
    # materializing the power itself
    if budget is not None and window.end > budget.bit_length():
        raise BudgetError(
            "sweep needs at least 2**(window end) events for a window end "
            "of %d bits, budget is %d" % (window.end.bit_length(), budget)
        )
    total = 2 * (b**window.end - b**window.offset) // (b - 1)
    if budget is not None and total > budget:
        raise BudgetError(
            "sweep needs %d events, budget is %d" % (total, budget)
        )
    return total


def breakpoints(window: Window, band: BandLike) -> list[Fraction]:
    """Sorted distinct preimage endpoints, with 0 and 1 always included."""
    lo, hi = _band_bounds(band)
    points = {ZERO, ONE}
    for j in range(window.offset, window.end):
        scale = window.base**j
        for m in range(scale):
            points.add((m + lo) / scale)
            if hi < 1 or m + 1 < scale:
                points.add((m + hi) / scale)
    return sorted(points)


def count_cutoffs(
    expected: Fraction, threshold: Fraction, strict: bool = False
) -> tuple[int, int]:
    """Integer cutoffs of |c - expected| >= threshold (or > threshold).

    Counts c qualify iff c <= c_lo or c >= c_hi, so the pair decides the
    deviation region exactly.
    """
    if strict:
        return ceil(expected - threshold) - 1, floor(expected + threshold) + 1
    return floor(expected - threshold), ceil(expected + threshold)


def _sweep_regions(
    window: Window,
    lo: Fraction,
    hi: Fraction,
    cutoffs: Sequence[tuple[int, int]],
    budget: int,
) -> list[IntervalSet]:
    """One region {x : count <= c_lo or count >= c_hi} per cutoff pair.

    Every preimage endpoint is an integer over the common denominator
    q * base**(end - 1): orbit index j turns the band indicator on at
    lo_num * s + m * q * s and off at hi_num * s + m * q * s, with
    s = base**(end - 1 - j) and 0 <= m < base**j. One int64 sort of those
    positions, with equal positions merged, gives the hit count of every
    segment as a prefix sum of the +1/-1 deltas; each cutoff pair's
    qualifying runs are read off that count vector.
    """
    sweep_cost(window, budget)
    b = window.base
    q = lcm(lo.denominator, hi.denominator)
    top = window.end - 1
    denom = q * b**top
    # every position lies in [0, denom], so int64 holds them all exactly
    if denom >= 1 << 63:
        raise BudgetError(
            "sweep denominator of %d bits does not fit in int64"
            % denom.bit_length()
        )
    import numpy as np  # deferred: commands that never sweep skip the import

    lo_num = lo.numerator * (q // lo.denominator)
    hi_num = hi.numerator * (q // hi.denominator)
    on = []
    off = []
    for j in range(window.offset, window.end):
        scale = b ** (top - j)
        steps = np.arange(b**j, dtype=np.int64) * (q * scale)
        on.append(steps + lo_num * scale)
        off.append(steps + hi_num * scale)
    on = np.concatenate(on)
    off = np.concatenate(off)
    # the sentinels 0 and denom carry no delta; they pin the first and
    # last segment edges
    positions = np.concatenate((on, off, np.array([0, denom], dtype=np.int64)))
    deltas = np.repeat(np.array([1, -1, 0], dtype=np.int64), (len(on), len(off), 2))
    order = np.argsort(positions)
    positions = positions[order]
    firsts = np.flatnonzero(np.diff(positions, prepend=-1))
    edges = positions[firsts]
    # counts[i] holds on the segment [edges[i], edges[i + 1])
    counts = np.cumsum(np.add.reduceat(deltas[order], firsts))[:-1]
    regions = []
    for c_lo, c_hi in cutoffs:
        mask = (counts <= c_lo) | (counts >= c_hi)
        flips = np.flatnonzero(np.diff(mask, prepend=False, append=False))
        ends = edges[flips].tolist()
        regions.append(
            IntervalSet(
                [
                    (Fraction(start, denom), Fraction(stop, denom))
                    for start, stop in zip(ends[::2], ends[1::2])
                ],
                _canonical=True,
            )
        )
    return regions


def deviation_regions(
    window: Window,
    band: BandLike,
    thresholds: Sequence[RationalLike],
    budget: int = DEFAULT_EVENT_BUDGET,
    strict: bool = False,
) -> list[IntervalSet]:
    """Exact regions {x : deviation >= t} (or > t) for several thresholds.

    Each threshold is reduced to its integer count cutoffs; one sweep
    serves every distinct cutoff pair, and thresholds with equal cutoffs
    share one region. Each region is a canonical union of half-open
    intervals whose endpoints share a common power denominator.
    """
    lo, hi = _band_bounds(band)
    length = window.length
    expected = (hi - lo) * length
    cutoffs = [count_cutoffs(expected, as_fraction(t), strict) for t in thresholds]
    regions: dict[tuple[int, int], IntervalSet] = {}
    live = []
    for c_lo, c_hi in dict.fromkeys(cutoffs):
        if c_hi <= c_lo + 1:
            # every integer count qualifies
            regions[c_lo, c_hi] = IntervalSet.unit()
        elif c_lo < 0 and c_hi > length:
            regions[c_lo, c_hi] = IntervalSet.empty()
        else:
            live.append((c_lo, c_hi))
    if live:
        regions.update(zip(live, _sweep_regions(window, lo, hi, live, budget)))
    return [regions[pair] for pair in cutoffs]


def deviation_region(
    window: Window,
    band: BandLike,
    threshold: RationalLike,
    budget: int = DEFAULT_EVENT_BUDGET,
    strict: bool = False,
) -> IntervalSet:
    """Exact region where the windowed deviation reaches the threshold."""
    return deviation_regions(window, band, [threshold], budget, strict)[0]


def _count_distribution(
    base: int, burn_in: int, length: int, cells: int, target: int
) -> list[int]:
    """Weights of the window hit counts 0..length over the cell chain.

    Weighted over the uniform initial cell distribution; the implied
    denominator is cells * base**(burn_in + length - 1). Each cell carries
    its hit-count polynomial sum_c w_c z**c packed into one int, with slot
    c at bit c * width (Kronecker substitution). The width holds the total
    weight, which bounds every slot, so slots never carry into each other:
    a step is one big-int add per (cell, digit) and one shift by width
    for the target cell.
    """
    width = (cells * base ** (burn_in + length - 1)).bit_length()
    succ = [[(base * cell + r) % cells for r in range(base)] for cell in range(cells)]
    # each cell has exactly `base` preimage (cell, digit) pairs, so the
    # uniform start stays uniform through the burn-in
    polys = [base**burn_in] * cells
    polys[target] <<= width
    for _ in range(length - 1):
        new = [0] * cells
        for cell, poly in enumerate(polys):
            for nxt in succ[cell]:
                new[nxt] += poly
        new[target] <<= width
        polys = new
    total = sum(polys)
    mask = (1 << width) - 1
    return [(total >> (c * width)) & mask for c in range(length + 1)]


def deviation_measure(
    window: Window,
    cells: int,
    target: int,
    threshold: RationalLike,
    strict: bool = False,
) -> Fraction:
    """Exact measure of {x : deviation meets the threshold}, region-free.

    The target interval must be one cell of the uniform partition of [0, 1)
    into `cells` pieces. Multiplication by the base maps cell boundaries to
    cell boundaries, so under Lebesgue measure the cell index of
    frac(base**j * x) is a Markov chain in j, uniform within cells at every
    step. The chain gives the exact distribution of the window's hit count
    in integer arithmetic, and the measure is the weight of the counts
    outside the threshold's cutoffs.
    """
    if cells < 1:
        raise ValueError("cell count must be positive")
    if not 0 <= target < cells:
        raise ValueError("target cell out of range")
    b = window.base
    n = window.length
    threshold = as_fraction(threshold)
    if threshold < 0 or (threshold == 0 and not strict):
        return Fraction(1)
    expected = Fraction(n, cells)
    c_lo, c_hi = count_cutoffs(expected, threshold, strict)
    if c_lo < 0 and c_hi > n:
        return ZERO
    weights = _count_distribution(b, window.offset, n, cells, target)
    return Fraction(
        sum(w for c, w in enumerate(weights) if c <= c_lo or c >= c_hi),
        cells * b ** (window.offset + n - 1),
    )
