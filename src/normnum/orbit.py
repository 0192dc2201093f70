"""Exact orbit statistics for the maps x -> frac(base**j * x).

The central quantity is the windowed counting deviation: over a window of
consecutive orbit indices and a target interval, the absolute difference
between how many orbit points land in the target and how many a perfectly
equidistributed orbit would deposit there. The module computes it three
ways, each exact:

* pointwise, by walking the orbit of a rational p/q as the residues
  p * base**j mod q;
* as a region {x : deviation meets a threshold}, keyed by the threshold's
  two integer count cutoffs and built by a depth-first walk of the cell
  chain of the digit process, pruned on the exact fewest and most hits
  still to come;
* as a measure alone, from the exact distribution of the window's hit
  count (the lemma grids); this stays feasible when windows are far too
  long for the region itself to be materialized.

The target is one of `cells` equal cells of [0, 1), and digit r moves
cell c to cell (base * c + r) % cells. `_chain` gives that chain on its
minimal automaton: cells with identical futures merge into classes (for
base**m cells, the m + 1 KMP states of the target's digit pattern). One
backward table on it, `_future_hits`, holds the hit-count polynomial of
the next r digits from each class; the walk reads its fewest and most
hits from it, and the measure sums its last row over the cells.

The region and cutoff-measure kernels take a window's base and length and
count the orbit indices 0..length-1. The event over [offset, offset +
length) is the preimage of that one under x -> frac(base**offset * x):
callers keep it as a `PeriodicIntervalSet`, and its measure is the same.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Union

from .measure import (
    ONE,
    ZERO,
    BudgetError,
    IntervalSet,
    RationalLike,
    Record,
    as_fraction,
)


class Band(Record):
    """Dyadic target interval [a / 2**k, (a + 1) / 2**k)."""

    __slots__ = ("a", "k")

    def __init__(self, a: int, k: int):
        if k < 0:
            raise ValueError("band depth must be non-negative")
        if a < 0 or a.bit_length() > k:
            raise ValueError("band index out of range for depth %d" % k)
        self._fill(a, k)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, 2**self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.a + 1, 2**self.k)

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi


class Window(Record):
    """Orbit index window [offset, offset + length) for one base."""

    __slots__ = ("base", "offset", "length")

    def __init__(self, base: int, offset: int, length: int):
        if base < 2:
            raise ValueError("base must be at least 2")
        if offset < 0:
            raise ValueError("window offset must be non-negative")
        if length < 1:
            raise ValueError("window length must be positive")
        self._fill(base, offset, length)


BandLike = Union[Band, tuple]


def _band_bounds(band: BandLike) -> tuple[Fraction, Fraction]:
    if isinstance(band, Band):
        return band.bounds()
    lo, hi = as_fraction(band[0]), as_fraction(band[1])
    if not (ZERO <= lo < hi <= ONE):
        raise ValueError("target interval must satisfy 0 <= lo < hi <= 1")
    return lo, hi


def hit_count(x: RationalLike, window: Window, band: BandLike) -> int:
    """Orbit points of the window in the band, walked on integers.

    With x = num / q in lowest terms, orbit point i is
    (num * base**i mod q) / q: the window starts at numerator
    num * base**offset mod q, one modular power, and each later numerator
    is the previous one times base, mod q. A point p / q lies in [lo, hi)
    iff ceil(lo * q) <= p < ceil(hi * q).
    """
    lo, hi = _band_bounds(band)
    y = as_fraction(x)
    q, b = y.denominator, window.base
    p = y.numerator * pow(b, window.offset, q) % q
    p_lo, p_hi = ceil(lo * q), ceil(hi * q)
    count = 0
    for _ in range(window.length):
        if p_lo <= p < p_hi:
            count += 1
        p = p * b % q
    return count


def f_value(x: RationalLike, window: Window, band: BandLike) -> Fraction:
    """|hits - expected hits| for the window against the target interval."""
    lo, hi = _band_bounds(band)
    expected = (hi - lo) * window.length
    return abs(hit_count(x, window, (lo, hi)) - expected)


# Events a region walk may visit. It bounds the leaves of each cell branch
# of the walk, base**(end - 1), and the region's parts, one per two events.
# Window lengths are powers of two, and no base up to 64 has a window whose
# event count lies between this bound and 2**23, so a larger bound would
# admit no further window.
EVENT_BUDGET = 5_000_000


def sweep_cost(base: int, length: int) -> int:
    """Event count of a window of the given length, starting at index 0:
    2 * (base**length - 1) / (base - 1), twice the node count of one
    cell's walk tree in `cutoff_region`, which also bounds the region's
    parts. Raises BudgetError when it exceeds EVENT_BUDGET."""
    # total >= 2 * base**(length-1) >= 2**length, so reject oversized
    # windows before materializing the power itself
    if length > EVENT_BUDGET.bit_length():
        raise BudgetError(
            "sweep needs at least 2**(window end) events for a window end "
            "of %d bits, budget is %d" % (length.bit_length(), EVENT_BUDGET)
        )
    total = 2 * (base**length - 1) // (base - 1)
    if total > EVENT_BUDGET:
        raise BudgetError(
            "sweep needs %d events, budget is %d" % (total, EVENT_BUDGET)
        )
    return total


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


def cutoff_region(
    base: int, length: int, cells: int, target: int, c_lo: int, c_hi: int
) -> IntervalSet:
    """Exact region {x : count <= c_lo or count >= c_hi} of the hit count
    of the orbit indices 0..length-1 in cell `target` of the uniform
    partition into `cells` pieces.

    Every end is an integer over cells * base**(length - 1): grid index
    c0 * base**(length - 1) + t starts in cell c0's class and steps along
    `_chain` on each next digit of t, a hit being a step onto the target's
    class. The lowest and the highest nonzero slot of each entry of the
    future-hit table (`_future_hits`) are the fewest and the most hits
    still to come from each class, so every node knows the exact range
    [low, high] of the counts below it. A depth-first walk in ascending
    order emits a node's whole span once no count in [low, high] lies
    strictly between the cutoffs, descends while low <= c_lo or high >=
    c_hi (some count below it qualifies) and drops the node otherwise. So
    an empty region, and one every count qualifies for (c_hi <= c_lo + 1),
    costs one visit per cell. Adjacent spans merge on integers, and the run
    ends go to `IntervalSet.on_grid` as they are.
    """
    sweep_cost(base, length)
    # the walk starts one branch per cell
    if cells > EVENT_BUDGET:
        raise BudgetError(
            "region walk starts %d cell branches, budget is %d"
            % (cells, EVENT_BUDGET)
        )
    classes, succ, hit = _chain(base, cells, target)
    # a node at depth d spans spans[d] grid points
    spans = [base ** (length - 1 - d) for d in range(length)]
    width = (cells * spans[0]).bit_length()
    # fewest[r][s] and most[r][s]: the fewest and the most hits over the
    # next r digits from class s
    rows = list(_future_hits(succ, hit, length, width))
    fewest = [[((p & -p).bit_length() - 1) // width for p in row] for row in rows]
    most = [[(p.bit_length() - 1) // width for p in row] for row in rows]
    ends: list[int] = []  # run starts and stops, alternating
    # the counts strictly between the cutoffs, none when c_hi <= c_lo + 1
    inner_lo, inner_hi = c_lo + 1, c_hi - 1

    def walk(pos: int, d: int, cls: int, count: int) -> None:
        rest = length - 1 - d
        low, high = count + fewest[rest][cls], count + most[rest][cls]
        # [low, high] and [inner_lo, inner_hi] do not meet
        if low > inner_hi or high < inner_lo or inner_lo > inner_hi:
            if ends and ends[-1] == pos:
                ends[-1] = pos + spans[d]
            else:
                ends.extend((pos, pos + spans[d]))
        elif low <= c_lo or high >= c_hi:
            d += 1
            for nxt in succ[cls]:
                walk(pos, d, nxt, count + (nxt == hit))
                pos += spans[d]

    for cell, cls in enumerate(classes):
        walk(cell * spans[0], 0, cls, int(cls == hit))
    return IntervalSet.on_grid(cells * spans[0], ends)


def _cell_classes(base: int, cells: int, target: int) -> list[int]:
    """Class of each cell in the coarsest split with identical futures.

    Moore partition refinement of the cell chain: start from the split
    {target} / rest and split classes by their tuple of successor classes,
    one entry per digit, until the split is stable. Cells of one class see
    the same hit sequence on every digit string, so the future-hit table
    can run on the classes. For cells = base**m the classes are the m + 1
    match-length states of the target pattern's KMP automaton.
    """
    classes = [int(cell == target) for cell in range(cells)]
    count = len(set(classes))
    while True:
        ids: dict[tuple, int] = {}
        refined = [
            ids.setdefault(
                (classes[cell],)
                + tuple(classes[(base * cell + r) % cells] for r in range(base)),
                len(ids),
            )
            for cell in range(cells)
        ]
        if len(ids) == count:
            return refined
        classes, count = refined, len(ids)


def _check_cell(cells: int, target: int) -> None:
    if cells < 1:
        raise ValueError("cell count must be positive")
    if not 0 <= target < cells:
        raise ValueError("target cell out of range")


def _chain(base: int, cells: int, target: int) -> tuple[list, list, int]:
    """The cell chain on its minimal automaton: each cell's class
    (`_cell_classes`), each class's successor class per digit in digit
    order, and the target's class, a class of its own."""
    _check_cell(cells, target)
    classes = _cell_classes(base, cells, target)
    succ: list = [None] * (max(classes) + 1)
    for cell, cls in enumerate(classes):
        succ[cls] = [classes[(base * cell + r) % cells] for r in range(base)]
    return classes, succ, classes[target]


def _future_hits(succ: list, hit: int, length: int, width: int):
    """Rows 0..length-1 of the backward future-hit table of the cell chain,
    yielded one at a time.

    Entry s of row r is the hit-count polynomial sum_c w_c z**c of the next
    r digits from class s of `_chain`: w_c of the base**r digit strings
    step onto the target's class exactly c times. It is packed into one
    int with slot c at bit c * width (Kronecker substitution); the width
    must hold the largest weight a caller adds into one slot, so slots
    never carry into each other. A row is one big-int add per (class,
    digit) and one shift by width for the target.
    """
    row = [1] * len(succ)
    yield row
    for _ in range(length - 1):
        moved = row.copy()
        moved[hit] <<= width
        row = [sum(moved[n] for n in nxt) for nxt in succ]
        yield row


def cutoff_measure(
    base: int, length: int, cells: int, target: int, c_lo: int, c_hi: int
) -> Fraction:
    """Exact measure of {x : count <= c_lo or count >= c_hi} of the hit
    count of the orbit indices 0..length-1 in cell `target` of the uniform
    partition into `cells` pieces.

    Each cell starts a digit path of length - 1 steps, with a hit of its
    own when it is the target, so the last row of the future-hit table
    (`_future_hits`), summed over the cells with the target's class
    shifted one slot, is the exact hit-count distribution over
    cells * base**(length - 1) equal weights. The measure is the weight of
    the qualifying slots; it equals the measure of `cutoff_region` for the
    same cutoffs.
    """
    classes, succ, hit = _chain(base, cells, target)
    denom = cells * base ** (length - 1)
    width = denom.bit_length()
    for row in _future_hits(succ, hit, length, width):
        pass  # only the last row is needed
    total = sum(row[cls] << width * (cls == hit) for cls in classes)
    mask = (1 << width) - 1
    return Fraction(
        sum(
            (total >> (c * width)) & mask
            for c in range(length + 1)
            if c <= c_lo or c >= c_hi
        ),
        denom,
    )


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
    outside the threshold's cutoffs. The chain is stationary, so the
    measure does not depend on the window's offset.
    """
    _check_cell(cells, target)
    c_lo, c_hi = count_cutoffs(
        Fraction(window.length, cells), as_fraction(threshold), strict
    )
    return cutoff_measure(window.base, window.length, cells, target, c_lo, c_hi)


def relabelling_representatives(base: int, m: int) -> list[int]:
    """One cell of the base**m cells per digit-relabelling class, ascending.

    A permutation of the base digits, applied to every digit of x, keeps
    Lebesgue measure and commutes with x -> frac(base * x), so it maps the
    cell of an m-digit pattern w onto the cell of the relabelled pattern
    and both cells have the same `deviation_measure` (the complement
    d -> base - 1 - d is one such relabelling). Each class holds exactly
    one pattern whose digits first appear in the order 0, 1, 2, ...; there
    are Bell(m) of them when base >= m.
    """
    cells = [(0, 0)]  # (cell of the pattern so far, digits it uses)
    for _ in range(m):
        cells = [
            (base * cell + d, max(used, d + 1))
            for cell, used in cells
            for d in range(min(used + 1, base))
        ]
    return [cell for cell, _ in cells]
