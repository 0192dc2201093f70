"""Windowed orbit statistics: exact counts, regions, and the future-hit table."""

import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from normnum import orbit
from normnum.measure import (
    DEFAULT_EVENT_BUDGET,
    BudgetError,
    IntervalSet,
    PeriodicIntervalSet,
)
from normnum.orbit import (
    Band,
    Window,
    _cell_classes,
    count_cutoffs,
    cutoff_measure,
    cutoff_region,
    deviation_measure,
    f_value,
    hit_count,
    orbit_point,
    relabelling_representatives,
    sweep_cost,
)

F = Fraction


# -- points, counts, deviations -------------------------------------------


def test_orbit_point_examples():
    assert orbit_point(F(1, 3), 2, 0) == F(1, 3)
    assert orbit_point(F(1, 3), 2, 1) == F(2, 3)
    assert orbit_point(F(1, 3), 2, 2) == F(1, 3)
    assert orbit_point(F(5, 8), 2, 2) == F(1, 2)
    assert orbit_point(F(1, 10), 10, 1) == 0


def test_hit_count_basic():
    w = Window(2, 0, 4)
    assert hit_count(F(1, 3), w, Band(0, 1)) == 2
    assert hit_count(F(0), w, Band(0, 1)) == 4
    assert hit_count(F(0), w, Band(1, 1)) == 0


def test_hit_count_with_offset():
    # offset skips the first orbit points
    w = Window(2, 2, 3)
    x = F(1, 5)  # orbit: 1/5, 2/5, 4/5, 3/5, 1/5, ...
    assert hit_count(x, w, (F(1, 2), F(1))) == 2  # points 4/5, 3/5, 1/5


def reference_hit_count(x, window, band):
    """The Fraction orbit walk: step y -> frac(base * y) on rationals."""
    lo, hi = orbit._band_bounds(band)
    y = orbit_point(x, window.base, window.offset)
    count = 0
    for _ in range(window.length):
        if lo <= y < hi:
            count += 1
        y = y * window.base
        y -= y.numerator // y.denominator
    return count


def test_hit_count_matches_fraction_walk():
    rng = random.Random(13)
    edges = [F(0), F(1), F(1, 3), F(2, 7), F(5, 9), F(3, 10), F(1, 2)]
    for _ in range(400):
        q = rng.randrange(1, 200)
        x = F(rng.randrange(q), q)
        window = Window(rng.randrange(2, 6), rng.randrange(4), rng.randrange(1, 30))
        if rng.random() < 0.3:
            # dyadic bands, the first and last touching 0 and 1
            k = rng.randrange(4)
            a = rng.choice([0, 2**k - 1, rng.randrange(2**k)])
            band = Band(a, k)
        else:
            lo, hi = sorted(rng.sample(edges + [F(rng.randrange(1, 60), 61)], 2))
            band = (lo, hi)
        assert hit_count(x, window, band) == reference_hit_count(x, window, band), (
            x, window, band
        )


def test_f_value_is_absolute_deviation():
    w = Window(2, 0, 4)
    assert f_value(F(1, 3), w, Band(0, 1)) == 0
    assert f_value(F(0), w, Band(0, 1)) == 2
    assert f_value(F(0), w, (F(1, 4), F(1, 2))) == 1


def test_band_validation():
    with pytest.raises(ValueError):
        Band(2, 1)
    with pytest.raises(ValueError):
        Band(-1, 1)
    with pytest.raises(ValueError):
        Band(0, -1)
    assert Band(0, 0).bounds() == (F(0), F(1))


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1, 0, 4)
    with pytest.raises(ValueError):
        Window(2, -1, 4)
    with pytest.raises(ValueError):
        Window(2, 0, 0)


# -- sweep regions ---------------------------------------------------------


def cell_of(band):
    """(cells, target) of a band that is one cell of a uniform partition."""
    lo, hi = orbit._band_bounds(band)
    cells = lcm(lo.denominator, hi.denominator)
    assert (hi - lo) * cells == 1, band
    return cells, int(lo * cells)


def window_region(window, band, threshold, strict=False, budget=DEFAULT_EVENT_BUDGET):
    """The deviation region of a window, built the way the construction
    builds it: the region of the same length at offset 0, pulled back by
    x -> frac(base**offset * x), then expanded into its copies."""
    lo, hi = orbit._band_bounds(band)
    cutoffs = count_cutoffs((hi - lo) * window.length, F(threshold), strict)
    core = cutoff_region(window.base, window.length, *cell_of(band), *cutoffs, budget)
    return PeriodicIntervalSet(core, window.base, window.offset).materialize()


def test_deviation_region_trivial_thresholds():
    w = Window(2, 0, 4)
    unit = IntervalSet([(0, 1)])
    assert window_region(w, Band(0, 1), F(-1)) == unit
    assert window_region(w, Band(0, 1), F(0)) == unit
    # strict > 0 excludes perfectly balanced points but still covers most
    r = window_region(w, Band(0, 1), F(0), strict=True)
    assert not r.contains(F(1, 3))
    assert r.contains(F(0))


def test_deviation_region_unreachable_threshold_is_empty():
    w = Window(2, 0, 4)
    assert window_region(w, Band(0, 1), F(3, 2)).measure() == F(1, 8)
    assert window_region(w, Band(0, 1), F(5, 2)).is_empty()


def test_deviation_region_matches_pointwise_values():
    rng = random.Random(7)
    for _ in range(40):
        base = rng.choice([2, 3])
        offset = rng.randrange(0, 3)
        length = rng.randrange(1, 6)
        k = rng.randrange(0, 3)
        a = rng.randrange(2**k)
        w = Window(base, offset, length)
        band = Band(a, k)
        t = F(rng.randrange(0, 4 * length + 1), 4)
        strict = rng.random() < 0.5
        region = window_region(w, band, t, strict=strict)
        denom = 2 * base ** (offset + length) * 2**k
        step = max(1, denom // 211)
        for i in range(0, denom, step):
            x = F(2 * i + 1, 2 * denom)
            fv = f_value(x, w, band)
            hit = fv > t if strict else fv >= t
            assert region.contains(x) == hit


def test_deviation_region_antitone_in_threshold():
    w = Window(2, 0, 6)
    band = Band(0, 2)
    regions = [window_region(w, band, t) for t in (F(1, 2), F(3, 2), F(5, 2), F(7, 2))]
    for bigger, smaller in zip(regions, regions[1:]):
        assert smaller.intersect(bigger) == smaller


def reference_regions(window, lo, hi, cutoffs):
    """Per-event sweep loop: the pure-Python form of the region kernel.

    Walks the sorted (position, +1/-1) events over the common denominator
    and closes a run of each cutoff pair whenever the count stops
    qualifying.
    """
    b, end = window.base, window.offset + window.length
    q = lcm(lo.denominator, hi.denominator)
    top = end - 1
    denom = q * b**top
    lo_num = lo.numerator * (q // lo.denominator)
    hi_num = hi.numerator * (q // hi.denominator)
    events = []
    for j in range(window.offset, end):
        scale = b ** (top - j)
        for m in range(b**j):
            events.append(((m * q + lo_num) * scale, 1))
            events.append(((m * q + hi_num) * scale, -1))
    events.sort()
    collected = [[] for _ in cutoffs]
    starts = [None] * len(cutoffs)
    count = prev = i = 0

    def emit():
        # the segment starting at prev carries the current count
        for idx, (c_lo, c_hi) in enumerate(cutoffs):
            if count <= c_lo or count >= c_hi:
                if starts[idx] is None:
                    starts[idx] = prev
            elif starts[idx] is not None:
                collected[idx].append((F(starts[idx], denom), F(prev, denom)))
                starts[idx] = None

    while i < len(events):
        pos = events[i][0]
        if pos > prev:
            emit()
            prev = pos
        while i < len(events) and events[i][0] == pos:
            count += events[i][1]
            i += 1
    if prev < denom:
        emit()
        prev = denom
    for idx, start in enumerate(starts):
        if start is not None:
            collected[idx].append((F(start, denom), F(prev, denom)))
    return [IntervalSet(parts) for parts in collected]


KERNEL_BANDS = {
    "whole": (F(0), F(1)),  # on and off events coincide everywhere
    "a0": (F(0), F(1, 4)),  # an on event at 0
    "hi1": (F(3, 4), F(1)),  # an off event at the denominator
    "sixth": (F(0), F(1, 6)),  # a non-dyadic common denominator
    "third_to_1": (F(2, 3), F(1)),  # the last of three cells
    "interior": (F(1, 3), F(2, 3)),  # a non-dyadic cell inside (0, 1)
}
KERNEL_LENGTHS = {2: 5, 3: 3, 5: 2}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("band", sorted(KERNEL_BANDS))
@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("base", sorted(KERNEL_LENGTHS))
def test_region_kernel_matches_reference_loop(base, offset, band, strict):
    # the offset window's region is the offset-0 region pulled back by
    # x -> frac(base**offset * x), as the construction builds it
    length = KERNEL_LENGTHS[base]
    w = Window(base, offset, length)
    lo, hi = KERNEL_BANDS[band]
    # the cutoffs of every threshold from 0 past the window length: unit,
    # live and empty cutoff pairs
    cutoffs = list(
        dict.fromkeys(
            count_cutoffs((hi - lo) * length, F(i, 4), strict)
            for i in range(4 * length + 5)
        )
    )
    regions = [
        PeriodicIntervalSet(
            cutoff_region(
                base, length, *cell_of((lo, hi)), c_lo, c_hi, DEFAULT_EVENT_BUDGET
            ),
            base,
            offset,
        ).materialize()
        for c_lo, c_hi in cutoffs
    ]
    assert regions == reference_regions(w, lo, hi, cutoffs)
    q = lcm(lo.denominator, hi.denominator)
    if base == 2 and q & (q - 1) == 0:
        # dyadic bands in base 2 also meet the cylinder oracle
        assert regions == [
            brute_force_region_base2(w, (lo, hi), c_lo, c_hi) for c_lo, c_hi in cutoffs
        ]


@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("base", sorted(KERNEL_LENGTHS))
def test_cutoff_measure_matches_swept_region(base, offset):
    # every band of depth 0-2 and every cutoff pair from unit to empty: the
    # distribution's weight is the measure of the offset window's region,
    # so a zero weight means an empty region
    length = KERNEL_LENGTHS[base]
    w = Window(base, offset, length)
    cutoffs = [
        (c_lo, c_hi) for c_lo in range(-1, length + 1) for c_hi in range(length + 2)
    ]
    for k in range(3):
        for a in range(2**k):
            regions = reference_regions(w, *Band(a, k).bounds(), cutoffs)
            for (c_lo, c_hi), region in zip(cutoffs, regions):
                measure = cutoff_measure(base, length, 2**k, a, c_lo, c_hi)
                assert measure == region.measure(), (k, a, c_lo, c_hi)
                assert (measure == 0) == region.is_empty()


def test_region_cell_guard():
    # the walk starts one branch per cell of the band's grid, so a band
    # with more cells than the budget is refused
    w = Window(2, 0, 2)
    band = (F(0), F(1, 64))
    pairs = [count_cutoffs(band[1] * 2, F(1))]
    region = cutoff_region(2, 2, 64, 0, *pairs[0], 64)
    assert not region.is_empty()
    assert [region] == reference_regions(w, *band, pairs)
    with pytest.raises(BudgetError):
        cutoff_region(2, 2, 128, 0, *count_cutoffs(F(1, 64), F(1)), 64)
    for k in (61, 62):
        with pytest.raises(BudgetError):
            window_region(w, (F(0), F(1, 2**k)), F(1))
    # 2**46 cells over a window of 524286 events are refused before the
    # per-cell hit table is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            window_region(Window(2, 0, 18), (F(0), F(1, 2**46)), F(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_budget_guard():
    with pytest.raises(BudgetError):
        sweep_cost(2, 64, 10**6)
    # cutoffs that decide the region alone (no count, every count) pass
    # the same gate
    for c_lo, c_hi in [count_cutoffs(F(32), F(1)), (-1, 65), (3, 3)]:
        with pytest.raises(BudgetError):
            cutoff_region(2, 64, 2, 0, c_lo, c_hi, 10**6)


@pytest.mark.parametrize("cells, target", [(4, -1), (4, 4), (4, 7), (0, 0), (-2, 0)])
def test_cell_chain_refuses_bad_cells(cells, target):
    # live cutoffs, and cutoffs that decide the answer alone (every count,
    # no count): the cell is checked before either
    for c_lo, c_hi in [(0, 3), (0, 1), (-1, 100)]:
        with pytest.raises(ValueError):
            cutoff_region(2, 4, cells, target, c_lo, c_hi, DEFAULT_EVENT_BUDGET)
        with pytest.raises(ValueError):
            cutoff_measure(2, 4, cells, target, c_lo, c_hi)
    for threshold in (0, 1, 100):
        with pytest.raises(ValueError):
            deviation_measure(Window(2, 0, 4), cells, target, threshold)


def test_empty_region_costs_one_visit_per_cell():
    # the digit pattern 01 cannot overlap itself, so 8 digits hit its cell
    # at most 4 times: the region of 5 or more hits is empty, and the walk
    # drops each cell's branch at its root
    visits = []

    def count_walks(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            visits.append(frame.f_locals["d"])

    sys.setprofile(count_walks)
    try:
        region = cutoff_region(2, 8, 4, 1, -1, 5, DEFAULT_EVENT_BUDGET)
    finally:
        sys.setprofile(None)
    assert region.is_empty()
    assert visits == [0, 0, 0, 0]


def test_unit_region_costs_one_visit_per_cell():
    # with c_hi <= c_lo + 1 every count qualifies, so no count lies strictly
    # between the cutoffs anywhere and each cell's whole span is emitted at
    # its root (a walk that only emitted below c_lo or above c_hi made
    # 87,512 calls here)
    visits = []

    def count_walks(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            visits.append(frame.f_locals["d"])

    sys.setprofile(count_walks)
    try:
        region = cutoff_region(2, 16, 4, 1, 3, 4, 5_000_000)
    finally:
        sys.setprofile(None)
    assert region == IntervalSet([(0, 1)])
    assert len(visits) <= 4


# -- exact deviation measure through the cell chain -------------------------


def test_deviation_measure_matches_sweep():
    rng = random.Random(2026)
    for _ in range(60):
        base = rng.choice([2, 2, 3, 5])
        offset = rng.randrange(0, 4)
        length = rng.randrange(1, 6)
        k = rng.randrange(0, 3)
        a = rng.randrange(2**k)
        t = F(rng.randrange(0, 3 * length + 1), 3)
        strict = rng.random() < 0.5
        w = Window(base, offset, length)
        swept = window_region(w, Band(a, k), t, strict=strict).measure()
        counted = deviation_measure(w, 2**k, a, t, strict=strict)
        assert counted == swept, (base, offset, length, k, a, t, strict)


def reference_tail_weight(base, burn_in, length, cells, target, cap, count_hits):
    """Weight of digit paths whose hit (or miss) count stays at most cap.

    The capped (step, count, cell, digit) loop with absorption: an
    independent form of the cell-chain DP, one add per state. Weighted
    over the uniform initial cell distribution; the implied denominator is
    cells * base**(burn_in + length - 1). Paths are absorbed the moment the
    tracked count exceeds cap.
    """
    if cap < 0:
        return 0
    inc = [1 if (cell == target) == count_hits else 0 for cell in range(cells)]
    trans = [[(base * cell + r) % cells for r in range(base)] for cell in range(cells)]
    rows = [[0] * cells for _ in range(cap + 1)]
    for cell in range(cells):
        if inc[cell] <= cap:
            rows[inc[cell]][cell] += base**burn_in
    for _ in range(length - 1):
        new_rows = [[0] * cells for _ in range(cap + 1)]
        for c, row in enumerate(rows):
            for cell in range(cells):
                wt = row[cell]
                if wt:
                    for nxt in trans[cell]:
                        nc = c + inc[nxt]
                        if nc <= cap:
                            new_rows[nc][nxt] += wt
        rows = new_rows
    return sum(sum(row) for row in rows)


def reference_deviation_measure(window, cells, target, threshold, strict):
    """deviation_measure through capped tails, each taken directly or as
    the complement of the opposite tail, whichever tracks fewer counts."""
    b, n, burn_in = window.base, window.length, window.offset
    if threshold < 0 or (threshold == 0 and not strict):
        return F(1)
    c_lo, c_hi = count_cutoffs(F(n, cells), threshold, strict)
    denom = cells * b ** (burn_in + n - 1)
    total = 0
    if c_lo >= 0:
        # few-hits tail, directly or as the complement of a few-misses tail
        if c_lo <= n - c_lo - 1:
            total += reference_tail_weight(b, burn_in, n, cells, target, c_lo, True)
        else:
            total += denom - reference_tail_weight(
                b, burn_in, n, cells, target, n - c_lo - 1, False
            )
    if c_hi <= n:
        # many-hits tail is the few-misses tail
        if n - c_hi <= c_hi - 1:
            total += reference_tail_weight(b, burn_in, n, cells, target, n - c_hi, False)
        else:
            total += denom - reference_tail_weight(
                b, burn_in, n, cells, target, c_hi - 1, True
            )
    return F(total, denom)


def critical_thresholds(length, cells):
    """Every threshold at which a count cutoff moves, plus one beyond all
    counts: |c - expected| for each count c, where strict and non-strict
    thresholds differ."""
    expected = F(length, cells)
    return sorted({abs(c - expected) for c in range(length + 1)} | {F(length + 1)})


# the short windows run through every base, cell count 1-9 and offset 0-3;
# the long windows (length 256 and past) together take all four direct and
# complement branches of the reference
SHORT_LENGTHS = (1, 2, 3, 5, 8)
LONG_WINDOWS = [
    (2, 1, 0, 256),
    (2, 2, 3, 256),
    (3, 3, 1, 256),
    (5, 4, 2, 257),
    (2, 7, 0, 300),
    (3, 9, 3, 256),
]


def test_deviation_measure_matches_reference_dp():
    cases = [
        (base, cells, offset, length, critical_thresholds(length, cells))
        for base in (2, 3, 5)
        for cells in range(1, 10)
        for offset in range(4)
        for length in SHORT_LENGTHS
    ]
    cases += [
        # every 32nd cutoff move, across both tails and both branch flips
        (base, cells, offset, length, critical_thresholds(length, cells)[::32])
        for base, cells, offset, length in LONG_WINDOWS
    ]
    cases += [
        # cells sharing a factor with the base shrink to fewer classes
        (base, cells, offset, length, critical_thresholds(length, cells))
        for base in (2, 3, 5)
        for cells in (12, 16, 25, 27)
        for offset in range(4)
        for length in range(1, 9)
    ]
    for base, cells, offset, length, thresholds in cases:
        w = Window(base, offset, length)
        target = (offset + length) % cells
        for t in thresholds:
            for strict in (False, True):
                assert deviation_measure(
                    w, cells, target, t, strict
                ) == reference_deviation_measure(w, cells, target, t, strict), (
                    base, cells, offset, length, target, t, strict
                )


def exhaustive_visits(base, cells, start, depth):
    """For r = 0..depth, a Counter of the visit vectors of the base**r digit
    strings from cell `start`, one string at a time: cell c's visits after
    the start, in bits 8c to 8c + 7 (depth < 256)."""
    steps = [[(base * cell + d) % cells for d in range(base)] for cell in range(cells)]
    level = [(start, 0)]
    counters = [Counter({0: 1})]
    for _ in range(depth):
        level = [(n, v + (1 << 8 * n)) for cell, v in level for n in steps[cell]]
        counters.append(Counter(v for _, v in level))
    return counters


def reference_hit_bounds(succ, hit, length):
    """The fewest and the most hits over the next r digits from each class
    of `_chain`, by the min/max recurrence the region walk once kept."""
    fewest, most = [[0] * len(succ)], [[0] * len(succ)]
    for _ in range(length - 1):
        fewest.append([min(fewest[-1][n] + (n == hit) for n in nxt) for nxt in succ])
        most.append([max(most[-1][n] + (n == hit) for n in nxt) for nxt in succ])
    return fewest, most


def test_future_hit_table_matches_exhaustive_histograms():
    # every slot of every entry F[r][s] is the number of the base**r digit
    # strings from class s that step onto the target exactly that often;
    # its lowest and highest nonzero slots are the old min/max recurrence,
    # and the last row summed over the cells is the window's distribution
    depth = 6
    for base in (2, 3, 5):
        for cells in range(1, 13):
            visits = [exhaustive_visits(base, cells, start, depth) for start in range(cells)]
            for target in range(cells):
                # hists[start][r][c]: strings of r digits from start with c hits
                hists = []
                for counters in visits:
                    hists.append([[0] * (r + 1) for r in range(depth + 1)])
                    for r, counter in enumerate(counters):
                        for v, strings in counter.items():
                            hists[-1][r][(v >> 8 * target) & 255] += strings
                classes, succ, hit = orbit._chain(base, cells, target)
                for length in range(1, depth + 2):
                    width = (cells * base ** (length - 1)).bit_length()
                    mask = (1 << width) - 1
                    rows = list(orbit._future_hits(succ, hit, length, width))
                    assert len(rows) == length
                    fewest, most = reference_hit_bounds(succ, hit, length)
                    for r, row in enumerate(rows):
                        assert len(row) == len(succ)
                        for s, poly in enumerate(row):
                            hist = hists[classes.index(s)][r]
                            slots = [(poly >> (c * width)) & mask for c in range(r + 1)]
                            assert slots == hist and poly >> ((r + 1) * width) == 0, (
                                base, cells, target, length, r, s
                            )
                            nonzero = [c for c, w in enumerate(slots) if w]
                            assert (nonzero[0], nonzero[-1]) == (fewest[r][s], most[r][s])
                    denom = cells * base ** (length - 1)
                    window = [0] * (length + 1)
                    for start, hist in enumerate(hists):
                        for c, strings in enumerate(hist[length - 1]):
                            window[c + (start == target)] += strings
                    for c in range(length + 1):
                        assert cutoff_measure(
                            base, length, cells, target, c - 1, c + 1
                        ) == 1 - F(window[c], denom), (base, cells, target, length, c)


def test_cell_classes_are_kmp_states(monkeypatch):
    # base**m cells merge into the m + 1 match-length states of the target's
    # digit pattern; coprime cells keep one class each
    for base in (2, 3, 5):
        for m in (1, 2, 3):
            for target in range(base**m):
                assert len(set(_cell_classes(base, base**m, target))) == m + 1
    assert len(set(_cell_classes(2, 12, 5))) == 5
    assert len(set(_cell_classes(3, 6, 1))) == 3
    assert len(set(_cell_classes(3, 8, 3))) == 8
    # and the future-hit table runs on those classes
    calls = []
    real = orbit._cell_classes
    monkeypatch.setattr(
        orbit, "_cell_classes", lambda *args: calls.append(args) or real(*args)
    )
    deviation_measure(Window(3, 1, 16), 9, 4, F(2))
    assert calls == [(3, 9, 4)]


def test_deviation_measure_complement_symmetry():
    # x -> 1 - x preserves measure and sends cell a to cell cells - 1 - a
    for base in (2, 3, 5):
        for cells in range(1, 13):
            for offset in (0, 2):
                for length in (1, 2, 5, 8):
                    w = Window(base, offset, length)
                    for t in critical_thresholds(length, cells):
                        for strict in (False, True):
                            for a in range(cells // 2):
                                assert deviation_measure(
                                    w, cells, a, t, strict
                                ) == deviation_measure(
                                    w, cells, cells - 1 - a, t, strict
                                ), (base, cells, offset, length, a, t, strict)


def relabelled_cell(base, m, a):
    """Cell of a's m-digit pattern with digits renamed 0, 1, 2, ... in the
    order they first appear."""
    label = {}
    rep = 0
    for i in reversed(range(m)):
        d = a // base**i % base
        rep = base * rep + label.setdefault(d, len(label))
    return rep


def test_deviation_measure_relabelling_symmetry():
    # permuting the base digits of x preserves measure and commutes with the
    # orbit, so every cell of base**m measures as its representative
    counts = {}
    for base in (2, 3, 5):
        for m in (1, 2, 3):
            cells = base**m
            reps = relabelling_representatives(base, m)
            assert reps == sorted({relabelled_cell(base, m, a) for a in range(cells)})
            counts[base, m] = len(reps)
            for length in (1, 3, 6):
                w = Window(base, 0, length)
                for t in critical_thresholds(length, cells):
                    for strict in (False, True):
                        by_rep = {
                            a: deviation_measure(w, cells, a, t, strict) for a in reps
                        }
                        for a in range(cells):
                            assert deviation_measure(w, cells, a, t, strict) == by_rep[
                                relabelled_cell(base, m, a)
                            ], (base, m, length, a, t, strict)
    # Bell(m) classes once base >= m; base 2 has no pattern with 3 digits
    assert counts == {
        (2, 1): 1, (2, 2): 2, (2, 3): 4,
        (3, 1): 1, (3, 2): 2, (3, 3): 5,
        (5, 1): 1, (5, 2): 2, (5, 3): 5,
    }


def test_deviation_measure_burn_in_invariance():
    # the cell chain is measure preserving, so the offset must not matter
    for base in (2, 3):
        for k in (1, 2):
            for num in (1, 3, 7):
                t = F(num, 2)
                m0 = deviation_measure(Window(base, 0, 5), 2**k, 0, t)
                m3 = deviation_measure(Window(base, 3, 5), 2**k, 0, t)
                assert m0 == m3


def test_deviation_measure_cells_beyond_band_grid():
    # any uniform cell count works, not only powers of two
    w = Window(2, 0, 4)
    m_six = deviation_measure(w, 6, 0, F(3, 2))
    region = window_region(w, (F(0), F(1, 6)), F(3, 2))
    assert m_six == region.measure()


def test_deviation_measure_antitone_in_threshold():
    w = Window(2, 0, 6)
    values = [deviation_measure(w, 2, 0, F(n, 2)) for n in range(0, 13)]
    for bigger, smaller in zip(values, values[1:]):
        assert smaller <= bigger
    assert values[0] == 1
    assert values[-1] == 0


# -- dyadic cylinder oracle (base 2 exact classification) -------------------


def cylinder_counts_base2(window, band):
    """The hit count at the left end of every dyadic cylinder fine enough to
    fix every count, with the cylinders' denominator.

    Valid in base 2 for a dyadic band, because every breakpoint of the hit
    count is a dyadic rational of depth at most offset + length + band depth.
    """
    lo, hi = orbit._band_bounds(band)
    q = lcm(lo.denominator, hi.denominator)
    denom = 2 ** (window.offset + window.length + q.bit_length())
    return denom, [hit_count(F(i, denom), window, band) for i in range(denom)]


def cylinder_region(denom, counts, c_lo, c_hi):
    """The union of the cylinders whose count is <= c_lo or >= c_hi, as runs
    of adjacent cylinders."""
    ends = []
    for i, count in enumerate(counts):
        if count <= c_lo or count >= c_hi:
            if ends and ends[-1] == i:
                ends[-1] = i + 1
            else:
                ends += (i, i + 1)
    return IntervalSet.on_grid(denom, ends)


def brute_force_region_base2(window, band, c_lo, c_hi):
    """Classify every dyadic cylinder by its left endpoint: count <= c_lo or
    count >= c_hi."""
    return cylinder_region(*cylinder_counts_base2(window, band), c_lo, c_hi)


def test_sweep_against_cylinder_oracle_base2():
    rng = random.Random(99)
    for _ in range(25):
        offset = rng.randrange(0, 3)
        length = rng.randrange(1, 5)
        k = rng.randrange(0, 3)
        a = rng.randrange(2**k)
        w = Window(2, offset, length)
        band = Band(a, k)
        t = F(rng.randrange(0, 2 * length + 1), 2)
        strict = rng.random() < 0.5
        swept = window_region(w, band, t, strict=strict)
        oracle = brute_force_region_base2(
            w, band, *count_cutoffs(band.length * length, t, strict)
        )
        assert swept == oracle, (offset, length, k, a, t, strict)


REFLECTION_LENGTHS = {2: 8, 3: 5, 5: 5}


@pytest.mark.parametrize("base", sorted(REFLECTION_LENGTHS))
def test_mirror_band_region_is_reflection(base):
    # the complement x -> 1 - x maps the hit count of band a onto that of
    # band 2**k - 1 - a, so the mirror band's region is the reflected one
    # for every live cutoff pair; the bad-set unions rely on it
    for length in range(1, REFLECTION_LENGTHS[base] + 1):
        cutoffs = [
            (c_lo, c_hi)
            for c_lo in range(-1, length + 1)
            for c_hi in range(c_lo + 2, length + 2)
        ]
        for k in range(4):
            for a in range(2**k):
                mirror = Band(2**k - 1 - a, k)
                if base == 2:
                    oracle = cylinder_counts_base2(Window(2, 0, length), mirror)
                for c_lo, c_hi in cutoffs:
                    region = cutoff_region(
                        base, length, 2**k, a, c_lo, c_hi, DEFAULT_EVENT_BUDGET
                    )
                    reflected = region.reflected()
                    assert reflected == cutoff_region(
                        base, length, 2**k, mirror.a, c_lo, c_hi, DEFAULT_EVENT_BUDGET
                    ), (length, k, a, c_lo, c_hi)
                    if base == 2:
                        assert reflected == cylinder_region(*oracle, c_lo, c_hi)
