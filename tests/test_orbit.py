"""Windowed orbit statistics: exact counts, sweeps, and the cell DP."""

import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from normnum.measure import BudgetError, IntervalSet
from normnum.orbit import (
    Band,
    Window,
    breakpoints,
    count_cutoffs,
    deviation_measure,
    deviation_region,
    deviation_regions,
    f_value,
    hit_count,
    orbit_point,
    preimage_band,
    preimage_interval,
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


# -- preimages -------------------------------------------------------------


def test_preimage_interval_identity():
    region = preimage_interval(2, 0, F(1, 4), F(1, 2))
    assert region.pairs == ((F(1, 4), F(1, 2)),)


def test_preimage_interval_one_step():
    region = preimage_interval(2, 1, F(0), F(1, 2))
    assert region.pairs == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))


def test_preimage_band_measure_is_preserved():
    for base in (2, 3):
        for j in (0, 1, 2, 3):
            region = preimage_band(base, j, Band(1, 2))
            assert region.measure() == F(1, 4)
            assert len(region.pairs) == base**j


def test_preimage_membership_matches_orbit():
    rng = random.Random(123)
    for _ in range(60):
        base = rng.choice([2, 3, 5])
        j = rng.randrange(0, 3)
        a = rng.randrange(0, 4)
        band = Band(a, 2)
        region = preimage_band(base, j, band)
        x = F(rng.randrange(0, 729), 729)
        lo, hi = band.bounds()
        assert region.contains(x) == (lo <= orbit_point(x, base, j) < hi)


# -- breakpoints and sweep regions -----------------------------------------


def test_breakpoints_cover_unit():
    pts = breakpoints(Window(2, 0, 2), Band(0, 1))
    assert pts[0] == 0 and pts[-1] == 1
    assert pts == sorted(set(pts))
    # count is constant strictly between breakpoints
    w = Window(2, 0, 2)
    for lo, hi in zip(pts, pts[1:]):
        mid = (lo + hi) / 2
        third = lo + (hi - lo) / 3
        assert hit_count(mid, w, Band(0, 1)) == hit_count(third, w, Band(0, 1))


def test_deviation_region_trivial_thresholds():
    w = Window(2, 0, 4)
    assert deviation_region(w, Band(0, 1), F(-1)) == IntervalSet.unit()
    assert deviation_region(w, Band(0, 1), F(0)) == IntervalSet.unit()
    # strict > 0 excludes perfectly balanced points but still covers most
    r = deviation_region(w, Band(0, 1), F(0), strict=True)
    assert not r.contains(F(1, 3))
    assert r.contains(F(0))


def test_deviation_region_unreachable_threshold_is_empty():
    w = Window(2, 0, 4)
    assert deviation_region(w, Band(0, 1), F(3, 2)).measure() == F(1, 8)
    assert deviation_region(w, Band(0, 1), F(5, 2)).is_empty()


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
        region = deviation_region(w, band, t, strict=strict)
        denom = 2 * base ** w.end * 2**k
        step = max(1, denom // 211)
        for i in range(0, denom, step):
            x = F(2 * i + 1, 2 * denom)
            fv = f_value(x, w, band)
            hit = fv > t if strict else fv >= t
            assert region.contains(x) == hit


def test_deviation_regions_shared_sweep_consistency():
    w = Window(2, 0, 6)
    band = Band(0, 2)
    ts = [F(1, 2), F(3, 2), F(5, 2), F(7, 2)]
    regions = deviation_regions(w, band, ts)
    singles = [deviation_region(w, band, t) for t in ts]
    assert regions == singles
    # antitone in the threshold
    for bigger, smaller in zip(regions, regions[1:]):
        assert smaller.is_subset_of(bigger)


def reference_regions(window, lo, hi, cutoffs):
    """Per-event sweep loop: the pure-Python form of the region kernel.

    Walks the sorted (position, +1/-1) events over the common denominator
    and closes a run of each cutoff pair whenever the count stops
    qualifying.
    """
    b = window.base
    q = lcm(lo.denominator, hi.denominator)
    top = window.end - 1
    denom = q * b**top
    lo_num = lo.numerator * (q // lo.denominator)
    hi_num = hi.numerator * (q // hi.denominator)
    events = []
    for j in range(window.offset, window.end):
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
    "third_to_1": (F(1, 3), F(1)),
}
KERNEL_LENGTHS = {2: 5, 3: 3, 5: 2}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("band", sorted(KERNEL_BANDS))
@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("base", sorted(KERNEL_LENGTHS))
def test_region_kernel_matches_reference_loop(base, offset, band, strict):
    w = Window(base, offset, KERNEL_LENGTHS[base])
    lo, hi = KERNEL_BANDS[band]
    # every threshold from 0 past the window length: unit, live and empty
    # cutoff pairs, several of them swept at once
    ts = [F(i, 4) for i in range(4 * w.length + 5)]
    cutoffs = [count_cutoffs((hi - lo) * w.length, t, strict) for t in ts]
    regions = deviation_regions(w, (lo, hi), ts, strict=strict)
    assert regions == reference_regions(w, lo, hi, cutoffs)


def test_sweep_denominator_guard():
    # 2**61 * 2**1 = 2**62 still fits int64
    w = Window(2, 0, 2)
    band = (F(0), F(1, 2**61))
    pairs = [count_cutoffs(band[1] * 2, F(1))]
    assert deviation_regions(w, band, [F(1)]) == reference_regions(w, *band, pairs)
    with pytest.raises(BudgetError):
        deviation_region(w, (F(0), F(1, 2**62)), F(1))
    # a 2**63 denominator over 524286 events is refused before any array
    # (about 4 MB each) is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            deviation_region(Window(2, 0, 18), (F(0), F(1, 2**46)), F(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_budget_guard():
    with pytest.raises(BudgetError):
        sweep_cost(Window(2, 0, 64), 10**6)
    with pytest.raises(BudgetError):
        deviation_region(Window(2, 0, 64), Band(0, 1), F(1), budget=10**6)


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
        swept = deviation_region(w, Band(a, k), t, strict=strict).measure()
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


def test_count_distribution_matches_reference_dp():
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
    region = deviation_region(w, (F(0), F(1, 6)), F(3, 2))
    assert m_six == region.measure()


def test_deviation_measure_antitone_in_threshold():
    w = Window(2, 0, 6)
    values = [deviation_measure(w, 2, 0, F(n, 2)) for n in range(0, 13)]
    for bigger, smaller in zip(values, values[1:]):
        assert smaller <= bigger
    assert values[0] == 1
    assert values[-1] == 0


# -- dyadic cylinder oracle (base 2 exact classification) -------------------


def brute_force_region_base2(window, band, threshold, strict):
    """Classify every depth-(end+1) dyadic cylinder by its left endpoint.

    Valid in base 2 because every breakpoint of the hit count is a dyadic
    rational of depth at most end + band depth.
    """
    depth = window.end + band.k + 1
    denom = 2**depth
    qualifying = []
    for i in range(denom):
        x = F(i, denom)
        fv = f_value(x, window, band)
        hit = fv > threshold if strict else fv >= threshold
        if hit:
            qualifying.append((x, F(i + 1, denom)))
    return IntervalSet(qualifying)


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
        swept = deviation_region(w, band, t, strict=strict)
        oracle = brute_force_region_base2(w, band, t, strict)
        assert swept == oracle, (offset, length, k, a, t, strict)
