"""Schedules, tilted thresholds, and the bad-set family enclosures."""

import json
import random
from fractions import Fraction

import pytest
from mpmath import iv

from normnum.badsets import (
    StraddleError,
    _tilted_threshold,
    bad_family,
    block_bad_set,
    block_bad_union,
    depth_limit,
    tail_bad_set,
    tail_bad_union,
    tail_mass_bound,
)
import normnum.badsets as badsets_module
from normnum import orbit
from normnum.cli import main
from normnum.enclose import Enclosure, eval_iv_tight
from normnum.lemmas import (
    badic_deviation_bound,
    band_depth_triangle_check,
    dyadic_deviation_bound,
    summed_mass_tail_check,
    window_cover_check,
)
from normnum.measure import (
    DEFAULT_EVENT_BUDGET,
    DomainError,
    IntervalSet,
    PeriodicIntervalSet,
)
from normnum.orbit import (
    Band,
    Window,
    count_cutoffs,
    cutoff_region,
    f_value,
)
from normnum.schedule import (
    HARD_START_FLOOR,
    PRESET_NAMES,
    Schedule,
    _TOY_COMMON,
    preset,
)

from membership import contains
from mpmath_iv import mpmath_expr

F = Fraction


def swept_at(piece, end):
    """The offset-0 region of a piece's window length, for the cutoffs of
    one threshold end."""
    base, length = piece.window.base, piece.window.length
    band = piece.band
    cutoffs = count_cutoffs(F(length, 2**band.k), end)
    return cutoff_region(
        base, length, 2**band.k, band.a, *cutoffs, DEFAULT_EVENT_BUDGET
    )


def assert_region_exact(piece):
    # the region is the sweep at either end of the threshold enclosure
    region = piece.region
    if isinstance(region, PeriodicIntervalSet):
        region = region.core
    assert region == swept_at(piece, piece.threshold.lo)
    assert region == swept_at(piece, piece.threshold.hi)


# -- window scale index -----------------------------------------------------


def test_depth_limit_values():
    assert depth_limit(2) == 1
    assert depth_limit(4) == 2
    assert depth_limit(8) == 2
    assert depth_limit(16) == 3
    assert depth_limit(64) == 4
    assert depth_limit(1024) == 6
    with pytest.raises(ValueError):
        depth_limit(0)


def test_depth_limit_is_quarter_log():
    # floor(log4 N) + 1 for N a power of two
    for e in range(1, 20):
        n = 2**e
        import math

        assert depth_limit(n) == math.floor(math.log(n, 4)) + 1


# -- schedules ---------------------------------------------------------------


def test_preset_names():
    assert set(PRESET_NAMES) == {
        "paper",
        "toy-sparse",
        "toy-seeded",
        "toy-mixed",
        "toy-small",
    }
    assert preset("toy-small") is preset("toy-sparse")
    with pytest.raises(ValueError):
        preset("nope")


def test_paper_schedule_values():
    s = preset("paper")
    assert s.delta == F(1, 2)
    assert s.eta == F(1, 8)
    assert s.family_index(1) == 16
    assert s.family_index(5) == 2**12
    assert s.base_limit(16) == 4
    assert s.base_limit(2**24) == 24


def test_start_index_rule():
    s = preset("paper")
    # hard floor dominates through base 21, the tail law beyond
    assert s.start_index(2) == HARD_START_FLOOR == 33010640
    assert s.start_index(21) == HARD_START_FLOOR
    assert s.start_index(22) == 2**25 + 2
    assert s.start_index(23) == 2**26 + 2
    # certified tail law: 1/(z-1) < eta / 2**base
    for b in (2, 21, 22, 30):
        z = s.start_index(b)
        assert F(1, z - 1) < s.eta / 2**b or z == HARD_START_FLOOR
        assert F(1, z) < s.eta / 2**b or z == HARD_START_FLOOR
    # at and beyond the crossover the law itself holds
    assert F(1, s.start_index(22) - 1) < s.eta / 2**22


def test_hard_floor_exceeds_exponential():
    # exp(12/ln 2) < HARD_START_FLOOR <= exp(12/ln 2) + 1
    enc = eval_iv_tight(80, mpmath_expr(lambda: iv.exp(12 / iv.log(2))))
    assert enc.hi < HARD_START_FLOOR < enc.lo + 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("bad", F(1, 2), F(0))
    with pytest.raises(ValueError):
        Schedule("bad", F(-1, 2), F(1, 8))
    with pytest.raises(ValueError):
        Schedule("bad", F(1, 2), F(1, 8), z_table={2: 4})  # needs base_cap
    with pytest.raises(ValueError):
        Schedule("bad", F(1, 2), F(1, 8), obstacle=((F(1, 2), F(3, 2)),))


@pytest.mark.parametrize(
    "field, value, phrase",
    [
        ("z_table", {2: 4.9}, "'z_table' must map bases to integers"),
        ("z_table", {2: True}, "'z_table' must map bases to integers"),
        ("z_table", {2.0: 4}, "'z_table' must map bases to integers"),
        ("z_table", {"2": 4}, "'z_table' must map bases to integers"),
        ("p_const", 4.5, "'p_const' must be an integer or null"),
        ("p_const", True, "'p_const' must be an integer or null"),
        ("base_cap", 2.5, "'base_cap' must be an integer or null"),
        ("base_cap", 2.0, "'base_cap' must be an integer or null"),
        ("index_cap", 4.5, "'index_cap' must be an integer or null"),
        ("index_cap", False, "'index_cap' must be an integer or null"),
    ],
)
def test_schedule_refuses_non_integer_fields(field, value, phrase):
    # nothing is coerced with int(): 4.9 would otherwise become start index 4
    fields = dict(_TOY_COMMON, **{field: value})
    with pytest.raises(ValueError, match=phrase):
        Schedule("bad", F(-2, 5), F(1, 8), **fields)


def test_schedule_json_round_trip():
    for name in PRESET_NAMES:
        s = preset(name)
        clone = Schedule.from_json(s.to_json())
        assert clone == s
        assert clone.digest() == s.digest()


def test_toy_universe_is_finite():
    s = preset("toy-sparse")
    assert list(s.bases_for(4)) == [2]
    assert list(s.indices_for(2, 4)) == [4]
    assert s.family_index(3) == 4  # constant across steps


# -- tilted thresholds --------------------------------------------------------


def test_threshold_scale_flagship_coefficient():
    # at delta = 1/2 and base 4 the coefficient is exactly 10
    enc = _tilted_threshold(64, 4, F(1, 2), F(0), 64)
    root = eval_iv_tight(
        96, mpmath_expr(lambda: iv.sqrt(64 * iv.log(iv.log(iv.mpf(64)))))
    )
    # compare against 10 * sqrt(64 ln ln 64) computed independently
    lo_ref = 10 * root.lo
    assert abs(enc.midpoint() - lo_ref) < F(1, 10**6) * lo_ref


def test_threshold_scale_rejects_short_windows():
    with pytest.raises(DomainError):
        _tilted_threshold(15, 2, F(1, 2), F(0), 64)
    _tilted_threshold(16, 2, F(1, 2), F(0), 64)


def test_threshold_scale_monotone_in_length():
    s = preset("paper")
    a = _tilted_threshold(16, 2, s.delta, F(0), 64)
    b = _tilted_threshold(64, 2, s.delta, F(0), 64)
    assert a.hi < b.lo


# -- single bad sets ----------------------------------------------------------


def test_block_bad_set_basic_shape():
    s = preset("toy-sparse")
    piece = block_bad_set(2, 4, 0, 1, s)
    assert piece.window == Window(2, 0, 16)
    assert piece.band == Band(0, 2)  # depth h+1 below the ceiling
    assert_region_exact(piece)
    assert piece.threshold.lo <= piece.threshold.hi


def test_block_band_depth_saturates():
    s = preset("toy-sparse")
    piece = block_bad_set(2, 4, 0, 3, s)
    assert piece.band.k == 3  # h = T(16) keeps depth T


def test_block_bad_set_validation():
    s = preset("toy-sparse")
    with pytest.raises(ValueError):
        block_bad_set(2, 3, 0, 1, s)  # window below the scale floor
    with pytest.raises(ValueError):
        block_bad_set(2, 4, 0, 4, s)  # h beyond T(16) = 3
    for h in (1, 3):
        assert block_bad_set(2, 4, 2**h - 1, h, s).band.a == 2**h - 1
        for a in (-1, 2**h):  # a outside [0, 2**h - 1]
            with pytest.raises(ValueError, match="band index out of range"):
                block_bad_set(2, 4, a, h, s)


def test_block_membership_matches_f_value():
    s = preset("toy-sparse")
    piece = block_bad_set(2, 4, 0, 1, s)
    rng = random.Random(5)
    w, band = piece.window, piece.band
    for _ in range(200):
        x = F(rng.randrange(0, 2**18), 2**18) + F(1, 2**19)
        fv = f_value(x, w, band)
        assert contains(piece.region, x) == (fv >= piece.threshold.lo)
        assert contains(piece.region, x) == (fv >= piece.threshold.hi)


def test_tail_membership_matches_f_value():
    s = preset("toy-sparse")
    piece = tail_bad_set(2, 4, 0, 1, 4, 1, s)
    assert not piece.is_empty()
    rng = random.Random(6)
    w, band = piece.window, piece.band
    core_lo, core_hi = piece.region.core.pairs[0]
    hits = 0
    for i in range(200):
        # y = frac(2**32 * x) starts the window; every other y lies in the core
        y = F(rng.randrange(1, 1000003), 1000003)
        if i % 2:
            y = core_lo + (core_hi - core_lo) * y
        x = (rng.randrange(2**32) + y) / 2**32
        fv = f_value(x, w, band)
        inside = contains(piece.region, x)
        hits += inside
        assert inside == (fv >= piece.threshold.lo)
        assert inside == (fv >= piece.threshold.hi)
    assert 100 <= hits < 200


def test_tail_bad_set_shape_and_periodicity():
    s = preset("toy-sparse")
    piece = tail_bad_set(2, 4, 0, 2, 4, 1, s)
    assert piece.window == Window(2, 32, 8)
    assert isinstance(piece.region, PeriodicIntervalSet)
    assert piece.region.level == 32
    assert_region_exact(piece)
    # membership respects the shift: x and x + 1/2**32 agree
    x = F(1, 2**40)
    assert contains(piece.region, x) == contains(piece.region, x + F(1, 2**32))


def test_tail_bad_set_validation():
    s = preset("toy-sparse")
    with pytest.raises(ValueError):
        tail_bad_set(2, 4, 0, 1, 1, 1, s)  # l below ceil(n/2)
    with pytest.raises(ValueError):
        tail_bad_set(2, 4, 0, 1, 5, 1, s)  # l above n
    with pytest.raises(ValueError):
        tail_bad_set(2, 4, 0, 1, 4, 2, s)  # m beyond 2**(n-l)
    with pytest.raises(ValueError):
        tail_bad_set(2, 4, 0, 3, 4, 1, s)  # h beyond T(2**(l-1)) = 2
    for h in (1, 2):
        assert tail_bad_set(2, 4, 2**h - 1, h, 4, 1, s).band.a == 2**h - 1
        for a in (-1, 2**h):  # a outside [0, 2**h - 1]
            with pytest.raises(ValueError, match="band index out of range"):
                tail_bad_set(2, 4, a, h, 4, 1, s)


def test_toy_sparse_block_structure():
    # cutoff counts at n = 4: thresholds imply >= 12, >= 10, >= 9 hits
    s = preset("toy-sparse")
    scale = _tilted_threshold(16, 2, s.delta, F(0), 64)
    assert F(86, 10) < scale.lo < scale.hi < F(87, 10)
    union = block_bad_union(2, 4, s)
    assert union is not None
    assert union.region.measure() == F(369, 32768)
    assert union.members == 4
    pieces = [block_bad_set(2, 4, a, h, s) for h in (1, 2, 3) for a in range(2**h)]
    for end in ("lo", "hi"):
        swept = IntervalSet.empty()
        for piece in pieces:
            swept = swept.union(swept_at(piece, getattr(piece.threshold, end)))
        assert union.region == swept


def test_toy_sparse_tail_structure():
    # only the longest short window contributes, merged at one offset
    s = preset("toy-sparse")
    unions = tail_bad_union(2, 4, s)
    assert len(unions) == 1
    comp = unions[0]
    assert comp.region.level == 32
    assert comp.region.measure() == F(1, 256)
    assert comp.members == 3
    # the two extreme digit patterns under the longest window
    flat = comp.region.core
    assert flat.pairs == ((F(0), F(1, 512)), (F(511, 512), F(1)))
    pieces = [tail_bad_set(2, 4, a, h, 4, 1, s) for h in (1, 2) for a in range(2**h)]
    for end in ("lo", "hi"):
        swept = IntervalSet.empty()
        for piece in pieces:
            swept = swept.union(swept_at(piece, getattr(piece.threshold, end)))
        assert flat == swept


def test_toy_sparse_short_windows_are_empty():
    s = preset("toy-sparse")
    for l in (2, 3):
        for h in (1, depth_limit(2 ** (l - 1))):
            for a in range(2**h):
                piece = tail_bad_set(2, 4, a, h, l, 1, s)
                assert piece.is_empty()
                assert_region_exact(piece)


def test_toy_family_assembly():
    s = preset("toy-sparse")
    fam = bad_family(4, s)
    assert len(fam.components) == 2
    kinds = sorted(c.kind for c in fam.components)
    assert kinds == ["block", "tail"]
    assert fam.outer_measure_bound() == F(369, 32768) + F(1, 256)
    # the largest single component
    assert fam.inner_measure_bound() == F(369, 32768)
    assert [c.region for c in fam.components] == [
        block_bad_union(2, 4, s).region,
        tail_bad_union(2, 4, s)[0].region,
    ]
    assert tail_mass_bound(4, s) == 0


def straddling(prec_decided):
    """A threshold stand-in whose enclosure straddles the 12-hit cutoff of a
    16-point window, quarter band, until the precision reaches prec_decided."""

    def fake(length, base, delta, exponent, precision):
        if precision >= prec_decided:
            return Enclosure(F(8) - F(1, 2**precision), F(8))
        return Enclosure(F(8) - F(1, 2**precision), F(8) + F(1, 2**precision))

    return fake


def test_threshold_refined_until_cutoffs_agree(monkeypatch):
    calls = []
    fake = straddling(256)

    def spy(length, base, delta, exponent, precision):
        calls.append(precision)
        return fake(length, base, delta, exponent, precision)

    monkeypatch.setattr(badsets_module, "_tilted_threshold", spy)
    piece = block_bad_set(2, 4, 0, 1, preset("toy-sparse"))
    assert calls == [64, 128, 256]
    assert piece.threshold.hi == 8
    assert_region_exact(piece)


def test_threshold_straddle_raises(monkeypatch):
    monkeypatch.setattr(badsets_module, "_tilted_threshold", straddling(10**9))
    with pytest.raises(StraddleError, match="straddles"):
        block_bad_set(2, 4, 0, 1, preset("toy-sparse"))


PRESET_DELTAS = sorted({preset(name).delta for name in PRESET_NAMES})


def scale_cases(n):
    """(exponent, window length, band depth) of the first two and last two
    band scales of the block window, and of the first and last band scales
    of the shortest and longest tail windows, at size index n."""
    scale = 1 << n
    limit = depth_limit(scale)
    cases = [
        (F(-h, 8), scale, badsets_module._band_depth(h, limit))
        for h in sorted({1, 2, limit - 1, limit})
    ]
    for l in sorted({(n + 1) // 2, n}):
        length = 1 << (l - 1)
        limit = depth_limit(length)
        cases += [
            (F(-h, 8) + F(l - n - 3, 6), length, badsets_module._band_depth(h, limit))
            for h in sorted({1, limit})
        ]
    return cases


def test_integer_refusal_bound_is_sound():
    # whenever the bit-length bound says the threshold is at most the
    # expected count, the enclosure's upper end is too, in every base
    fired = 0
    for delta in PRESET_DELTAS:
        for n in range(5, 201):
            for exponent, length, depth in scale_cases(n):
                if not badsets_module._threshold_certainly_below(
                    1 << n, delta, exponent, length, depth
                ):
                    continue
                fired += 1
                expected = F(length, 2**depth)
                for base in range(2, 6):
                    threshold = _tilted_threshold(1 << n, base, delta, exponent, 64)
                    assert threshold.hi <= expected, (delta, n, exponent, length, depth)
    assert fired > 1000
    # it fires on the paper's first block window, band scale 1
    assert badsets_module._threshold_certainly_below(
        1 << HARD_START_FLOOR, F(1, 2), F(-1, 8), 1 << HARD_START_FLOOR, 2
    )


@pytest.mark.parametrize(
    "delta", [F(-2, 5), F(1, 2), F(20)], ids=["toy", "paper", "wide"]
)
def test_integer_refusal_matches_evaluated_thresholds(
    monkeypatch, capsys, tmp_path, delta
):
    # schedules whose windows sit just past the sweep gate, where the bound
    # fires or not: every outcome is the one the evaluated thresholds give
    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fired = 0
    for n in range(5, 41):
        config = tmp_path / ("n%d.json" % n)
        config.write_text(
            json.dumps(
                {
                    "tag": "gate", "delta": str(delta), "eta": "1/8",
                    "z_table": {"2": n}, "base_cap": 2, "index_cap": n, "p_const": n,
                }
            )
        )
        for budget in ("1", str(DEFAULT_EVENT_BUDGET)):
            argv = ["digits", "--config", str(config), "--count", "2"]
            argv += ["--budget", budget]
            with monkeypatch.context() as patch:
                patch.setattr(
                    badsets_module, "_threshold_certainly_below", lambda *args: False
                )
                evaluated = outcome(argv)
            shortcut = outcome(argv)
            assert shortcut == evaluated, (n, budget)
            fired += badsets_module._threshold_certainly_below(
                1 << n, delta, F(-1, 8), 1 << n, 2
            )
    assert fired


def test_toy_seeded_adds_obstacle():
    fam = bad_family(4, preset("toy-seeded"))
    kinds = sorted(c.kind for c in fam.components)
    assert kinds == ["block", "obstacle", "tail"]
    obstacle = [c for c in fam.components if c.kind == "obstacle"][0]
    assert obstacle.region.measure() == F(1, 2)
    assert contains(fam, F(1, 4))


def test_toy_mixed_family():
    fam = bad_family(4, preset("toy-mixed"))
    assert len(fam.components) == 2
    assert fam.outer_measure_bound() == F(5003, 65536)


def reference_family(index, schedule):
    """Labels, regions and member counts of the family built one set per
    member: `block_bad_set` for every (h, a) and `tail_bad_set` for every
    (l, h, a, m), unioned per block and per tail offset."""
    components = []
    obstacle = schedule.obstacle_set()
    if obstacle is not None and not obstacle.is_empty():
        components.append(("obstacle", obstacle, 0))
    for base in schedule.bases_for(index):
        for n in schedule.indices_for(base, index):
            region, members = IntervalSet.empty(), 0
            for h in range(1, depth_limit(1 << n) + 1):
                for a in range(2**h):
                    piece = block_bad_set(base, n, a, h, schedule)
                    if not piece.is_empty():
                        region, members = region.union(piece.region), members + 1
            if members:
                components.append(("block b=%d n=%d" % (base, n), region, members))
            by_offset, empty = {}, IntervalSet.empty()
            for l in range((n + 1) // 2, n + 1):
                for h in range(1, depth_limit(1 << (l - 1)) + 1):
                    for a in range(2**h):
                        for m in range(1, (1 << (n - l)) + 1):
                            piece = tail_bad_set(base, n, a, h, l, m, schedule)
                            if piece.is_empty():
                                continue
                            offset = piece.window.offset
                            core, members = by_offset.get(offset, (empty, 0))
                            core = core.union(piece.region.core)
                            by_offset[offset] = (core, members + 1)
            for offset, (core, members) in sorted(by_offset.items()):
                components.append(
                    (
                        "tail b=%d n=%d offset=%d" % (base, n, offset),
                        PeriodicIntervalSet(core, base, offset),
                        members,
                    )
                )
    return components


def toy_schedule(delta):
    return Schedule("toy-delta", delta, F(1, 8), **_TOY_COMMON)


# two tilts whose top band scale gets other cutoffs than the scale below
# it, for the block window (-3/8) and for the longest tail window (-13/32)
REFERENCE_SCHEDULES = {
    **{name: preset(name) for name in ("toy-sparse", "toy-mixed", "toy-seeded")},
    "delta=-3/8": toy_schedule(F(-3, 8)),
    "delta=-13/32": toy_schedule(F(-13, 32)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SCHEDULES))
def test_family_matches_one_set_per_member(name):
    schedule = REFERENCE_SCHEDULES[name]
    family = bad_family(4, schedule)
    assert [(c.label, c.region, c.members) for c in family.components] == (
        reference_family(4, schedule)
    )


def top_scale_cutoffs(schedule, length, tilt):
    """Cutoffs of the two band scales sharing the depth limit of a window
    of size index 4 (threshold scale 16)."""
    limit = depth_limit(length)
    return [
        badsets_module._decide_cutoffs(
            2, length, limit, 16, F(-h, 8) + tilt, schedule, 64, DEFAULT_EVENT_BUDGET
        )[1]
        for h in (limit - 1, limit)
    ]


def test_reference_schedules_cover_distinct_top_cutoffs():
    block = top_scale_cutoffs(REFERENCE_SCHEDULES["delta=-3/8"], 16, F(0))
    tail = top_scale_cutoffs(REFERENCE_SCHEDULES["delta=-13/32"], 8, F(-1, 2))
    assert block == [(-8, 12), (-7, 11)]
    assert tail == [(-4, 8), (-3, 7)]
    # and toy-mixed's block scales share theirs, so its repeats are reused
    assert top_scale_cutoffs(preset("toy-mixed"), 16, F(0)) == [(-4, 8), (-4, 8)]


@pytest.mark.parametrize("name", sorted(REFERENCE_SCHEDULES))
def test_union_decides_each_scale_and_walks_each_region_once(monkeypatch, name):
    thresholds, walks = [], []
    real_threshold = badsets_module._tilted_threshold
    real_walk = badsets_module.cutoff_region

    def threshold_spy(length, base, delta, exponent, precision):
        thresholds.append((length, base, exponent, precision))
        return real_threshold(length, base, delta, exponent, precision)

    def walk_spy(base, length, cells, target, c_lo, c_hi, budget):
        walks.append((base, length, target, cells, c_lo, c_hi))
        return real_walk(base, length, cells, target, c_lo, c_hi, budget)

    monkeypatch.setattr(badsets_module, "_tilted_threshold", threshold_spy)
    monkeypatch.setattr(badsets_module, "cutoff_region", walk_spy)
    bad_family(4, REFERENCE_SCHEDULES[name])
    # one evaluation per (window, band scale): a block window of 3 scales
    # and tail windows of 1, 2 and 2 scales
    assert len(thresholds) == len(set(thresholds)) == 8
    assert len(walks) == len(set(walks))
    for base, length, a, cells, c_lo, c_hi in walks:
        mirror = cells - 1 - a
        assert mirror == a or (base, length, mirror, cells, c_lo, c_hi) not in walks


@pytest.mark.parametrize("name", ["toy-mixed", "toy-seeded", "toy-sparse"])
def test_family_regions_need_no_hit_count_dp(monkeypatch, name):
    # the region walk decides empty regions by itself, so a family builds
    # the same components with the exact measure out of reach
    components = bad_family(4, preset(name)).components

    def no_measure(*args):
        raise AssertionError("a region asked for the exact measure")

    monkeypatch.setattr(orbit, "cutoff_measure", no_measure)
    assert bad_family(4, preset(name)).components == components


def test_family_intersect_bound_additivity():
    s = preset("toy-sparse")
    fam = bad_family(4, s)
    whole = fam.outer_intersect_bound(F(0), F(1))
    left = fam.outer_intersect_bound(F(0), F(1, 2))
    right = fam.outer_intersect_bound(F(1, 2), F(1))
    assert left + right == whole == fam.outer_measure_bound()


def test_paper_family_is_empty_at_small_indices():
    s = preset("paper")
    for index in (4, 16, 64):
        fam = bad_family(index, s)
        assert len(fam.components) == 0
        assert fam.outer_measure_bound() == 0


def test_paper_tail_mass_values():
    s = preset("paper")
    # exact value at index 4: one base, hard-floor start, eta remainder
    assert tail_mass_bound(4, s) == F(1, HARD_START_FLOOR - 1) + F(1, 32)
    # certified decay along the step schedule
    for n in range(0, 11):
        r = tail_mass_bound(s.family_index(n), s)
        assert r < F(1, 2**n)
    # nonincreasing over plain indices; the certified bound sits on
    # plateaus while the base limit holds still, dropping at each jump
    values = [tail_mass_bound(n, s) for n in range(1, 22)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert tail_mass_bound(8, s) < tail_mass_bound(7, s)
    assert tail_mass_bound(16, s) < tail_mass_bound(15, s)
    # strictly decreasing along the per-step indices, whose limits grow
    steps = [tail_mass_bound(s.family_index(n), s) for n in range(0, 12)]
    for a, b in zip(steps, steps[1:]):
        assert b < a


def test_toy_tail_mass_is_exactly_zero():
    for name in ("toy-sparse", "toy-seeded", "toy-mixed"):
        assert tail_mass_bound(4, preset(name)) == 0


# -- closed-form deviation bounds ----------------------------------------------


def test_badic_bound_reference_value():
    # base 2, one digit deep, quarter tilt, window 256: bound 2 e^(-16/3)
    bound = badic_deviation_bound(2, 1, 256, F(1, 4))
    ref = eval_iv_tight(96, mpmath_expr(lambda: 2 * iv.exp(iv.mpf(-16) / 3)))
    assert bound.lo <= ref.hi and ref.lo <= bound.hi
    assert bound.width < F(1, 2**40)


def test_badic_bound_hypothesis_errors():
    with pytest.raises(DomainError) as err:
        badic_deviation_bound(2, 1, 16, F(1, 4))  # 6/16 > 1/4
    assert "6/floor" in str(err.value)
    with pytest.raises(DomainError) as err:
        badic_deviation_bound(2, 1, 256, F(3, 4))  # above base**-m
    assert "base**-m" in str(err.value)


def test_badic_bound_scaling_in_m():
    b1 = badic_deviation_bound(2, 1, 1024, F(1, 4))
    b2 = badic_deviation_bound(2, 2, 1024, F(1, 4))
    assert b1.hi < b2.hi  # wider coefficient, shallower exponent gain


def test_dyadic_bound_reference_value():
    # depth 1, half tilt, window 32: coefficient 1728, exponent -32/9
    bound = dyadic_deviation_bound(2, 1, 32, F(1, 2))
    ref = eval_iv_tight(96, mpmath_expr(lambda: 1728 * iv.exp(iv.mpf(-32) / 9)))
    assert bound.lo <= ref.hi and ref.lo <= bound.hi


def test_dyadic_bound_rejects_nonpositive_eps():
    with pytest.raises(DomainError):
        dyadic_deviation_bound(2, 1, 32, F(0))


def test_dyadic_bound_decreases_in_length():
    a = dyadic_deviation_bound(2, 2, 64, F(1, 2))
    b = dyadic_deviation_bound(2, 2, 256, F(1, 2))
    assert b.hi < a.lo


# -- decomposition checks -------------------------------------------------------


def test_depth_triangle_random_sweep():
    rng = random.Random(31)
    for _ in range(40):
        x = F(rng.randrange(0, 3**7), 3**7)
        base = rng.choice([2, 3])
        length = rng.randrange(4, 40)
        depth = rng.randrange(0, 4)
        lo = F(rng.randrange(0, 8), 16)
        hi = lo + F(rng.randrange(1, 17 - 2 * lo.numerator if lo.numerator < 8 else 2), 16)
        hi = min(hi, F(1))
        out = band_depth_triangle_check(x, base, length, lo, hi, depth)
        assert out["holds"]
        assert out["lhs"] <= out["rhs"]


def test_depth_triangle_zero_depth():
    out = band_depth_triangle_check(F(1, 3), 2, 10, F(0), F(1, 2), 0)
    assert out["holds"]
    assert out["rhs"] == 20  # slack term alone


def test_window_cover_random_sweep():
    rng = random.Random(77)
    for _ in range(25):
        x = F(rng.randrange(0, 5**6), 5**6)
        base = rng.choice([2, 3])
        length = rng.randrange(4, 25)
        h = rng.randrange(1, 3)
        a = rng.randrange(2**h)
        out = window_cover_check(x, base, length, a, h)
        assert out["holds"], (x, base, length, a, h)


def test_window_cover_reports_slots():
    out = window_cover_check(F(1, 7), 2, 20, 0, 1)
    n = 4  # 16 <= 20 < 32
    assert set(out["slots"]) == set(range((n + 1) // 2, n + 1))
    for l, m in out["slots"].items():
        assert 0 <= m < 2 ** (n - l)


# -- summed mass tail ------------------------------------------------------------


def test_summed_mass_tail_boundary():
    ok = summed_mass_tail_check(8, F(1, 2), F(1, 8))
    assert ok["holds"]
    assert ok["bound"] == F(31, 294)
    edge = summed_mass_tail_check(7, F(1, 2), F(1, 8))
    assert edge["bound"] == F(1, 8)
    assert not edge["holds"]  # equality misses the strict inequality


def test_summed_mass_tail_flagship_start():
    out = summed_mass_tail_check(HARD_START_FLOOR, F(1, 2), F(1, 8))
    assert out["holds"]
    assert out["bound"] < F(1, 10**9)


def test_summed_mass_tail_rejects_other_tilts():
    with pytest.raises(DomainError):
        summed_mass_tail_check(8, F(1, 3), F(1, 8))
