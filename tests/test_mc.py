"""Seeded Monte Carlo estimates against exact measures."""

from fractions import Fraction as F

import pytest

from normnum.badsets import block_bad_union, tail_bad_union
from normnum.enclose import Enclosure
from normnum.mc import SamplerSpec, sample_integers
from normnum.measure import DEFAULT_EVENT_BUDGET, IntervalSet
from normnum.orbit import (
    Band,
    Window,
    count_cutoffs,
    cutoff_region,
    f_value,
)
from normnum.schedule import preset

from mc_estimate import estimate_measure, sample_points
from membership import member_of


def measure_of(region) -> F:
    return sum((hi - lo for lo, hi in region.pairs), F(0))


# -- sampling stream ---------------------------------------------------------


def test_stream_is_frozen():
    # hash construction pins the stream for good; the first point of
    # seed 1 is a regression anchor
    first = sample_integers(SamplerSpec(1, 100))[0]
    assert first == 0x16EE6C92C69087FD66847E8AF203A985


def test_stream_reproducible_and_splittable():
    spec = SamplerSpec(42, 150)
    assert sample_integers(spec) == sample_integers(spec)
    assert sample_integers(spec) != sample_integers(SamplerSpec(43, 150))
    points = sample_points(spec)
    assert all(0 <= p < 1 for p in points)
    assert [p.denominator <= 2**128 for p in points]


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(-1, 100)
    SamplerSpec(0, 100)
    # a short stream is the prefix of a longer one
    assert sample_integers(SamplerSpec(1, 40)) == sample_integers(SamplerSpec(1, 100))[:40]


def test_estimator_refuses_short_streams():
    with pytest.raises(ValueError, match="below 100"):
        estimate_measure(lambda x: True, SamplerSpec(1, 99))
    assert estimate_measure(lambda x: True, SamplerSpec(1, 100)).estimate == 1


# -- measure estimation ------------------------------------------------------


def test_trivial_regions():
    spec = SamplerSpec(2, 200)
    full = estimate_measure(lambda p: True, spec, 1)
    assert full.estimate == 1
    assert full.variance == 0
    assert full.verdict == "consistent"
    empty = estimate_measure(lambda p: False, spec, 0)
    assert empty.estimate == 0
    assert empty.verdict == "consistent"
    # zero variance leaves no tolerance, so a wrong reference must fail
    wrong = estimate_measure(lambda p: True, spec, F(1, 2))
    assert wrong.verdict == "inconsistent"


def test_half_interval_calibration():
    spec = SamplerSpec(9, 1000)
    report = estimate_measure(lambda p: p < F(1, 2), spec, F(1, 2))
    assert report.verdict == "consistent"
    assert abs(report.estimate - F(1, 2)) < F(1, 10)
    wrong = estimate_measure(lambda p: p < F(1, 2), spec, F(1, 10))
    assert wrong.verdict == "inconsistent"


def test_estimates_are_reproducible():
    spec = SamplerSpec(31, 500)
    region = IntervalSet([(F(1, 7), F(2, 5)), (F(3, 4), F(7, 8))])
    a = estimate_measure(member_of(region), spec, measure_of(region))
    b = estimate_measure(member_of(region), spec, measure_of(region))
    assert a == b
    assert a.verdict == "consistent"


def test_report_json_shape():
    report = estimate_measure(lambda p: p < F(1, 4), SamplerSpec(5, 400), F(1, 4))
    data = report.to_json()
    assert data["count"] == 400
    assert data["seed"] == 5
    assert F(data["estimate"]) == report.estimate
    assert data["verdict"] == "consistent"
    bare = estimate_measure(lambda p: p < F(1, 4), SamplerSpec(5, 400))
    assert bare.verdict is None
    assert bare.to_json()["reference"] is None


# -- construction components under sampling ----------------------------------


def test_block_component_measure():
    comp = block_bad_union(2, 4, preset("toy-sparse"))
    exact = measure_of(comp.region)
    report = estimate_measure(
        member_of(comp.region), SamplerSpec(7, 2000), Enclosure(exact, exact)
    )
    assert report.verdict == "consistent"
    assert report.hits > 0


def test_tail_component_measure():
    # periodic membership must agree with the core measure, which the
    # per-period copies preserve
    tail = tail_bad_union(2, 4, preset("toy-sparse"))[0]
    exact = measure_of(tail.region.core)
    report = estimate_measure(
        member_of(tail.region), SamplerSpec(13, 4000), Enclosure(exact, exact)
    )
    assert report.verdict == "consistent"
    assert report.hits > 0


def test_any_band_estimate_matches_exact_union():
    # two independent routes to the same event: the exact sweep union of
    # the four depth-2 bands, and sampled points whose orbits are counted
    # pointwise
    window = Window(2, 0, 6)
    cutoffs = count_cutoffs(F(6, 4), F(3, 2))
    union = IntervalSet.empty()
    for a in range(4):
        union = union.union(
            cutoff_region(2, 6, 4, a, *cutoffs, DEFAULT_EVENT_BUDGET)
        )
    exact = measure_of(union)
    assert exact == F(43, 64)
    report = estimate_measure(
        lambda x: any(f_value(x, window, Band(a, 2)) >= F(3, 2) for a in range(4)),
        SamplerSpec(11, 3000),
        exact,
    )
    assert report.verdict == "consistent"
