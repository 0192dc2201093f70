"""Seeded Monte Carlo estimates against exact measures and closed-form bounds."""

from fractions import Fraction as F

import pytest

from normnum.badsets import block_bad_union, preset, tail_bad_union
from normnum.enclose import Enclosure
from normnum.mc import (
    EstimateReport,
    SamplerSpec,
    check_bound,
    estimate_measure,
    sample_integers,
    sample_points,
)
from normnum.measure import IntervalSet
from normnum.orbit import Band, Window, deviation_region


def measure_of(region) -> F:
    return sum((hi - lo for lo, hi in region.pairs), F(0))


# -- sampling stream ---------------------------------------------------------


def test_stream_is_frozen():
    # hash construction pins the stream for good; the first point of
    # seed 1, counter 0 is a regression anchor
    first = sample_integers(SamplerSpec(1, 100))[0]
    assert first == 0x16EE6C92C69087FD66847E8AF203A985


def test_stream_reproducible_and_splittable():
    spec = SamplerSpec(42, 150)
    assert sample_integers(spec) == sample_integers(spec)
    assert sample_integers(spec) != sample_integers(SamplerSpec(42, 150, counter=1))
    assert sample_integers(spec) != sample_integers(SamplerSpec(43, 150))
    points = sample_points(spec)
    assert all(0 <= p < 1 for p in points)
    assert [p.denominator <= 2**128 for p in points]


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(1, 99)
    with pytest.raises(ValueError):
        SamplerSpec(-1, 100)
    with pytest.raises(ValueError):
        SamplerSpec(1, 100, counter=-1)
    SamplerSpec(0, 100)


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
    a = estimate_measure(region.contains, spec, measure_of(region))
    b = estimate_measure(region.contains, spec, measure_of(region))
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
    report = estimate_measure(
        comp.region.contains,
        SamplerSpec(7, 2000),
        Enclosure.exact(measure_of(comp.region)),
    )
    assert report.verdict == "consistent"
    assert report.hits > 0


def test_tail_component_measure():
    # periodic membership must agree with the core measure, which the
    # per-period copies preserve
    tail = tail_bad_union(2, 4, preset("toy-sparse"))[0]
    report = estimate_measure(
        tail.region.contains,
        SamplerSpec(13, 4000),
        Enclosure.exact(measure_of(tail.region.core)),
    )
    assert report.verdict == "consistent"
    assert report.hits > 0


# -- closed-form bound audits ------------------------------------------------


def test_check_bound_passes():
    out = check_bound("badic", 2, 1, 128, F(1, 4), SamplerSpec(5, 400))
    assert out["verdict"] == "pass"
    assert F(out["worst_band_estimate"]) == 0
    out = check_bound("badic", 3, 1, 80, F(1, 4), SamplerSpec(5, 200))
    assert out["verdict"] == "pass"
    out = check_bound("dyadic", 2, 1, 128, F(1, 2), SamplerSpec(5, 400))
    assert out["verdict"] == "pass"
    assert out["samples"] == 400


def test_check_bound_vacuous():
    # a tiny threshold makes the exponential factor nearly 1 and the
    # polynomial prefactor pushes the bound far above any probability
    out = check_bound("dyadic", 2, 1, 8, F(1, 100), SamplerSpec(3, 200))
    assert out["verdict"] == "vacuous"
    assert F(out["bound"][0]) >= 1


def test_check_bound_rejects_exhausted_resolution():
    with pytest.raises(ValueError):
        check_bound("badic", 2, 1, 256, F(1, 4), SamplerSpec(5, 400))
    with pytest.raises(ValueError):
        check_bound("badic", 3, 1, 81, F(1, 4), SamplerSpec(5, 200))
    with pytest.raises(ValueError):
        check_bound("sideways", 2, 1, 32, F(1, 4), SamplerSpec(5, 200))


def test_any_band_estimate_matches_exact_union():
    # two independent routes to the same event: the exact sweep union of
    # the four depth-2 bands, and hash-lattice sampling of orbit cells
    window = Window(2, 0, 6)
    union = IntervalSet.empty()
    for a in range(4):
        union = union.union(deviation_region(window, Band(a, 2), F(3, 2)))
    exact = measure_of(union)
    assert exact == F(43, 64)
    out = check_bound("dyadic", 2, 2, 6, F(1, 4), SamplerSpec(11, 3000))
    estimate = F(out["any_band_estimate"])
    gap = abs(estimate - exact)
    variance = estimate * (1 - estimate) / out["samples"]
    assert gap * gap <= 16 * variance
