"""Acceptance gate: ten end-to-end checks with one printed line each.

Each check prints "criterion N: pass/FAIL (detail)" on the real stdout so
the lines survive capture, then asserts. Oracles here are deliberately
dumb re-derivations: cylinder or grid classification for regions, closure
enumeration for discrepancy, closed-form bounds against exact dynamic
programming, and hash-lattice sampling against exact measures.
"""

import json
import random
import sys
import time
from fractions import Fraction as F

from normnum.cli import main
from normnum.constructor import Certificate, run_construction, verify_certificate
from normnum.discrepancy import extreme_discrepancy, star_discrepancy
from normnum.enclose import Enclosure, naive_cost_log2
from normnum.lemmas import (
    badic_deviation_bound,
    band_depth_triangle_check,
    chain_margin_check,
    dyadic_deviation_bound,
    window_cover_check,
)
from normnum.mc import SamplerSpec
from normnum.measure import DEFAULT_EVENT_BUDGET, IntervalSet, PeriodicIntervalSet
from normnum.orbit import (
    Band,
    Window,
    count_cutoffs,
    cutoff_region,
    deviation_measure,
)
from normnum.schedule import preset

from closed_forms import fukuyama_constant, philipp_constant
from fraction_orbit import grid
from mc_estimate import estimate_measure
from membership import member_of


def announce(number: int, ok: bool, detail: str) -> bool:
    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    stream.write("criterion %2d: %s  (%s)\n" % (number, "pass" if ok else "FAIL", detail))
    stream.flush()
    return ok


def merged_pairs(flags, den):
    """Runs of qualifying grid cells as half-open rational pairs."""
    pairs = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            pairs.append((F(start, den), F(i, den)))
            start = None
    if start is not None:
        pairs.append((F(start, den), F(1)))
    return tuple(pairs)


def cylinder_oracle_base2(window, band, threshold, strict):
    """Classify binary cylinders fine enough to determine every count."""
    end = window.offset + window.length
    depth = end + band.k
    scale = 2**depth
    pow_k = 2**band.k
    flags = []
    for c in range(scale):
        count = 0
        for j in range(window.offset, end):
            pos = (c << j) % scale
            if band.a * scale <= pos * pow_k < (band.a + 1) * scale:
                count += 1
        deviation = F(abs(count * pow_k - window.length), pow_k)
        flags.append(deviation > threshold if strict else deviation >= threshold)
    return merged_pairs(flags, scale)


def midpoint_oracle_base3(window, band, threshold, strict):
    """Classify cells of a grid refining every breakpoint, by midpoints.

    Band endpoints have denominator dividing 8 and sweep breakpoints
    denominator dividing 8 * 3**(end-1), so counts are constant on each
    cell and the midpoint decides the whole cell.
    """
    den = 8 * 3 ** (window.offset + window.length - 1)
    twice = 2 * den
    pow_k = 2**band.k
    start_power = pow(3, window.offset, twice)
    flags = []
    for t in range(den):
        y = (2 * t + 1) * start_power % twice
        count = 0
        for _ in range(window.length):
            if band.a * twice <= y * pow_k < (band.a + 1) * twice:
                count += 1
            y = y * 3 % twice
        deviation = F(abs(count * pow_k - window.length), pow_k)
        flags.append(deviation > threshold if strict else deviation >= threshold)
    return merged_pairs(flags, den)


def test_criterion_01_region_vs_cylinder_oracle():
    rng = random.Random(101)
    t0 = time.time()
    draws = 0
    for i in range(200):
        base = 2 if i % 2 == 0 else 3
        offset = rng.randrange(0, 4)
        length = rng.randrange(1, 9 - offset)
        k = rng.randrange(0, 4)
        a = rng.randrange(2**k)
        threshold = F(rng.randrange(0, 4 * length + 3), 4)
        strict = rng.random() < 0.5
        window = Window(base, offset, length)
        band = Band(a, k)
        # the offset-0 region, pulled back by x -> frac(base**offset * x)
        cutoffs = count_cutoffs(F(length, 2**k), threshold, strict)
        core = cutoff_region(base, length, 2**k, a, *cutoffs, DEFAULT_EVENT_BUDGET)
        region = PeriodicIntervalSet(core, base, offset).materialize()
        if base == 2:
            expected = cylinder_oracle_base2(window, band, threshold, strict)
        else:
            expected = midpoint_oracle_base3(window, band, threshold, strict)
        assert region.pairs == expected, (base, offset, length, a, k, threshold, strict)
        draws += 1
    elapsed = time.time() - t0
    ok = draws == 200 and elapsed < 60
    assert announce(1, ok, "%d draws equal exactly, %.1fs" % (draws, elapsed))


def brute_interval_discrepancy(pts):
    n = len(pts)
    candidates = sorted(set(pts) | {F(0), F(1)})
    best = F(0)
    for u in candidates:
        for v in candidates:
            if v < u:
                continue
            for lo_closed in (False, True):
                for hi_closed in (False, True):
                    inside = sum(
                        1
                        for p in pts
                        if (p > u or (lo_closed and p == u))
                        and (p < v or (hi_closed and p == v))
                    )
                    gap = abs(F(inside, n) - (v - u))
                    if gap > best:
                        best = gap
    return best


def staircase_star(pts):
    ordered = sorted(pts)
    n = len(ordered)
    best = F(0)
    for i, p in enumerate(ordered):
        best = max(best, abs(F(i, n) - p), abs(F(i + 1, n) - p))
    return best


def test_criterion_02_discrepancy_vs_brute_force():
    rng = random.Random(202)
    t0 = time.time()
    for _ in range(200):
        n = rng.randrange(1, 13)
        den = rng.choice([2, 3, 4, 6, 8, 12, 16, 24, 32, 64])
        pts = [F(rng.randrange(den), den) for _ in range(n)]
        fast = extreme_discrepancy(*grid(pts))
        star = star_discrepancy(*grid(pts))
        assert fast == brute_interval_discrepancy(pts), pts
        assert star == staircase_star(pts), pts
        assert F(1, n) <= fast <= 1
        assert star <= fast <= 2 * star
    elapsed = time.time() - t0
    ok = elapsed < 30
    assert announce(2, ok, "200 point sets equal exactly, %.1fs" % elapsed)


def test_criterion_03_dyadic_band_bound_grid():
    t0 = time.time()
    checked = 0
    vacuous = 0
    violations = []
    for base in (2, 3):
        for k in (1, 2):
            for power in range(4, 11):
                length = 2**power
                for eps in (F(1, 4), F(1, 2), F(1)):
                    bound = dyadic_deviation_bound(base, k, length, eps)
                    if bound.lo >= 1:
                        vacuous += 1
                        continue
                    cells = 2**k
                    worst = max(
                        deviation_measure(
                            Window(base, 0, length), cells, a, eps * length
                        )
                        for a in range(cells)
                    )
                    checked += 1
                    if worst > bound.hi:
                        violations.append((base, k, length, eps))
    elapsed = time.time() - t0
    ok = not violations and checked > 0 and elapsed < 600
    assert announce(
        3,
        ok,
        "%d non-vacuous grid points hold, %d vacuous skipped, %.1fs"
        % (checked, vacuous, elapsed),
    )
    assert not violations, violations


def test_criterion_04_base_power_band_bound_grid():
    t0 = time.time()
    checked = 0
    skipped = 0
    violations = []
    for base in (2, 3):
        for m in (1, 2):
            for power in range(4, 11):
                length = 2**power
                for eps in (F(1, 9), F(1, 4), F(1, 2), F(1)):
                    feasible = F(6, length // m) <= eps <= F(1, base**m)
                    if not feasible:
                        skipped += 1
                        continue
                    bound = badic_deviation_bound(base, m, length, eps)
                    cells = base**m
                    worst = max(
                        deviation_measure(
                            Window(base, 0, length), cells, a, eps * length, strict=True
                        )
                        for a in range(cells)
                    )
                    checked += 1
                    if worst > bound.hi:
                        violations.append((base, m, length, eps))
    elapsed = time.time() - t0
    ok = not violations and checked > 0
    assert announce(
        4,
        ok,
        "%d feasible grid points hold, %d infeasible skipped, %.1fs"
        % (checked, skipped, elapsed),
    )
    assert not violations, violations


def test_criterion_05_inequality_chain():
    t0 = time.time()
    schedule = preset("paper")
    result = chain_margin_check(schedule)
    elapsed = time.time() - t0
    partials = result["partials"]
    ok = (
        len(partials) == 20
        and all(p < F(7, 8) for p in partials)
        and all(a < b for a, b in zip(partials, partials[1:]))
        and result["holds_seven_eighths"]
        and result["holds_with_eta"]
        and schedule.eta + result["total"] < 1
        and result["loose_cap"] == F(3, 4) + schedule.eta / 4
        and result["loose_cap"] < F(7, 8)
        and result["holds_loose"]
        and elapsed < 1
    )
    assert announce(
        5,
        ok,
        "20 partial sums below 7/8, headroom %s < 7/8, %.3fs"
        % (result["loose_cap"], elapsed),
    )


def test_criterion_06_flagship_prefix(capsys, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    t0 = time.time()
    code = main(
        ["digits", "--preset", "paper", "--count", "10", "--cert-out", cert_path]
    )
    report = json.loads(capsys.readouterr().out)
    certificate = Certificate.load(open(cert_path).read())
    verification = verify_certificate(certificate)
    elapsed = time.time() - t0
    empty_families = all(len(s.components) == 0 for s in certificate.steps)
    small_tails = all(s.tail < F(1, 2**s.step) for s in certificate.steps)
    ok = (
        code == 0
        and report["digits"] == "0000000000"
        and empty_families
        and small_tails
        and verification.ok
        and elapsed < 5
    )
    assert announce(
        6,
        ok,
        "digits %s, families empty, tails below 2**-n, verified, %.2fs"
        % (report["digits"], elapsed),
    )


def test_criterion_07_toy_constructions():
    details = []
    saw_a_one = False
    ok = True
    for name in ("toy-sparse", "toy-mixed", "toy-seeded"):
        schedule = preset(name)
        t0 = time.time()
        cert = run_construction(schedule, 6)
        verification = verify_certificate(cert)
        elapsed = time.time() - t0
        saw_a_one = saw_a_one or "1" in cert.digits
        ok = ok and any(record.chosen_bound > 0 for record in cert.steps)
        chosen = None
        for record in cert.steps:
            lo, hi = record.interval
            # records carry the interval entering the step; the digit then
            # keeps one half, so the post-choice interval has measure 2**-step
            ok = ok and hi - lo == F(1, 2 ** (record.step - 1))
            if chosen is not None:
                ok = ok and (lo, hi) == chosen
            mid = (lo + hi) / 2
            if record.digit == 0:
                chosen = (lo, mid)
            else:
                chosen = (mid, hi)
            ok = ok and record.chosen_bound + record.tail < record.threshold
        ok = ok and chosen == (F(int(cert.digits, 2), 64), F(int(cert.digits, 2) + 1, 64))
        ok = ok and verification.ok and elapsed < 600
        details.append("%s=%s %.1fs" % (name, cert.digits, elapsed))
    ok = ok and saw_a_one
    assert announce(7, ok, "; ".join(details))


def test_criterion_08_decomposition_checks():
    rng = random.Random(808)
    t0 = time.time()
    triangle_failures = 0
    for _ in range(100):
        x = F(rng.randrange(512), 512)
        base = rng.choice([2, 3])
        length = rng.randrange(1, 33)
        depth = rng.randrange(0, 4)
        lo_cut = rng.randrange(0, 64)
        hi_cut = rng.randrange(lo_cut + 1, 65)
        result = band_depth_triangle_check(
            x, base, length, F(lo_cut, 64), F(hi_cut, 64), depth
        )
        if not result["holds"]:
            triangle_failures += 1
    witness_failures = 0
    for _ in range(50):
        x = F(rng.randrange(729), 729)
        base = rng.choice([2, 3])
        length = rng.randrange(2, 25)
        h = rng.randrange(1, 4)
        a = rng.randrange(2**h)
        result = window_cover_check(x, base, length, a, h)
        if not result["holds"]:
            witness_failures += 1
    elapsed = time.time() - t0
    ok = triangle_failures == 0 and witness_failures == 0
    assert announce(
        8,
        ok,
        "100 depth splits, 50 witness covers, 0 failures, %.1fs" % elapsed,
    )


def test_criterion_09_pinned_constants():
    p4 = philipp_constant(4)
    p9 = philipp_constant(9)
    f2 = fukuyama_constant(2)
    f3 = fukuyama_constant(3)
    cost1 = naive_cost_log2(1)
    ok = (
        p4.lo == p4.hi == 830
        and p9.lo == p9.hi == 498
        and f2.lo * f2.lo < F(84, 81) < f2.hi * f2.hi
        and f3.lo == f3.hi == 1
        and not isinstance(cost1, Enclosure)
        and cost1 == 131072
    )
    assert announce(
        9, ok, "830, 498, sqrt(84)/9 enclosed, 1, 131072 all exact"
    )


def test_criterion_10_mc_calibration():
    rng = random.Random(1010)
    t0 = time.time()
    consistent = 0
    total = 100
    for i in range(total):
        cuts = sorted({F(rng.randrange(1, 128), 128) for _ in range(6)})
        pairs = list(zip(cuts[::2], cuts[1::2]))
        region = IntervalSet(pairs)
        exact = sum((hi - lo for lo, hi in region.pairs), F(0))
        report = estimate_measure(
            member_of(region), SamplerSpec(seed=5000 + i, count=400), exact
        )
        if report.verdict == "consistent":
            consistent += 1
    spec = SamplerSpec(seed=5000, count=400)
    probe = IntervalSet([(F(1, 3), F(2, 3))])
    first = estimate_measure(member_of(probe), spec, F(1, 3))
    second = estimate_measure(member_of(probe), spec, F(1, 3))
    elapsed = time.time() - t0
    ok = consistent >= 99 and first == second and first.to_json() == second.to_json()
    assert announce(
        10,
        ok,
        "%d/%d region checks consistent, reports bit-identical, %.1fs"
        % (consistent, total, elapsed),
    )
