"""Threshold-indexed bad sets, their families, and certified mass bounds.

From a schedule (`normnum.schedule`) the module builds, for any base and
size index:

* block bad sets, indexed by a dyadic band, over the full leading window;
* tail bad sets, over short windows offset past the leading block;
* the merged family of all of them up to a size index, with one exact
  region per component and a certified residual mass bound.

Hit counts are integers, so each bad set is decided by the integer count
cutoffs of its threshold. The threshold enclosure is refined until both of
its ends give the same cutoffs. The set's region is then built exactly by
a walk of the cell chain of the digit process (`orbit.cutoff_region`),
which finds an empty set by itself: a true rational interval set rather
than a floating approximation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Optional

from .enclose import Enclosure, eval_iv_tight, iv_fraction
from .measure import (
    DEFAULT_EVENT_BUDGET,
    ZERO,
    BudgetError,
    IntervalSet,
    PeriodicIntervalSet,
    RationalLike,
    Record,
    RegionLike,
    as_fraction,
    format_fraction,
)
from .orbit import (
    Band,
    Window,
    count_cutoffs,
    cutoff_region,
    f_value,
    sweep_cost,
)
from .schedule import Schedule


class DomainError(ValueError):
    """A closed-form bound was queried outside its hypotheses."""


class StraddleError(RuntimeError):
    """A threshold enclosure straddles a count cutoff at every precision tried."""


# Precision doublings allowed before a threshold's cutoffs count as undecided.
_REFINEMENT_ROUNDS = 8

# Terms above which an exact finite tail sum is refused: the sum's
# denominator grows with every term, so a huge index_cap means unbounded work.
MAX_TAIL_TERMS = 1 << 12

# Largest size index whose sets are built. A window at size index n has
# length 1 << n, an n-bit integer, and so do its thresholds and cutoffs, so
# an unbounded index means unbounded memory. The bound sits above the
# paper's first start index, `schedule.HARD_START_FLOOR`, so the paper
# schedule still runs into its sweep budget first.
MAX_SIZE_INDEX = 1 << 26


def _check_size_index(n: int) -> None:
    if n < 4:
        raise ValueError("size index must be at least 4")
    if n > MAX_SIZE_INDEX:
        raise BudgetError(
            "size index %d exceeds the bound of %d" % (n, MAX_SIZE_INDEX)
        )


def depth_limit(length: int) -> int:
    """Largest band depth tracked for a window of the given length."""
    if length < 1:
        raise ValueError("window length must be positive")
    return (length.bit_length() - 1) // 2 + 1


def _scale_expr(length: int, base: int, delta: Fraction):
    n = iv_fraction(length)
    coef = (
        2
        * (1 + 2 * iv_fraction(delta))
        * (iv_fraction(1) / 2 + 2 / (iv_fraction(base).sqrt() - 1))
    )
    return coef * (n * n.log().log()).sqrt()


def _tilted_threshold(
    length: int, base: int, delta: Fraction, exponent: Fraction, precision: int
) -> Enclosure:
    """Enclosure of 2**exponent times the threshold scale, in one expression.

    The scale grows like the square root of length times its iterated
    logarithm; lengths below 16 are rejected so the inner logarithm stays
    safely positive.
    """
    if length < 16:
        raise DomainError("threshold scale needs window length >= 16")
    return eval_iv_tight(
        precision,
        lambda: (iv_fraction(exponent) * iv_fraction(2).log()).exp()
        * _scale_expr(length, base, delta),
    )


class SetEnclosure(Record):
    """One bad set: its threshold enclosure and its exact region."""

    __slots__ = ("label", "window", "band", "threshold", "region")

    def __init__(
        self,
        label: str,
        window: Window,
        band: Band,
        threshold: Enclosure,
        region: RegionLike,
    ):
        self._fill(label, window, band, threshold, region)

    def is_empty(self) -> bool:
        return self.region.is_empty()


def _band_depth(h: int, limit: int) -> int:
    # the band of scale h is one dyadic level finer, up to the depth limit
    return h + 1 if h < limit else limit


def _threshold_certainly_below(
    scale_length: int, delta: Fraction, exponent: Fraction, length: int, depth: int
) -> bool:
    """Whether the threshold is at most the expected count length / 2**depth,
    decided from bit lengths alone.

    With L = scale_length >= 16 and exponent <= 0, 2**exponent <= 1, the
    coefficient 2 * (1 + 2 * delta) * (1/2 + 2 / (sqrt(base) - 1)) is below
    11 * (1 + 2 * delta) for every base >= 2, and ln ln L < L.bit_length(),
    so the threshold is below 11 * (1 + 2 * delta) * sqrt(2**bits * bits)
    with bits = L.bit_length(). The expected count is at least
    2**(length.bit_length() - 1 - depth). The squares compare exactly on
    small integers and one power of two.
    """
    if scale_length < 16 or exponent > 0:
        return False
    bits = scale_length.bit_length()
    tilt = 1 + 2 * delta
    lhs = 121 * tilt.numerator**2 * bits
    rhs = tilt.denominator**2
    shift = 2 * (length.bit_length() - 1 - depth) - bits
    # lhs <= rhs * 2**shift, with no shift wider than lhs or rhs
    if shift >= lhs.bit_length():
        return True
    if -shift >= rhs.bit_length():
        return False
    return lhs << max(-shift, 0) <= rhs << max(shift, 0)


def _decide_cutoffs(
    base: int,
    length: int,
    depth: int,
    scale_length: int,
    exponent: Fraction,
    schedule: Schedule,
    precision: int,
    budget: int,
) -> tuple[Enclosure, Optional[tuple[int, int]]]:
    """First step of a bad set: the threshold 2**exponent times the scale of
    `scale_length`, and the count cutoffs it gives every band of the depth
    over a window of the length, or None when those sets are empty.

    Hit counts are integers, so the sets are decided by the threshold's
    count cutoffs, which do not depend on the band index. They are empty
    once the low end's cutoffs lie outside the window, since higher
    thresholds only widen them; otherwise the window must pass the
    `sweep_cost` gate, and the precision doubles until both ends of the
    enclosure give the same cutoffs. When a window beyond the gate's bit
    length test has a threshold certainly below its expected count, no
    enclosure can give empty cutoffs, so the gate refuses it before any
    threshold is evaluated.
    """
    if length > budget.bit_length() and _threshold_certainly_below(
        scale_length, schedule.delta, exponent, length, depth
    ):
        sweep_cost(base, length, budget)
    expected = Fraction(length, 1 << depth)
    for _ in range(_REFINEMENT_ROUNDS + 1):
        threshold = _tilted_threshold(
            scale_length, base, schedule.delta, exponent, precision
        )
        c_lo, c_hi = count_cutoffs(expected, threshold.lo)
        if c_lo < 0 and c_hi > length:
            return threshold, None
        # the low end already needs the region: refuse a window beyond the
        # budget first, which also bounds the depth of the region walk
        sweep_cost(base, length, budget)
        if (c_lo, c_hi) == count_cutoffs(expected, threshold.hi):
            return threshold, (c_lo, c_hi)
        precision *= 2
    raise StraddleError(
        "threshold enclosure around %.17g still straddles a count cutoff of the "
        "%d-point window after %d refinement rounds"
        % (threshold.midpoint(), length, _REFINEMENT_ROUNDS)
    )


def _bad_set(
    label: str,
    window: Window,
    band: Band,
    scale_length: int,
    exponent: Fraction,
    schedule: Schedule,
    precision: int,
    budget: int,
) -> SetEnclosure:
    """Where the window's deviation for the band reaches 2**exponent times
    the threshold scale of `scale_length`: `_decide_cutoffs`, then the
    region of those cutoffs for the band's cell (`cutoff_region`).

    An offset window's set is the preimage of the core's under
    x -> frac(base**offset * x); a set empty by its cutoffs stays the plain
    empty set.
    """
    base, length = window.base, window.length
    threshold, cutoffs = _decide_cutoffs(
        base, length, band.k, scale_length, exponent, schedule, precision, budget
    )
    region: RegionLike = IntervalSet.empty()
    if cutoffs is not None:
        region = cutoff_region(base, length, 2**band.k, band.a, *cutoffs, budget)
        if window.offset:
            region = PeriodicIntervalSet(region, base, window.offset)
    return SetEnclosure(label, window, band, threshold, region)


def block_bad_set(
    base: int,
    n: int,
    a: int,
    h: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> SetEnclosure:
    """Bad set over the leading window of length 2**n for one dyadic band.

    Membership means the windowed deviation for the band reaches the
    tilted threshold.
    """
    _check_size_index(n)
    length = 1 << n
    limit = depth_limit(length)
    if not 1 <= h <= limit:
        raise ValueError("band scale h must lie in [1, %d]" % limit)
    if not 0 <= a < 2**h:
        raise ValueError("band index out of range")
    return _bad_set(
        "block b=%d n=%d h=%d a=%d" % (base, n, h, a),
        Window(base, 0, length),
        Band(a, _band_depth(h, limit)),
        length,
        Fraction(-h, 8),
        schedule,
        precision,
        budget,
    )


def tail_bad_set(
    base: int,
    n: int,
    a: int,
    h: int,
    l: int,
    m: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> SetEnclosure:
    """Bad set over a short window offset past the leading block.

    The window starts at 2**n + m * 2**l and has length 2**(l-1); its
    threshold carries an extra tilt that shrinks with the window. The
    computed region is periodic with period base**-offset, and is kept in
    that implicit form (a set empty by its cutoffs stays the plain empty
    set).
    """
    _check_size_index(n)
    if not (n + 1) // 2 <= l <= n:
        raise ValueError("window scale l must lie in [%d, %d]" % ((n + 1) // 2, n))
    if not 1 <= m <= 1 << (n - l):
        raise ValueError("window slot m must lie in [1, %d]" % (1 << (n - l)))
    length = 1 << (l - 1)
    limit = depth_limit(length)
    if not 1 <= h <= limit:
        raise ValueError(
            "band scale h must lie in [1, %d] for window length %d" % (limit, length)
        )
    if not 0 <= a < 2**h:
        raise ValueError("band index out of range")
    return _bad_set(
        "tail b=%d n=%d h=%d a=%d l=%d m=%d" % (base, n, h, a, l, m),
        Window(base, (1 << n) + (m << l), length),
        Band(a, _band_depth(h, limit)),
        1 << n,
        Fraction(-h, 8) + Fraction(l - n - 3, 6),
        schedule,
        precision,
        budget,
    )


class FamilyComponent(Record):
    """A merged, independently measurable piece of a bad-set family."""

    __slots__ = ("label", "kind", "region", "members", "_measure")

    def __init__(self, label: str, kind: str, region: RegionLike, members: int = 0):
        # members: nonempty bad sets merged into the region
        self._fill(label, kind, region, members, None)

    @property
    def measure(self) -> Fraction:
        """Exact measure of the region, summed once per component."""
        if self._measure is None:
            object.__setattr__(self, "_measure", self.region.measure())
        return self._measure


def _window_cores(
    base: int,
    length: int,
    scale_length: int,
    tilt: Fraction,
    schedule: Schedule,
    precision: int,
    budget: int,
):
    """Core region of every nonempty bad set of one window, for band
    scales h = 1, 2, ... and band indices a = 0, 1, ... in turn, as the
    union of `block_bad_set` or `tail_bad_set` over (h, a) would build them.

    Scale h has exponent tilt - h / 8, and its cutoffs are decided once.
    A region is walked once per (band, cutoffs): the complement
    x -> 1 - x maps the hit count of band a onto that of band
    2**depth - 1 - a, so the mirror band's region is the reflection, and
    the top scale, which shares its depth with the one below, repeats
    the lower half of its bands whenever their cutoffs agree.
    """
    limit = depth_limit(length)
    regions: dict[tuple, IntervalSet] = {}
    for h in range(1, limit + 1):
        depth = _band_depth(h, limit)
        _, cutoffs = _decide_cutoffs(
            base, length, depth, scale_length, Fraction(-h, 8) + tilt,
            schedule, precision, budget,
        )
        if cutoffs is None:
            continue
        for a in range(2**h):
            key = (a, depth, cutoffs)
            region = regions.get(key)
            if region is None:
                mirror = regions.get((2**depth - 1 - a, depth, cutoffs))
                if mirror is not None:
                    region = mirror.reflected()
                else:
                    region = cutoff_region(
                        base, length, 2**depth, a, *cutoffs, budget
                    )
                regions[key] = region
            if not region.is_empty():
                yield region


def block_bad_union(
    base: int,
    n: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> Optional[FamilyComponent]:
    """Exact union of all block bad sets for one base and size index.

    The same sets as `block_bad_set` over every (h, a), each scale's
    cutoffs decided once and each region walked once (`_window_cores`).
    """
    _check_size_index(n)
    region = IntervalSet.empty()
    members = 0
    length = 1 << n
    for core in _window_cores(base, length, length, ZERO, schedule, precision, budget):
        members += 1
        region = region.union(core)
    if not members:
        return None
    return FamilyComponent("block b=%d n=%d" % (base, n), "block", region, members)


def tail_bad_union(
    base: int,
    n: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> list[FamilyComponent]:
    """Tail bad sets for one base and size index, merged per window offset.

    The same sets as `tail_bad_set` over every (l, h, a, m). The core
    region does not depend on the slot m, so each window scale's cores are
    built once (`_window_cores`). Pieces sharing an offset are preimages at
    the same level, so their cores union exactly; distinct offsets stay
    separate components.
    """
    _check_size_index(n)
    by_offset: dict[int, tuple[IntervalSet, int]] = {}
    for l in range((n + 1) // 2, n + 1):
        tilt = Fraction(l - n - 3, 6)
        for core in _window_cores(
            base, 1 << (l - 1), 1 << n, tilt, schedule, precision, budget
        ):
            for m in range(1, (1 << (n - l)) + 1):
                offset = (1 << n) + (m << l)
                merged, members = by_offset.get(offset, (IntervalSet.empty(), 0))
                by_offset[offset] = (merged.union(core), members + 1)
    return [
        FamilyComponent(
            "tail b=%d n=%d offset=%d" % (base, n, offset),
            "tail",
            PeriodicIntervalSet(core, base, offset),
            members,
        )
        for offset, (core, members) in sorted(by_offset.items())
    ]


class BadFamily(Record):
    """All bad-set components up to a size index, plus the fixed obstacle.

    Measure-style queries return subadditive outer bounds (the exact sum
    of exact per-component values), which is the side the construction
    needs; the inner figure is the largest single component, a certified
    lower bound on the union's true measure.
    """

    __slots__ = ("index", "schedule", "components")

    def __init__(
        self, index: int, schedule: Schedule, components: tuple[FamilyComponent, ...]
    ):
        self._fill(index, schedule, components)

    def component_count(self) -> int:
        return len(self.components)

    def outer_measure_bound(self) -> Fraction:
        return sum((comp.measure for comp in self.components), ZERO)

    def inner_measure_bound(self) -> Fraction:
        return max((comp.measure for comp in self.components), default=ZERO)

    def overlaps(self, lo: RationalLike, hi: RationalLike) -> tuple[Fraction, ...]:
        """Exact measure of each component's region inside [lo, hi)."""
        return tuple(comp.region.intersect_measure(lo, hi) for comp in self.components)

    def outer_intersect_bound(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        return sum(self.overlaps(lo, hi), ZERO)

    def contains(self, x: RationalLike) -> bool:
        """Membership in the region of some component."""
        return any(comp.region.contains(x) for comp in self.components)


def bad_family(
    index: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> BadFamily:
    """Assemble every contributing component at the given size index."""
    if index < 1:
        raise ValueError("size index must be positive")
    components: list[FamilyComponent] = []
    obstacle = schedule.obstacle_set()
    if obstacle is not None and not obstacle.is_empty():
        components.append(FamilyComponent("obstacle", "obstacle", obstacle))
    for base in schedule.bases_for(index):
        for n in schedule.indices_for(base, index):
            block = block_bad_union(base, n, schedule, precision, budget)
            if block is not None:
                components.append(block)
            components.extend(tail_bad_union(base, n, schedule, precision, budget))
    return BadFamily(index, schedule, tuple(components))


def square_sum_tail(start: int, stop: Optional[int] = None) -> Fraction:
    """Sum of k**-2 for k from start to stop; certified bound when infinite.

    The infinite tail is bounded by 1/(start-1), which strictly dominates
    it; finite ranges are summed exactly, up to MAX_TAIL_TERMS terms.
    """
    if stop is None:
        if start < 2:
            raise ValueError("infinite tail bound needs start >= 2")
        return Fraction(1, start - 1)
    if stop - start >= MAX_TAIL_TERMS:
        raise BudgetError(
            "exact tail sum from index %d needs more than %d terms"
            % (start, MAX_TAIL_TERMS)
        )
    total = ZERO
    for k in range(start, stop + 1):
        total += Fraction(1, k * k)
    return total


def tail_mass_bound(index: int, schedule: Schedule) -> Fraction:
    """Certified upper bound on the mass not materialized at a size index.

    Exact (often zero) for capped schedules; for the uncapped rule the
    per-base start indices make each base's tail at most eta / 2**base,
    so the bases beyond the size limit contribute at most eta * 2**-limit.
    """
    limit = schedule.base_limit(index)
    top = limit if schedule.base_cap is None else schedule.base_cap
    total = ZERO
    for base in range(2, top + 1):
        start = schedule.start_index(base)
        if base <= limit:
            start = max(index + 1, start)
        stop = schedule.index_cap
        if stop is not None and start > stop:
            continue
        total += square_sum_tail(start, stop)
    if schedule.base_cap is None:
        total += schedule.eta * Fraction(1, 2**limit)
    return total


def badic_deviation_bound(
    base: int, m: int, length: int, eps: RationalLike, precision: int = 64
) -> Enclosure:
    """Closed-form measure bound for one base-b**-m band deviation event.

    Bounds the measure of {x : deviation > eps * length} for any band of
    depth m in base `base` and any window of the given length. Requires
    6 / floor(length / m) <= eps <= base**-m.
    """
    if base < 2 or m < 1:
        raise ValueError("base must be >= 2 and band depth >= 1")
    if length < m:
        raise DomainError("window length below band depth: floor(length/m) = 0")
    eps = as_fraction(eps)
    blocks = length // m
    lo_req = Fraction(6, blocks)
    hi_req = Fraction(1, base**m)
    if eps < lo_req:
        raise DomainError(
            "eps violates 6/floor(length/m) <= eps: %s < %s"
            % (format_fraction(eps), format_fraction(lo_req))
        )
    if eps > hi_req:
        raise DomainError(
            "eps violates eps <= base**-m: %s > %s"
            % (format_fraction(eps), format_fraction(hi_req))
        )
    coefficient = 2 * base ** (2 * m - 2) * m
    exponent = -(eps * eps) * length * base**m / (6 * m)
    return eval_iv_tight(
        precision, lambda: coefficient * iv_fraction(exponent).exp()
    )


def dyadic_deviation_bound(
    base: int, k: int, length: int, eps: RationalLike, precision: int = 64
) -> Enclosure:
    """Closed-form measure bound for one dyadic band deviation event.

    Bounds the measure of {x : deviation >= eps * length} for any dyadic
    band of depth k, orbits in base `base`, any window of the given
    length, any positive eps.  Covering a depth-k dyadic band with
    base-`base` cells of total width about 2**(k+2) makes the exponent
    uniform in the orbit base; only the validity check uses `base`.
    """
    if base < 2 or k < 0 or length < 1:
        raise ValueError("need base >= 2, k >= 0, length >= 1")
    eps = as_fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    coefficient = 9 * 2 ** (2 * (k + 2)) * (k + 2)
    exponent = -(eps * eps) * length * 2 ** (k + 2) / (6 * (k + 2))
    return eval_iv_tight(
        precision, lambda: coefficient * iv_fraction(exponent).exp()
    )


def band_depth_triangle_check(
    x: RationalLike,
    base: int,
    length: int,
    target_lo: RationalLike,
    target_hi: RationalLike,
    depth: int,
) -> dict:
    """Exact check that an arbitrary interval's deviation is controlled by
    the dyadic band maxima up to a chosen depth, plus a 2**(1-depth) slack.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    window = Window(base, 0, length)
    lhs = f_value(x, window, (target_lo, target_hi))
    slack = Fraction(2 * length, 2**depth)
    per_depth = []
    rhs = slack
    for m in range(1, depth + 1):
        worst = max(f_value(x, window, Band(a, m)) for a in range(2**m))
        per_depth.append(worst)
        rhs += worst
    return {
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "per_depth": per_depth,
        "holds": lhs <= rhs,
    }


def window_cover_check(x: RationalLike, base: int, length: int, a: int, h: int) -> dict:
    """Search for window slots splitting a full-range deviation bound.

    For length in [2**n, 2**(n+1)), tries every choice of slots for the
    short windows past the leading block and reports one that bounds the
    full-window deviation by the blockwise sum plus length**(1/3); the
    cube-root slack is decided exactly by comparing diff**3 with length.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    n = length.bit_length() - 1
    band = Band(a, h)
    window = Window(base, 0, length)
    lhs = f_value(x, window, band)
    base_term = f_value(x, Window(base, 0, 2**n), band)
    scales = list(range((n + 1) // 2, n + 1))
    best = None
    for combo in product(*(range(2 ** (n - l)) for l in scales)):
        total = base_term
        for l, m in zip(scales, combo):
            total += f_value(x, Window(base, 2**n + m * 2**l, 2 ** (l - 1)), band)
        diff = lhs - total
        ok = diff <= 0 or diff**3 <= length
        if best is None or diff < best[0]:
            best = (diff, dict(zip(scales, combo)))
        if ok:
            return {
                "holds": True,
                "lhs": lhs,
                "blockwise": total,
                "slots": dict(zip(scales, combo)),
                "excess": max(diff, ZERO),
            }
    return {
        "holds": False,
        "lhs": lhs,
        "blockwise": lhs - best[0],
        "slots": best[1],
        "excess": best[0],
    }


def summed_mass_tail_check(start_index: int, delta: RationalLike, eta: RationalLike) -> dict:
    """Certified rational bound on the summed family mass from start_index on.

    Implemented for the flagship tilt delta = 1/2 only, where the per-index
    masses are at most index**-3 + 2 * index**-5/2 and integral comparison
    gives a rational tail bound.
    """
    delta = as_fraction(delta)
    eta = as_fraction(eta)
    if delta != Fraction(1, 2):
        raise DomainError("mass tail bound implemented only for delta = 1/2")
    if start_index < 2:
        raise ValueError("start index must be at least 2")
    base = start_index - 1
    cubic_tail = Fraction(1, 2 * base * base)
    root = isqrt(base)
    sqrt_tail = Fraction(4, 3) / (base * root)
    bound = cubic_tail + sqrt_tail
    return {
        "start_index": start_index,
        "cubic_tail": cubic_tail,
        "sqrt_tail": sqrt_tail,
        "bound": bound,
        "eta": eta,
        "holds": bound < eta,
    }
