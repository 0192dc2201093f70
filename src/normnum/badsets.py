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
from typing import Callable, Iterable, Optional

from .enclose import Enclosure, eval_iv_tight, iv_fraction
from .measure import (
    ZERO,
    BudgetError,
    DomainError,
    IntervalSet,
    PeriodicIntervalSet,
    RationalLike,
    Record,
    RegionLike,
)
from .orbit import (
    Band,
    Window,
    count_cutoffs,
    cutoff_region,
    sweep_cost,
)
from .schedule import Schedule


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
# schedule still runs into the sweep gate first.
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
) -> tuple[Enclosure, Optional[tuple[int, int]]]:
    """First step of a bad set: the threshold 2**exponent times the scale of
    `scale_length`, and the count cutoffs it gives every band of the depth
    over a window of the length, or None when those sets are empty.

    Hit counts are integers, so the sets are decided by the threshold's
    count cutoffs, which do not depend on the band index. They are empty
    once the low end's cutoffs lie outside the window, since higher
    thresholds only widen them; otherwise the window must pass the
    `sweep_cost` gate, and the precision doubles until both ends of the
    enclosure give the same cutoffs. When a window's threshold is certainly
    below its expected count, no enclosure can give empty cutoffs, so the
    gate checks it before any threshold is evaluated.
    """
    if _threshold_certainly_below(
        scale_length, schedule.delta, exponent, length, depth
    ):
        sweep_cost(base, length)
    # depth <= log2(length): an exact shift, where a Fraction takes a huge gcd
    expected = length >> depth
    for _ in range(_REFINEMENT_ROUNDS + 1):
        threshold = _tilted_threshold(
            scale_length, base, schedule.delta, exponent, precision
        )
        c_lo, c_hi = count_cutoffs(expected, threshold.lo)
        if c_lo < 0 and c_hi > length:
            return threshold, None
        # the low end already needs the region: refuse a window beyond the
        # event bound first, which also bounds the depth of the region walk
        sweep_cost(base, length)
        if (c_lo, c_hi) == count_cutoffs(expected, threshold.hi):
            return threshold, (c_lo, c_hi)
        precision *= 2
    raise StraddleError(
        "threshold enclosure around %.17g still straddles a count cutoff of the "
        "%d-point window after %d refinement rounds"
        % (threshold.midpoint(), length, _REFINEMENT_ROUNDS)
    )


def _scales(n: int) -> range:
    """Window scales l of the short windows at size index n."""
    return range((n + 1) // 2, n + 1)


def _short_windows(n: int, l: int) -> tuple[int, Fraction, range, Callable[[int], int]]:
    """The short windows of scale l at size index n: their length 2**(l-1),
    their threshold's tilt (l - n - 3) / 6, their slots m = 1, ..., 2**(n-l),
    and the offset 2**n + m * 2**l of slot m. The slots are a step-1 range,
    since a range of the offsets divides 2**n by 2**l when built, which
    takes hours near MAX_SIZE_INDEX."""
    slots = range(1, (1 << (n - l)) + 1)
    return 1 << (l - 1), Fraction(l - n - 3, 6), slots, lambda m: (1 << n) + (m << l)


def _decide_scale(
    base: int, scale_length: int, length: int, tilt: Fraction, h: int, schedule: Schedule,
    precision: int,
) -> tuple[int, Enclosure, Optional[tuple[int, int]]]:
    """Band depth, threshold and count cutoffs of band scale h over a
    window of the length whose threshold carries the tilt: `_decide_cutoffs`
    for the exponent tilt - h / 8 on the threshold scale of `scale_length`."""
    depth = _band_depth(h, depth_limit(length))
    threshold, cutoffs = _decide_cutoffs(
        base, length, depth, scale_length, tilt - Fraction(h, 8), schedule, precision
    )
    return depth, threshold, cutoffs


def _bad_set(
    label: str, base: int, scale_length: int, offset: int, length: int,
    tilt: Fraction, h: int, a: int, schedule: Schedule, precision: int,
) -> SetEnclosure:
    """Where the window's deviation for band (h, a) reaches its tilted
    threshold: `_decide_scale`, then the region of those cutoffs for the
    band's cell (`cutoff_region`). An offset window's set is the preimage
    of the core's under x -> frac(base**offset * x); a set empty by its
    cutoffs stays the plain empty set.
    """
    limit = depth_limit(length)
    if not 1 <= h <= limit:
        raise ValueError(
            "band scale h must lie in [1, %d] for window length %d" % (limit, length)
        )
    if a < 0 or a.bit_length() > h:
        raise ValueError("band index out of range")
    depth, threshold, cutoffs = _decide_scale(
        base, scale_length, length, tilt, h, schedule, precision
    )
    region: RegionLike = IntervalSet.empty()
    if cutoffs is not None:
        region = cutoff_region(base, length, 2**depth, a, *cutoffs)
        if offset:
            region = PeriodicIntervalSet(region, base, offset)
    window = Window(base, offset, length)
    return SetEnclosure(label, window, Band(a, depth), threshold, region)


def block_bad_set(
    base: int,
    n: int,
    a: int,
    h: int,
    schedule: Schedule,
    precision: int = 64,
) -> SetEnclosure:
    """Bad set over the leading window of length 2**n for one dyadic band.

    Membership means the windowed deviation for the band reaches the
    tilted threshold.
    """
    _check_size_index(n)
    length = 1 << n
    label = "block b=%d n=%d h=%d a=%d" % (base, n, h, a)
    return _bad_set(label, base, length, 0, length, ZERO, h, a, schedule, precision)


def tail_bad_set(
    base: int,
    n: int,
    a: int,
    h: int,
    l: int,
    m: int,
    schedule: Schedule,
    precision: int = 64,
) -> SetEnclosure:
    """Bad set over the short window of scale l and slot m (`_short_windows`).

    The window lies past the leading block, and its threshold carries an
    extra tilt that shrinks with the window. A nonempty region is periodic
    with period base**-offset, and is kept in that implicit form.
    """
    _check_size_index(n)
    scales = _scales(n)
    if l not in scales:
        raise ValueError("window scale l must lie in [%d, %d]" % (scales[0], scales[-1]))
    length, tilt, slots, offset = _short_windows(n, l)
    if m not in slots:
        raise ValueError("window slot m must lie in [1, %d]" % slots[-1])
    label = "tail b=%d n=%d h=%d a=%d l=%d m=%d" % (base, n, h, a, l, m)
    return _bad_set(label, base, 1 << n, offset(m), length, tilt, h, a, schedule, precision)


class FamilyComponent(Record):
    """A merged, independently measurable piece of a bad-set family."""

    __slots__ = ("label", "kind", "region", "members")

    def __init__(self, label: str, kind: str, region: RegionLike, members: int = 0):
        # members: nonempty bad sets merged into the region
        self._fill(label, kind, region, members)

    @property
    def measure(self) -> Fraction:
        """Exact measure of the region."""
        return self.region.measure()


def _merge_cores(
    base: int, scale_length: int, windows: Iterable[tuple], schedule: Schedule,
    precision: int,
) -> dict[int, tuple[IntervalSet, int]]:
    """Union of the core regions of the nonempty bad sets of the windows,
    (length, tilt, slots, offset of a slot) rows, and their count, per
    window offset.

    The sets are the single-set builders' for band scales h = 1, 2, ...
    and indices a = 0, 1, ... in turn. A core does not depend on the
    offset, so each scale is decided once (`_decide_scale`), and a region
    is walked once per (band, cutoffs): x -> 1 - x maps the hit count of
    band a onto that of band 2**depth - 1 - a, so a mirror band's region
    is the reflection, and the top scale, which shares its depth with the
    one below, repeats the lower half of its bands when their cutoffs
    agree. Pieces sharing an offset union exactly, as preimages at one
    level."""
    by_offset: dict[int, tuple[IntervalSet, int]] = {}
    for length, tilt, slots, offset in windows:
        regions: dict[tuple, IntervalSet] = {}
        for h in range(1, depth_limit(length) + 1):
            depth, _, cutoffs = _decide_scale(
                base, scale_length, length, tilt, h, schedule, precision
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
                        region = cutoff_region(base, length, 2**depth, a, *cutoffs)
                    regions[key] = region
                if region.is_empty():
                    continue
                for start in map(offset, slots):
                    merged, members = by_offset.get(start, (IntervalSet.empty(), 0))
                    by_offset[start] = (merged.union(region), members + 1)
    return by_offset


def block_bad_union(
    base: int,
    n: int,
    schedule: Schedule,
    precision: int = 64,
) -> Optional[FamilyComponent]:
    """Exact union of all block bad sets for one base and size index: the
    block window, of length 2**n, tilt 0 and offset 0 (`_merge_cores`)."""
    _check_size_index(n)
    length = 1 << n
    block = (length, ZERO, [0], lambda m: 0)
    merged = _merge_cores(base, length, [block], schedule, precision)
    if not merged:
        return None
    region, members = merged[0]
    return FamilyComponent("block b=%d n=%d" % (base, n), "block", region, members)


def tail_bad_union(
    base: int,
    n: int,
    schedule: Schedule,
    precision: int = 64,
) -> list[FamilyComponent]:
    """Tail bad sets for one base and size index, merged per window offset
    over every short window (`_merge_cores`); distinct offsets stay
    separate components, in offset order."""
    _check_size_index(n)
    windows = (_short_windows(n, l) for l in _scales(n))
    merged = _merge_cores(base, 1 << n, windows, schedule, precision)
    return [
        FamilyComponent(
            "tail b=%d n=%d offset=%d" % (base, n, offset),
            "tail",
            PeriodicIntervalSet(core, base, offset),
            members,
        )
        for offset, (core, members) in sorted(merged.items())
    ]


class BadFamily(Record):
    """All bad-set components up to a size index, plus the fixed obstacle.

    Measure-style queries return subadditive outer bounds (the exact sum
    of exact per-component values), which is the side the construction
    needs; the inner figure is the largest single component, a certified
    lower bound on the union's true measure.
    """

    __slots__ = ("components",)

    def __init__(self, components: tuple[FamilyComponent, ...]):
        self._fill(components)

    def outer_measure_bound(self) -> Fraction:
        return sum((comp.measure for comp in self.components), ZERO)

    def inner_measure_bound(self) -> Fraction:
        return max((comp.measure for comp in self.components), default=ZERO)

    def overlaps(self, lo: RationalLike, hi: RationalLike) -> tuple[Fraction, ...]:
        """Exact measure of each component's region inside [lo, hi)."""
        return tuple(comp.region.intersect_measure(lo, hi) for comp in self.components)

    def outer_intersect_bound(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        return sum(self.overlaps(lo, hi), ZERO)


def bad_family(
    index: int,
    schedule: Schedule,
    precision: int = 64,
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
            block = block_bad_union(base, n, schedule, precision)
            if block is not None:
                components.append(block)
            components.extend(tail_bad_union(base, n, schedule, precision))
    return BadFamily(tuple(components))


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
