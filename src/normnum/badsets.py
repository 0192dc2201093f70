"""Threshold-indexed bad sets, their families, and certified mass bounds.

A schedule fixes the tuning knobs of the avoidance construction: the
threshold tilt, the mass budget, where each base's set sequence starts,
and optional finite caps that keep desk-scale runs exact end to end. From
a schedule the module builds, for any base and size index:

* block bad sets, indexed by a dyadic band, over the full leading window;
* tail bad sets, over short windows offset past the leading block;
* the merged family of all of them up to a size index, with one exact
  region per component and a certified residual mass bound.

Hit counts are integers, so each bad set is decided by the integer count
cutoffs of its threshold. The threshold enclosure is refined until both of
its ends give the same cutoffs; the region is then swept exactly, a true
rational interval set rather than a floating approximation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import isqrt
from typing import Mapping, Optional

from mpmath import iv

from .enclose import Enclosure, eval_iv_tight, iv_fraction
from .measure import (
    ONE,
    ZERO,
    IntervalSet,
    PeriodicIntervalSet,
    RationalLike,
    RegionLike,
    as_fraction,
    format_fraction,
    parse_fraction,
)
from .orbit import (
    DEFAULT_EVENT_BUDGET,
    Band,
    Window,
    count_cutoffs,
    deviation_region,
    f_value,
    sweep_cost,
)


class DomainError(ValueError):
    """A closed-form bound was queried outside its hypotheses."""


class StraddleError(RuntimeError):
    """A threshold enclosure straddles a count cutoff at every precision tried."""


# Precision doublings allowed before a threshold's cutoffs count as undecided.
_REFINEMENT_ROUNDS = 8


# Least integer exceeding exp(12 / ln 2); start indices never sit below it.
HARD_START_FLOOR = 33010640


def depth_limit(length: int) -> int:
    """Largest band depth tracked for a window of the given length."""
    if length < 1:
        raise ValueError("window length must be positive")
    return (length.bit_length() - 1) // 2 + 1


@dataclass(frozen=True)
class Schedule:
    """Tuning parameters for the bad-set family and the digit construction.

    delta tilts the deviation thresholds, eta is the total mass budget.
    z_table overrides the per-base start index (requires base_cap, since
    the derived rule is what certifies the per-base tail law). p_const
    freezes the family size index per digit step; base_cap and index_cap
    bound the universe of bases and size indices so that residual tails
    are finite sums; obstacle adds a fixed interval-set component.
    """

    tag: str
    delta: Fraction
    eta: Fraction
    z_table: Optional[tuple] = None
    p_const: Optional[int] = None
    base_cap: Optional[int] = None
    index_cap: Optional[int] = None
    obstacle: Optional[tuple] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", as_fraction(self.delta))
        object.__setattr__(self, "eta", as_fraction(self.eta))
        if not (0 < self.eta < 1):
            raise ValueError("eta must lie strictly between 0 and 1")
        if 1 + 2 * self.delta <= 0:
            raise ValueError("delta must keep 1 + 2*delta positive")
        if self.z_table is not None:
            table = tuple(sorted((int(b), int(z)) for b, z in dict(self.z_table).items()))
            for b, z in table:
                if b < 2 or z < 2:
                    raise ValueError("start table entries must be at least 2")
            object.__setattr__(self, "z_table", table)
            if self.base_cap is None:
                raise ValueError("an explicit start table requires base_cap")
        if self.p_const is not None and self.p_const < 1:
            raise ValueError("p_const must be positive")
        if self.base_cap is not None and self.base_cap < 2:
            raise ValueError("base_cap must be at least 2")
        if self.index_cap is not None and self.index_cap < 1:
            raise ValueError("index_cap must be positive")
        if self.obstacle is not None:
            pairs = tuple(
                (as_fraction(lo), as_fraction(hi)) for lo, hi in self.obstacle
            )
            for lo, hi in pairs:
                if not (ZERO <= lo < hi <= ONE):
                    raise ValueError("obstacle intervals must sit inside [0, 1]")
            object.__setattr__(self, "obstacle", pairs)

    def start_index(self, base: int) -> int:
        """First size index at which the given base contributes sets."""
        if base < 2:
            raise ValueError("base must be at least 2")
        if self.z_table is not None:
            for b, z in self.z_table:
                if b == base:
                    return z
            raise ValueError("no start index recorded for base %d" % base)
        # least z with the certified tail bound 1/(z-1) below eta/2**base,
        # never below the hard floor
        q = Fraction(2**base, 1) / self.eta
        return max(HARD_START_FLOOR, q.numerator // q.denominator + 2)

    def family_index(self, step: int) -> int:
        """Size index used by digit step `step` (1-based)."""
        if step < 0:
            raise ValueError("step must be non-negative")
        if self.p_const is not None:
            return self.p_const
        return 2 ** (2 * step + 2)

    def base_limit(self, index: int) -> int:
        """Largest base contributing at a size index, before base_cap."""
        if index < 1:
            raise ValueError("size index must be positive")
        return max(2, index.bit_length() - 1)

    def bases_for(self, index: int) -> range:
        hi = self.base_limit(index)
        if self.base_cap is not None:
            hi = min(hi, self.base_cap)
        return range(2, hi + 1)

    def indices_for(self, base: int, index: int) -> range:
        hi = index
        if self.index_cap is not None:
            hi = min(hi, self.index_cap)
        return range(self.start_index(base), hi + 1)

    def obstacle_set(self) -> Optional[IntervalSet]:
        if self.obstacle is None:
            return None
        return IntervalSet(self.obstacle)

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "delta": format_fraction(self.delta),
            "eta": format_fraction(self.eta),
            "z_table": (
                None
                if self.z_table is None
                else {str(b): z for b, z in self.z_table}
            ),
            "p_const": self.p_const,
            "base_cap": self.base_cap,
            "index_cap": self.index_cap,
            "obstacle": (
                None
                if self.obstacle is None
                else [[format_fraction(lo), format_fraction(hi)] for lo, hi in self.obstacle]
            ),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Schedule":
        """Parse a schedule object; any malformed field raises ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError("schedule must be a JSON object")
        for key in ("p_const", "base_cap", "index_cap"):
            value = data.get(key)
            if value is not None and type(value) is not int:
                raise ValueError("schedule field %r must be an integer or null" % key)
        try:
            return cls(
                tag=str(data["tag"]),
                delta=parse_fraction(data["delta"]),
                eta=parse_fraction(data["eta"]),
                z_table=(
                    None
                    if data.get("z_table") is None
                    else {int(b): int(z) for b, z in data["z_table"].items()}
                ),
                p_const=data.get("p_const"),
                base_cap=data.get("base_cap"),
                index_cap=data.get("index_cap"),
                obstacle=(
                    None
                    if data.get("obstacle") is None
                    else [(parse_fraction(lo), parse_fraction(hi)) for lo, hi in data["obstacle"]]
                ),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError("malformed schedule: %s %s" % (type(exc).__name__, exc)) from exc

    def digest(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def preset(name: str) -> Schedule:
    """Named schedules: the full-scale one and small exact-universe ones."""
    if name in _PRESETS:
        return _PRESETS[name]
    raise ValueError(
        "unknown preset %r (expected one of %s)" % (name, ", ".join(sorted(_PRESETS)))
    )


_TOY_COMMON = dict(
    z_table={2: 4},
    p_const=4,
    base_cap=2,
    index_cap=4,
)

_PRESETS = {
    "paper": Schedule("paper", Fraction(1, 2), Fraction(1, 8)),
    "toy-sparse": Schedule("toy-sparse", Fraction(-2, 5), Fraction(1, 8), **_TOY_COMMON),
    "toy-seeded": Schedule(
        "toy-seeded",
        Fraction(-2, 5),
        Fraction(1, 8),
        obstacle=((Fraction(0), Fraction(1, 2)),),
        **_TOY_COMMON,
    ),
    "toy-mixed": Schedule("toy-mixed", Fraction(-27, 64), Fraction(1, 16), **_TOY_COMMON),
}
_PRESETS["toy-small"] = _PRESETS["toy-sparse"]

PRESET_NAMES = tuple(sorted(_PRESETS))


def _scale_expr(length: int, base: int, delta: Fraction):
    n = iv.mpf(length)
    coef = (
        2
        * (1 + 2 * iv_fraction(delta))
        * (iv.mpf(1) / 2 + 2 / (iv.sqrt(iv.mpf(base)) - 1))
    )
    return coef * iv.sqrt(n * iv.log(iv.log(n)))


def threshold_scale(
    length: int, base: int, delta: RationalLike, precision: int = 64
) -> Enclosure:
    """Enclosure of the window-length threshold scale.

    Grows like the square root of length times its iterated logarithm;
    lengths below 16 are rejected so the inner logarithm stays safely
    positive.
    """
    if length < 16:
        raise DomainError("threshold scale needs window length >= 16")
    if base < 2:
        raise ValueError("base must be at least 2")
    delta = as_fraction(delta)
    if 1 + 2 * delta <= 0:
        raise DomainError("threshold scale needs 1 + 2*delta > 0")
    return eval_iv_tight(precision, lambda: _scale_expr(length, base, delta))


def _tilted_threshold(
    length: int, base: int, delta: Fraction, exponent: Fraction, precision: int
) -> Enclosure:
    """Enclosure of 2**exponent times the threshold scale, in one expression."""
    if length < 16:
        raise DomainError("threshold scale needs window length >= 16")
    return eval_iv_tight(
        precision,
        lambda: iv.exp(iv_fraction(exponent) * iv.log(iv.mpf(2)))
        * _scale_expr(length, base, delta),
    )


@dataclass(frozen=True)
class SetEnclosure:
    """One bad set: its threshold enclosure and its exact region."""

    label: str
    window: Window
    band: Band
    threshold: Enclosure
    region: RegionLike

    def is_empty(self) -> bool:
        return self.region.is_empty()


def _band_for(h: int, limit: int, a: int) -> Band:
    depth = h + 1 if h < limit else limit
    return Band(a, depth)


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
    the threshold scale of `scale_length`.

    Hit counts are integers, so the set is decided by the threshold's count
    cutoffs. It is empty once the low end's cutoffs lie outside the window,
    since higher thresholds only widen them; otherwise the precision
    doubles until both ends of the enclosure give the same cutoffs, and
    the region is swept at the low end.
    """
    core_window = Window(window.base, 0, window.length)
    expected = band.length * window.length
    for _ in range(_REFINEMENT_ROUNDS + 1):
        threshold = _tilted_threshold(
            scale_length, window.base, schedule.delta, exponent, precision
        )
        c_lo, c_hi = count_cutoffs(expected, threshold.lo)
        if c_lo < 0 and c_hi > window.length:
            return SetEnclosure(label, window, band, threshold, IntervalSet.empty())
        if (c_lo, c_hi) == count_cutoffs(expected, threshold.hi):
            region = deviation_region(core_window, band, threshold.lo, budget)
            if window.offset:
                region = PeriodicIntervalSet(region, window.base, window.offset)
            return SetEnclosure(label, window, band, threshold, region)
        # the low end already needs a sweep: refuse a window beyond the
        # budget before refining
        sweep_cost(core_window, budget)
        precision *= 2
    raise StraddleError(
        "threshold enclosure around %.17g still straddles a count cutoff of the "
        "%d-point window after %d refinement rounds"
        % (threshold.midpoint(), window.length, _REFINEMENT_ROUNDS)
    )


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
    if n < 4:
        raise ValueError("size index must be at least 4")
    length = 1 << n
    limit = depth_limit(length)
    if not 1 <= h <= limit:
        raise ValueError("band scale h must lie in [1, %d]" % limit)
    if not 0 <= a < 2**h:
        raise ValueError("band index out of range")
    return _bad_set(
        "block b=%d n=%d h=%d a=%d" % (base, n, h, a),
        Window(base, 0, length),
        _band_for(h, limit, a),
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
    that implicit form (an empty region stays the plain empty set).
    """
    if n < 4:
        raise ValueError("size index must be at least 4")
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
        _band_for(h, limit, a),
        1 << n,
        Fraction(-h, 8) + Fraction(l - n - 3, 6),
        schedule,
        precision,
        budget,
    )


@dataclass(frozen=True)
class FamilyComponent:
    """A merged, independently measurable piece of a bad-set family."""

    label: str
    kind: str
    region: RegionLike
    members: tuple = ()

    def is_empty(self) -> bool:
        return self.region.is_empty()

    @cached_property
    def measure(self) -> Fraction:
        """Exact measure of the region, summed once per component."""
        return self.region.measure()


def block_bad_union(
    base: int,
    n: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> Optional[FamilyComponent]:
    """Exact union of all block bad sets for one base and size index."""
    region = IntervalSet.empty()
    members = []
    limit = depth_limit(1 << n)
    for h in range(1, limit + 1):
        for a in range(2**h):
            piece = block_bad_set(base, n, a, h, schedule, precision, budget)
            if not piece.is_empty():
                members.append(piece.label)
                region = region.union(piece.region)
    if not members:
        return None
    return FamilyComponent("block b=%d n=%d" % (base, n), "block", region, tuple(members))


def tail_bad_union(
    base: int,
    n: int,
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> list[FamilyComponent]:
    """Tail bad sets for one base and size index, merged per window offset.

    Pieces sharing an offset are preimages at the same level, so their
    cores union exactly; distinct offsets stay separate components.
    """
    by_offset: dict[int, tuple[IntervalSet, list]] = {}
    for l in range((n + 1) // 2, n + 1):
        limit = depth_limit(1 << (l - 1))
        for h in range(1, limit + 1):
            for a in range(2**h):
                # the core region does not depend on the slot, sweep it once
                probe = tail_bad_set(base, n, a, h, l, 1, schedule, precision, budget)
                if probe.is_empty():
                    continue
                assert isinstance(probe.region, PeriodicIntervalSet)
                for m in range(1, (1 << (n - l)) + 1):
                    offset = (1 << n) + (m << l)
                    core, members = by_offset.get(offset, (IntervalSet.empty(), []))
                    by_offset[offset] = (
                        core.union(probe.region.core),
                        members + ["tail b=%d n=%d h=%d a=%d l=%d m=%d" % (base, n, h, a, l, m)],
                    )
    return [
        FamilyComponent(
            "tail b=%d n=%d offset=%d" % (base, n, offset),
            "tail",
            PeriodicIntervalSet(core, base, offset),
            tuple(members),
        )
        for offset, (core, members) in sorted(by_offset.items())
    ]


@dataclass(frozen=True)
class BadFamily:
    """All bad-set components up to a size index, plus the fixed obstacle.

    Measure-style queries return subadditive outer bounds (the exact sum
    of exact per-component values), which is the side the construction
    needs; the inner figure is the largest single component, a certified
    lower bound on the union's true measure.
    """

    index: int
    schedule: Schedule
    components: tuple[FamilyComponent, ...]

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
    it; finite ranges are summed exactly.
    """
    if stop is None:
        if start < 2:
            raise ValueError("infinite tail bound needs start >= 2")
        return Fraction(1, start - 1)
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
    total = ZERO
    in_cap = limit if schedule.base_cap is None else min(limit, schedule.base_cap)
    for base in range(2, in_cap + 1):
        start = max(index + 1, schedule.start_index(base))
        stop = schedule.index_cap
        if stop is not None and start > stop:
            continue
        total += square_sum_tail(start, stop)
    if schedule.base_cap is None:
        total += schedule.eta * Fraction(1, 2**limit)
    else:
        for base in range(in_cap + 1, schedule.base_cap + 1):
            start = schedule.start_index(base)
            stop = schedule.index_cap
            if stop is not None and start > stop:
                continue
            total += square_sum_tail(start, stop)
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
        precision, lambda: coefficient * iv.exp(iv_fraction(exponent))
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
        precision, lambda: coefficient * iv.exp(iv_fraction(exponent))
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
