"""Schedules: the tuning knobs of the avoidance construction, and presets.

A schedule fixes the threshold tilt, the mass budget, where each base's
set sequence starts, and optional finite caps that keep desk-scale runs
exact end to end. Its fields are checked where it is built, so a schedule
read from a `--config` file or a certificate is refused as early as one
given in code. The module imports only `measure`: the command line builds
its parser and loads a schedule without loading the bad-set layers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .measure import (
    ONE,
    ZERO,
    IntervalSet,
    RationalLike,
    Record,
    as_fraction,
    format_fraction,
    parse_fraction,
)


# Least integer exceeding exp(12 / ln 2); start indices never sit below it.
HARD_START_FLOOR = 33010640

# Largest base_cap a schedule may set. Every base up to base_cap adds an
# exact tail term with a 2**base-sized denominator to every step's residual
# bound, so an unbounded cap means unbounded work; base 3 is already past
# any feasible sweep.
MAX_BASE_CAP = 64

# Largest lcm of the obstacle's endpoint denominators, the bound a
# `discrepancy --x` denominator has too. The obstacle's region lives on
# that one integer grid, so an unbounded lcm means unbounded work.
MAX_OBSTACLE_DENOMINATOR = 1 << 4096


class Schedule(Record):
    """Tuning parameters for the bad-set family and the digit construction.

    delta tilts the deviation thresholds, eta is the total mass budget.
    z_table overrides the per-base start index (requires base_cap, since
    the derived rule is what certifies the per-base tail law). p_const
    freezes the family size index per digit step; base_cap and index_cap
    bound the universe of bases and size indices so that residual tails
    are finite sums; obstacle adds a fixed interval-set component.
    """

    __slots__ = (
        "tag", "delta", "eta", "z_table", "p_const", "base_cap", "index_cap", "obstacle",
    )

    def __init__(
        self,
        tag: str,
        delta: RationalLike,
        eta: RationalLike,
        z_table: Optional[Mapping] = None,
        p_const: Optional[int] = None,
        base_cap: Optional[int] = None,
        index_cap: Optional[int] = None,
        obstacle: Optional[tuple] = None,
    ):
        for key, value in (
            ("p_const", p_const), ("base_cap", base_cap), ("index_cap", index_cap)
        ):
            if value is not None and type(value) is not int:
                raise ValueError("schedule field %r must be an integer or null" % key)
        delta = as_fraction(delta)
        eta = as_fraction(eta)
        if not (0 < eta < 1):
            raise ValueError("eta must lie strictly between 0 and 1")
        if 1 + 2 * delta <= 0:
            raise ValueError("delta must keep 1 + 2*delta positive")
        if base_cap is not None and not 2 <= base_cap <= MAX_BASE_CAP:
            raise ValueError("base_cap must lie in [2, %d]" % MAX_BASE_CAP)
        if z_table is not None:
            z_table = dict(z_table)
            if any(type(b) is not int or type(z) is not int for b, z in z_table.items()):
                raise ValueError("schedule field 'z_table' must map bases to integers")
            z_table = tuple(sorted(z_table.items()))
            if base_cap is None:
                raise ValueError("an explicit start table requires base_cap")
            for b, z in z_table:
                if b < 2:
                    raise ValueError("start table bases must be at least 2")
                if z < 4:
                    raise ValueError(
                        "start table entries must be at least 4, the smallest "
                        "size index with a bad set"
                    )
            bases = {b for b, _ in z_table}
            for b in range(2, base_cap + 1):
                if b not in bases:
                    raise ValueError(
                        "start table has no entry for base %d of base_cap %d"
                        % (b, base_cap)
                    )
        if p_const is not None and p_const < 1:
            raise ValueError("p_const must be positive")
        if index_cap is not None and index_cap < 1:
            raise ValueError("index_cap must be positive")
        if obstacle is not None:
            obstacle = tuple((as_fraction(lo), as_fraction(hi)) for lo, hi in obstacle)
            denom = 1
            for lo, hi in obstacle:
                if not (ZERO <= lo < hi <= ONE):
                    raise ValueError("obstacle intervals must sit inside [0, 1]")
                denom = lcm(denom, lo.denominator, hi.denominator)
                if denom > MAX_OBSTACLE_DENOMINATOR:
                    raise ValueError("obstacle denominators have an lcm above 2**4096")
        self._fill(tag, delta, eta, z_table, p_const, base_cap, index_cap, obstacle)

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
        z_table = data.get("z_table")
        try:
            return cls(
                tag=str(data["tag"]),
                delta=parse_fraction(data["delta"]),
                eta=parse_fraction(data["eta"]),
                z_table=(
                    None if z_table is None else {int(b): z for b, z in z_table.items()}
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
        import hashlib

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
