"""The lemma audit behind `normnum lemma`: exact checks of the paper's bounds.

Aistleitner, Becher, Scheerer and Slaman (arXiv 1702.04072) build the
normal number from bounds that this module checks on desk-sized cases.
`HANDLERS` maps each `--which` name to a check that takes the parsed
arguments and returns its report rows and whether every row holds:

* badic, dyadic: the closed-form band deviation bounds against the exact
  worst cell measure of a grid (`orbit.deviation_measure`);
* depth: an interval's deviation against its dyadic band maxima plus slack;
* cover: window slots that split a full-window deviation;
* chain: the margin chain of the paper schedule's residual tails;
* masstail: the summed family mass from a start index against eta.

The checks read `orbit` and `mc` as modules when they run, and only the
chain check loads `badsets`, so a check runs no layer it does not use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

from . import mc, orbit
from .enclose import Enclosure, eval_iv_tight, iv_fraction
from .measure import ZERO, DomainError, RationalLike, as_fraction, format_fraction
from .schedule import Schedule, preset


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
    window = orbit.Window(base, 0, length)
    lhs = orbit.f_value(x, window, (target_lo, target_hi))
    rhs = Fraction(2 * length, 2**depth)
    for m in range(1, depth + 1):
        rhs += max(orbit.f_value(x, window, orbit.Band(a, m)) for a in range(2**m))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


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
    band = orbit.Band(a, h)
    window = orbit.Window(base, 0, length)
    lhs = orbit.f_value(x, window, band)
    base_term = orbit.f_value(x, orbit.Window(base, 0, 2**n), band)
    scales = list(range((n + 1) // 2, n + 1))
    best = None
    for combo in product(*(range(2 ** (n - l)) for l in scales)):
        total = base_term
        for l, m in zip(scales, combo):
            total += orbit.f_value(
                x, orbit.Window(base, 2**n + m * 2**l, 2 ** (l - 1)), band
            )
        diff = lhs - total
        ok = diff <= 0 or diff**3 <= length
        if best is None or diff < best[0]:
            best = (diff, dict(zip(scales, combo)))
        if ok:
            return {"holds": True, "slots": dict(zip(scales, combo))}
    return {"holds": False, "slots": best[1]}


def chain_margin_check(schedule: Schedule) -> dict:
    """Exact partial sums of the doubled residual tails of steps 1 to 20.

    Only meaningful for the uncapped derived schedule, whose residuals
    shrink fast enough; capped or tabled schedules are rejected.
    """
    from .badsets import tail_mass_bound

    if (
        schedule.z_table is not None
        or schedule.p_const is not None
        or schedule.base_cap is not None
        or schedule.index_cap is not None
    ):
        raise ValueError("margin chain assumes the derived, uncapped schedule")
    partial = ZERO
    partials = []
    for step in range(1, 21):
        residual = tail_mass_bound(schedule.family_index(step), schedule)
        partial += 2 ** (step - 1) * residual
        partials.append(partial)
    loose = Fraction(3, 4) + schedule.eta / 4
    return {
        "partials": partials,
        "total": partial,
        "loose_cap": loose,
        "holds_loose": partial < loose,
        "holds_seven_eighths": partial < Fraction(7, 8),
        "holds_with_eta": schedule.eta + partial < 1,
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
    bound = Fraction(1, 2 * base * base) + Fraction(4, 3) / (base * isqrt(base))
    return {"bound": bound, "eta": eta, "holds": bound < eta}


# Each deviation grid checks a lemma's measure bound against the worst cell
# of its grid points (base, scale, length, eps): the bound function, the
# cell count of a scale, the target cells that decide the worst, whether
# the deviation must exceed eps * length strictly, and the report key of
# the scale. Cells that a measure-preserving map commuting with the orbit
# sends onto each other have the same measure, so one cell per class
# decides: any relabelling of the base digits for the base**m cells; for
# dyadic cells of a base-3 orbit only the complement x -> 1 - x, which
# sends cell a to cell cells - 1 - a (up to endpoints, a null set). The
# table is built when a grid runs, so it takes the module's functions as
# they are then, not as they were at import.
def _deviation_grid(which: str) -> tuple:
    return {
        "badic": (
            badic_deviation_bound,
            lambda base, m: base**m,
            orbit.relabelling_representatives,
            True,
            "band_scale",
            [
                (2, 1, 64, Fraction(1, 4)),
                (2, 1, 128, Fraction(1, 2)),
                (2, 2, 256, Fraction(1, 4)),
                (3, 1, 64, Fraction(1, 4)),
                (3, 2, 512, Fraction(1, 9)),
            ],
        ),
        "dyadic": (
            dyadic_deviation_bound,
            lambda base, k: 2**k,
            lambda base, k: range((2**k + 1) // 2),
            False,
            "band_depth",
            [
                (2, 1, 256, Fraction(1, 2)),
                (2, 2, 256, Fraction(1, 2)),
                (3, 1, 128, Fraction(1, 2)),
            ],
        ),
    }[which]


def _lemma_deviation_grid(args) -> tuple[list[dict], bool]:
    bound_of, cells_of, targets_of, strict, scale_key, grid = _deviation_grid(
        args.which
    )
    rows = []
    ok = True
    for base, scale, length, eps in grid:
        bound = bound_of(base, scale, length, eps, args.precision)
        cells = cells_of(base, scale)
        worst = max(
            orbit.deviation_measure(
                orbit.Window(base, 0, length), cells, a, eps * length, strict=strict
            )
            for a in targets_of(base, scale)
        )
        vacuous = bound.lo >= 1
        holds = vacuous or worst <= bound.hi
        ok = ok and holds
        rows.append(
            {
                "base": base,
                scale_key: scale,
                "length": length,
                "eps": format_fraction(eps),
                "bound": bound.to_json(),
                "worst_measure": format_fraction(worst),
                "vacuous": vacuous,
                "holds": holds,
            }
        )
    return rows, ok


def _seeded_rationals(seed: int, count: int):
    """Seeded rationals in [0, 1) over odd denominators below 2**16."""
    for raw in mc.sample_integers(mc.SamplerSpec(seed=seed, count=count)):
        den = (raw & 0xFFFF) | 1
        num = (raw >> 16) % (den + 1)
        yield Fraction(num % den, den)


def _lemma_depth(args) -> tuple[list[dict], bool]:
    rows = []
    ok = True
    draws = list(_seeded_rationals(args.seed, 40))
    for i, x in enumerate(draws):
        base = 2 + (i % 2)
        length = 8 + (i * 7) % 57
        depth = i % 4
        lo = x / 2
        hi = lo + Fraction(1, 2)
        result = band_depth_triangle_check(x, base, length, lo, hi, depth)
        ok = ok and result["holds"]
        rows.append(
            {
                "x": format_fraction(x),
                "base": base,
                "length": length,
                "depth": depth,
                "lhs": format_fraction(result["lhs"]),
                "rhs": format_fraction(result["rhs"]),
                "holds": result["holds"],
            }
        )
    return rows, ok


def _lemma_cover(args) -> tuple[list[dict], bool]:
    rows = []
    ok = True
    draws = list(_seeded_rationals(args.seed, 30))
    for i, x in enumerate(draws):
        base = 2 + (i % 2)
        length = 4 + (i * 5) % 21
        h = 1 + (i % 3)
        a = i % 2**h
        result = window_cover_check(x, base, length, a, h)
        ok = ok and result["holds"]
        rows.append(
            {
                "x": format_fraction(x),
                "base": base,
                "length": length,
                "band_scale": h,
                "band_index": a,
                "holds": result["holds"],
                "slots": {str(k): v for k, v in result["slots"].items()},
            }
        )
    return rows, ok


def _lemma_chain(args) -> tuple[list[dict], bool]:
    result = chain_margin_check(preset("paper"))
    rows = [
        {
            "step": i + 1,
            "partial": format_fraction(partial),
            "partial_approx": float(partial),
        }
        for i, partial in enumerate(result["partials"])
    ]
    ok = result["holds_seven_eighths"] and result["holds_with_eta"]
    rows.append(
        {
            "total": format_fraction(result["total"]),
            "holds_seven_eighths": result["holds_seven_eighths"],
            "holds_with_eta": result["holds_with_eta"],
            "holds_loose": result["holds_loose"],
        }
    )
    return rows, ok


def _lemma_masstail(args) -> tuple[list[dict], bool]:
    result = summed_mass_tail_check(args.start, Fraction(1, 2), Fraction(1, 8))
    row = {
        "start_index": args.start,
        "bound": format_fraction(result["bound"]),
        "bound_approx": float(result["bound"]),
        "eta": format_fraction(result["eta"]),
        "holds": result["holds"],
    }
    return [row], result["holds"]


HANDLERS = {
    "badic": _lemma_deviation_grid,
    "dyadic": _lemma_deviation_grid,
    "depth": _lemma_depth,
    "cover": _lemma_cover,
    "chain": _lemma_chain,
    "masstail": _lemma_masstail,
}
