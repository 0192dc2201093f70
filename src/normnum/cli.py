"""Command line front end.

Subcommands: digits, badset, discrepancy, verify, lemma, cost. Reports go
to stdout as JSON with a schema field; diagnostics go to stderr. Exit
codes: 0 success, 1 I/O failure, 2 usage or validation, 3 work budget
exceeded, 4 indeterminate construction step or threshold cutoff, 5
verification or bound check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .badsets import (
    DomainError,
    PRESET_NAMES,
    Schedule,
    StraddleError,
    bad_family,
    badic_deviation_bound,
    band_depth_triangle_check,
    block_bad_set,
    dyadic_deviation_bound,
    preset,
    summed_mass_tail_check,
    tail_bad_set,
    tail_mass_bound,
    window_cover_check,
)
from .constructor import (
    Certificate,
    IndeterminateError,
    chain_margin_check,
    digits_to_fraction,
    naive_cost_log2,
    read_digit_file,
    run_construction,
    verify_certificate,
    write_digit_file,
)
from .discrepancy import (
    extreme_discrepancy,
    fukuyama_constant,
    normalized_ratio,
    orbit_points,
    philipp_constant,
    star_discrepancy,
)
from .enclose import Enclosure
from .measure import (
    BudgetError,
    format_fraction,
    parse_fraction,
    region_to_json,
)
from .orbit import DEFAULT_EVENT_BUDGET, Window, deviation_measure
from .mc import SamplerSpec, sample_integers

DEFAULT_SEED = 20260819

# Working precision, in bits, above which --precision is refused: every
# enclosure is evaluated at (at least) this many bits plus guard bits, so
# an unbounded value means unbounded work.
MAX_PRECISION = 4096

# Orbit length above which `discrepancy --count` is refused before any
# point is computed: each point is an exact Fraction, so an unbounded count
# means unbounded work and memory.
MAX_ORBIT_POINTS = 1 << 16

# Digit steps above which `digits --count` and `verify` are refused before
# any family is built: step k carries k-bit denominators in every field.
MAX_DIGIT_COUNT = 1 << 12


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _precision_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            "must be an integer in [1, %d] bits" % MAX_PRECISION
        )
    return value


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_schedule(args) -> Schedule:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            return Schedule.from_json(json.load(handle))
    return preset(args.preset)


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _approx(value) -> float:
    if isinstance(value, Enclosure):
        value = value.midpoint()
    return float(value)


def _check_digit_count(count: int) -> None:
    if count > MAX_DIGIT_COUNT:
        raise BudgetError(
            "%d digit steps exceed the bound of %d" % (count, MAX_DIGIT_COUNT)
        )


def _cmd_digits(args) -> int:
    _check_digit_count(args.count)
    schedule = _load_schedule(args)
    certificate = run_construction(
        schedule, args.count, precision=args.precision, budget=args.budget
    )
    report = {
        "schema": "normnum.digits/1",
        "preset": schedule.tag,
        "schedule_digest": schedule.digest(),
        "count": len(certificate.digits),
        "digits": certificate.digits,
    }
    if args.digits_out:
        write_digit_file(args.digits_out, certificate)
        report["digits_path"] = args.digits_out
    if args.cert_out:
        with open(args.cert_out, "w", encoding="ascii") as handle:
            handle.write(certificate.dump() + "\n")
        report["certificate_path"] = args.cert_out
    _emit(report)
    return 0


def _cmd_badset(args) -> int:
    schedule = _load_schedule(args)
    if args.which == "family":
        family = bad_family(args.index, schedule, args.precision, args.budget)
        report = {
            "schema": "normnum.badset/1",
            "which": "family",
            "preset": schedule.tag,
            "index": args.index,
            "components": family.component_count(),
            "outer_measure": format_fraction(family.outer_measure_bound()),
            "inner_measure": format_fraction(family.inner_measure_bound()),
            "tail_bound": format_fraction(tail_mass_bound(args.index, schedule)),
            "labels": [comp.label for comp in family.components],
        }
        if args.list_parts:
            # inner and outer name the one exact region, kept for report stability
            report["parts"] = [
                {
                    "label": comp.label,
                    "inner": region_to_json(comp.region),
                    "outer": region_to_json(comp.region),
                }
                for comp in family.components
            ]
        _emit(report)
        return 0
    if args.band_scale is None:
        raise ValueError("--band-scale is required for block and tail sets")
    if args.which == "block":
        piece = block_bad_set(
            args.base,
            args.index,
            args.band_index,
            args.band_scale,
            schedule,
            args.precision,
            args.budget,
        )
    else:
        if args.window_scale is None:
            raise ValueError("--window-scale is required for tail sets")
        piece = tail_bad_set(
            args.base,
            args.index,
            args.band_index,
            args.band_scale,
            args.window_scale,
            args.window_slot,
            schedule,
            args.precision,
            args.budget,
        )
    measure = format_fraction(piece.region.measure())
    report = {
        "schema": "normnum.badset/1",
        "which": args.which,
        "preset": schedule.tag,
        "label": piece.label,
        "window": {
            "base": piece.window.base,
            "offset": piece.window.offset,
            "length": piece.window.length,
        },
        "band": {"index": piece.band.a, "depth": piece.band.k},
        "threshold": piece.threshold.to_json(),
        "inner_measure": measure,
        "outer_measure": measure,
        "empty": piece.is_empty(),
    }
    if args.list_parts:
        report["inner"] = report["outer"] = region_to_json(piece.region)
    _emit(report)
    return 0


def _cmd_discrepancy(args) -> int:
    if (args.x is None) == (args.digits_file is None):
        raise ValueError("give exactly one of --x or --digits-file")
    if args.count > MAX_ORBIT_POINTS:
        raise BudgetError(
            "--count %d exceeds the bound of %d orbit points"
            % (args.count, MAX_ORBIT_POINTS)
        )
    if args.x is not None:
        x = args.x
        source = format_fraction(x)
    else:
        digits, _meta = read_digit_file(args.digits_file)
        x = digits_to_fraction(digits)
        source = args.digits_file
    if not 0 <= x < 1:
        raise ValueError("the point must lie in [0, 1)")
    points = orbit_points(x, args.base, args.count)
    star = star_discrepancy(points)
    extreme = extreme_discrepancy(points)
    report = {
        "schema": "normnum.discrepancy/1",
        "source": source,
        "base": args.base,
        "count": args.count,
        "extreme": format_fraction(extreme),
        "extreme_approx": _approx(extreme),
        "star": format_fraction(star),
        "star_approx": _approx(star),
    }
    if args.ratio:
        ratio = normalized_ratio(extreme, args.count, args.precision)
        report["ratio"] = ratio.to_json()
        report["ratio_approx"] = _approx(ratio)
    _emit(report)
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        certificate = Certificate.load(text)
    except (ValueError, KeyError, TypeError) as exc:
        print("malformed certificate: %s" % exc, file=sys.stderr)
        return 5
    _check_digit_count(len(certificate.steps))
    report = verify_certificate(certificate, budget=args.budget)
    _emit({"schema": "normnum.verify/1", "digits": certificate.digits, **report.to_json()})
    return 0 if report.ok else 5


# Each deviation grid checks a lemma's measure bound against the worst cell
# of its grid points (base, scale, length, eps): the bound function, the
# cell count of a scale, whether the deviation must exceed eps * length
# strictly, and the report key of the scale.
_DEVIATION_GRIDS = {
    "badic": (
        badic_deviation_bound,
        lambda base, m: base**m,
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
        False,
        "band_depth",
        [
            (2, 1, 256, Fraction(1, 2)),
            (2, 2, 256, Fraction(1, 2)),
            (3, 1, 128, Fraction(1, 2)),
        ],
    ),
}


def _lemma_deviation_grid(args) -> tuple[list[dict], bool]:
    bound_of, cells_of, strict, scale_key, grid = _DEVIATION_GRIDS[args.which]
    rows = []
    ok = True
    for base, scale, length, eps in grid:
        bound = bound_of(base, scale, length, eps, args.precision)
        cells = cells_of(base, scale)
        worst = max(
            deviation_measure(
                Window(base, 0, length), cells, a, eps * length, strict=strict
            )
            for a in range(cells)
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


def _seeded_rationals(seed: int, count: int, denominator_bits: int = 16):
    spec = SamplerSpec(seed=seed, count=max(count, 100))
    for raw in sample_integers(spec)[:count]:
        den = (raw & ((1 << denominator_bits) - 1)) | 1
        num = (raw >> denominator_bits) % (den + 1)
        yield Fraction(num % max(den, 1), den) if den > 1 else Fraction(0)


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
    result = chain_margin_check(preset("paper"), max_step=20)
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


_LEMMA_HANDLERS = {
    "badic": _lemma_deviation_grid,
    "dyadic": _lemma_deviation_grid,
    "depth": _lemma_depth,
    "cover": _lemma_cover,
    "chain": _lemma_chain,
    "masstail": _lemma_masstail,
}


def _cmd_lemma(args) -> int:
    rows, ok = _LEMMA_HANDLERS[args.which](args)
    _emit(
        {
            "schema": "normnum.lemma/1",
            "which": args.which,
            "rows": rows,
            "ok": ok,
        }
    )
    return 0 if ok else 5


def _cmd_cost(args) -> int:
    value = naive_cost_log2(args.n, args.precision)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    if isinstance(value, Enclosure):
        report = {
            "schema": "normnum.cost/1",
            "n": args.n,
            "log2_states": value.to_json(),
            "exact": False,
        }
    else:
        report = {
            "schema": "normnum.cost/1",
            "n": args.n,
            "log2_states": str(value),
            "exact": True,
        }
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normnum",
        description="Exact-arithmetic digit construction, bad-set audits, "
        "and discrepancy measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_budget=True):
        p.add_argument("--preset", default="paper", choices=PRESET_NAMES)
        p.add_argument("--config", help="JSON schedule file overriding --preset")
        p.add_argument("--precision", type=_precision_arg, default=64)
        if with_budget:
            p.add_argument(
                "--budget", type=_positive_int, default=DEFAULT_EVENT_BUDGET
            )

    p_digits = sub.add_parser("digits", help="emit digits with a certificate")
    add_common(p_digits)
    p_digits.add_argument("--count", type=_positive_int, required=True)
    p_digits.add_argument("--digits-out", help="write a digit file here")
    p_digits.add_argument("--cert-out", help="write the JSON certificate here")
    p_digits.set_defaults(func=_cmd_digits)

    p_badset = sub.add_parser("badset", help="materialize bad sets or families")
    add_common(p_badset)
    p_badset.add_argument(
        "--which", choices=("block", "tail", "family"), default="family"
    )
    p_badset.add_argument("--base", type=_positive_int, default=2)
    p_badset.add_argument("--index", type=_positive_int, required=True)
    p_badset.add_argument("--band-scale", type=_positive_int)
    p_badset.add_argument("--band-index", type=int, default=0)
    p_badset.add_argument("--window-scale", type=_positive_int)
    p_badset.add_argument("--window-slot", type=_positive_int, default=1)
    p_badset.add_argument("--list-parts", action="store_true")
    p_badset.set_defaults(func=_cmd_badset)

    p_disc = sub.add_parser("discrepancy", help="exact discrepancy of an orbit")
    p_disc.add_argument("--x", type=_fraction_arg)
    p_disc.add_argument("--digits-file")
    p_disc.add_argument("--base", type=_positive_int, default=2)
    p_disc.add_argument("--count", type=_positive_int, required=True)
    p_disc.add_argument("--ratio", action="store_true")
    p_disc.add_argument("--precision", type=_precision_arg, default=64)
    p_disc.set_defaults(func=_cmd_discrepancy)

    p_verify = sub.add_parser("verify", help="replay and recheck a certificate")
    p_verify.add_argument("certificate")
    p_verify.add_argument("--budget", type=_positive_int, default=DEFAULT_EVENT_BUDGET)
    p_verify.set_defaults(func=_cmd_verify)

    p_lemma = sub.add_parser("lemma", help="run bound and decomposition checks")
    p_lemma.add_argument("--which", choices=sorted(_LEMMA_HANDLERS), required=True)
    p_lemma.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_lemma.add_argument("--start", type=_positive_int, default=9)
    p_lemma.add_argument("--precision", type=_precision_arg, default=64)
    p_lemma.set_defaults(func=_cmd_lemma)

    p_cost = sub.add_parser("cost", help="log2 state count of the naive scan")
    p_cost.add_argument("--n", type=_positive_int, required=True)
    p_cost.add_argument("--precision", type=_precision_arg, default=96)
    p_cost.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (IndeterminateError, StraddleError) as exc:
        print("indeterminate: %s" % exc, file=sys.stderr)
        return 4
    except (DomainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
