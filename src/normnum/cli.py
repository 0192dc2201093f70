"""Command line front end.

Subcommands: digits, badset, discrepancy, verify, lemma, cost. Reports go
to stdout as JSON with a schema field; diagnostics go to stderr. Exit
codes: 0 success, 1 I/O failure, 2 usage or validation, 3 work budget
exceeded, 4 indeterminate construction step or threshold cutoff, 5
verification or bound check failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction

from .enclose import Enclosure, naive_cost_log2
from .measure import (
    MAX_DIGIT_COUNT,
    BudgetError,
    check_digit_count,
    decimal_string,
    format_fraction,
    parse_fraction,
    region_to_json,
)
from .schedule import PRESET_NAMES, Schedule, preset


def _deferred(name: str):
    """The layer `normnum.<name>`, put in `sys.modules` and on the package
    as an import would (an already imported one is returned as it is),
    with its body run on its first attribute access: the stdlib
    `LazyLoader` recipe.

    So a command runs only the layers it uses. Imports inside the handlers
    would too, and `lemmas` and `digitfile` are imported there, but
    `bench/launcher.py` wraps the functions of every layer it finds in
    `sys.modules` right after `import normnum.cli`; its `vars(module)` runs
    the body then."""
    fullname = "%s.%s" % (__package__, name)
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


badsets = _deferred("badsets")
constructor = _deferred("constructor")
discrepancy = _deferred("discrepancy")
# cli calls neither of these (the lemma audit reads them from the package);
# they are deferred so that they are in sys.modules as well
_deferred("orbit")
_deferred("mc")

DEFAULT_SEED = 20260819

# Working precision, in bits, above which --precision is refused: every
# enclosure is evaluated at (at least) this many bits plus guard bits, so
# an unbounded value means unbounded work.
MAX_PRECISION = 4096

# Orbit length above which `discrepancy --count` is refused before any
# point is computed: each point is an integer numerator as wide as x's
# denominator, so an unbounded count means unbounded work and memory.
MAX_ORBIT_POINTS = 1 << 16


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
            try:
                data = json.load(handle)
            except RecursionError:
                raise ValueError("malformed schedule: JSON nested too deeply") from None
        return Schedule.from_json(data)
    return preset(args.preset)


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _approx(value) -> float:
    if isinstance(value, Enclosure):
        value = value.midpoint()
    return float(value)


def _cmd_digits(args) -> int:
    check_digit_count(args.count)
    schedule = _load_schedule(args)
    certificate = constructor.run_construction(
        schedule, args.count, precision=args.precision
    )
    report = {
        "schema": "normnum.digits/1",
        "preset": schedule.tag,
        "schedule_digest": schedule.digest(),
        "count": len(certificate.digits),
        "digits": certificate.digits,
    }
    if args.digits_out:
        from . import digitfile

        digitfile.write_digit_file(args.digits_out, certificate)
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
        family = badsets.bad_family(args.index, schedule, args.precision)
        report = {
            "schema": "normnum.badset/2",
            "which": "family",
            "preset": schedule.tag,
            "index": args.index,
            "components": len(family.components),
            "outer_measure": format_fraction(family.outer_measure_bound()),
            "inner_measure": format_fraction(family.inner_measure_bound()),
            "tail_bound": format_fraction(badsets.tail_mass_bound(args.index, schedule)),
            "labels": [comp.label for comp in family.components],
        }
        if args.list_parts:
            report["parts"] = [
                {"label": comp.label, "region": region_to_json(comp.region)}
                for comp in family.components
            ]
        _emit(report)
        return 0
    if args.band_scale is None:
        raise ValueError("--band-scale is required for block and tail sets")
    if args.which == "block":
        piece = badsets.block_bad_set(
            args.base,
            args.index,
            args.band_index,
            args.band_scale,
            schedule,
            args.precision,
        )
    else:
        if args.window_scale is None:
            raise ValueError("--window-scale is required for tail sets")
        piece = badsets.tail_bad_set(
            args.base,
            args.index,
            args.band_index,
            args.band_scale,
            args.window_scale,
            args.window_slot,
            schedule,
            args.precision,
        )
    report = {
        "schema": "normnum.badset/2",
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
        "measure": format_fraction(piece.region.measure()),
        "empty": piece.is_empty(),
    }
    if args.list_parts:
        report["region"] = region_to_json(piece.region)
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
        if x.denominator > 1 << MAX_DIGIT_COUNT:
            raise BudgetError(
                "--x denominator exceeds the bound of 2**%d" % MAX_DIGIT_COUNT
            )
        source = format_fraction(x)
    else:
        from . import digitfile

        digits, _meta = digitfile.read_digit_file(args.digits_file)
        x = digitfile.digits_to_fraction(digits)
        source = args.digits_file
    if not 0 <= x < 1:
        raise ValueError("the point must lie in [0, 1)")
    points, q = discrepancy.orbit_points(x, args.base, args.count)
    points.sort()  # so the closed forms' own sorts are linear
    star = discrepancy.star_discrepancy(points, q)
    extreme = discrepancy.extreme_discrepancy(points, q)
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
        ratio = discrepancy.normalized_ratio(extreme, args.count, args.precision)
        report["ratio"] = ratio.to_json()
        report["ratio_approx"] = _approx(ratio)
    _emit(report)
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        certificate = constructor.Certificate.load(text)
    except (ValueError, KeyError, TypeError) as exc:
        print("malformed certificate: %s" % exc, file=sys.stderr)
        return 5
    report = constructor.verify_certificate(certificate)
    _emit({"schema": "normnum.verify/1", "digits": certificate.digits, **report.to_json()})
    return 0 if report.ok else 5


# The names of the checks in `lemmas.HANDLERS`, spelled out here so that
# the parser needs no lemma code.
LEMMA_NAMES = ("badic", "chain", "cover", "depth", "dyadic", "masstail")


def _cmd_lemma(args) -> int:
    from . import lemmas

    rows, ok = lemmas.HANDLERS[args.which](args)
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
    exact = not isinstance(value, Enclosure)
    # the ends run to 1.3 million digits (--n 10), past the int-string limit
    log2_states = decimal_string(value) if exact else value.to_json()
    _emit(
        {
            "schema": "normnum.cost/1",
            "n": args.n,
            "log2_states": log2_states,
            "exact": exact,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normnum",
        description="Exact-arithmetic digit construction, bad-set audits, "
        "and discrepancy measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", default="paper", choices=PRESET_NAMES)
        p.add_argument("--config", help="JSON schedule file overriding --preset")
        p.add_argument("--precision", type=_precision_arg, default=64)

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
    p_verify.set_defaults(func=_cmd_verify)

    p_lemma = sub.add_parser("lemma", help="run bound and decomposition checks")
    p_lemma.add_argument("--which", choices=LEMMA_NAMES, required=True)
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
    except ValueError as exc:  # measure.DomainError included
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (constructor.IndeterminateError, badsets.StraddleError) as exc:
        # evaluated only when such an error propagates, so a command that
        # never used these layers does not run them here
        print("indeterminate: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
