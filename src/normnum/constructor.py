"""Digit emission by nested dyadic halving with audited avoidance tests.

Each step halves the current interval and keeps the first half whose
certified bad-mass bound (materialized overlap plus residual tail) stays
under the step's shrinking threshold. Every step is recorded in a
certificate with exact rational figures, and an independent verifier
rebuilds the families from scratch to replay and recheck every inequality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .badsets import BadFamily, Schedule, bad_family, tail_mass_bound
from .enclose import Enclosure, enclose_log2
from .measure import (
    UNIT,
    ZERO,
    Interval,
    format_fraction,
    parse_fraction,
)
from .orbit import DEFAULT_EVENT_BUDGET

CERTIFICATE_SCHEMA = "normnum.certificate/1"
DIGIT_FILE_HEADER = "# normnum digit file v1"
DIGITS_PER_LINE = 64


class IndeterminateError(RuntimeError):
    """Neither half of the current interval passed the avoidance test."""

    def __init__(self, step, interval, bounds, tail, threshold):
        self.step = step
        self.interval = interval
        self.bounds = bounds
        self.tail = tail
        self.threshold = threshold
        super().__init__(
            "step %d indeterminate: "
            "half bounds %s and %s plus tail %s do not beat threshold %s"
            % (
                step,
                format_fraction(bounds[0]),
                format_fraction(bounds[1]),
                format_fraction(tail),
                format_fraction(threshold),
            )
        )


@dataclass(frozen=True)
class StepRecord:
    """Everything needed to replay one digit decision."""

    step: int
    size_index: int
    interval: Interval
    digit: int
    chosen: Interval
    chosen_bound: Fraction
    rejected_bound: Optional[Fraction]
    tail: Fraction
    threshold: Fraction
    precision: int
    components: tuple

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "size_index": self.size_index,
            "interval": self.interval.to_json(),
            "digit": self.digit,
            "chosen": self.chosen.to_json(),
            "chosen_bound": format_fraction(self.chosen_bound),
            "rejected_bound": (
                None
                if self.rejected_bound is None
                else format_fraction(self.rejected_bound)
            ),
            "tail": format_fraction(self.tail),
            "threshold": format_fraction(self.threshold),
            "precision": self.precision,
            "components": list(self.components),
        }

    @classmethod
    def from_json(cls, data: dict) -> "StepRecord":
        return cls(
            step=int(data["step"]),
            size_index=int(data["size_index"]),
            interval=Interval.from_json(data["interval"]),
            digit=int(data["digit"]),
            chosen=Interval.from_json(data["chosen"]),
            chosen_bound=parse_fraction(data["chosen_bound"]),
            rejected_bound=(
                None
                if data.get("rejected_bound") is None
                else parse_fraction(data["rejected_bound"])
            ),
            tail=parse_fraction(data["tail"]),
            threshold=parse_fraction(data["threshold"]),
            precision=int(data["precision"]),
            components=tuple(
                dict(entry) for entry in data.get("components", ())
            ),
        )


@dataclass(frozen=True)
class Certificate:
    schedule: Schedule
    digits: str
    steps: tuple[StepRecord, ...]

    def final_interval(self) -> Interval:
        return self.steps[-1].chosen if self.steps else UNIT

    def to_json(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "schedule": self.schedule.to_json(),
            "schedule_digest": self.schedule.digest(),
            "digits": self.digits,
            "steps": [record.to_json() for record in self.steps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        if data.get("schema") != CERTIFICATE_SCHEMA:
            raise ValueError("unrecognized certificate schema %r" % data.get("schema"))
        return cls(
            schedule=Schedule.from_json(data["schedule"]),
            digits=str(data["digits"]),
            steps=tuple(StepRecord.from_json(entry) for entry in data["steps"]),
        )

    def dump(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, text: str) -> "Certificate":
        return cls.from_json(json.loads(text))


def _component_rows(family: BadFamily, chosen: Interval, copy_budget: int) -> tuple:
    return tuple(
        {
            "label": comp.label,
            "kind": comp.kind,
            "members": len(comp.members),
            "outer_measure": format_fraction(comp.region.measure()),
            "chosen_overlap": format_fraction(
                comp.overlap(chosen.lo, chosen.hi, copy_budget)
            ),
        }
        for comp in family.components
    )


def run_construction(
    schedule: Schedule,
    digit_count: int,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
    copy_budget: int = 65536,
) -> Certificate:
    """Emit digits with a full audit trail.

    `precision` is the starting precision of the threshold enclosures; the
    families themselves are exact and do not depend on it. Raises
    IndeterminateError if both halves of some step fail the avoidance
    test, and propagates BudgetError if a family build would exceed the
    sweep budget.
    """
    if digit_count < 1:
        raise ValueError("digit count must be positive")
    families: dict[int, BadFamily] = {}
    interval = UNIT
    digits = []
    records = []
    for step in range(1, digit_count + 1):
        size_index = schedule.family_index(step)
        if size_index not in families:
            families[size_index] = bad_family(size_index, schedule, precision, budget)
        family = families[size_index]
        tail = tail_mass_bound(size_index, schedule)
        threshold = Fraction(1, 2**step)
        half0, half1 = interval.halves()
        bound0 = family.outer_intersect_bound(half0.lo, half0.hi, copy_budget)
        if bound0 + tail < threshold:
            digit, chosen, chosen_bound, rejected_bound = 0, half0, bound0, None
        else:
            bound1 = family.outer_intersect_bound(half1.lo, half1.hi, copy_budget)
            if not bound1 + tail < threshold:
                raise IndeterminateError(
                    step, interval, (bound0, bound1), tail, threshold
                )
            digit, chosen, chosen_bound, rejected_bound = 1, half1, bound1, bound0
        records.append(
            StepRecord(
                step=step,
                size_index=size_index,
                interval=interval,
                digit=digit,
                chosen=chosen,
                chosen_bound=chosen_bound,
                rejected_bound=rejected_bound,
                tail=tail,
                threshold=threshold,
                precision=precision,
                components=_component_rows(family, chosen, copy_budget),
            )
        )
        digits.append(str(digit))
        interval = chosen
    return Certificate(schedule, "".join(digits), tuple(records))


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    steps_checked: int
    problems: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "steps_checked": self.steps_checked,
            "problems": list(self.problems),
        }


def verify_certificate(
    certificate: Certificate,
    schedule: Optional[Schedule] = None,
    budget: int = DEFAULT_EVENT_BUDGET,
    copy_budget: int = 65536,
) -> VerificationReport:
    """Replay a certificate from scratch and recheck every step.

    One family per size index of the schedule is rebuilt fresh (nothing is
    taken from the run being checked, not even its recorded size index or
    precision, since exact families do not depend on precision), all
    recorded rationals must match the recomputation exactly, and every
    avoidance inequality, nesting relation and digit decision is
    revalidated.
    """
    problems: list[str] = []
    families: dict[int, BadFamily] = {}
    sched = certificate.schedule
    if schedule is not None and schedule.digest() != sched.digest():
        problems.append("schedule digest does not match the supplied schedule")
        sched = schedule
    if len(certificate.digits) != len(certificate.steps):
        problems.append("digit string length differs from step count")
    interval = UNIT
    checked = 0
    for position, record in enumerate(certificate.steps, start=1):
        label = "step %d" % position
        checked += 1
        if record.step != position:
            problems.append("%s: record is numbered %d" % (label, record.step))
        if record.interval != interval:
            problems.append("%s: interval chain broken" % label)
            interval = record.interval
        expected_index = sched.family_index(position)
        if record.size_index != expected_index:
            problems.append(
                "%s: size index %d, schedule says %d"
                % (label, record.size_index, expected_index)
            )
        threshold = Fraction(1, 2**position)
        if record.threshold != threshold:
            problems.append("%s: threshold is not 2**-%d" % (label, position))
        tail = tail_mass_bound(expected_index, sched)
        if record.tail != tail:
            problems.append("%s: recorded tail %s, recomputed %s"
                            % (label, format_fraction(record.tail), format_fraction(tail)))
        if record.digit not in (0, 1):
            problems.append("%s: digit out of range" % label)
        half0, half1 = interval.halves()
        if expected_index not in families:
            families[expected_index] = bad_family(expected_index, sched, budget=budget)
        family = families[expected_index]
        bound0 = family.outer_intersect_bound(half0.lo, half0.hi, copy_budget)
        pass0 = bound0 + tail < threshold
        bound1 = None
        if not pass0 or record.digit == 1:
            bound1 = family.outer_intersect_bound(half1.lo, half1.hi, copy_budget)
        if pass0:
            expected_digit = 0
        elif bound1 + tail < threshold:
            expected_digit = 1
        else:
            expected_digit = None
        if expected_digit is None:
            problems.append("%s: neither half passes" % label)
        elif record.digit != expected_digit:
            problems.append(
                "%s: recorded digit %d, replay chooses %d"
                % (label, record.digit, expected_digit)
            )
        recomputed = bound0 if record.digit == 0 else bound1
        expected_half = half0 if record.digit == 0 else half1
        if record.digit == 1:
            if record.rejected_bound is None:
                problems.append("%s: digit 1 lacks the rejected half's bound" % label)
            elif record.rejected_bound != bound0:
                problems.append(
                    "%s: rejected bound %s, recomputed %s"
                    % (label, format_fraction(record.rejected_bound), format_fraction(bound0))
                )
        if record.chosen_bound != recomputed:
            problems.append(
                "%s: recorded bound %s, recomputed %s"
                % (label, format_fraction(record.chosen_bound), format_fraction(recomputed))
            )
        if not record.chosen_bound + record.tail < record.threshold:
            problems.append("%s: avoidance inequality fails" % label)
        if record.chosen != expected_half:
            problems.append("%s: chosen interval is not the digit's half" % label)
        if record.chosen.length != threshold:
            problems.append("%s: chosen interval has wrong length" % label)
        if not (interval.lo <= record.chosen.lo and record.chosen.hi <= interval.hi):
            problems.append("%s: chosen interval escapes its parent" % label)
        if position <= len(certificate.digits) and certificate.digits[position - 1] != str(record.digit):
            problems.append("%s: digit string mismatch" % label)
        if len(record.components) != family.component_count():
            problems.append("%s: component count mismatch" % label)
        else:
            total = ZERO
            for row in record.components:
                total += parse_fraction(row["chosen_overlap"])
            if total != recomputed:
                problems.append("%s: component overlaps do not sum to the bound" % label)
        interval = record.chosen
    return VerificationReport(not problems, checked, tuple(problems))


def chain_margin_check(schedule: Schedule, max_step: int = 20) -> dict:
    """Exact partial sums of the doubled residual tails across digit steps.

    Only meaningful for the uncapped derived schedule, whose residuals
    shrink fast enough; capped or tabled schedules are rejected.
    """
    if (
        schedule.z_table is not None
        or schedule.p_const is not None
        or schedule.base_cap is not None
        or schedule.index_cap is not None
    ):
        raise ValueError("margin chain assumes the derived, uncapped schedule")
    if max_step < 1:
        raise ValueError("max_step must be positive")
    partial = ZERO
    partials = []
    terms = []
    for step in range(1, max_step + 1):
        residual = tail_mass_bound(schedule.family_index(step), schedule)
        term = 2 ** (step - 1) * residual
        terms.append(term)
        partial += term
        partials.append(partial)
    loose = Fraction(3, 4) + schedule.eta / 4
    return {
        "terms": terms,
        "partials": partials,
        "total": partial,
        "loose_cap": loose,
        "holds_loose": partial < loose,
        "holds_seven_eighths": partial < Fraction(7, 8),
        "holds_with_eta": schedule.eta + partial < 1,
    }


def naive_cost_log2(n: int, precision: int = 96) -> Union[int, Enclosure]:
    """log2 of the brute-force state count a depth-n exhaustive scan visits.

    Exact integer when the alphabet size 2n+2 is a power of two, otherwise
    a rational enclosure. Rejects n > 10, where even the logarithm stops
    being printable.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 10:
        raise ValueError("n larger than 10 is not supported")
    states = 2 * n + 2
    factor = 2 ** (2 ** (2 * n + 2))
    if states & (states - 1) == 0:
        return factor * (states.bit_length() - 1)
    lg = enclose_log2(states, precision)
    return Enclosure(factor * lg.lo, factor * lg.hi)


def digits_to_fraction(digits: str, base: int = 2) -> Fraction:
    """The rational 0.d1 d2 ... in the given base."""
    if base < 2:
        raise ValueError("base must be at least 2")
    value = 0
    for ch in digits:
        d = int(ch)
        if not 0 <= d < base:
            raise ValueError("digit %r out of range for base %d" % (ch, base))
        value = value * base + d
    return Fraction(value, base ** len(digits))


def write_digit_file(path: str, certificate: Certificate) -> None:
    lines = [
        DIGIT_FILE_HEADER,
        "# preset: %s" % certificate.schedule.tag,
        "# schedule-digest: %s" % certificate.schedule.digest(),
        "# count: %d" % len(certificate.digits),
    ]
    digits = certificate.digits
    for i in range(0, len(digits), DIGITS_PER_LINE):
        lines.append(digits[i : i + DIGITS_PER_LINE])
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def read_digit_file(path: str) -> tuple[str, dict]:
    """Digits plus header metadata; raises ValueError on malformed content."""
    meta: dict = {}
    digits = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, value = body.split(":", 1)
                    meta[key.strip()] = value.strip()
                continue
            if set(line) - set("01"):
                raise ValueError("digit line contains characters outside {0, 1}")
            digits.append(line)
    text = "".join(digits)
    if not text:
        raise ValueError("digit file holds no digits")
    if "count" in meta and int(meta["count"]) != len(text):
        raise ValueError("digit count header disagrees with the body")
    return text, meta
