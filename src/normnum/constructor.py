"""Digit emission by nested dyadic halving with audited avoidance tests.

Each step halves the current interval and keeps the first half whose
certified bad-mass bound (materialized overlap plus residual tail) stays
under the step's shrinking threshold. Every step is recorded in a
certificate with exact rational figures. The verifier rebuilds the
families from scratch, replays every step through the same step rule and
compares each recorded field with the replay.
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
        for key in ("step", "size_index", "digit", "precision"):
            if type(data[key]) is not int:
                raise ValueError("step field %r must be an integer" % key)
        return cls(
            step=data["step"],
            size_index=data["size_index"],
            interval=Interval.from_json(data["interval"]),
            digit=data["digit"],
            chosen=Interval.from_json(data["chosen"]),
            chosen_bound=parse_fraction(data["chosen_bound"]),
            rejected_bound=(
                None
                if data.get("rejected_bound") is None
                else parse_fraction(data["rejected_bound"])
            ),
            tail=parse_fraction(data["tail"]),
            threshold=parse_fraction(data["threshold"]),
            precision=data["precision"],
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
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != CERTIFICATE_SCHEMA:
            raise ValueError("unrecognized certificate schema %r" % schema)
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


def _step(
    family: BadFamily,
    tail: Fraction,
    step: int,
    size_index: int,
    interval: Interval,
    precision: int,
) -> StepRecord:
    """One digit decision: keep the first half of `interval` whose summed
    component overlaps plus `tail` stay under 2**-step.

    Raises IndeterminateError when neither half passes.
    """
    threshold = Fraction(1, 2**step)
    half0, half1 = interval.halves()
    overlaps = family.overlaps(half0.lo, half0.hi)
    bound0 = sum(overlaps, ZERO)
    if bound0 + tail < threshold:
        digit, chosen, chosen_bound, rejected_bound = 0, half0, bound0, None
    else:
        overlaps = family.overlaps(half1.lo, half1.hi)
        bound1 = sum(overlaps, ZERO)
        if not bound1 + tail < threshold:
            raise IndeterminateError(step, interval, (bound0, bound1), tail, threshold)
        digit, chosen, chosen_bound, rejected_bound = 1, half1, bound1, bound0
    return StepRecord(
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
        components=tuple(
            {
                "label": comp.label,
                "kind": comp.kind,
                "members": len(comp.members),
                "outer_measure": format_fraction(comp.measure),
                "chosen_overlap": format_fraction(overlap),
            }
            for comp, overlap in zip(family.components, overlaps)
        ),
    )


def run_construction(
    schedule: Schedule,
    digit_count: int,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
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
    records = []
    for step in range(1, digit_count + 1):
        size_index = schedule.family_index(step)
        if size_index not in families:
            families[size_index] = bad_family(size_index, schedule, precision, budget)
        tail = tail_mass_bound(size_index, schedule)
        record = _step(families[size_index], tail, step, size_index, interval, precision)
        records.append(record)
        interval = record.chosen
    digits = "".join(str(record.digit) for record in records)
    return Certificate(schedule, digits, tuple(records))


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


def _shown(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _mismatches(prefix: str, recorded: dict, replayed: dict) -> list[str]:
    """One problem per key whose recorded value differs from the replay's."""
    return [
        "%s%s %s, schedule says %s"
        % (prefix, key.replace("_", " "), _shown(recorded.get(key)), _shown(replayed.get(key)))
        for key in sorted(set(recorded) | set(replayed))
        if recorded.get(key) != replayed.get(key)
    ]


def _differences(label: str, record: StepRecord, replay: StepRecord) -> list[str]:
    """Every field of `record`, component rows included, that the replay
    does not reproduce. The replay is handed the recorded precision, which
    does no work (families do not depend on it), so it cannot differ.
    """
    recorded, replayed = record.to_json(), replay.to_json()
    rows, expected_rows = recorded.pop("components"), replayed.pop("components")
    problems = _mismatches(label + ": ", recorded, replayed)
    if len(rows) != len(expected_rows):
        problems.append(
            "%s: component count %d, schedule says %d"
            % (label, len(rows), len(expected_rows))
        )
    for row, expected in zip(rows, expected_rows):
        problems += _mismatches(
            "%s: component %s: " % (label, expected["label"]), row, expected
        )
    return problems


def verify_certificate(
    certificate: Certificate,
    schedule: Optional[Schedule] = None,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> VerificationReport:
    """Replay every step of a certificate and compare it field by field.

    One family per size index of the schedule is rebuilt fresh; nothing is
    taken from the run being checked but each step's own interval, which
    must continue the chain of chosen halves. Each step is replayed by the
    construction's own step rule and every recorded field, component rows
    included, must equal the replay's exactly.
    """
    problems: list[str] = []
    families: dict[int, BadFamily] = {}
    sched = certificate.schedule
    if schedule is not None and schedule.digest() != sched.digest():
        problems.append("schedule digest does not match the supplied schedule")
        sched = schedule
    if certificate.digits != "".join(str(record.digit) for record in certificate.steps):
        problems.append("digit string differs from the steps' digits")
    interval = UNIT
    for position, record in enumerate(certificate.steps, start=1):
        label = "step %d" % position
        if record.interval != interval:
            problems.append("%s: interval chain broken" % label)
        size_index = sched.family_index(position)
        if size_index not in families:
            families[size_index] = bad_family(size_index, sched, budget=budget)
        tail = tail_mass_bound(size_index, sched)
        try:
            replay = _step(
                families[size_index], tail, position, size_index, record.interval, record.precision
            )
        except IndeterminateError:
            problems.append("%s: neither half passes" % label)
        else:
            problems.extend(_differences(label, record, replay))
        interval = record.chosen
    return VerificationReport(not problems, len(certificate.steps), tuple(problems))


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
