"""Digit emission by nested dyadic halving with audited avoidance tests.

Each step halves the current interval and keeps the first half whose
certified bad-mass bound (materialized overlap plus residual tail) stays
under the step's shrinking threshold. Every step is recorded in a
certificate with exact rational figures. One generator takes every digit
decision: the emitter collects its records, and the verifier runs it afresh
from the schedule and compares each recorded field with the fresh step, so
no recorded value ever enters a computation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import count, islice
from typing import Iterator, Optional

from .badsets import bad_family, tail_mass_bound
from .measure import (
    DEFAULT_EVENT_BUDGET,
    MAX_DIGIT_COUNT,
    UNIT,
    ZERO,
    BudgetError,
    Interval,
    Record,
    format_fraction,
    parse_fraction,
)
from .schedule import Schedule

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


class StepRecord(Record):
    """Everything recorded about one digit decision."""

    __slots__ = (
        "step", "size_index", "interval", "digit", "chosen", "chosen_bound",
        "rejected_bound", "tail", "threshold", "precision", "components",
    )

    def __init__(
        self,
        step: int,
        size_index: int,
        interval: Interval,
        digit: int,
        chosen: Interval,
        chosen_bound: Fraction,
        rejected_bound: Optional[Fraction],
        tail: Fraction,
        threshold: Fraction,
        precision: int,
        components: tuple,
    ):
        self._fill(
            step, size_index, interval, digit, chosen, chosen_bound,
            rejected_bound, tail, threshold, precision, components,
        )

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
        components = data.get("components", [])
        if type(components) is not list or any(type(row) is not dict for row in components):
            raise ValueError("step field 'components' must be a list of objects")
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
            components=tuple(dict(row) for row in components),
        )


class Certificate(Record):
    __slots__ = ("schedule", "digits", "steps")

    def __init__(self, schedule: Schedule, digits: str, steps: tuple[StepRecord, ...]):
        self._fill(schedule, digits, steps)

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
        schedule = Schedule.from_json(data["schedule"])
        digest = schedule.digest()
        if data.get("schedule_digest") != digest:
            raise ValueError(
                "schedule_digest does not match the recorded schedule, whose "
                "digest is %s" % digest
            )
        return cls(
            schedule=schedule,
            digits=str(data["digits"]),
            steps=tuple(StepRecord.from_json(entry) for entry in data["steps"]),
        )

    def dump(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, text: str) -> "Certificate":
        return cls.from_json(json.loads(text))


def _records(
    schedule: Schedule,
    precision: int = 64,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> Iterator[StepRecord]:
    """The construction itself: one record per digit step, without end.

    One family is built per size index and one tail bound per step; size
    indices never decrease along the steps, so only the current family is
    kept. Each step halves the interval the previous step chose and keeps
    the first half whose summed component overlaps plus the tail stay
    under 2**-step. Raises IndeterminateError at the first step where
    neither half passes.
    """
    built_index, family = None, None
    interval = UNIT
    for step in count(1):
        size_index = schedule.family_index(step)
        if size_index != built_index:
            family = bad_family(size_index, schedule, precision, budget)
            built_index = size_index
        tail = tail_mass_bound(size_index, schedule)
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
        yield StepRecord(
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
                    "members": comp.members,
                    "outer_measure": format_fraction(comp.measure),
                    "chosen_overlap": format_fraction(overlap),
                }
                for comp, overlap in zip(family.components, overlaps)
            ),
        )
        interval = chosen


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
    records = tuple(islice(_records(schedule, precision, budget), digit_count))
    digits = "".join(str(record.digit) for record in records)
    return Certificate(schedule, digits, records)


class VerificationReport(Record):
    __slots__ = ("ok", "steps_checked", "problems")

    def __init__(self, ok: bool, steps_checked: int, problems: tuple[str, ...]):
        self._fill(ok, steps_checked, problems)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "steps_checked": self.steps_checked,
            "problems": list(self.problems),
        }


def _shown(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _mismatches(prefix: str, recorded: dict, expected: dict) -> list[str]:
    """One problem per key whose recorded value differs from the expected one."""
    return [
        "%s%s %s, schedule says %s"
        % (prefix, key.replace("_", " "), _shown(recorded.get(key)), _shown(expected.get(key)))
        for key in sorted(set(recorded) | set(expected))
        if recorded.get(key) != expected.get(key)
    ]


def _differences(label: str, record: StepRecord, fresh: StepRecord) -> list[str]:
    """Every field of `record`, component rows included, that the fresh run
    does not reproduce. `precision` is left out: it is the start precision
    of the threshold enclosures, and families do not depend on it.
    """
    recorded, expected = record.to_json(), fresh.to_json()
    del recorded["precision"], expected["precision"]
    rows, expected_rows = recorded.pop("components"), expected.pop("components")
    problems = _mismatches(label + ": ", recorded, expected)
    if len(rows) != len(expected_rows):
        problems.append(
            "%s: component count %d, schedule says %d"
            % (label, len(rows), len(expected_rows))
        )
    for row, expected_row in zip(rows, expected_rows):
        problems += _mismatches(
            "%s: component %s: " % (label, expected_row["label"]), row, expected_row
        )
    return problems


def verify_certificate(
    certificate: Certificate,
    schedule: Optional[Schedule] = None,
    budget: int = DEFAULT_EVENT_BUDGET,
) -> VerificationReport:
    """Run the construction afresh and compare each recorded step with it.

    The schedule (the recorded one, or `schedule` when it is given and its
    digest differs) drives the same generator `run_construction` uses, for
    as many steps as the certificate records. Recorded values are only
    parsed and compared, never computed on: every field, component rows
    included, must equal the fresh step's exactly. When the fresh run
    stops because neither half of a step passes, that step is reported and
    the later steps, which have nothing to be compared with, are not.
    """
    problems: list[str] = []
    sched = certificate.schedule
    if schedule is not None and schedule.digest() != sched.digest():
        problems.append("schedule digest does not match the supplied schedule")
        sched = schedule
    if certificate.digits != "".join(str(record.digit) for record in certificate.steps):
        problems.append("digit string differs from the steps' digits")
    fresh_records = _records(sched, budget=budget)
    for position, record in enumerate(certificate.steps, start=1):
        label = "step %d" % position
        try:
            fresh = next(fresh_records)
        except IndeterminateError:
            problems.append("%s: neither half passes" % label)
            break
        problems.extend(_differences(label, record, fresh))
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
    """Digits plus header metadata; raises ValueError on malformed content.

    More than MAX_DIGIT_COUNT digits raise BudgetError as soon as the
    digits read pass the bound. Lines are read in pieces of at most
    MAX_DIGIT_COUNT + 1 characters, so not even one long line is read far
    past it; a long comment line keeps the metadata of its first piece.
    """
    meta: dict = {}
    digits = []
    total = 0
    in_comment = False  # the previous piece was a comment without its newline
    with open(path, "r", encoding="ascii") as handle:
        for piece in iter(partial(handle.readline, MAX_DIGIT_COUNT + 1), ""):
            if in_comment:
                in_comment = not piece.endswith("\n")
                continue
            line = piece.strip()
            if not line:
                continue
            if line.startswith("#"):
                in_comment = not piece.endswith("\n")
                body = line[1:].strip()
                if ":" in body:
                    key, value = body.split(":", 1)
                    meta[key.strip()] = value.strip()
                continue
            if set(line) - set("01"):
                raise ValueError("digit line contains characters outside {0, 1}")
            total += len(line)
            if total > MAX_DIGIT_COUNT:
                raise BudgetError(
                    "digit file holds more than the bound of %d digits" % MAX_DIGIT_COUNT
                )
            digits.append(line)
    text = "".join(digits)
    if not text:
        raise ValueError("digit file holds no digits")
    if "count" in meta and int(meta["count"]) != len(text):
        raise ValueError("digit count header disagrees with the body")
    return text, meta
