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
from itertools import count, islice
from typing import Iterator, Optional

from .badsets import bad_family, tail_mass_bound
from .measure import (
    DEFAULT_EVENT_BUDGET,
    ZERO,
    Record,
    format_fraction,
    parse_fraction,
)
from .schedule import Schedule

CERTIFICATE_SCHEMA = "normnum.certificate/1"


class IndeterminateError(RuntimeError):
    """Neither half of the current interval passed the avoidance test."""

    def __init__(self, step, bounds, tail, threshold):
        self.step = step
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


def _interval_from_json(data) -> tuple[Fraction, Fraction]:
    """A recorded [lo, hi] pair, parsed and checked: 0 <= lo <= hi <= 1."""
    lo, hi = data
    lo, hi = parse_fraction(lo), parse_fraction(hi)
    if not (0 <= lo <= 1 and 0 <= hi <= 1):
        raise ValueError("interval endpoints must lie in [0, 1]")
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    return lo, hi


class StepRecord(Record):
    """Everything recorded about one digit decision; `interval` and
    `chosen` are (lo, hi) pairs of the half-open intervals [lo, hi)."""

    __slots__ = (
        "step", "size_index", "interval", "digit", "chosen", "chosen_bound",
        "rejected_bound", "tail", "threshold", "precision", "components",
    )

    def __init__(
        self,
        step: int,
        size_index: int,
        interval: tuple[Fraction, Fraction],
        digit: int,
        chosen: tuple[Fraction, Fraction],
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
            "interval": [format_fraction(end) for end in self.interval],
            "digit": self.digit,
            "chosen": [format_fraction(end) for end in self.chosen],
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
            interval=_interval_from_json(data["interval"]),
            digit=data["digit"],
            chosen=_interval_from_json(data["chosen"]),
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

    One family, with its component rows, and one tail bound are built per
    size index; size indices never decrease along the steps, so only the
    current ones are kept. Step s halves [num, num + 1) / 2**(s - 1) at
    (2*num + i) / 2**s, i = 0, 1, 2, keeps the first half whose summed
    component overlaps plus the tail stay under 2**-s, and goes on with
    num = 2*num + digit. Raises IndeterminateError at the first step where
    neither half passes.
    """
    built_index, family, rows, tail = None, None, None, None
    num = 0
    for step in count(1):
        size_index = schedule.family_index(step)
        if size_index != built_index:
            family = bad_family(size_index, schedule, precision, budget)
            rows = [
                {"label": comp.label, "kind": comp.kind, "members": comp.members,
                 "outer_measure": format_fraction(comp.measure)}
                for comp in family.components
            ]
            tail = tail_mass_bound(size_index, schedule)
            built_index = size_index
        threshold = Fraction(1, 2**step)
        ends = [Fraction(2 * num + i, 2**step) for i in range(3)]
        interval = ends[0], ends[2]
        overlaps = family.overlaps(ends[0], ends[1])
        bound0 = sum(overlaps, ZERO)
        if bound0 + tail < threshold:
            digit, chosen_bound, rejected_bound = 0, bound0, None
        else:
            overlaps = family.overlaps(ends[1], ends[2])
            bound1 = sum(overlaps, ZERO)
            if not bound1 + tail < threshold:
                raise IndeterminateError(step, (bound0, bound1), tail, threshold)
            digit, chosen_bound, rejected_bound = 1, bound1, bound0
        yield StepRecord(
            step=step,
            size_index=size_index,
            interval=interval,
            digit=digit,
            chosen=(ends[digit], ends[digit + 1]),
            chosen_bound=chosen_bound,
            rejected_bound=rejected_bound,
            tail=tail,
            threshold=threshold,
            precision=precision,
            components=tuple(
                {**row, "chosen_overlap": format_fraction(overlap)}
                for row, overlap in zip(rows, overlaps)
            ),
        )
        num = 2 * num + digit


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
    certificate: Certificate, budget: int = DEFAULT_EVENT_BUDGET
) -> VerificationReport:
    """Run the construction afresh and compare each recorded step with it.

    The certificate's own schedule, whose digest `Certificate.from_json`
    checks, drives the generator `run_construction` uses. Recorded values
    are only parsed and compared, never computed on: every field, component
    rows included, must equal the fresh step's exactly. When the fresh run
    stops because neither half of a step passes, that step is reported and
    the later steps, which have nothing to be compared with, are not.
    """
    problems: list[str] = []
    if certificate.digits != "".join(str(record.digit) for record in certificate.steps):
        problems.append("digit string differs from the steps' digits")
    fresh_records = _records(certificate.schedule, budget=budget)
    for position, record in enumerate(certificate.steps, start=1):
        label = "step %d" % position
        try:
            fresh = next(fresh_records)
        except IndeterminateError:
            problems.append("%s: neither half passes" % label)
            break
        problems.extend(_differences(label, record, fresh))
    return VerificationReport(not problems, len(certificate.steps), tuple(problems))
