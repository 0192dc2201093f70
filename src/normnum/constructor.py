"""Digit emission by nested dyadic halving with audited avoidance tests.

Each step halves the current interval and keeps the first half whose
certified bad-mass bound (materialized overlap plus residual tail) stays
under the step's shrinking threshold. Every step is recorded in a
certificate with exact rational figures. One generator takes every digit
decision: the emitter collects its records, and the verifier runs it afresh
from the schedule and compares each recorded step, as the JSON it reads,
with the fresh step's JSON, so no recorded value ever enters a computation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, Optional

from .badsets import bad_family, tail_mass_bound
from .measure import ZERO, Record, check_digit_count, format_fraction
from .schedule import Schedule

CERTIFICATE_SCHEMA = "normnum.certificate/1"
_CERTIFICATE_FIELDS = {"schema", "schedule", "schedule_digest", "digits", "steps"}


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


# what a problem shows where a key is missing from one side
_ABSENT = object()


def _shown(value) -> str:
    """A value as a problem shows it: a string bare, anything else as JSON,
    cut to its first 64 characters."""
    if value is _ABSENT:
        return "(absent)"
    if not isinstance(value, str):
        try:
            value = json.dumps(value)
        except RecursionError:
            return "(nested too deeply to show)"
    if len(value) > 64:
        return "%s\u2026 (%d characters)" % (value[:64], len(value))
    return value


def _same(recorded, expected) -> bool:
    """Type-strict equality along the shape of the JSON value `expected`,
    which bounds the recursion: lists item by item, objects by their key set
    and values, leaves by type and value, so `false` is not `0`."""
    kind = type(expected)
    if type(recorded) is not kind:
        return False
    if kind is list:
        return len(recorded) == len(expected) and all(map(_same, recorded, expected))
    if kind is dict:
        return recorded.keys() == expected.keys() and all(
            _same(recorded[key], value) for key, value in expected.items()
        )
    return recorded == expected


def _mismatches(prefix: str, recorded, expected: dict, says="schedule says") -> list[str]:
    """One problem per key of either object whose values are not `_same`; a
    recorded value that is no object is one problem."""
    if type(recorded) is not dict:
        return ["%s%s, %s an object" % (prefix, _shown(recorded), says)]
    problems = []
    for key in sorted(recorded.keys() | expected.keys()):
        value, wanted = recorded.get(key, _ABSENT), expected.get(key, _ABSENT)
        if not _same(value, wanted):
            field = prefix + _shown(key.replace("_", " "))
            problems.append("%s %s, %s %s" % (field, _shown(value), says, _shown(wanted)))
    return problems


class Certificate(Record):
    """A schedule, its digits and their steps: `StepRecord`s when built by
    `run_construction` (only these are dumped), or the JSON values read when
    loaded, which `verify_certificate` compares with the replay."""

    __slots__ = ("schedule", "digits", "steps")

    def __init__(self, schedule: Schedule, digits: str, steps: tuple):
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
        """Check what the replay depends on: the schema, the schedule as
        `digits` writes it and its digest, the digit string, and a list of
        at most MAX_DIGIT_COUNT steps. The steps themselves are left as read."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != CERTIFICATE_SCHEMA:
            raise ValueError("unrecognized certificate schema %r" % schema)
        wrong = sorted(data.keys() ^ _CERTIFICATE_FIELDS)
        if wrong:
            kind = "unexpected" if wrong[0] in data else "missing"
            raise ValueError("%s field %r" % (kind, wrong[0][:64]))
        if type(data["digits"]) is not str:
            raise ValueError("field 'digits' must be a string")
        schedule = Schedule.from_json(data["schedule"])
        respelled = _mismatches("", data["schedule"], schedule.to_json(), "digits writes")
        if respelled:
            raise ValueError("malformed schedule: " + "; ".join(respelled))
        digest = schedule.digest()
        if data["schedule_digest"] != digest:
            raise ValueError(
                "schedule_digest does not match the recorded schedule, whose "
                "digest is %s" % digest
            )
        steps = data["steps"]
        if type(steps) is not list:
            raise ValueError("steps must be a list")
        check_digit_count(len(steps))
        return cls(schedule=schedule, digits=data["digits"], steps=tuple(steps))

    def dump(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        return cls.from_json(data)


def _records(schedule: Schedule, precision: int = 64) -> Iterator[StepRecord]:
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
            family = bad_family(size_index, schedule, precision)
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
    schedule: Schedule, digit_count: int, precision: int = 64
) -> Certificate:
    """Emit digits with a full audit trail.

    `precision` is the starting precision of the threshold enclosures; the
    families themselves are exact and do not depend on it. Raises
    IndeterminateError if both halves of some step fail the avoidance
    test, and propagates BudgetError if a family build would exceed the
    sweep's event bound (`orbit.EVENT_BUDGET`).
    """
    if digit_count < 1:
        raise ValueError("digit count must be positive")
    records = tuple(islice(_records(schedule, precision), digit_count))
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


def verify_certificate(certificate: Certificate) -> VerificationReport:
    """Run the construction afresh from the certificate's schedule and
    compare each recorded step, field for field and row for row, with the
    fresh step's JSON (`_same`), and the digit string with the fresh digits.
    A recorded `precision` may be any JSON integer: families do not depend
    on the start precision. When the fresh run stops because neither half of
    a step passes, that step is reported and the later ones are not.
    """
    problems: list[str] = []
    digits = ""
    fresh_records = _records(certificate.schedule)
    for position, recorded in enumerate(certificate.steps, start=1):
        label = "step %d: " % position
        try:
            fresh = next(fresh_records).to_json()
        except IndeterminateError:
            problems.append(label + "neither half passes")
            break
        digits += str(fresh["digit"])
        step = recorded if type(recorded) is dict else {}
        if type(step.get("precision")) is int:
            fresh["precision"] = step["precision"]
        # rows of the same count are compared one by one, others as one field
        rows, fresh_rows = step.get("components"), fresh["components"]
        if type(rows) is list and len(rows) == len(fresh_rows):
            recorded = {**step, "components": fresh_rows}
        else:
            rows = ()
        problems += _mismatches(label, recorded, fresh)
        for row, fresh_row in zip(rows, fresh_rows):
            prefix = "%scomponent %s: " % (label, fresh_row["label"])
            problems += _mismatches(prefix, row, fresh_row)
    else:
        problems += _mismatches("", {"digits": certificate.digits}, {"digits": digits})
    return VerificationReport(not problems, len(certificate.steps), tuple(problems))
