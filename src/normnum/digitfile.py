"""Digit files: emitted binary digits as text, and the point they name.

A digit file is a comment header (`DIGIT_FILE_HEADER`, then the preset,
the schedule digest and the digit count) followed by the digits,
`DIGITS_PER_LINE` to a line. `digits --digits-out` writes one and
`discrepancy --digits-file` reads one. Neither needs the construction, so
the module imports only `measure`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .measure import MAX_DIGIT_COUNT, BudgetError

DIGIT_FILE_HEADER = "# normnum digit file v1"
DIGITS_PER_LINE = 64


def digits_to_fraction(digits: str) -> Fraction:
    """The rational 0.d1 d2 ... in base 2."""
    value = 0
    for ch in digits:
        if ch not in "01":
            raise ValueError("digit %r out of range for base 2" % ch)
        value = value * 2 + int(ch)
    return Fraction(value, 2 ** len(digits))


def write_digit_file(path: str, certificate) -> None:
    """Write the digits of a `constructor.Certificate`, headed by its
    schedule's tag and digest."""
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
