"""Seeded Monte Carlo estimation of set measures, for cross-checking.

Sampling is a counter-mode hash construction: point i of a stream is
derived from blake2b(seed, counter, i), so streams are reproducible
bit for bit, splittable by counter, and independent of Python's RNG
state. Points have 128 fractional bits and are exact rationals, so
membership tests against exact regions inherit no rounding at all.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .enclose import Enclosure
from .measure import RationalLike, as_fraction, format_fraction

RESOLUTION_BITS = 128
_SCALE = 2**RESOLUTION_BITS


@dataclass(frozen=True)
class SamplerSpec:
    """A reproducible sample stream: seed picks the family, counter the
    stream, count its length."""

    seed: int
    count: int
    counter: int = 0

    def __post_init__(self) -> None:
        if self.count < 100:
            raise ValueError("sample count below 100 is statistically useless")
        if self.seed < 0 or self.counter < 0:
            raise ValueError("seed and counter must be non-negative")


def sample_integers(spec: SamplerSpec) -> list[int]:
    """The stream's points as integers in [0, 2**128)."""
    out = []
    pack = struct.pack
    for i in range(spec.count):
        digest = hashlib.blake2b(
            pack("<QQQ", spec.seed & (2**64 - 1), spec.counter, i),
            digest_size=16,
        ).digest()
        out.append(int.from_bytes(digest, "big"))
    return out


def sample_points(spec: SamplerSpec) -> list[Fraction]:
    return [Fraction(r, _SCALE) for r in sample_integers(spec)]


@dataclass(frozen=True)
class EstimateReport:
    spec: SamplerSpec
    hits: int
    estimate: Fraction
    variance: Fraction
    reference: Optional[Enclosure]
    verdict: Optional[str]

    def to_json(self) -> dict:
        return {
            "seed": self.spec.seed,
            "counter": self.spec.counter,
            "count": self.spec.count,
            "hits": self.hits,
            "estimate": format_fraction(self.estimate),
            "variance": format_fraction(self.variance),
            "reference": None if self.reference is None else self.reference.to_json(),
            "verdict": self.verdict,
        }


def _within_four_sigma(estimate: Fraction, reference: Enclosure, variance: Fraction) -> bool:
    """Exact test of |estimate - reference| <= 4 * standard error.

    Distances are compared squared against 16 * variance, so no square
    roots are ever taken.
    """
    if reference.lo <= estimate <= reference.hi:
        return True
    gap = reference.lo - estimate if estimate < reference.lo else estimate - reference.hi
    return gap * gap <= 16 * variance


def estimate_measure(
    member: Callable[[Fraction], bool],
    spec: SamplerSpec,
    reference: Optional[Union[Enclosure, RationalLike]] = None,
) -> EstimateReport:
    """Estimate the measure of {x : member(x)} over the unit interval.

    With a reference value or enclosure, attaches a four-sigma verdict:
    "consistent" or "inconsistent".
    """
    hits = 0
    for point in sample_points(spec):
        if member(point):
            hits += 1
    estimate = Fraction(hits, spec.count)
    variance = estimate * (1 - estimate) / spec.count
    verdict = None
    ref_enc = None
    if reference is not None:
        ref_enc = (
            reference
            if isinstance(reference, Enclosure)
            else Enclosure.exact(as_fraction(reference))
        )
        if variance == 0:
            ok = ref_enc.lo <= estimate <= ref_enc.hi
        else:
            ok = _within_four_sigma(estimate, ref_enc, variance)
        verdict = "consistent" if ok else "inconsistent"
    return EstimateReport(spec, hits, estimate, variance, ref_enc, verdict)

