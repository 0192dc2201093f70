"""Monte Carlo measure estimates over normnum's seeded sample streams.

The tests cross-check exact region measures against these estimates; the
library itself never estimates, so the estimator lives here.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from normnum.enclose import Enclosure
from normnum.mc import SamplerSpec, sample_integers
from normnum.measure import RationalLike, format_fraction

_SCALE = 2**128


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
    if spec.count < 100:
        raise ValueError("sample count below 100 is statistically useless")
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
            else Enclosure(reference, reference)
        )
        if variance == 0:
            ok = ref_enc.lo <= estimate <= ref_enc.hi
        else:
            ok = _within_four_sigma(estimate, ref_enc, variance)
        verdict = "consistent" if ok else "inconsistent"
    return EstimateReport(spec, hits, estimate, variance, ref_enc, verdict)

