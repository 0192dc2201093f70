"""Exact rational construction of a binary expansion whose orbits keep low
discrepancy in every integer base, plus the audit tooling around it:
interval measure arithmetic, windowed orbit deviation sweeps, bad-set
families with certified tail bounds, certificate replay, exact
discrepancy statistics, and a Monte Carlo cross check.
"""

from .measure import (
    BudgetError,
    Interval,
    IntervalSet,
    PeriodicIntervalSet,
    UNIT,
    as_fraction,
    format_fraction,
    parse_fraction,
)
from .enclose import Enclosure
from .orbit import (
    Band,
    Window,
    deviation_measure,
    deviation_region,
    deviation_regions,
    f_value,
    hit_count,
    orbit_point,
)
from .badsets import (
    BadFamily,
    DomainError,
    Schedule,
    StraddleError,
    bad_family,
    badic_deviation_bound,
    block_bad_set,
    dyadic_deviation_bound,
    preset,
    tail_bad_set,
    tail_mass_bound,
)
from .constructor import (
    Certificate,
    IndeterminateError,
    StepRecord,
    digits_to_fraction,
    run_construction,
    verify_certificate,
)
from .discrepancy import (
    extreme_discrepancy,
    normality_ratio,
    orbit_points,
    star_discrepancy,
)
from .mc import SamplerSpec, check_bound, estimate_measure

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Interval",
    "IntervalSet",
    "PeriodicIntervalSet",
    "UNIT",
    "as_fraction",
    "format_fraction",
    "parse_fraction",
    "Enclosure",
    "Band",
    "Window",
    "deviation_measure",
    "deviation_region",
    "deviation_regions",
    "f_value",
    "hit_count",
    "orbit_point",
    "BadFamily",
    "DomainError",
    "Schedule",
    "StraddleError",
    "bad_family",
    "badic_deviation_bound",
    "block_bad_set",
    "dyadic_deviation_bound",
    "preset",
    "tail_bad_set",
    "tail_mass_bound",
    "Certificate",
    "IndeterminateError",
    "StepRecord",
    "digits_to_fraction",
    "run_construction",
    "verify_certificate",
    "extreme_discrepancy",
    "normality_ratio",
    "orbit_points",
    "star_discrepancy",
    "SamplerSpec",
    "check_bound",
    "estimate_measure",
    "__version__",
]
