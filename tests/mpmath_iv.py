"""mpmath's interval type as a test-only judge of the enclosure kernel.

The library evaluates its closed forms with `normnum.enclose.DyadicInterval`.
The tests evaluate reference expressions with mpmath's `iv` context at the
kernel's working precision and hand them to `eval_iv` / `eval_iv_tight`
through `mpmath_expr`, so both sides meet in the same enclosure code.
"""

from mpmath import iv

from normnum.enclose import DyadicInterval


def from_iv(value) -> DyadicInterval:
    """Kernel interval with the exact endpoints of an mpmath interval."""
    ends = []
    for sign, man, exp, _ in value._mpi_:
        if not man and exp:
            raise ValueError("enclosure endpoint is not finite")
        ends.append((-man if sign else man, exp))
    return DyadicInterval(*ends)


def mpmath_expr(fn):
    """An interval expression for `eval_iv` that mpmath evaluates: `fn`
    runs at the kernel's working precision and its endpoints are taken
    exactly."""

    def run() -> DyadicInterval:
        old = iv.prec
        iv.prec = DyadicInterval.prec
        try:
            return from_iv(fn())
        finally:
            iv.prec = old

    return run


def mp_fraction(x):
    """mpmath interval of a rational, as the kernel's `iv_fraction` makes
    it: rounded numerator over rounded denominator."""
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)
