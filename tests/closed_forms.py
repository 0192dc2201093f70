"""Two classical almost-sure discrepancy constants, enclosed exactly.

No command reports them. The tests pin their values and check their
interval expressions against mpmath, so they live here until a lemma check
reports them.
"""

from fractions import Fraction
from math import isqrt

from normnum.enclose import Enclosure, eval_iv_tight, iv_fraction


def philipp_constant(base: int, precision: int = 64) -> Enclosure:
    """Classical almost-sure discrepancy constant 166 + 664/(sqrt(base)-1)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    root = _exact_sqrt(Fraction(base))
    if root is not None:
        value = 166 + Fraction(664, 1) / (root - 1)
        return Enclosure(value, value)
    return eval_iv_tight(
        precision, lambda: 166 + 664 / (iv_fraction(base).sqrt() - 1)
    )


def fukuyama_constant(theta: int, precision: int = 64) -> Enclosure:
    """Sharp almost-sure constants for geometric sequences theta**j.

    theta = 2 gives sqrt(84)/9; odd theta gives
    sqrt(2(theta+1)/(theta-1))/2; even theta >= 4 gives
    sqrt(2(theta+1)theta(theta-2)/(theta-1)**3)/2. Exact whenever the
    radicand is a rational square.
    """
    if theta < 2:
        raise ValueError("theta must be at least 2")
    if theta == 2:
        radicand = Fraction(84, 81)
    elif theta % 2 == 1:
        radicand = Fraction(2 * (theta + 1), theta - 1) / 4
    else:
        radicand = Fraction(
            2 * (theta + 1) * theta * (theta - 2), (theta - 1) ** 3
        ) / 4
    root = _exact_sqrt(radicand)
    if root is not None:
        return Enclosure(root, root)
    return eval_iv_tight(precision, lambda: iv_fraction(radicand).sqrt())


def _exact_sqrt(value: Fraction):
    num = isqrt(value.numerator)
    den = isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None
