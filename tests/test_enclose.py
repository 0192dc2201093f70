"""Rational enclosures of irrational quantities via outward interval rounding."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, libmp

from normnum import badsets, discrepancy, enclose, lemmas
from normnum.enclose import (
    Enclosure,
    DyadicInterval,
    eval_iv,
    eval_iv_tight,
    iv_fraction,
)
from normnum.schedule import HARD_START_FLOOR

import closed_forms
from mpmath_iv import mp_fraction, mpmath_expr

F = Fraction


def test_enclosure_invariants():
    e = Enclosure(F(1, 3), F(1, 2))
    assert e.width == F(1, 6)
    assert e.lo < e.hi
    with pytest.raises(ValueError):
        Enclosure(F(1, 2), F(1, 3))


def test_enclosure_intersect():
    a = Enclosure(F(0), F(1, 2))
    b = Enclosure(F(1, 4), F(3, 4))
    assert a.intersect(b) == Enclosure(F(1, 4), F(1, 2))
    with pytest.raises(ValueError):
        a.intersect(Enclosure(F(2, 3), F(3, 4)))


def tight_sqrt(x, precision=64):
    """eval_iv_tight of sqrt(x) from an outward-rounded rational."""
    return eval_iv_tight(precision, mpmath_expr(lambda: iv.sqrt(mp_fraction(F(x)))))


def test_sqrt_brackets_truth():
    for n in (2, 3, 5, 7, 10, 33):
        e = tight_sqrt(n)
        assert e.lo > 0
        assert e.lo**2 <= n <= e.hi**2
        assert e.width <= F(1, 2**60)


def test_refinement_is_nested():
    for target in (2, 7, 97):
        wide = tight_sqrt(target, 24)
        tight = tight_sqrt(target, 120)
        assert wide.lo <= tight.lo <= tight.hi <= wide.hi
        assert tight.width < wide.width or wide.lo == wide.hi


def test_eval_iv_tight_hits_requested_relative_width():
    e = eval_iv_tight(100, mpmath_expr(lambda: iv.sqrt(3)))
    assert e.width <= F(1, 2**100) * max(abs(e.lo), abs(e.hi))


def test_hard_start_floor_value():
    # least integer strictly above exp(12 / ln 2)
    e = eval_iv_tight(96, mpmath_expr(lambda: iv.exp(12 / iv.log(2))))
    assert e.hi < HARD_START_FLOOR
    assert e.lo > HARD_START_FLOOR - 1
    assert HARD_START_FLOOR == 33010640


# -- the kernel against mpmath's interval type ----------------------------------


def _scale_mp(length, base, delta):
    n = iv.mpf(length)
    coef = (
        2
        * (1 + 2 * mp_fraction(delta))
        * (iv.mpf(1) / 2 + 2 / (iv.sqrt(iv.mpf(base)) - 1))
    )
    return coef * iv.sqrt(n * iv.log(iv.log(n)))


def _threshold_mp(length, base, delta, exponent):
    return iv.exp(mp_fraction(exponent) * iv.log(iv.mpf(2))) * _scale_mp(
        length, base, delta
    )


TOY_EXPONENTS = [F(-23, 24), F(-11, 12), F(-19, 24), F(-3, 4), F(-5, 8), F(-3, 8)]
TOY_EXPONENTS += [F(-1, 4), F(-1, 8), F(0), F(1, 2)]
THRESHOLDS = [
    (length, base, delta, exponent)
    for length, base in ((16, 2), (64, 3), (256, 7))
    for delta in (F(-2, 5), F(-27, 64))
    for exponent in TOY_EXPONENTS
] + [
    (length, base, F(1, 2), exponent)
    for length in (2**5, 2**40, 2**HARD_START_FLOOR)
    for base in (2, 5)
    for exponent in (F(-1, 8), F(0), F(3, 2))
]
BADIC_ROWS = [
    (2, 1, 64, F(1, 4)),
    (2, 1, 128, F(1, 2)),
    (2, 2, 256, F(1, 4)),
    (3, 1, 64, F(1, 4)),
    (3, 2, 512, F(1, 9)),
]
DYADIC_ROWS = [(2, 1, 256, F(1, 2)), (2, 2, 256, F(1, 2)), (3, 1, 128, F(1, 2))]
RATIO_COUNTS = [2**k for k in range(4, 17)] + [17, 1000, 65535]


def _closed_forms():
    """(name, function, args, mpmath expression) for each closed form the
    CLI evaluates: toy and paper thresholds, the badic and dyadic grid
    rows, --ratio and cost's log2; and for the Philipp and Fukuyama
    constants of `closed_forms`."""
    forms = []
    for length, base, delta, exponent in THRESHOLDS:
        forms.append(
            (
                "threshold",
                badsets._tilted_threshold,
                (length, base, delta, exponent, 64),
                lambda a=(length, base, delta, exponent): _threshold_mp(*a),
            )
        )
    for base, m, length, eps in BADIC_ROWS:
        coefficient = 2 * base ** (2 * m - 2) * m
        exponent = -(eps * eps) * length * base**m / (6 * m)
        forms.append(
            (
                "badic",
                lemmas.badic_deviation_bound,
                (base, m, length, eps),
                lambda c=coefficient, x=exponent: c * iv.exp(mp_fraction(x)),
            )
        )
    for base, k, length, eps in DYADIC_ROWS:
        coefficient = 9 * 2 ** (2 * (k + 2)) * (k + 2)
        exponent = -(eps * eps) * length * 2 ** (k + 2) / (6 * (k + 2))
        forms.append(
            (
                "dyadic",
                lemmas.dyadic_deviation_bound,
                (base, k, length, eps),
                lambda c=coefficient, x=exponent: c * iv.exp(mp_fraction(x)),
            )
        )
    for count in RATIO_COUNTS:
        disc = F(count + 3, 7 * count)
        forms.append(
            (
                "ratio",
                discrepancy.normalized_ratio,
                (disc, count),
                lambda d=disc, n=count: mp_fraction(d)
                * iv.sqrt(iv.mpf(n) / iv.log(iv.log(iv.mpf(n)))),
            )
        )
    for base in (2, 3, 5, 6, 7, 8, 10, 12):
        forms.append(
            (
                "philipp",
                closed_forms.philipp_constant,
                (base,),
                lambda b=base: 166 + 664 / (iv.sqrt(iv.mpf(b)) - 1),
            )
        )
    for theta in (2, 3, 4, 5, 6, 7, 10):
        if theta == 2:
            radicand = F(84, 81)
        elif theta % 2:
            radicand = F(2 * (theta + 1), theta - 1) / 4
        else:
            radicand = F(2 * (theta + 1) * theta * (theta - 2), (theta - 1) ** 3) / 4
        forms.append(
            (
                "fukuyama",
                closed_forms.fukuyama_constant,
                (theta,),
                lambda r=radicand: iv.sqrt(mp_fraction(r)),
            )
        )
    for n in range(1, 11):
        states = 2 * n + 2
        forms.append(
            (
                "cost",
                enclose.naive_cost_log2,
                (n,),
                lambda s=states: iv.log(mp_fraction(F(s))) / iv.log(iv.mpf(2)),
            )
        )
    return forms


def _handed_expression(monkeypatch, fn, args):
    """The interval expression `fn(*args)` hands to eval_iv_tight, or None
    when it answers exactly without one."""
    handed = []

    def capture(precision, expr):
        handed.append(expr)
        return Enclosure(0, 0)

    for module in (badsets, closed_forms, discrepancy, enclose, lemmas):
        monkeypatch.setattr(module, "eval_iv_tight", capture)
    fn(*args)
    monkeypatch.undo()
    return handed[0] if handed else None


@pytest.mark.parametrize("bits", [8, 16, 64, 80, 96, 300, 4096])
def test_closed_forms_match_mpmath_endpoints(monkeypatch, bits):
    # every closed form the CLI evaluates gets mpmath's exact endpoints
    # (eval_iv raises 8 bits to its floor of 16, as it always has)
    checked = 0
    for name, fn, args, reference in _closed_forms():
        ours = _handed_expression(monkeypatch, fn, args)
        if ours is None:
            continue
        got = eval_iv(bits, ours)
        want = eval_iv(bits, mpmath_expr(reference))
        assert got == want, (name, args, bits)
        checked += 1
    assert checked >= 100


def _round_fraction(q: Fraction, prec: int, up: bool) -> Fraction:
    """q rounded to prec significant bits, toward +inf if up else -inf."""
    if q == 0:
        return q
    e = abs(q.numerator).bit_length() - q.denominator.bit_length() - prec
    while abs(q) >= F(2) ** (e + prec):
        e += 1
    while abs(q) < F(2) ** (e + prec - 1):
        e -= 1
    scaled = q / F(2) ** e
    num, den = scaled.numerator, scaled.denominator
    return (-(-num // den) if up else num // den) * F(2) ** e


def _value(x: tuple) -> Fraction:
    return F(x[0]) * F(2) ** x[1]


def _reference(op: str, x: tuple, prec: int):
    """op(m * 2**e) rounded down and up to prec bits, from mpmath 240 bits
    wider with its error taken as 4 units in its last place; None when
    that leaves the rounding open (an exact result never does)."""
    value = libmp.from_man_exp(*x)
    fn = {"log": libmp.mpf_log, "exp": libmp.mpf_exp, "sqrt": libmp.mpf_sqrt}[op]
    y = F(*map(int, libmp.to_rational(fn(value, prec + 240, "n"))))
    exact = _value(x)
    if {"sqrt": y * y == exact, "log": exact == 1, "exp": exact == 0}[op]:
        return y, y
    slack = abs(y) * F(1, 2 ** (prec + 238))
    ends = []
    for up in (False, True):
        end = _round_fraction(y - slack, prec, up)
        if end != _round_fraction(y + slack, prec, up):
            return None
        ends.append(end)
    return tuple(ends)


def _endpoint(op: str, prec: int, mantissa: int, exponent: int, negative: bool):
    """A prec-bit endpoint in the domain of op, |x| < 2**12 for exp."""
    mantissa >>= max(0, mantissa.bit_length() - prec)
    if op == "exp":
        exponent = min(exponent, 12 - mantissa.bit_length())
    return (-mantissa if negative and op == "exp" else mantissa, exponent)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(["log", "exp", "sqrt"]),
    prec=st.integers(16, 320),
    mantissa=st.integers(1, 2**320),
    exponent=st.integers(-400, 400),
    negative=st.booleans(),
)
@example(op="log", prec=64, mantissa=2**64 + 1, exponent=-64, negative=False)
@example(op="log", prec=64, mantissa=2**64 - 1, exponent=-64, negative=False)
@example(op="exp", prec=64, mantissa=1, exponent=-300, negative=True)
@example(op="exp", prec=64, mantissa=1, exponent=-300, negative=False)
@example(op="sqrt", prec=53, mantissa=9, exponent=-4, negative=False)
@example(op="log", prec=16, mantissa=1, exponent=0, negative=False)
def test_log_exp_sqrt_correctly_rounded(op, prec, mantissa, exponent, negative):
    # a point endpoint at prec bits maps to the correctly rounded floor and
    # ceiling of the function, judged by mpmath far wider
    point = _endpoint(op, prec, mantissa, exponent, negative)
    want = _reference(op, point, prec)
    if want is None:
        return
    got = eval_iv(prec, lambda: getattr(DyadicInterval(point, point), op)())
    assert (got.lo, got.hi) == want


_POINT = st.tuples(st.integers(1, 2**320), st.integers(-400, 400), st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(["log", "exp"]),
    prec=st.integers(16, 320),
    first=_POINT,
    gap=st.integers(1, 64),
    second=st.none() | _POINT,
)
@example(op="log", prec=64, first=(2**64 - 1, -64, False), gap=2, second=None)
@example(op="exp", prec=64, first=(1, -300, True), gap=2, second=None)
@example(op="exp", prec=64, first=(3, -200, True), gap=1, second=None)
def test_log_exp_of_an_interval_correctly_rounded(op, prec, first, gap, second):
    # [lo, hi] with lo < hi maps to the correctly rounded floor of f(lo) and
    # ceiling of f(hi): hi is lo plus a gap of a few units in lo's last
    # place, or a second endpoint drawn on its own
    lo = _endpoint(op, prec, *first)
    hi = (lo[0] + gap, lo[1]) if second is None else _endpoint(op, prec, *second)
    lo, hi = sorted((lo, hi), key=_value)
    if _value(lo) == _value(hi):
        return
    low, high = _reference(op, lo, prec), _reference(op, hi, prec)
    if low is None or high is None:
        return
    got = eval_iv(prec, lambda: getattr(DyadicInterval(lo, hi), op)())
    assert (got.lo, got.hi) == (low[0], high[1])


def test_exp_floor_is_correctly_rounded_where_mpmath_is_not():
    # at 64 bits mpmath 1.3's floor endpoint of exp(-123456789/1000) is one
    # unit in the last place low; the kernel's is the correctly rounded
    # value, checked against a 464-bit evaluation
    x = F(-123456789, 1000)
    ulp = F(1, 2**178174)
    got = eval_iv(64, lambda: iv_fraction(x).exp())
    assert got.lo == 13068665440337198149 * ulp
    assert got.hi == 13068665440337291008 * ulp
    arg = eval_iv(64, lambda: iv_fraction(x)).lo
    value = libmp.from_rational(arg.numerator, arg.denominator, 464, "n")
    wide = F(*map(int, libmp.to_rational(libmp.mpf_exp(value, 464, "n"))))
    assert got.lo < wide < got.lo + ulp
    reference = eval_iv(64, mpmath_expr(lambda: iv.exp(mp_fraction(x))))
    assert reference.lo <= got.lo and reference.hi == got.hi


def _mpmath_value(op: str, x: tuple, work: int) -> tuple:
    """op(x) from mpmath 300 bits past work, and past twice the leading
    zeros of a tiny x (exp(x) - 1 - x is of size x**2), with a bound on
    its error of 4 units in its last place."""
    bits = work + 300 + 2 * max(0, -(x[0].bit_length() + x[1]))
    fn = {"log": libmp.mpf_log, "exp": libmp.mpf_exp}[op]
    raw = fn(libmp.from_man_exp(*x), bits, "n")
    y = F(*map(int, libmp.to_rational(raw)))
    return y, abs(y) * F(1, 2 ** (bits - 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(["log", "exp"]),
    work=st.integers(40, 400),
    mantissa=st.integers(1, 2**200),
    exponent=st.integers(-300, 300),
    negative=st.booleans(),
)
@example(op="log", work=88, mantissa=1, exponent=0, negative=False)
@example(op="exp", work=88, mantissa=3, exponent=-200, negative=True)
# a --precision 4096 evaluation starts at work 4120
@example(op="log", work=4120, mantissa=2**200 - 12345, exponent=-197, negative=False)
@example(op="exp", work=4120, mantissa=2**200 - 12345, exponent=-189, negative=True)
def test_series_bounds_bracket_the_value(op, work, mantissa, exponent, negative):
    # the fixed-point bounds behind log and exp hold the true value, about
    # 2**-work apart
    if op == "exp":
        exponent = min(exponent, 12 - mantissa.bit_length())  # |x| < 2**12
        mantissa = -mantissa if negative else mantissa
    x = (mantissa, exponent)
    bounds = {"log": enclose._log_bounds, "exp": enclose._exp_bounds}[op]
    lo, hi, e = bounds(x, work)
    y, slack = _mpmath_value(op, x, work)
    scale = F(2) ** e
    if lo == hi:  # log 1 and exp 0 are exact
        assert lo * scale == y
    else:
        assert lo * scale <= y - slack and y + slack <= hi * scale
        assert (hi - lo) * scale <= abs(y) * F(1, 2**work)


@pytest.mark.parametrize("bits", [40, 100, 255, 256, 257, 4200])
def test_ln2_fixed_point_bounds(bits):
    # l <= ln(2) * 2**bits <= l + 2, whether computed or cut from a wider value
    wide = F(*map(int, libmp.to_rational(libmp.mpf_ln2(bits + 300, "n")))) * 2**bits
    slack = F(1, 2**200)
    for first in (bits, 2 * bits + 300):
        enclose._LN2[:] = [0, 0]
        enclose._ln2(first)
        low = enclose._ln2(bits)
        assert low <= wide - slack and wide + slack <= low + 2
