"""Workload plans for the normnum benchmark.

A plan is one pass of CLI calls generated from a workload seed. Each call
carries the check its output must pass: golden values recorded from the
program, or an exact oracle computed here. The program only ever sees the
generated argv.

Workloads, and the layers each one stresses and bypasses:

* toy-construct: `digits --count 2 --cert-out` then `verify` for toy-mixed
  and toy-seeded (different threshold tilts, so different region sizes;
  toy-seeded adds the obstacle and a digit 1), plus
  `digits --preset paper --count 12`, which must exit 3.
  Stresses the orbit sweep, measure unions, badsets family assembly and the
  constructor replay: digits builds the family once, verify once per step.
  The paper refusal is front-end arithmetic only. Bypasses the cell-chain
  DP and discrepancy.
* bound-grid: the six `lemma` checks with the workload seed as `--seed`.
  Stresses the orbit cell-chain DP (the badic grid is most of the pass),
  enclose bound evaluation and pointwise orbits. Never sweeps or builds a
  family, so sweep-kernel and family-cache changes should read flat here.
* orbit-discrepancy: `discrepancy --ratio` at N = 240 on four seeded p/q,
  one long and one short orbit per base 2 and 3. Long orbits have period at
  least N; short ones have period d near N/2, so their points repeat and the
  O(N^2) exact enumeration sees d distinct points. Bypasses badsets, the
  sweep and the DP. The mix is fixed per pass so that the cost does not
  depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import log, sqrt
from pathlib import Path
from typing import Callable, Optional

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())

# toy-sparse builds the same family as toy-seeded minus the obstacle, so the
# timed pass uses the other two; --selfcheck still covers all three.
TOY_PRESETS = ("toy-mixed", "toy-seeded")
ALL_TOY_PRESETS = ("toy-sparse",) + TOY_PRESETS
# Two digits keep one toy pass near 14 s on a 2-core box while verify still
# builds the family once per step (twice) against once for digits.
TOY_COUNT = 2
LEMMAS = ("badic", "dyadic", "depth", "cover", "chain", "masstail")
ORBIT_COUNT = 240
ORBIT_KINDS = (("long", 2), ("long", 3), ("short", 2), ("short", 3))

WORKLOADS = ("toy-construct", "bound-grid", "orbit-discrepancy")


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Call:
    key: str
    kind: str
    argv: tuple
    check: Callable[[Outcome], Optional[str]]
    clears: Optional[Path] = None  # output file removed before the call


@dataclass(frozen=True)
class Plan:
    name: str
    calls: tuple


def _report(outcome: Outcome, code: int = 0) -> dict:
    if outcome.returncode != code:
        raise ValueError(
            "exit %d, expected %d: %s"
            % (outcome.returncode, code, outcome.stderr.strip()[-200:])
        )
    return json.loads(outcome.stdout)


def _guarded(check: Callable[[Outcome], Optional[str]]):
    def run(outcome: Outcome) -> Optional[str]:
        try:
            return check(outcome)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return "%s: %s" % (type(exc).__name__, exc)

    return run


# ---- setup -----------------------------------------------------------------

SETUP_ARGV = ("cost", "--n", "1")


@_guarded
def check_setup(outcome: Outcome) -> Optional[str]:
    report = _report(outcome)
    if report["log2_states"] != "131072" or report["exact"] is not True:
        return "cost --n 1 reported %r" % report
    return None


# ---- toy-construct -----------------------------------------------------------


def _toy_golden(preset: str, count: int) -> dict:
    return GOLDEN["toy"][str(count)][preset]


def digits_check(preset: str, count: int, cert: Path):
    golden = _toy_golden(preset, count)

    @_guarded
    def check(outcome: Outcome) -> Optional[str]:
        report = _report(outcome)
        if report["digits"] != golden["digits"]:
            return "digits %s, golden %s" % (report["digits"], golden["digits"])
        sha = hashlib.sha256(cert.read_bytes()).hexdigest()
        if sha != golden["certificate_sha256"]:
            return "certificate sha256 %s differs from golden" % sha
        return None

    return check


def verify_check(preset: str, count: int):
    golden = _toy_golden(preset, count)

    @_guarded
    def check(outcome: Outcome) -> Optional[str]:
        report = _report(outcome)
        if report["ok"] is not True or report["problems"]:
            return "verify not ok: %s" % report["problems"][:3]
        if report["steps_checked"] != count or report["digits"] != golden["digits"]:
            return "verify checked %s steps of %s" % (report["steps_checked"], report["digits"])
        return None

    return check


@_guarded
def check_refusal(outcome: Outcome) -> Optional[str]:
    if outcome.returncode != 3:
        return "paper refusal exited %d, expected 3" % outcome.returncode
    if outcome.stdout.strip() or not outcome.stderr.startswith("budget exceeded"):
        return "paper refusal printed a report or no budget message"
    return None


def toy_plan(seed: int, work: Path) -> Plan:
    shift = seed % len(TOY_PRESETS)
    calls = []
    for preset in TOY_PRESETS[shift:] + TOY_PRESETS[:shift]:
        cert = work / ("%s.cert.json" % preset)
        calls.append(
            Call(
                "digits:" + preset,
                "digits",
                ("digits", "--preset", preset, "--count", str(TOY_COUNT),
                 "--cert-out", str(cert)),
                digits_check(preset, TOY_COUNT, cert),
                clears=cert,
            )
        )
        calls.append(
            Call("verify:" + preset, "verify", ("verify", str(cert)),
                 verify_check(preset, TOY_COUNT))
        )
    calls.append(
        Call("refuse:paper", "refuse",
             ("digits", "--preset", "paper", "--count", "12"), check_refusal)
    )
    return Plan("toy-construct", tuple(calls))


# ---- bound-grid ----------------------------------------------------------------


def lemma_check(which: str):
    golden = GOLDEN["lemma"][which]

    @_guarded
    def check(outcome: Outcome) -> Optional[str]:
        report = _report(outcome)
        if report["ok"] is not True or report["which"] != which:
            return "lemma %s not ok" % which
        if len(report["rows"]) != golden["rows"]:
            return "lemma %s gave %d rows" % (which, len(report["rows"]))
        if "worst_measure" in golden:
            worst = [row["worst_measure"] for row in report["rows"]]
            if worst != golden["worst_measure"]:
                return "lemma %s worst_measure rows differ from golden" % which
        return None

    return check


def lemma_plan(seed: int) -> Plan:
    calls = tuple(
        Call("lemma:" + which, "lemma",
             ("lemma", "--which", which, "--seed", str(seed)), lemma_check(which))
        for which in LEMMAS
    )
    return Plan("bound-grid", calls)


# ---- orbit-discrepancy ------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> set:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def _short_orbit(rng: random.Random, base: int, count: int) -> Fraction:
    """p/q with q prime and base of order d near count/2 mod q: period d."""
    while True:
        d = rng.randint(count // 2 - 3, count // 2 + 3)
        q = rng.randrange(2, 400, 2) * d + 1
        if (
            q % base
            and _is_prime(q)
            and pow(base, d, q) == 1
            and all(pow(base, d // r, q) != 1 for r in _prime_factors(d))
        ):
            return Fraction(rng.randrange(1, q), q)


def _long_orbit(rng: random.Random, base: int, count: int) -> Fraction:
    """p/q with q prime and base of order at least count mod q."""
    while True:
        q = rng.randrange(2**20, 2**22) | 1
        if not _is_prime(q):
            continue
        power = 1
        for _ in range(1, count):
            power = power * base % q
            if power == 1:
                break
        else:
            return Fraction(rng.randrange(1, q), q)


def orbit(x: Fraction, base: int, count: int) -> list:
    points = []
    for _ in range(count):
        x -= x.numerator // x.denominator
        points.append(x)
        x *= base
    return points


def kn_extreme(points: list) -> Fraction:
    """D_N = 1/N + max(i/N - x_(i)) - min(i/N - x_(i)) (Kuipers-Niederreiter)."""
    xs = sorted(points)
    n = len(xs)
    gaps = [Fraction(i, n) - x for i, x in enumerate(xs, 1)]
    return Fraction(1, n) + max(gaps) - min(gaps)


def kn_star(points: list) -> Fraction:
    """D*_N = 1/(2N) + max |x_(i) - (2i-1)/(2N)| (Kuipers-Niederreiter)."""
    xs = sorted(points)
    n = len(xs)
    return Fraction(1, 2 * n) + max(
        abs(x - Fraction(2 * i - 1, 2 * n)) for i, x in enumerate(xs, 1)
    )


def discrepancy_check(x: Fraction, base: int, count: int):
    points = orbit(x, base, count)
    extreme = kn_extreme(points)
    star = kn_star(points)
    ratio = float(extreme) * sqrt(count / log(log(count)))

    @_guarded
    def check(outcome: Outcome) -> Optional[str]:
        report = _report(outcome)
        if (report["base"], report["count"]) != (base, count):
            return "report echoes base %s count %s" % (report["base"], report["count"])
        if Fraction(report["extreme"]) != extreme:
            return "extreme %s, oracle %s" % (report["extreme"], extreme)
        if Fraction(report["star"]) != star:
            return "star %s, oracle %s" % (report["star"], star)
        if report["extreme_approx"] != float(extreme) or report["star_approx"] != float(star):
            return "approximate values disagree with the exact ones"
        lo, hi = (float(Fraction(end)) for end in report["ratio"])
        if not lo <= hi or not lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12):
            return "ratio [%r, %r] misses %r" % (lo, hi, ratio)
        return None

    return check


def orbit_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    kinds = list(ORBIT_KINDS)
    rng.shuffle(kinds)
    calls = []
    for kind, base in kinds:
        make = _long_orbit if kind == "long" else _short_orbit
        x = make(rng, base, ORBIT_COUNT)
        distinct = len(set(orbit(x, base, ORBIT_COUNT)))
        if (kind == "long") != (distinct == ORBIT_COUNT):
            raise RuntimeError("generated %s orbit has %d distinct points" % (kind, distinct))
        calls.append(
            Call(
                "discrepancy:%s-b%d" % (kind, base),
                "discrepancy",
                ("discrepancy", "--x", "%d/%d" % (x.numerator, x.denominator),
                 "--base", str(base), "--count", str(ORBIT_COUNT), "--ratio"),
                discrepancy_check(x, base, ORBIT_COUNT),
            )
        )
    return Plan("orbit-discrepancy", tuple(calls))


def build_plan(name: str, seed: int, work: Path) -> Plan:
    if name == "toy-construct":
        return toy_plan(seed, work)
    if name == "bound-grid":
        return lemma_plan(seed)
    if name == "orbit-discrepancy":
        return orbit_plan(seed)
    raise ValueError("unknown workload %r (expected one of %s)" % (name, ", ".join(WORKLOADS)))
