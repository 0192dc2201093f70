"""Digit construction, certificates, replay verification, and margins."""

import json
from fractions import Fraction

import pytest

import normnum.constructor
from normnum.badsets import bad_family
from normnum.constructor import (
    Certificate,
    IndeterminateError,
    run_construction,
    verify_certificate,
)
from normnum.digitfile import digits_to_fraction, read_digit_file, write_digit_file
from normnum.enclose import Enclosure, naive_cost_log2
from normnum.lemmas import chain_margin_check
from normnum.measure import MAX_DIGIT_COUNT, BudgetError, IntervalSet
from normnum.orbit import f_value
from normnum.schedule import Schedule, preset

from membership import contains

F = Fraction


def stuck_schedule():
    # obstacle covers the whole unit interval, so no half can ever pass;
    # the start table keeps the set universe empty
    return Schedule(
        "stuck",
        F(-2, 5),
        F(1, 8),
        z_table={2: 5},
        p_const=4,
        base_cap=2,
        index_cap=4,
        obstacle=((F(0), F(1)),),
    )


# -- flagship runs -----------------------------------------------------------


def test_flagship_eight_digits():
    cert = run_construction(preset("paper"), 8)
    assert cert.digits == "00000000"
    assert all(len(record.components) == 0 for record in cert.steps)
    assert cert.steps[-1].chosen == (0, F(1, 256))


def test_flagship_ten_digits_verify():
    cert = run_construction(preset("paper"), 10)
    assert cert.digits == "0000000000"
    report = verify_certificate(cert)
    assert report.ok
    assert report.steps_checked == 10
    assert report.problems == ()


def test_flagship_is_deterministic():
    a = run_construction(preset("paper"), 6).dump()
    b = run_construction(preset("paper"), 6).dump()
    assert a == b


def test_flagship_horizon():
    # step 12 is the first whose family index reaches the start floor; the
    # windows it would need are astronomically long, so the sweep budget
    # must refuse loudly instead of grinding
    cert = run_construction(preset("paper"), 11)
    assert cert.digits == "0" * 11
    with pytest.raises(BudgetError):
        run_construction(preset("paper"), 12)


# -- toy runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["toy-sparse", "toy-mixed", "toy-seeded"])
def test_toy_run_invariants(name):
    schedule = preset(name)
    cert = run_construction(schedule, 6)
    assert len(cert.digits) == 6
    # nested halving with exact shrink rate
    interval = None
    for record in cert.steps:
        lo, hi = record.chosen
        assert hi - lo == F(1, 2**record.step)
        if interval is not None:
            assert interval[0] <= lo
            assert hi <= interval[1]
        assert record.chosen_bound + record.tail < record.threshold
        assert record.tail == 0  # toy universes are finite and fully built
        interval = record.chosen
    assert digits_to_fraction(cert.digits) == cert.steps[-1].chosen[0]
    report = verify_certificate(cert)
    assert report.ok, report.problems


def test_toy_seeded_first_digit_is_one():
    cert = run_construction(preset("toy-seeded"), 2)
    assert cert.digits[0] == "1"
    assert cert.steps[0].rejected_bound is not None
    assert cert.steps[0].rejected_bound >= F(1, 2)


def test_toy_sparse_goes_left():
    cert = run_construction(preset("toy-sparse"), 6)
    assert cert.digits == "000000"


def test_witness_point_escapes_every_component():
    # a third of the way into the final interval the binary tail repeats
    # 01, so the orbit never collapses onto a band edge
    for name in ("toy-sparse", "toy-seeded"):
        schedule = preset(name)
        cert = run_construction(schedule, 6)
        lo, hi = cert.steps[-1].chosen
        witness = lo + (hi - lo) / 3
        family = bad_family(4, schedule)
        for comp in family.components:
            assert not contains(comp.region, witness), (name, comp.label)
        assert not contains(family, witness)


def test_witness_f_values_stay_below_thresholds():
    from normnum.badsets import block_bad_set, tail_bad_set, depth_limit

    schedule = preset("toy-sparse")
    cert = run_construction(schedule, 6)
    lo, hi = cert.steps[-1].chosen
    witness = lo + (hi - lo) / 3
    pieces = [block_bad_set(2, 4, a, h, schedule)
              for h in (1, 2, 3) for a in range(2**h)]
    pieces += [tail_bad_set(2, 4, a, h, 4, 1, schedule)
               for h in (1, 2) for a in range(2**h)]
    for piece in pieces:
        value = f_value(witness, piece.window, piece.band)
        assert value < piece.threshold.lo, piece.label


def test_component_measures_summed_once(monkeypatch):
    # every step's rows carry each component's measure; it is summed once
    calls = []
    summed = IntervalSet.measure

    def counting(self):
        calls.append(self)
        return summed(self)

    monkeypatch.setattr(IntervalSet, "measure", counting)
    cert = run_construction(preset("toy-seeded"), 50)
    assert 0 < len(calls) <= len(cert.steps[0].components) == 3


@pytest.mark.parametrize(
    "schedule, indices",
    [
        (preset("toy-mixed"), [4, 4, 4, 4]),
        # no p_const: the size index grows with every step
        (
            Schedule(
                "growing", F(-2, 5), F(1, 8), z_table={2: 4}, base_cap=2, index_cap=4
            ),
            [16, 64, 256, 1024],
        ),
    ],
    ids=["constant", "growing"],
)
def test_one_family_per_size_index(monkeypatch, schedule, indices):
    built = []
    real = normnum.constructor.bad_family

    def spy(index, *args):
        built.append(index)
        return real(index, *args)

    monkeypatch.setattr(normnum.constructor, "bad_family", spy)
    # size indices never decrease, so each is built once and then dropped
    cert = run_construction(schedule, 4)
    assert [record.size_index for record in cert.steps] == indices
    assert built == list(dict.fromkeys(indices))


# -- failure modes -------------------------------------------------------------


def test_zero_digit_request_rejected():
    with pytest.raises(ValueError):
        run_construction(preset("paper"), 0)


def test_indeterminate_obstruction():
    with pytest.raises(IndeterminateError) as err:
        run_construction(stuck_schedule(), 1)
    assert err.value.step == 1
    assert "step 1" in str(err.value)


def test_budget_exhaustion_propagates():
    with pytest.raises(BudgetError):
        run_construction(preset("toy-sparse"), 1, budget=1000)


# -- tampering is caught ---------------------------------------------------------


def tampered(cert: Certificate, mutate) -> Certificate:
    data = json.loads(cert.dump())
    mutate(data)
    return Certificate.from_json(data)


def test_verify_catches_perturbed_bound():
    cert = run_construction(preset("toy-sparse"), 4)

    def bump(data):
        old = data["steps"][2]["chosen_bound"]
        num, den = old.split("/")
        data["steps"][2]["chosen_bound"] = "%d/%s" % (int(num) + 1, den)

    report = verify_certificate(tampered(cert, bump))
    assert not report.ok
    assert any(p.startswith("step 3") for p in report.problems)


def test_verify_catches_flipped_digit():
    cert = run_construction(preset("toy-sparse"), 4)

    def flip(data):
        data["steps"][1]["digit"] = 1
        data["steps"][1]["chosen"] = [
            data["steps"][1]["interval"][0],
            data["steps"][1]["chosen"][0],
        ]

    report = verify_certificate(tampered(cert, flip))
    assert not report.ok
    assert any("step 2" in p for p in report.problems)


def test_verify_catches_truncated_digits():
    cert = run_construction(preset("toy-sparse"), 3)
    data = json.loads(cert.dump())
    data["digits"] = data["digits"][:-1]
    report = verify_certificate(Certificate.from_json(data))
    assert not report.ok


def swap_overlaps(step):
    block, tail = step["components"][1:]
    block["chosen_overlap"], tail["chosen_overlap"] = (
        tail["chosen_overlap"],
        block["chosen_overlap"],
    )


def forge_row(position, **fields):
    return lambda step: step["components"][position].update(fields)


# step index, forgery, and the exact problems verify must list; toy-seeded
# step 1 picks digit 1 over rows obstacle, block and tail, step 2 digit 0
SEEDED_FORGERIES = {
    "label": (
        0,
        forge_row(1, label="block b=2 n=5"),
        ["step 1: component block b=2 n=4: label block b=2 n=5, "
         "schedule says block b=2 n=4"],
    ),
    "kind": (
        0,
        forge_row(1, kind="tail"),
        ["step 1: component block b=2 n=4: kind tail, schedule says block"],
    ),
    "members": (
        0,
        forge_row(2, members=4),
        ["step 1: component tail b=2 n=4 offset=32: members 4, schedule says 3"],
    ),
    "outer_measure": (
        0,
        forge_row(0, outer_measure="1/4"),
        ["step 1: component obstacle: outer measure 1/4, schedule says 1/2"],
    ),
    "swapped_overlaps": (
        0,
        swap_overlaps,
        ["step 1: component block b=2 n=4: chosen overlap 1/512, "
         "schedule says 369/65536",
         "step 1: component tail b=2 n=4 offset=32: chosen overlap 369/65536, "
         "schedule says 1/512"],
    ),
    "rejected_bound": (
        1,
        lambda step: step.update(rejected_bound="1/2"),
        ["step 2: rejected bound 1/2, schedule says null"],
    ),
    "interval": (
        1,
        lambda step: step.update(interval=["1/2", "2/3"]),
        ['step 2: interval ["1/2", "2/3"], schedule says ["1/2", "1/1"]'],
    ),
}


@pytest.fixture(scope="module")
def seeded_two_steps():
    return run_construction(preset("toy-seeded"), 2)


@pytest.mark.parametrize("name", sorted(SEEDED_FORGERIES))
def test_verify_names_every_forged_field(seeded_two_steps, name):
    index, forge, expected = SEEDED_FORGERIES[name]
    assert seeded_two_steps.digits == "10"
    report = verify_certificate(
        tampered(seeded_two_steps, lambda data: forge(data["steps"][index]))
    )
    assert not report.ok
    assert list(report.problems) == expected


# -- serialization ----------------------------------------------------------------


def test_certificate_json_round_trip():
    cert = run_construction(preset("toy-mixed"), 3)
    clone = Certificate.load(cert.dump())
    assert clone == cert
    assert clone.dump() == cert.dump()


def test_certificate_schema_guard():
    cert = run_construction(preset("paper"), 1)
    data = json.loads(cert.dump())
    data["schema"] = "something/else"
    with pytest.raises(ValueError):
        Certificate.from_json(data)


def test_digit_file_round_trip(tmp_path):
    cert = run_construction(preset("toy-seeded"), 6)
    path = tmp_path / "digits.txt"
    write_digit_file(str(path), cert)
    digits, meta = read_digit_file(str(path))
    assert digits == cert.digits
    assert meta["preset"] == "toy-seeded"
    assert meta["schedule-digest"] == cert.schedule.digest()
    assert int(meta["count"]) == 6


def test_digit_file_wraps_long_streams(tmp_path):
    # the writer only needs digits and a schedule, so a bare certificate does
    cert = Certificate(preset("paper"), "0" * 70, ())
    path = tmp_path / "digits.txt"
    write_digit_file(str(path), cert)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "0" * 64
    assert lines[1] == "0" * 6
    digits, _ = read_digit_file(str(path))
    assert digits == "0" * 70


def test_digit_file_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# normnum digit file v1\n# count: 3\n012\n")
    with pytest.raises(ValueError):
        read_digit_file(str(path))
    path.write_text("# normnum digit file v1\n# count: 4\n011\n")
    with pytest.raises(ValueError):
        read_digit_file(str(path))


def test_digit_file_skips_long_comment_lines(tmp_path):
    # a comment line is read in several pieces; none is taken for digits
    path = tmp_path / "digits.txt"
    path.write_text("# preset: %s\n# count: 3\n101\n" % ("x" * 3 * MAX_DIGIT_COUNT))
    digits, meta = read_digit_file(str(path))
    assert digits == "101"
    assert meta["count"] == "3"


def test_digits_to_fraction():
    assert digits_to_fraction("101") == F(5, 8)
    assert digits_to_fraction("000000") == 0
    with pytest.raises(ValueError):
        digits_to_fraction("12")


# -- inequality chain and cost model ------------------------------------------------


def test_chain_margin_flagship():
    out = chain_margin_check(preset("paper"))
    assert out["holds_seven_eighths"]
    assert out["holds_with_eta"]
    assert out["holds_loose"]
    assert out["loose_cap"] == F(3, 4) + F(1, 32)
    assert out["total"] < F(1, 10)  # comfortably inside the margin
    # partial sums increase monotonically
    for a, b in zip(out["partials"], out["partials"][1:]):
        assert a < b


def test_chain_margin_rejects_capped_schedules():
    with pytest.raises(ValueError):
        chain_margin_check(preset("toy-sparse"))


def test_cost_model_exact_values():
    assert naive_cost_log2(1) == 131072
    assert naive_cost_log2(3) == 3 * 2**256
    assert naive_cost_log2(7) == 4 * 2**65536  # 2n+2 = 16, log2 = 4
    value = naive_cost_log2(2)
    assert isinstance(value, Enclosure)
    assert value.lo > 2**64 * 2 and value.hi < 2**64 * 3


def test_cost_model_monotone_and_bounded():
    previous = 0
    for n in range(1, 11):
        value = naive_cost_log2(n)
        low = value if isinstance(value, int) else value.lo
        assert low > previous
        previous = low
    with pytest.raises(ValueError):
        naive_cost_log2(0)
    with pytest.raises(ValueError):
        naive_cost_log2(11)
