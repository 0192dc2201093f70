"""Command line surface: exit codes, JSON reports, file pipelines."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import normnum
import normnum.cli
import normnum.constructor
import normnum.discrepancy
from normnum.cli import MAX_DIGIT_COUNT, MAX_ORBIT_POINTS, MAX_PRECISION, main
from normnum.constructor import read_digit_file
from normnum.enclose import Enclosure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# -- digits ------------------------------------------------------------------


def test_digits_flagship(capsys):
    code, report, _ = run(capsys, "digits", "--count", "6")
    assert code == 0
    assert report["schema"] == "normnum.digits/1"
    assert report["preset"] == "paper"
    assert report["digits"] == "000000"
    assert report["count"] == 6


def test_digits_seeded_toy(capsys):
    code, report, _ = run(capsys, "digits", "--preset", "toy-seeded", "--count", "3")
    assert code == 0
    assert report["digits"] == "100"


def test_digits_writes_files(capsys, tmp_path):
    digit_path = str(tmp_path / "digits.txt")
    cert_path = str(tmp_path / "cert.json")
    code, report, _ = run(
        capsys,
        "digits",
        "--preset",
        "toy-seeded",
        "--count",
        "4",
        "--digits-out",
        digit_path,
        "--cert-out",
        cert_path,
    )
    assert code == 0
    assert report["digits_path"] == digit_path
    digits, meta = read_digit_file(digit_path)
    assert digits == "1000"
    assert meta["preset"] == "toy-seeded"

    code, verdict, _ = run(capsys, "verify", cert_path)
    assert code == 0
    assert verdict["ok"] is True
    assert verdict["steps_checked"] == 4
    assert verdict["problems"] == []


def test_digits_config_overrides_preset(capsys, tmp_path):
    config = tmp_path / "schedule.json"
    config.write_text(
        json.dumps(
            {
                "tag": "toy-sparse",
                "delta": "-2/5",
                "eta": "1/8",
                "z_table": {"2": 4},
                "p_const": 4,
                "base_cap": 2,
                "index_cap": 4,
                "obstacle": None,
            }
        )
    )
    code, report, _ = run(capsys, "digits", "--config", str(config), "--count", "2")
    assert code == 0
    assert report["digits"] == "00"
    assert report["preset"] == "toy-sparse"


# -- exit codes --------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert main(["digits"]) != 0
    capsys.readouterr()
    assert main(["digits", "--preset", "nope", "--count", "1"]) == 2
    capsys.readouterr()
    assert main(["sideways"]) == 2
    capsys.readouterr()
    assert main(["digits", "--count", "0"]) == 2
    capsys.readouterr()


BLOCK_PIECE = (
    "badset", "--preset", "toy-sparse", "--which", "block", "--index", "4",
    "--band-scale", "1",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("digits", "--count", "1"),
        BLOCK_PIECE,
        ("discrepancy", "--x", "1/3", "--count", "4"),
        ("lemma", "--which", "chain"),
        ("cost", "--n", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_precision_above_bound_exits_two(capsys, argv):
    start = time.perf_counter()
    code = main(list(argv) + ["--precision", str(MAX_PRECISION + 1)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert str(MAX_PRECISION) in capsys.readouterr().err


def test_precision_at_bound_runs(capsys):
    code, report, _ = run(capsys, *BLOCK_PIECE, "--precision", str(MAX_PRECISION))
    assert code == 0
    assert report["label"] == "block b=2 n=4 h=1 a=0"
    # the region is exact, so the working precision cannot move it
    code, default, _ = run(capsys, *BLOCK_PIECE)
    assert code == 0
    assert report["outer_measure"] == default["outer_measure"]


def test_cli_import_skips_numpy():
    # only the region sweep needs numpy; importing it at module level
    # would tax every command that never sweeps
    src = str(Path(normnum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import normnum.cli, sys; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "digits" in out and "verify" in out


def test_budget_exhaustion_exits_three(capsys):
    code = main(["digits", "--preset", "toy-sparse", "--count", "3", "--budget", "50"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_indeterminate_exits_four(capsys, tmp_path):
    # an obstacle covering the whole interval starves both halves at the
    # very first step, no matter how far precision is pushed
    config = tmp_path / "stuck.json"
    config.write_text(
        json.dumps(
            {
                "tag": "stuck",
                "delta": "-2/5",
                "eta": "1/8",
                "z_table": {"2": 5},
                "p_const": 4,
                "base_cap": 2,
                "index_cap": 4,
                "obstacle": [["0", "1"]],
            }
        )
    )
    code = main(["digits", "--config", str(config), "--count", "2"])
    assert code == 4
    assert "indeterminate" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == 1
    capsys.readouterr()
    assert main(["discrepancy", "--digits-file", "/nonexistent", "--count", "4"]) == 1
    capsys.readouterr()


def test_tampered_certificate_exits_five(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "digits",
        "--preset",
        "toy-sparse",
        "--count",
        "3",
        "--cert-out",
        str(cert_path),
    )
    assert code == 0
    data = json.loads(cert_path.read_text())
    data["digits"] = "010"
    data["steps"][1]["digit"] = 1
    cert_path.write_text(json.dumps(data))
    code, verdict, _ = run(capsys, "verify", str(cert_path))
    assert code == 5
    assert verdict["ok"] is False
    assert verdict["problems"]

    for text in ("not json at all", "[1, 2]"):
        cert_path.write_text(text)
        code = main(["verify", str(cert_path)])
        assert code == 5
        capsys.readouterr()


MALFORMED_CONFIGS = {
    "missing-eta": {"tag": "bad", "delta": "-2/5"},
    "string-p-const": {
        "tag": "bad",
        "delta": "-2/5",
        "eta": "1/8",
        "z_table": {"2": 4},
        "p_const": "4",
        "base_cap": 2,
        "index_cap": 4,
    },
    "not-an-object": [1, 2],
    "zero-denominator-eta": {"tag": "bad", "delta": "-2/5", "eta": "1/0"},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_two(capsys, tmp_path, name):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(MALFORMED_CONFIGS[name]))
    assert main(["digits", "--config", str(config), "--count", "1"]) == 2
    assert "error" in capsys.readouterr().err


def tampered_certificate(capsys, tmp_path, mutate):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "digits",
        "--preset",
        "toy-sparse",
        "--count",
        "2",
        "--cert-out",
        str(cert_path),
    )
    assert code == 0
    data = json.loads(cert_path.read_text())
    mutate(data["steps"][0])
    cert_path.write_text(json.dumps(data))
    return str(cert_path)


@pytest.mark.parametrize("size_index", [0, -1])
def test_tampered_size_index_exits_five(capsys, tmp_path, size_index):
    # the verifier builds each family at the schedule's size index, so a
    # forged index is a listed problem, not a usage error
    path = tampered_certificate(
        capsys, tmp_path, lambda step: step.update(size_index=size_index)
    )
    code, verdict, _ = run(capsys, "verify", path)
    assert code == 5
    assert "step 1: size index %d, schedule says 4" % size_index in verdict["problems"]


def test_tampered_precision_does_not_change_verification(capsys, tmp_path):
    # exact families do not depend on precision, so a huge recorded value
    # neither costs work nor changes the replay
    path = tampered_certificate(
        capsys, tmp_path, lambda step: step.update(precision=2**20)
    )
    code, verdict, _ = run(capsys, "verify", path)
    assert code == 0
    assert verdict["ok"] is True
    assert verdict["digits"] == "00"


def drop_first_overlap(step):
    del step["components"][0]["chosen_overlap"]


# each must exit 5 without a traceback: a field parsed at load is a
# malformed certificate, a component row is compared with the replay
HOSTILE_STEPS = {
    "bound-zero-denominator": lambda step: step.update(chosen_bound="1/0"),
    "tail-zero-denominator": lambda step: step.update(tail="1/0"),
    "bound-number": lambda step: step.update(chosen_bound=5),
    "interval-empty": lambda step: step.update(interval=[]),
    "overlap-zero-denominator": lambda step: step["components"][0].update(
        chosen_overlap="1/0"
    ),
    "overlap-number": lambda step: step["components"][0].update(chosen_overlap=5),
    "overlap-missing": drop_first_overlap,
    # step 1 records digit 0: each would verify if coerced with int()
    "digit-float": lambda step: step.update(digit=0.7),
    "digit-string": lambda step: step.update(digit="0"),
    "digit-bool": lambda step: step.update(digit=False),
    "step-float": lambda step: step.update(step=1.0),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_STEPS))
def test_hostile_certificate_values_exit_five(capsys, tmp_path, name):
    path = tampered_certificate(capsys, tmp_path, HOSTILE_STEPS[name])
    code, verdict, err = run(capsys, "verify", path)
    assert code == 5
    if name.startswith("overlap"):
        assert verdict["ok"] is False
        assert any(
            p.startswith("step 1: component block b=2 n=4: chosen overlap ")
            for p in verdict["problems"]
        ), verdict["problems"]
    else:
        assert "malformed certificate" in err


def test_digit_count_above_bound_exits_three(capsys, monkeypatch, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "digits", "--preset", "toy-sparse", "--count", "2",
        "--cert-out", str(cert_path),
    )
    assert code == 0
    data = json.loads(cert_path.read_text())
    data["steps"] = data["steps"][:1] * (MAX_DIGIT_COUNT + 1)
    data["digits"] = "0" * (MAX_DIGIT_COUNT + 1)
    cert_path.write_text(json.dumps(data))

    def refuse(*args):
        raise AssertionError("family built past the bound")

    monkeypatch.setattr(normnum.constructor, "bad_family", refuse)
    for argv in (
        ["digits", "--preset", "toy-sparse", "--count", str(MAX_DIGIT_COUNT + 1)],
        ["verify", str(cert_path)],
    ):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert str(MAX_DIGIT_COUNT) in capsys.readouterr().err


def test_threshold_straddle_exits_four(capsys, monkeypatch):
    import normnum.badsets

    def straddling(length, base, delta, exponent, precision):
        # brackets 8, which sits on the 12-hit cutoff of the block window
        eps = F(1, 2**precision)
        return Enclosure(F(8) - eps, F(8) + eps)

    monkeypatch.setattr(normnum.badsets, "_tilted_threshold", straddling)
    argv = ["badset", "--preset", "toy-sparse", "--which", "block", "--index", "4"]
    code = main(argv + ["--band-scale", "1"])
    assert code == 4
    assert "straddles" in capsys.readouterr().err


# -- badset ------------------------------------------------------------------


def test_badset_family_flagship(capsys):
    code, report, _ = run(capsys, "badset", "--index", "4")
    assert code == 0
    assert report["schema"] == "normnum.badset/1"
    assert report["which"] == "family"
    assert report["components"] == 0
    assert F(report["outer_measure"]) == 0
    assert report["tail_bound"] == "33010671/1056340448"


def test_badset_family_toy(capsys):
    code, report, _ = run(
        capsys, "badset", "--preset", "toy-sparse", "--index", "4", "--list-parts"
    )
    assert code == 0
    assert report["components"] == 2
    assert report["labels"] == ["block b=2 n=4", "tail b=2 n=4 offset=32"]
    assert F(report["outer_measure"]) == F(497, 32768)
    assert len(report["parts"]) == 2
    assert report["parts"][0]["outer"]["kind"] == "flat"
    assert report["parts"][1]["outer"]["kind"] == "periodic"


def test_badset_single_pieces(capsys):
    code, report, _ = run(
        capsys,
        "badset",
        "--preset",
        "toy-sparse",
        "--which",
        "block",
        "--index",
        "4",
        "--band-scale",
        "1",
    )
    assert code == 0
    assert report["label"] == "block b=2 n=4 h=1 a=0"
    assert report["empty"] is False
    assert report["window"] == {"base": 2, "offset": 0, "length": 16}
    assert report["band"] == {"index": 0, "depth": 2}

    code, report, _ = run(
        capsys,
        "badset",
        "--preset",
        "toy-sparse",
        "--which",
        "tail",
        "--index",
        "4",
        "--band-scale",
        "1",
        "--window-scale",
        "4",
    )
    assert code == 0
    assert report["label"] == "tail b=2 n=4 h=1 a=0 l=4 m=1"
    assert report["empty"] is False


def test_badset_piece_validation(capsys):
    # block and tail sets need their band scale spelled out
    assert main(["badset", "--which", "block", "--index", "4"]) == 2
    capsys.readouterr()
    # band scale 3 exceeds the depth budget of a length-8 window
    assert (
        main(
            [
                "badset",
                "--preset",
                "toy-sparse",
                "--which",
                "tail",
                "--index",
                "4",
                "--band-scale",
                "3",
                "--window-scale",
                "4",
            ]
        )
        == 2
    )
    capsys.readouterr()


# -- discrepancy -------------------------------------------------------------


def test_discrepancy_point(capsys):
    code, report, _ = run(
        capsys, "discrepancy", "--x", "1/3", "--base", "2", "--count", "4"
    )
    assert code == 0
    assert report["extreme"] == "2/3"
    assert report["star"] == "1/3"
    assert abs(report["extreme_approx"] - 2 / 3) < 1e-12


def test_discrepancy_ratio(capsys):
    code, report, _ = run(
        capsys, "discrepancy", "--x", "1/3", "--count", "16", "--ratio"
    )
    assert code == 0
    lo, hi = (F(part) for part in report["ratio"])
    assert lo < hi
    assert abs(report["ratio_approx"] - 2.640676) < 1e-4


@pytest.mark.parametrize("ratio", [(), ("--ratio",)], ids=["plain", "ratio"])
def test_discrepancy_computed_once(capsys, monkeypatch, ratio):
    calls = []
    orbits = []
    original = normnum.discrepancy.extreme_discrepancy
    original_orbit = normnum.discrepancy.orbit_points

    def counted(points):
        calls.append(len(points))
        return original(points)

    def counted_orbit(x, base, count):
        orbits.append(count)
        return original_orbit(x, base, count)

    # the CLI holds its own bindings; normality_ratio would use the module's
    monkeypatch.setattr(normnum.cli, "extreme_discrepancy", counted)
    monkeypatch.setattr(normnum.discrepancy, "extreme_discrepancy", counted)
    monkeypatch.setattr(normnum.cli, "orbit_points", counted_orbit)
    monkeypatch.setattr(normnum.discrepancy, "orbit_points", counted_orbit)
    code, report, _ = run(
        capsys, "discrepancy", "--x", "1/3", "--count", "16", *ratio
    )
    assert code == 0
    assert report["extreme"] == "2/3"
    assert calls == [16]
    assert orbits == [16]


@pytest.mark.parametrize("ratio", [(), ("--ratio",)], ids=["plain", "ratio"])
@pytest.mark.parametrize("source", ["x", "digits-file"])
def test_discrepancy_count_above_bound_exits_three(
    capsys, monkeypatch, tmp_path, source, ratio
):
    def refuse(*args):
        raise AssertionError("orbit computed past the bound")

    monkeypatch.setattr(normnum.cli, "orbit_points", refuse)
    monkeypatch.setattr(normnum.discrepancy, "orbit_points", refuse)
    if source == "x":
        argv = ["discrepancy", "--x", "1/3"]
    else:
        digit_path = tmp_path / "digits.txt"
        digit_path.write_text("101\n")
        argv = ["discrepancy", "--digits-file", str(digit_path)]
    start = time.perf_counter()
    code = main(argv + ["--count", str(MAX_ORBIT_POINTS + 1), *ratio])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert str(MAX_ORBIT_POINTS) in capsys.readouterr().err


def test_discrepancy_count_at_bound_runs(capsys):
    code, report, _ = run(
        capsys, "discrepancy", "--x", "1/3", "--count", str(MAX_ORBIT_POINTS)
    )
    assert code == 0
    assert report["count"] == MAX_ORBIT_POINTS
    # the closed interval [1/3, 2/3] holds the whole period-2 orbit
    assert report["extreme"] == "2/3"
    assert report["star"] == "1/3"


def test_discrepancy_source_validation(capsys):
    assert main(["discrepancy", "--count", "4"]) == 2
    capsys.readouterr()
    assert main(["discrepancy", "--x", "1/3", "--digits-file", "x", "--count", "4"]) == 2
    capsys.readouterr()
    assert main(["discrepancy", "--x", "5/4", "--count", "4"]) == 2
    capsys.readouterr()


def test_digit_file_pipeline(capsys, tmp_path):
    digit_path = str(tmp_path / "digits.txt")
    code, _, _ = run(
        capsys,
        "digits",
        "--preset",
        "toy-seeded",
        "--count",
        "6",
        "--digits-out",
        digit_path,
    )
    assert code == 0
    code, report, _ = run(
        capsys, "discrepancy", "--digits-file", digit_path, "--count", "6"
    )
    assert code == 0
    assert report["source"] == digit_path
    # digits 100000 name the point 1/2, whose doubling orbit then sits at 0
    assert F(report["star"]) == F(5, 6)


# -- lemma and cost ----------------------------------------------------------

LEMMAS = ["badic", "dyadic", "depth", "cover", "chain", "masstail"]


@pytest.mark.parametrize("which", LEMMAS)
def test_lemma_checks_hold(capsys, which):
    code, report, _ = run(capsys, "lemma", "--which", which)
    assert code == 0
    assert report["ok"] is True
    assert report["rows"]


def test_lemma_rows_carry_grid(capsys):
    code, report, _ = run(capsys, "lemma", "--which", "badic")
    assert code == 0
    assert len(report["rows"]) == 5
    assert all(row["holds"] for row in report["rows"])
    assert not any(row["vacuous"] for row in report["rows"])


def test_lemma_masstail_boundary(capsys):
    # the strict margin evaporates exactly at start 7
    code, report, _ = run(capsys, "lemma", "--which", "masstail", "--start", "7")
    assert code == 5
    assert report["ok"] is False
    assert F(report["rows"][0]["bound"]) == F(1, 8)


def test_cost_reports(capsys):
    code, report, _ = run(capsys, "cost", "--n", "1")
    assert code == 0
    assert report["exact"] is True
    assert report["log2_states"] == "131072"

    code, report, _ = run(capsys, "cost", "--n", "2")
    assert code == 0
    assert report["exact"] is False
    lo, hi = (F(part) for part in report["log2_states"])
    assert 2 * 2**64 < lo < hi < 3 * 2**64

    assert main(["cost", "--n", "11"]) == 2
    capsys.readouterr()
