"""Command line surface: exit codes, JSON reports, file pipelines."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import normnum
import normnum.cli
import normnum.constructor
import normnum.discrepancy
from normnum import lemmas
from normnum.badsets import MAX_SIZE_INDEX
from normnum.cli import MAX_DIGIT_COUNT, MAX_ORBIT_POINTS, MAX_PRECISION, main
from normnum.digitfile import read_digit_file
from normnum.enclose import Enclosure
from normnum.schedule import Schedule, preset


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
    assert report["measure"] == default["measure"]


def run_python(code, *argv, timeout=120):
    """Run `code` in a fresh interpreter that imports normnum from this tree."""
    src = str(Path(normnum.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", "import sys; " + code, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


CLI_MAIN = "from normnum.cli import main; sys.exit(main(sys.argv[1:]))"


def assert_runs_blocked(module, argv, code=0):
    # with the module blocked the command still exits with the given code
    # and prints the same report and messages as a run that may load it
    blocked = run_python("sys.modules[%r] = None; " % module + CLI_MAIN, *argv)
    free = run_python(CLI_MAIN, *argv)
    assert blocked.returncode == code, blocked.stderr
    assert free.returncode == code
    assert blocked.stdout == free.stdout
    assert blocked.stderr == free.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["digits", "--preset", "toy-sparse", "--count", "2"],
        [
            "badset", "--preset", "toy-mixed", "--which", "block", "--index", "4",
            "--band-scale", "3", "--band-index", "0", "--list-parts",
        ],
    ],
    ids=["digits", "badset"],
)
def test_cli_runs_without_numpy(argv):
    # no command needs numpy, the region walk included
    assert_runs_blocked("numpy", argv)


@pytest.mark.parametrize("module", ["mpmath", "dataclasses", "inspect", "hashlib"])
def test_cli_import_leaves_module_unloaded(module):
    # every CLI call is a fresh process: nothing imports mpmath, hashlib
    # loads on the first digest or sample stream, and records are plain
    # slotted classes, so none of these is paid at import
    done = run_python("import normnum.cli; print(%r in sys.modules)" % module)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


LAYERS = (
    "orbit", "measure", "badsets", "enclose", "constructor", "discrepancy", "mc", "cli",
)


def test_cli_import_loads_every_layer():
    # bench/launcher.py wraps each layer module it finds in sys.modules once
    # `import normnum.cli` returns, and the package itself imports nothing
    done = run_python(
        "import normnum.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('normnum.'))))"
    )
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) >= {"normnum." + layer for layer in LAYERS}


@pytest.fixture(scope="module")
def made_files(tmp_path_factory):
    """A toy certificate and digit file, for the commands that read one."""
    directory = tmp_path_factory.mktemp("made")
    paths = {"certificate": directory / "cert.json", "digits": directory / "digits.txt"}
    argv = ["digits", "--preset", "toy-mixed", "--count", "2"]
    argv += ["--cert-out", str(paths["certificate"])]
    argv += ["--digits-out", str(paths["digits"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {name: str(path) for name, path in paths.items()}


FRONT = {"cli", "enclose", "measure", "schedule"}
CONSTRUCTION = FRONT | {"constructor", "badsets", "orbit"}


@pytest.mark.parametrize(
    "argv, executed",
    [
        (
            ["discrepancy", "--x", "1/7", "--count", "32", "--ratio"],
            FRONT | {"discrepancy"},
        ),
        (["cost", "--n", "1"], FRONT),
        (
            ["discrepancy", "--digits-file", "{digits}", "--count", "16", "--ratio"],
            FRONT | {"discrepancy", "digitfile"},
        ),
        (["digits", "--preset", "toy-mixed", "--count", "2"], CONSTRUCTION),
        (
            ["digits", "--preset", "toy-mixed", "--count", "2", "--digits-out", "{out}"],
            CONSTRUCTION | {"digitfile"},
        ),
        (["verify", "{certificate}"], CONSTRUCTION),
        (
            ["badset", "--preset", "toy-mixed", "--which", "block", "--index", "4",
             "--band-scale", "3"],
            FRONT | {"badsets", "orbit"},
        ),
        (["lemma", "--which", "masstail"], FRONT | {"lemmas"}),
        (["lemma", "--which", "badic"], FRONT | {"lemmas", "orbit"}),
        (["lemma", "--which", "dyadic"], FRONT | {"lemmas", "orbit"}),
        (["lemma", "--which", "depth"], FRONT | {"lemmas", "orbit", "mc"}),
        (["lemma", "--which", "cover"], FRONT | {"lemmas", "orbit", "mc"}),
        (["lemma", "--which", "chain"], FRONT | {"lemmas", "badsets", "orbit"}),
    ],
    ids=[
        "discrepancy", "cost", "discrepancy-digits-file", "digits", "digits-out",
        "verify", "badset", "masstail", "badic", "dyadic", "depth", "cover", "chain",
    ],
)
def test_commands_run_only_the_layers_they_use(made_files, tmp_path, argv, executed):
    # the CLI defers the other layers: each is in sys.modules from the
    # import on, and its body runs on its first attribute access. Until
    # then it is a lazy module subclass, which type() reads without a load.
    # The lemma audit and the digit files are imported where they are used
    argv = [arg.format(out=tmp_path / "out.txt", **made_files) for arg in argv]
    done = run_python(
        "import types; from normnum.cli import main; code = main(sys.argv[1:]); "
        "print(' '.join(name for name, module in sys.modules.items() "
        "if name.startswith('normnum.') and type(module) is types.ModuleType), "
        "file=sys.stderr); sys.exit(code)",
        *argv,
    )
    assert done.returncode == 0, done.stderr
    assert set(done.stderr.split()) == {"normnum." + layer for layer in executed}


def test_launcher_traces_every_kind_of_call(tmp_path):
    # bench/launcher.py wraps functions and methods by name and binds
    # counter arguments by name, so a rename under src/ that breaks it
    # shows here as a failed run or an empty trace; each call must also
    # reach a wrapped function of a layer it runs
    launcher = Path(__file__).parents[1] / "bench" / "launcher.py"
    src = str(Path(normnum.__file__).resolve().parent.parent)
    for argv, span in (
        (
            ["digits", "--preset", "toy-mixed", "--count", "2", "--cert-out", "cert.json"],
            "constructor.run_construction",
        ),
        (["verify", "cert.json"], "constructor.verify_certificate"),
        (["lemma", "--which", "badic"], "orbit.deviation_measure"),
        (["lemma", "--which", "chain"], "badsets.tail_mass_bound"),
        (["lemma", "--which", "depth"], "mc.sample_integers"),
        (
            ["discrepancy", "--x", "1/7", "--count", "32", "--ratio"],
            "discrepancy.extreme_discrepancy",
        ),
        (
            ["digits", "--preset", "toy-mixed", "--count", "2", "--digits-out", "digits.txt"],
            "constructor.run_construction",
        ),
        (
            ["discrepancy", "--digits-file", "digits.txt", "--count", "16", "--ratio"],
            "discrepancy.extreme_discrepancy",
        ),
    ):
        trace = tmp_path / "trace.json"
        trace.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, str(launcher), str(trace), *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (argv, done.stderr)
        spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
        assert spans["cli.main"][0] == 1, argv
        assert len(spans) > 2, argv
        assert span in spans, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["cost", "--n", "1"],
        ["lemma", "--which", "chain"],
        ["lemma", "--which", "masstail"],
        ["lemma", "--which", "depth"],
        ["lemma", "--which", "cover"],
        ["digits", "--preset", "toy-mixed", "--count", "2"],
        ["verify", "{certificate}"],
        ["lemma", "--which", "badic"],
        ["lemma", "--which", "dyadic"],
        ["discrepancy", "--x", "1/3", "--base", "2", "--count", "20", "--ratio"],
        [
            "badset", "--preset", "toy-mixed", "--which", "block", "--index", "4",
            "--band-scale", "3", "--band-index", "0",
        ],
    ],
    ids=[
        "cost", "chain", "masstail", "depth", "cover",
        "digits", "verify", "badic", "dyadic", "ratio", "badset",
    ],
)
def test_cli_runs_without_mpmath(capsys, tmp_path, argv):
    # intervals are evaluated by normnum.enclose's own kernel, so no command
    # needs mpmath: those that print thresholds, bounds and ratios included
    if "{certificate}" in argv:
        certificate = tmp_path / "cert.json"
        digits = ["digits", "--preset", "toy-mixed", "--count", "2"]
        assert main(digits + ["--cert-out", str(certificate)]) == 0
        capsys.readouterr()
        argv = [arg.format(certificate=certificate) for arg in argv]
    assert_runs_blocked("mpmath", argv)


def test_paper_refusal_runs_without_mpmath():
    # the paper's first window has a threshold certainly below its expected
    # count, so the sweep gate refuses it before any interval is evaluated
    argv = ["digits", "--preset", "paper", "--count", "12"]
    assert_runs_blocked("mpmath", argv, code=3)
    done = run_python(CLI_MAIN, *argv)
    assert done.stderr.startswith("budget exceeded: sweep needs at least 2**")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "digits" in out and "verify" in out


def test_budget_exhaustion_exits_three(capsys, tmp_path):
    # toy-sparse moved to size index 5: its block window of 32 points needs
    # more sweep events than the fixed bound
    config = tmp_path / "index5.json"
    config.write_text(
        json.dumps(
            {
                "tag": "toy-index-5", "delta": "-2/5", "eta": "1/8",
                "z_table": {"2": 5}, "p_const": 5, "base_cap": 2, "index_cap": 5,
            }
        )
    )
    code = main(["digits", "--config", str(config), "--count", "1"])
    assert code == 3
    assert "budget is 5000000" in capsys.readouterr().err


def test_budget_gate_runs_before_the_distribution(capsys):
    # a point in the band [1/4, 1/2) is followed by one past 1/2, so at
    # most 16 of the 32 points hit it and the hit-count distribution proves
    # the set (counts of 18 or more) empty; the window is past the event
    # bound, and the refusal comes first
    code = main(
        [
            "badset", "--preset", "toy-mixed", "--which", "block", "--index",
            "5", "--band-scale", "1", "--band-index", "1",
        ]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "budget exceeded: sweep needs at least 2**(window end) events for a "
        "window end of 6 bits, budget is 5000000\n"
    )


@pytest.mark.parametrize("command", ["digits", "badset", "verify"])
def test_budget_option_exits_two(capsys, sparse_certificate, command):
    # the sweep's event bound is fixed (orbit.EVENT_BUDGET), not an option
    argv = {
        "digits": ("digits", "--preset", "toy-sparse", "--count", "1"),
        "badset": BLOCK_PIECE,
        "verify": ("verify", str(sparse_certificate[0])),
    }[command]
    code = main(list(argv) + ["--budget", "5000000"])
    assert code == 2
    assert "unrecognized arguments: --budget 5000000" in capsys.readouterr().err


def test_huge_index_cap_exits_three(capsys, tmp_path):
    # the exact residual tail from index 5 to index_cap would sum a billion
    # terms with ever larger denominators
    config = tmp_path / "cap.json"
    config.write_text(
        json.dumps(
            {
                "tag": "wide",
                "delta": "-2/5",
                "eta": "1/8",
                "z_table": {"2": 4},
                "p_const": 4,
                "base_cap": 2,
                "index_cap": 10**9,
            }
        )
    )
    start = time.perf_counter()
    code = main(["digits", "--config", str(config), "--count", "1"])
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert "4096 terms" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["badset", "digits"])
def test_huge_size_index_exits_three(capsys, tmp_path, command):
    # a window at size index n has length 1 << n, so this index would need
    # half a gigabyte for each such integer
    if command == "badset":
        argv = ["badset", "--which", "block", "--index", "4000000000", "--band-scale", "1"]
    else:
        config = tmp_path / "index.json"
        config.write_text(
            json.dumps(
                {
                    "tag": "x",
                    "delta": "-2/5",
                    "eta": "1/8",
                    "z_table": {"2": 4000000000},
                    "p_const": 4000000000,
                    "base_cap": 2,
                }
            )
        )
        argv = ["digits", "--count", "1", "--config", str(config)]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert str(MAX_SIZE_INDEX) in capsys.readouterr().err


def test_band_scale_at_the_size_index_cap_exits_three_in_time():
    # the window and its expected counts are 2**26-bit integers here; the
    # expected count of a band is an exact shift, since a Fraction of two
    # such integers takes a gcd of quadratic cost
    n = MAX_SIZE_INDEX
    cases = [
        (["block", "--band-scale", str(n // 2 + 1)], n + 1),
        (["tail", "--band-scale", str(n // 4), "--window-scale", str(n)], n),
    ]
    for which, end_bits in cases:
        done = run_python(
            CLI_MAIN,
            "badset", "--which", *which, "--base", "2", "--preset", "toy-mixed",
            "--index", str(n),
            timeout=20,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr == (
            "budget exceeded: sweep needs at least 2**(window end) events for a "
            "window end of %d bits, budget is 5000000\n" % end_bits
        )


# every base up to base_cap adds an exact tail term with a 2**base-sized
# denominator to each step's residual bound
HUGE_BASE_CAPS = {
    "with-index-cap": {"base_cap": 10**6, "index_cap": 4},
    "without-index-cap": {"base_cap": 5000},
}


@pytest.mark.parametrize("name", sorted(HUGE_BASE_CAPS))
def test_huge_base_cap_exits_two(capsys, tmp_path, name):
    config = tmp_path / "cap.json"
    schedule = {"tag": "x", "delta": "-2/5", "eta": "1/8", "p_const": 4}
    config.write_text(json.dumps({**schedule, **HUGE_BASE_CAPS[name]}))
    start = time.perf_counter()
    code = main(["digits", "--config", str(config), "--count", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "base_cap must lie in [2, 64]" in capsys.readouterr().err


# 400 obstacle intervals whose 1000-digit denominators multiply out: the
# region's one integer grid would need their lcm, so the schedule refuses
# it once the lcm passes 2**4096
HUGE_OBSTACLE = [
    ["1/%d" % (10**999 + i), "2/%d" % (10**999 + i)] for i in range(400)
]


def test_huge_obstacle_denominator_exits_two(capsys, tmp_path):
    config = tmp_path / "obstacle.json"
    schedule = {"tag": "x", "delta": "-2/5", "eta": "1/8", "p_const": 4}
    config.write_text(json.dumps({**schedule, "obstacle": HUGE_OBSTACLE}))
    start = time.perf_counter()
    code = main(["digits", "--config", str(config), "--count", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "lcm above 2**4096" in capsys.readouterr().err


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
    # no bad set exists below size index 4
    "start-below-four": {
        "tag": "bad",
        "delta": "-2/5",
        "eta": "1/8",
        "z_table": {"2": 3},
        "p_const": 4,
        "base_cap": 2,
        "index_cap": 4,
    },
    "start-table-missing-base": {
        "tag": "bad",
        "delta": "-2/5",
        "eta": "1/8",
        "z_table": {"2": 4},
        "p_const": 4,
        "base_cap": 3,
        "index_cap": 4,
    },
    # an integral float is still not an integer start index
    "float-z-table": {
        "tag": "bad",
        "delta": "-2/5",
        "eta": "1/8",
        "z_table": {"2": 4.0},
        "p_const": 4,
        "base_cap": 2,
        "index_cap": 4,
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_two(capsys, tmp_path, name):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(MALFORMED_CONFIGS[name]))
    assert main(["digits", "--config", str(config), "--count", "1"]) == 2
    assert "error" in capsys.readouterr().err


def tampered_certificate(
    capsys, tmp_path, mutate, part=lambda data: data["steps"][0],
    preset="toy-sparse", count=2,
):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "digits",
        "--preset",
        preset,
        "--count",
        str(count),
        "--cert-out",
        str(cert_path),
    )
    assert code == 0
    data = json.loads(cert_path.read_text())
    mutate(part(data))
    cert_path.write_text(json.dumps(data))
    return str(cert_path)


def resign(data):
    """Record the digest of the schedule object as written, tampered or not."""
    payload = json.dumps(data["schedule"], sort_keys=True, separators=(",", ":"))
    data["schedule_digest"] = hashlib.sha256(payload.encode("ascii")).hexdigest()


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


# each must exit 5 without a traceback, with a verify problem on step 1 that
# names the field: the recorded step is compared with the replay as written
HOSTILE_STEPS = {
    "bound-zero-denominator": lambda step: step.update(chosen_bound="1/0"),
    "tail-zero-denominator": lambda step: step.update(tail="1/0"),
    "bound-number": lambda step: step.update(chosen_bound=5),
    "interval-empty": lambda step: step.update(interval=[]),
    "interval-above-one": lambda step: step.update(interval=["1/2", "3/2"]),
    "chosen-reversed": lambda step: step.update(chosen=["1/2", "0/1"]),
    "interval-three-ends": lambda step: step.update(interval=["0/1", "1/2", "1/1"]),
    "interval-number": lambda step: step.update(interval=5),
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
    # rows must be JSON objects: a row of pairs can carry an integer key,
    # which does not sort with the replay's string keys
    "row-pairs": lambda step: step.update(components=[[[1, 2]]]),
}

# the one problem each tampering gives, pinned word for word
HOSTILE_STEP_PROBLEMS = {
    "bound-zero-denominator": "step 1: chosen bound 1/0, schedule says 497/65536",
    "tail-zero-denominator": "step 1: tail 1/0, schedule says 0/1",
    "bound-number": "step 1: chosen bound 5, schedule says 497/65536",
    "interval-empty": 'step 1: interval [], schedule says ["0/1", "1/1"]',
    "interval-above-one": 'step 1: interval ["1/2", "3/2"], schedule says ["0/1", "1/1"]',
    "chosen-reversed": 'step 1: chosen ["1/2", "0/1"], schedule says ["0/1", "1/2"]',
    "interval-three-ends": (
        'step 1: interval ["0/1", "1/2", "1/1"], schedule says ["0/1", "1/1"]'
    ),
    "interval-number": 'step 1: interval 5, schedule says ["0/1", "1/1"]',
    "overlap-zero-denominator": (
        "step 1: component block b=2 n=4: chosen overlap 1/0, schedule says 369/65536"
    ),
    "overlap-number": (
        "step 1: component block b=2 n=4: chosen overlap 5, schedule says 369/65536"
    ),
    "overlap-missing": (
        "step 1: component block b=2 n=4: chosen overlap (absent), "
        "schedule says 369/65536"
    ),
    "digit-float": "step 1: digit 0.7, schedule says 0",
    "digit-string": "step 1: digit 0, schedule says 0",
    "digit-bool": "step 1: digit false, schedule says 0",
    "step-float": "step 1: step 1.0, schedule says 1",
    "row-pairs": (
        'step 1: components [[[1, 2]]], schedule says [{"label": "block b=2 n=4", '
        '"kind": "block", "members": 4, "oute\u2026 (240 characters)'
    ),
}


def test_malformed_later_step_is_named(capsys, tmp_path):
    path = tampered_certificate(
        capsys,
        tmp_path,
        HOSTILE_STEPS["chosen-reversed"],
        part=lambda data: data["steps"][1],
    )
    code, verdict, err = run(capsys, "verify", path)
    assert (code, err) == (5, "")
    assert verdict["problems"] == [
        'step 2: chosen ["1/2", "0/1"], schedule says ["0/1", "1/4"]'
    ]


def test_missing_step_field_is_named(capsys, tmp_path):
    path = tampered_certificate(
        capsys, tmp_path, lambda step: step.pop("interval"),
        part=lambda data: data["steps"][1],
    )
    code, verdict, err = run(capsys, "verify", path)
    assert (code, err) == (5, "")
    assert verdict["problems"] == [
        'step 2: interval (absent), schedule says ["0/1", "1/2"]'
    ]


@pytest.mark.parametrize("field", ["digits", "schedule", "steps"])
def test_missing_certificate_field_is_named(capsys, tmp_path, field):
    path = tampered_certificate(
        capsys, tmp_path, lambda data: data.pop(field), part=lambda data: data
    )
    code, verdict, err = run(capsys, "verify", path)
    assert (code, verdict) == (5, None)
    assert err == "malformed certificate: missing field '%s'\n" % field


def test_deeply_nested_certificate_exits_five(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, verdict, err = run(capsys, "verify", str(path))
    assert (code, verdict) == (5, None)
    assert err == "malformed certificate: JSON nested too deeply\n"


def test_deeply_nested_config_exits_two(capsys, tmp_path):
    config = tmp_path / "nested.json"
    schedule = {"tag": "nested", "delta": "-2/5", "eta": "1/8", "obstacle": "X"}
    nested = "[" * 100_000 + "]" * 100_000
    config.write_text(json.dumps(schedule).replace('"X"', nested))
    code, report, err = run(capsys, "digits", "--config", str(config), "--count", "1")
    assert (code, report) == (2, None)
    assert err == "error: malformed schedule: JSON nested too deeply\n"


def test_numeric_digits_exit_five(capsys, tmp_path):
    # toy-seeded's digits "10" read back from the number 10 would verify
    path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "digits", "--preset", "toy-seeded", "--count", "2", "--cert-out", str(path)
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["digits"] == "10"
    path.write_text(json.dumps({**data, "digits": 10}))
    code, verdict, err = run(capsys, "verify", str(path))
    assert (code, verdict) == (5, None)
    assert err == "malformed certificate: field 'digits' must be a string\n"


def test_numeric_tag_is_malformed(capsys, tmp_path):
    # the digest is the one the tag "7" gives, which str() of 7 would match
    def numeric_tag(data):
        data["schedule"]["tag"] = "7"
        digest = Schedule.from_json(data["schedule"]).digest()
        data.update(schedule_digest=digest)
        data["schedule"]["tag"] = 7

    path = tampered_certificate(capsys, tmp_path, numeric_tag, part=lambda data: data)
    code, verdict, err = run(capsys, "verify", path)
    assert (code, verdict) == (5, None)
    message = "malformed schedule: field 'tag' must be a string\n"
    assert err == "malformed certificate: " + message
    config = tmp_path / "tag.json"
    config.write_text(json.dumps(json.loads(Path(path).read_text())["schedule"]))
    code, report, err = run(capsys, "digits", "--config", str(config), "--count", "1")
    assert (code, report, err) == (2, None, "error: " + message)


def test_missing_schedule_field_is_named_in_certificate(capsys, tmp_path):
    def drop_eta(data):
        del data["schedule"]["eta"]
        resign(data)

    path = tampered_certificate(capsys, tmp_path, drop_eta, part=lambda data: data)
    code, verdict, err = run(capsys, "verify", path)
    assert (code, verdict) == (5, None)
    assert err == "malformed certificate: malformed schedule: missing field 'eta'\n"


def test_missing_schedule_field_is_named_in_config(capsys, tmp_path):
    config = tmp_path / "no-eta.json"
    config.write_text(json.dumps(MALFORMED_CONFIGS["missing-eta"]))
    code, report, err = run(capsys, "digits", "--config", str(config), "--count", "1")
    assert (code, report) == (2, None)
    assert err == "error: malformed schedule: missing field 'eta'\n"


# each spells toy-sparse's step 1 chosen bound, 497/65536, in a form int()
# reads but a certificate never holds
FRACTION_SPELLINGS = [
    "4_97/65536", " 497/65536 ", "+497/65536", "497/ 65536", "-497/-65536",
    "\u0664\u0669\u0667/65536",
]


@pytest.mark.parametrize("spelling", FRACTION_SPELLINGS)
def test_respelled_fraction_exits_five(capsys, tmp_path, spelling):
    def respell(step):
        assert step["chosen_bound"] == "497/65536"
        step["chosen_bound"] = spelling

    path = tampered_certificate(capsys, tmp_path, respell)
    code, verdict, err = run(capsys, "verify", path)
    assert (code, err) == (5, "")
    assert verdict["problems"] == [
        "step 1: chosen bound %s, schedule says 497/65536" % spelling
    ]


def update(where, **fields):
    return lambda data: where(data).update(fields)


def step_at(index):
    return lambda data: data["steps"][index]


def drop(where, key):
    return lambda data: where(data).pop(key)


# each of these verified ok while verify parsed the recorded steps and
# compared their reformatted text; each is now the one problem or the
# malformed-certificate message shown, on toy-sparse's 3-step certificate
# ("components-missing" on paper's)
AS_WRITTEN = {
    "chosen-bound-unreduced": (
        update(step_at(1), chosen_bound="1162/262144"),
        "step 2: chosen bound 1162/262144, schedule says 581/131072",
    ),
    "threshold-leading-zero": (
        update(step_at(1), threshold="01/4"),
        "step 2: threshold 01/4, schedule says 1/4",
    ),
    "tail-no-denominator": (
        update(step_at(0), tail="0"), "step 1: tail 0, schedule says 0/1"
    ),
    "interval-unreduced": (
        update(step_at(1), interval=["0/5", "2/4"]),
        'step 2: interval ["0/5", "2/4"], schedule says ["0/1", "1/2"]',
    ),
    "members-float": (
        update(lambda data: data["steps"][0]["components"][0], members=4.0),
        "step 1: component block b=2 n=4: members 4.0, schedule says 4",
    ),
    "rejected-bound-missing": (
        drop(step_at(0), "rejected_bound"),
        "step 1: rejected bound (absent), schedule says null",
    ),
    "components-missing": (
        drop(step_at(0), "components"),
        "step 1: components (absent), schedule says []",
    ),
    "step-extra-key": (
        update(step_at(0), note="x"), "step 1: note x, schedule says (absent)"
    ),
    "top-extra-key": (
        update(lambda data: data, note="x"),
        "malformed certificate: unexpected field 'note'",
    ),
    "schedule-extra-key": (
        update(lambda data: data["schedule"], note="x"),
        "malformed certificate: malformed schedule: note x, digits writes (absent)",
    ),
    # the recorded digest is the one the parsed schedule gives
    "delta-respelled": (
        update(lambda data: data["schedule"], delta="-4/10"),
        "malformed certificate: malformed schedule: delta -4/10, digits writes -2/5",
    ),
}


@pytest.mark.parametrize("name", sorted(AS_WRITTEN))
def test_certificate_is_compared_as_written(capsys, tmp_path, name):
    mutate, expected = AS_WRITTEN[name]
    source = "paper" if name == "components-missing" else "toy-sparse"
    path = tampered_certificate(
        capsys, tmp_path, mutate, part=lambda data: data, preset=source, count=3
    )
    code, verdict, err = run(capsys, "verify", path)
    assert code == 5
    if expected.startswith("malformed certificate: "):
        assert (verdict, err) == (None, expected + "\n")
    else:
        assert (err, verdict["problems"]) == ("", [expected])


def test_long_recorded_value_is_cut_in_its_problem(capsys, tmp_path):
    path = tampered_certificate(
        capsys, tmp_path, lambda step: step["components"][0].update(label="x" * 300)
    )
    code, verdict, err = run(capsys, "verify", path)
    assert (code, err) == (5, "")
    assert verdict["problems"] == [
        "step 1: component block b=2 n=4: label %s\u2026 (300 characters), "
        "schedule says block b=2 n=4" % ("x" * 64)
    ]


def test_deepest_step_field_exits_five(capsys, tmp_path):
    # the deepest list the loader accepts, found from above, put in a step
    # field: it is compared without being walked, and shown cut short
    path = tampered_certificate(capsys, tmp_path, lambda step: step.update(tail="X"))
    text = Path(path).read_text()
    for depth in range(1100, 0, -1):
        Path(path).write_text(text.replace('"X"', "[" * depth + "]" * depth))
        code, verdict, err = run(capsys, "verify", path)
        if err != "malformed certificate: JSON nested too deeply\n":
            break
    assert depth > 900
    assert (code, err) == (5, "")
    [problem] = verdict["problems"]
    assert problem.startswith("step 1: tail "), problem
    assert problem.endswith(", schedule says 0/1"), problem
    assert len(problem) < 120


# a schedule value of the wrong shape, from --config (exit 2) or from a
# certificate (exit 5), named with its field and the shape it must have
MALFORMED_SCHEDULE_VALUES = {
    "obstacle-entry": (
        {"obstacle": [["0/1"]]},
        "field 'obstacle' must be a list of [lo, hi] fraction string pairs",
    ),
    "obstacle-string": (
        {"obstacle": "0/1"},
        "field 'obstacle' must be a list of [lo, hi] fraction string pairs",
    ),
    "z-table-list": (
        {"z_table": [["2", 4]]},
        "field 'z_table' must be an object from base strings to integers",
    ),
    "z-table-key": (
        {"z_table": {"x": 4}},
        "field 'z_table' must be an object from base strings to integers",
    ),
    # the echo of a value that is no string is its type, not the value
    "delta-nested": (
        {"delta": "NESTED"},
        "field 'delta' must be a fraction string "
        "(expected a fraction string, got list)",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SCHEDULE_VALUES))
def test_malformed_schedule_value_names_its_field(capsys, tmp_path, name):
    fields, message = MALFORMED_SCHEDULE_VALUES[name]
    nested = "[" * 500 + "]" * 500
    config = tmp_path / "config.json"
    schedule = {**preset("toy-sparse").to_json(), **fields}
    config.write_text(json.dumps(schedule).replace('"NESTED"', nested))
    code, report, err = run(capsys, "digits", "--config", str(config), "--count", "1")
    assert (code, report) == (2, None)
    assert err.startswith("error: malformed schedule: " + message), err
    assert len(err) < 200

    def replace_schedule(data):
        data["schedule"].update(fields)
        resign(data)

    path = tampered_certificate(capsys, tmp_path, replace_schedule, part=lambda data: data)
    Path(path).write_text(Path(path).read_text().replace('"NESTED"', nested))
    code, verdict, err = run(capsys, "verify", path)
    assert (code, verdict) == (5, None)
    assert err.startswith("malformed certificate: malformed schedule: " + message), err
    assert len(err) < 200


def tamper_schedule(**fields):
    def mutate(data):
        data["schedule"].update(fields)
        resign(data)

    return mutate


def drop_digest(data):
    del data["schedule_digest"]


# whole-certificate tampering, each a malformed certificate (exit 5), with
# a phrase its message must carry; the schedule tampering re-signs the digest
HOSTILE_CERTIFICATES = {
    "start-below-four": (tamper_schedule(z_table={"2": 3}), "at least 4"),
    "start-table-missing-base": (tamper_schedule(base_cap=3), "no entry for base 3"),
    "base-cap-huge": (tamper_schedule(base_cap=10**6), "base_cap must lie in [2, 64]"),
    "digest-wrong": (lambda data: data.update(schedule_digest="deadbeef"), "schedule_digest"),
    "digest-missing": (drop_digest, "schedule_digest"),
    "tag-renamed": (lambda data: data["schedule"].update(tag="toy-other"), "schedule_digest"),
    "obstacle-denominators": (tamper_schedule(obstacle=HUGE_OBSTACLE), "lcm above 2**4096"),
    # each would verify if the start index were coerced with int()
    "z-table-float": (tamper_schedule(z_table={"2": 4.9}), "z_table"),
    "z-table-string": (tamper_schedule(z_table={"2": "4"}), "z_table"),
    "steps-not-list": (lambda data: data.update(steps={"1": {}}), "steps must be a list"),
    # the schedule must be written as digits writes it
    "z-table-key-respelled": (
        tamper_schedule(z_table={"02": 4}), 'z table {"02": 4}, digits writes {"2": 4}'
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_CERTIFICATES))
def test_hostile_certificate_exits_five(capsys, tmp_path, name):
    mutate, phrase = HOSTILE_CERTIFICATES[name]
    path = tampered_certificate(capsys, tmp_path, mutate, part=lambda data: data)
    start = time.perf_counter()
    code, verdict, err = run(capsys, "verify", path)
    assert time.perf_counter() - start < 1.0
    assert code == 5
    assert verdict is None
    assert "malformed certificate" in err and phrase in err


@pytest.mark.parametrize("name", sorted(HOSTILE_STEPS))
def test_hostile_certificate_values_exit_five(capsys, tmp_path, name):
    path = tampered_certificate(capsys, tmp_path, HOSTILE_STEPS[name])
    code, verdict, err = run(capsys, "verify", path)
    assert (code, err) == (5, "")
    assert verdict["ok"] is False
    assert verdict["problems"] == [HOSTILE_STEP_PROBLEMS[name]]


# -- field-by-field certificate mutation -------------------------------------

SCHEDULE_KEYS = ("tag", "delta", "eta", "z_table", "p_const", "base_cap", "index_cap", "obstacle")
STEP_KEYS = (
    "step", "size_index", "interval", "digit", "chosen", "chosen_bound",
    "rejected_bound", "tail", "threshold", "precision", "components",
)
ROW_KEYS = ("label", "kind", "members", "outer_measure", "chosen_overlap")

# a toy-sparse 2-step certificate has two steps of two component rows each
CERTIFICATE_FIELDS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(SCHEDULE_KEYS)),
    st.tuples(st.just("steps"), st.integers(0, 1), st.sampled_from(STEP_KEYS)),
    st.tuples(
        st.just("steps"),
        st.integers(0, 1),
        st.just("components"),
        st.integers(0, 1),
        st.sampled_from(ROW_KEYS),
    ),
)


class Rewrite:
    """A mutation made from the field's recorded value."""

    def __init__(self, kind):
        self.kind = kind

    def __repr__(self):
        return self.kind.upper()


PADDED, UNDERSCORED, HUGE = Rewrite("padded"), Rewrite("underscored"), Rewrite("huge")
HUGE_TOKEN = "huge-integer-placeholder"
HUGE_INT = "9" * 5000

SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=6)
)
MUTATED_VALUES = st.one_of(
    SCALARS,
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["2", "3", " 2", "x"]), st.integers(-2, 6), max_size=2),
    st.sampled_from(["1/0", "0/1", "1/2", PADDED, UNDERSCORED, HUGE]),
)


def rewritten(value, recorded):
    text = recorded if isinstance(recorded, str) else "10/3"
    if value is PADDED:
        return " %s " % text
    if value is UNDERSCORED:
        # between the first two adjacent digits, else in front
        for i in range(len(text) - 1):
            if text[i].isdigit() and text[i + 1].isdigit():
                return text[: i + 1] + "_" + text[i + 1 :]
        return "1_" + text
    if value is HUGE:
        return HUGE_TOKEN
    return value


@pytest.fixture(scope="module")
def sparse_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutation") / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["digits", "--preset", "toy-sparse", "--count", "2", "--cert-out", str(path)]
        )
    assert code == 0
    return path, json.loads(path.read_text())


@pytest.fixture(scope="module")
def families_built_once():
    # a family depends only on (index, schedule), so each distinct
    # schedule is built once across the examples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            normnum.constructor,
            "bad_family",
            functools.lru_cache(maxsize=None)(normnum.constructor.bad_family),
        )
        yield


@settings(max_examples=150, deadline=10_000, derandomize=True)
@given(field=CERTIFICATE_FIELDS, value=MUTATED_VALUES, signed=st.booleans())
@example(field=("schedule", "z_table"), value={"2": 3}, signed=True)
@example(field=("schedule", "base_cap"), value=3, signed=True)
@example(field=("schedule", "tag"), value="toy-other", signed=False)
@example(field=("steps", 0, "components"), value=[[[1, 2]]], signed=False)
@example(field=("steps", 1, "interval"), value=["0/1", "1/3"], signed=False)
@example(field=("steps", 0, "components", 0, "members"), value=4.0, signed=False)
@example(field=("steps", 0, "precision"), value=True, signed=False)
@example(field=("steps", 0, "precision"), value=7, signed=False)
def test_certificate_field_mutation_exits_cleanly(
    sparse_certificate, families_built_once, field, value, signed
):
    # one field replaced, the schedule digest optionally re-signed: verify
    # either reproduces the same digits or refuses; only a schedule field
    # drives a computation, so only it may exceed a budget (3) or stop the
    # construction (4). A step or row field compares as written: any change
    # of type or value gives 5, except another integer `precision`, which
    # gives 0, as an unchanged field does
    path, original = sparse_certificate
    data = copy.deepcopy(original)
    *parents, key = field
    holder = data
    for part in parents:
        holder = holder[part]
    recorded, holder[key] = holder[key], rewritten(value, holder[key])
    changed = json.dumps(holder[key], sort_keys=True) != json.dumps(recorded, sort_keys=True)
    if key == "precision" and type(holder[key]) is int:
        changed = False
    if signed:
        resign(data)
    path.write_text(json.dumps(data).replace('"%s"' % HUGE_TOKEN, HUGE_INT))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    allowed = (0, 3, 4, 5) if field[0] == "schedule" else (5,) if changed else (0,)
    assert code in allowed, err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["digits"] == original["digits"]


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

    def compare(*args):
        raise AssertionError("step compared past the bound")

    monkeypatch.setattr(normnum.constructor, "bad_family", refuse)
    monkeypatch.setattr(normnum.constructor, "verify_certificate", compare)
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
    assert report["schema"] == "normnum.badset/2"
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
    assert report["parts"][0]["region"]["kind"] == "flat"
    assert report["parts"][1]["region"]["kind"] == "periodic"


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


def region_measure(region):
    """The measure of a reported region, summed from its listed parts: a
    periodic region's copies each carry its core's measure over base**level."""
    pairs = region["parts"] if region["kind"] == "flat" else region["core"]
    return sum((F(hi) - F(lo) for lo, hi in pairs), F(0))


PIECES = {
    "block": ("--which", "block", "--band-scale", "1"),
    "tail": ("--which", "tail", "--band-scale", "1", "--window-scale", "4"),
}


@pytest.mark.parametrize("which", sorted(PIECES))
def test_badset_piece_states_its_region_once(capsys, which):
    argv = ("badset", "--preset", "toy-sparse", "--index", "4", *PIECES[which])
    code, report, _ = run(capsys, *argv, "--list-parts")
    assert code == 0
    assert report["schema"] == "normnum.badset/2"
    for key in ("inner", "outer", "inner_measure", "outer_measure"):
        assert key not in report
    assert report["region"]["kind"] == ("flat" if which == "block" else "periodic")
    assert region_measure(report["region"]) == F(report["measure"]) > 0
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert plain == {key: value for key, value in report.items() if key != "region"}


def test_badset_family_parts_carry_label_and_region(capsys):
    code, report, _ = run(
        capsys, "badset", "--preset", "toy-seeded", "--index", "4", "--list-parts"
    )
    assert code == 0
    parts = report["parts"]
    assert [part["label"] for part in parts] == report["labels"]
    assert all(sorted(part) == ["label", "region"] for part in parts)
    assert [part["region"]["kind"] for part in parts] == ["flat", "flat", "periodic"]
    # the family keeps both bounds: the component sum and the largest one
    measures = [region_measure(part["region"]) for part in parts]
    assert sum(measures) == F(report["outer_measure"])
    assert max(measures) == F(report["inner_measure"]) < F(report["outer_measure"])


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
    sorts = []
    original = normnum.discrepancy.extreme_discrepancy
    original_orbit = normnum.discrepancy.orbit_points

    def counted(points, denominator):
        calls.append(len(points))
        return original(points, denominator)

    def counted_orbit(x, base, count):
        orbits.append(count)
        return original_orbit(x, base, count)

    def counted_sort(values):
        ordered = sorted(values)
        # a sort of sorted input is one linear pass
        sorts.append((len(ordered), ordered == list(values)))
        return ordered

    # the CLI calls both through their module
    monkeypatch.setattr(normnum.discrepancy, "extreme_discrepancy", counted)
    monkeypatch.setattr(normnum.discrepancy, "orbit_points", counted_orbit)
    # the closed forms sort with the builtin, looked up in the module
    monkeypatch.setattr(normnum.discrepancy, "sorted", counted_sort, raising=False)
    code, report, _ = run(
        capsys, "discrepancy", "--x", "1/3", "--count", "16", *ratio
    )
    assert code == 0
    assert report["extreme"] == "2/3"
    assert report["star"] == "1/3"
    assert calls == [16]
    assert orbits == [16]
    # the command sorts the orbit once, so each closed form's sort is linear
    assert sorts == [(16, True), (16, True)]


@pytest.mark.parametrize("ratio", [(), ("--ratio",)], ids=["plain", "ratio"])
@pytest.mark.parametrize("source", ["x", "digits-file"])
def test_discrepancy_count_above_bound_exits_three(
    capsys, monkeypatch, tmp_path, source, ratio
):
    def refuse(*args):
        raise AssertionError("orbit computed past the bound")

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


@pytest.mark.parametrize("source", ["x", "digits-file"])
def test_discrepancy_point_above_bound_exits_three(capsys, monkeypatch, tmp_path, source):
    def refuse(*args):
        raise AssertionError("orbit computed past the bound")

    monkeypatch.setattr(normnum.discrepancy, "orbit_points", refuse)
    if source == "x":
        argv = ["--x", "1/%d" % (2**MAX_DIGIT_COUNT + 1)]
    else:
        # the stray 2 sits past the bound on the same line: exit 3, not 2,
        # shows that reading stops at the bound
        digit_path = tmp_path / "digits.txt"
        digit_path.write_text("1" * (MAX_DIGIT_COUNT + 1) + "2\n")
        argv = ["--digits-file", str(digit_path)]
    start = time.perf_counter()
    code = main(["discrepancy", *argv, "--count", "16"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert str(MAX_DIGIT_COUNT) in capsys.readouterr().err


@pytest.mark.parametrize("source", ["x", "digits-file"])
def test_discrepancy_point_at_bound_runs(capsys, tmp_path, source):
    # 0.0101...01 in binary is 1/3 less (1/3) * 2**-MAX_DIGIT_COUNT
    if source == "x":
        argv = ["--x", "%d/%d" % (2**MAX_DIGIT_COUNT // 3, 2**MAX_DIGIT_COUNT)]
    else:
        digit_path = tmp_path / "digits.txt"
        digit_path.write_text("01" * (MAX_DIGIT_COUNT // 2) + "\n")
        argv = ["--digits-file", str(digit_path)]
    code, report, _ = run(capsys, "discrepancy", *argv, "--count", "16", "--ratio")
    assert code == 0
    assert report["count"] == 16
    # both closed forms move by at most twice the largest shift of a point,
    # here 2**15 / 3 * 2**-MAX_DIGIT_COUNT, from 1/3's figures 2/3 and 1/3
    assert abs(F(report["extreme"]) - F(2, 3)) < F(2**16, 2**MAX_DIGIT_COUNT)
    assert abs(F(report["star"]) - F(1, 3)) < F(2**16, 2**MAX_DIGIT_COUNT)
    assert F(report["extreme"]) != F(2, 3)


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


def test_lemma_names_match_the_handlers():
    # the parser spells the names out, so that it loads no lemma code
    assert normnum.cli.LEMMA_NAMES == tuple(sorted(lemmas.HANDLERS))
    assert sorted(LEMMAS) == list(normnum.cli.LEMMA_NAMES)


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


# the exact worst measures of the two deviation grids, row by row
LEMMA_WORST_MEASURES = {
    "badic": [
        "224723513577529/9223372036854775808",
        "0/1",
        (
            "11944421553326527324468946030690465453229772038727760854813884178695/2"
            "3158417847463239084714197001737581570653996933128112807891516801582625"
            "9279872"
        ),
        "21648578111829596051925419/1144561273430837494885949696427",
        (
            "4981729734024480446051917512245652297687139479819495680543625369144502"
            "2672760548708095683703275735940391039254714302975665073487401417319716"
            "2535677706857922669359886758126382152179384013633389827936079415574055"
            "19626745379754860570780331/6441116610762971701818022907339860351800488"
            "5872011095167281792096341555821385123333393131432620097847966941097648"
            "6203983505116970044431362803268015957621318085351671124246649425935410"
            "7469124112707014466556080758863930501552995294331757478847147"
        ),
    ],
    "dyadic": [
        (
            "1/57896044618658097711785492504343953926634992332820282019728792003956"
            "564819968"
        ),
        (
            "80557450884649500029103116228921792073584217/2315841784746323908471419"
            "70017375815706539969331281128078915168015826259279872"
        ),
        (
            "170141183460469231731687303715884105728/393006152591286105717362428713"
            "7506221892737197425280369698987"
        ),
    ],
}


@pytest.mark.parametrize("which", sorted(LEMMA_WORST_MEASURES))
def test_lemma_grids_pin_worst_measures(capsys, which):
    code, report, _ = run(capsys, "lemma", "--which", which)
    assert code == 0
    worst = [row["worst_measure"] for row in report["rows"]]
    assert worst == LEMMA_WORST_MEASURES[which]


@pytest.mark.parametrize(
    "which, names",
    [
        ("badic", ("lemmas.badic_deviation_bound", "orbit.relabelling_representatives")),
        ("dyadic", ("lemmas.dyadic_deviation_bound",)),
    ],
)
def test_lemma_grids_call_swapped_functions(capsys, monkeypatch, which, names):
    # bench/launcher.py swaps a function, after import, in every normnum
    # module that holds it; the grid must call the swapped function and
    # print the same report
    assert main(["lemma", "--which", which]) == 0
    plain = capsys.readouterr().out
    calls = []
    for name in names:
        layer, attr = name.split(".")
        original = getattr(sys.modules["normnum." + layer], attr)

        def swapped(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("normnum") and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, swapped)
    assert main(["lemma", "--which", which]) == 0
    assert capsys.readouterr().out == plain
    assert set(calls) == set(names)


@pytest.mark.parametrize("which", ["depth", "cover"])
def test_lemma_refuses_negative_seed(capsys, which):
    code, report, err = run(capsys, "lemma", "--which", which, "--seed", "-1")
    assert code == 2
    assert report is None
    assert "seed must be non-negative" in err


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


def test_cost_keeps_int_string_limit(capsys):
    # the enclosure endpoints at --n 6 run past the default limit of 4300
    # digits; the raised limit must not outlive the command
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["cost", "--n", "6"]) == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    assert len(out) > 9000
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "c0c31732e90061f52f94740a65dbb133d577f7a0494410b8191afef1274a5760"
    )
