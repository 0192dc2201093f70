"""Byte-identity corpus: recorded CLI calls replay to the same bytes.

`tests/golden/corpus.json` holds cases, each a sequence of argv run in one
fresh directory through `normnum.cli.main`, with every call's exit code and
the SHA-256 of its stdout, its stderr and every file it wrote. Output names
are relative, so the paths a report prints do not depend on the directory.
`tests/golden/regen.py` holds the replay and the list of cases. When an
output changes on purpose, regenerate the corpus with

    PYTHONPATH=src python tests/golden/regen.py

and say why in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden.json"

_spec = importlib.util.spec_from_file_location("corpus_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def load_corpus() -> dict:
    return json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))


CASES = load_corpus()["cases"]


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_corpus_replays_byte_identical(case, tmp_path):
    for call in case["calls"]:
        assert regen.replay(call["argv"], tmp_path) == call


def test_corpus_matches_case_list():
    """The corpus holds the cases of `regen.cases()`, by name and argv and in
    that order, so an edited case list cannot pass against a stale corpus.
    Nothing is replayed."""
    listed = [
        (name, [list(argv) for argv in argvs]) for name, argvs in regen.cases()
    ]
    recorded = [
        (case["name"], [call["argv"] for call in case["calls"]]) for case in CASES
    ]
    assert recorded == listed


def test_corpus_certificates_match_bench_golden():
    """The certificate hashes agree with the benchmark's goldens, which were
    recorded independently of this corpus."""
    by_name = {case["name"]: case for case in CASES}
    golden = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))["toy"]
    checked = 0
    for count, presets in golden.items():
        for preset, entry in presets.items():
            digits = by_name["digits-%s-%s" % (preset, count)]["calls"][0]
            assert digits["exit"] == 0
            assert digits["files"]["cert.json"] == entry["certificate_sha256"]
            checked += 1
    assert checked == 6
