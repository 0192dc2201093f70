"""Regenerate tests/golden/corpus.json from the code as it stands.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each case runs its argv in order inside one fresh temporary directory, so a
`verify` call reads the certificate the `digits` call before it wrote.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import normnum.cli

HERE = Path(__file__).resolve().parent

TOY_PRESETS = ("toy-mixed", "toy-seeded", "toy-sparse")
LEMMAS = ("badic", "chain", "cover", "depth", "dyadic", "masstail")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(directory: Path) -> dict:
    return {
        path.name: _sha(path.read_bytes())
        for path in directory.iterdir()
        if path.is_file()
    }


def replay(argv, directory: Path) -> dict:
    """Run one argv in-process inside the directory: its exit code and the
    hashes of its stdout, its stderr and the files it wrote or changed."""
    before = _snapshot(directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = normnum.cli.main(list(argv))
    finally:
        os.chdir(cwd)
    after = _snapshot(directory)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": {
            name: sha for name, sha in sorted(after.items()) if before.get(name) != sha
        },
    }


def cases():
    for preset in TOY_PRESETS:
        for count in (2, 6, 64):
            yield "digits-%s-%d" % (preset, count), [
                ("digits", "--preset", preset, "--count", str(count),
                 "--digits-out", "digits.txt", "--cert-out", "cert.json"),
                ("verify", "cert.json"),
            ]
    yield "refuse-paper", [("digits", "--preset", "paper", "--count", "12")]
    yield "verify-missing-file", [("verify", "missing.json")]
    for which in LEMMAS:
        yield "lemma-" + which, [("lemma", "--which", which)]
    for name, x, base, count in (
        ("discrepancy-1-1000003", "1/1000003", 2, 1024),
        ("discrepancy-5-17-base3", "5/17", 3, 200),
        ("discrepancy-355-1131-base5", "355/1131", 5, 500),
    ):
        yield name, [
            ("discrepancy", "--x", x, "--base", str(base), "--count", str(count),
             "--ratio"),
        ]
    yield "digits-file-discrepancy", [
        ("digits", "--preset", "toy-sparse", "--count", "64", "--digits-out",
         "digits.txt"),
    ] + [
        ("discrepancy", "--digits-file", "digits.txt", "--base", str(base),
         "--count", "64", "--ratio")
        for base in (2, 3)
    ]
    for preset in TOY_PRESETS:
        yield "family-%s" % preset, [
            ("badset", "--preset", preset, "--which", "family", "--index", "4",
             "--list-parts"),
        ]
    for h, a in ((1, 0), (2, 1), (3, 5)):
        yield "block-h%d-a%d" % (h, a), [
            ("badset", "--preset", "toy-mixed", "--which", "block", "--base", "2",
             "--index", "4", "--band-scale", str(h), "--band-index", str(a),
             "--list-parts"),
        ]
    for preset, l, h, a, m in (
        ("toy-seeded", 3, 2, 2, 1),
        ("toy-mixed", 4, 1, 0, 1),
        ("toy-mixed", 4, 2, 0, 2),
        ("toy-mixed", 4, 2, 3, 2),
    ):
        yield "tail-%s-l%d-h%d-a%d-m%d" % (preset, l, h, a, m), [
            ("badset", "--preset", preset, "--which", "tail", "--base", "2",
             "--index", "4", "--window-scale", str(l), "--band-scale", str(h),
             "--band-index", str(a), "--window-slot", str(m), "--list-parts"),
        ]
    yield "refuse-block-base3", [
        ("badset", "--preset", "toy-mixed", "--which", "block", "--base", "3",
         "--index", "4", "--band-scale", "1"),
    ]
    for n in (2, 9, 10):
        yield "cost-n%d" % n, [("cost", "--n", str(n))]


def main() -> int:
    corpus = {"schema": "normnum.corpus/1", "cases": []}
    for name, argvs in cases():
        with tempfile.TemporaryDirectory() as directory:
            calls = [replay(argv, Path(directory)) for argv in argvs]
        corpus["cases"].append({"name": name, "calls": calls})
    with open(HERE / "corpus.json", "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
