"""Every function of the library runs on some corpus argv.

Each argv of `tests/golden/corpus.json` is replayed in-process, case by case
in a fresh directory as the corpus test does, under a `sys.setprofile` hook
that records every code object entered. Every `def` in `src/normnum/*.py`
must be among them, except the entries of `UNREACHED`. A function that no
command reaches is either dead code or a test-only helper, so a new one
fails here until it gets a caller or a reasoned entry, and an entry whose
function runs or is gone fails too.
"""

import ast
import sys
from pathlib import Path

import normnum

from test_corpus import CASES, regen

PACKAGE = Path(normnum.__file__).resolve().parent

# name: why no corpus argv runs it, and the ROADMAP item that retires the
# entry ("kept" where none does)
UNREACHED = {
    "measure.IntervalSet.intersect": "bench/launcher.py wraps it by name; items 3 and 5",
    "measure.PeriodicIntervalSet.materialize": "bench/launcher.py wraps it by name; items 3 and 5",
    "badsets.BadFamily.outer_intersect_bound": "bench/launcher.py wraps it by name; items 3 and 5",
    "measure.IntervalSet.pairs": "reached only through materialize; item 5",
    "measure.IntervalSet.__len__": "reached only through materialize; item 5",
    "measure.Record.__eq__": "value semantics only tests use; kept",
    "measure.Record.__hash__": "value semantics only tests use; kept",
    "measure.Record.__repr__": "value semantics only tests use; kept",
    "measure.Record._fields": "reached only through __eq__ and __hash__; kept",
    "measure.Record.__setattr__": "immutability guard, raised only by tests; kept",
    "measure.Record.__delattr__": "immutability guard, raised only by tests; kept",
    "measure.IntervalSet.__eq__": "value semantics only tests use; kept",
    "measure.IntervalSet.__hash__": "value semantics only tests use; kept",
    "measure.IntervalSet.__repr__": "value semantics only tests use; kept",
    "constructor.IndeterminateError.__init__": "no preset leaves both halves failing; kept",
    "constructor._shown": "formats a verify mismatch, and no corpus certificate has one; kept",
    "cli._deferred": "runs while normnum.cli is imported, before any argv; kept",
}


def _collect(node, prefix: str, path: Path, defs: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            defs[(str(path), line, child.name)] = prefix + child.name
            _collect(child, prefix + child.name + ".", path, defs)
        elif isinstance(child, ast.ClassDef):
            _collect(child, prefix + child.name + ".", path, defs)
        else:
            _collect(child, prefix, path, defs)


def library_defs() -> dict:
    """Every `def` of the package, keyed as its code object is: (file, first
    line, name), with the first decorator's line for a decorated one; the
    value is the dotted name "module.Class.function"."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        _collect(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".", path, defs)
    return defs


def test_every_library_function_runs_on_the_corpus(tmp_path):
    entered = set()

    def hook(frame, event, arg, add=entered.add):
        # no event filter: the frame of any event has been entered
        add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for number, case in enumerate(CASES):
            directory = tmp_path / str(number)
            directory.mkdir()
            for call in case["calls"]:
                regen.replay(call["argv"], directory)
    finally:
        sys.setprofile(previous)
    ran = {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
        for code in entered
    }
    defs = library_defs()
    unreached = {name for key, name in defs.items() if key not in ran}
    assert sorted(unreached - set(UNREACHED)) == []
    # an entry whose function runs, or is gone, has nothing left to excuse
    assert sorted(set(UNREACHED) - unreached) == []
