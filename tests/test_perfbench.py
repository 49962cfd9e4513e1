"""The benchmark's contract with the package.

`perfbench/` drives the program from outside: its tracer wraps named
functions of the `mscn` modules, and its self-check compares the
program's scorers and recall with an independent reference before every
benchmark run.  Renaming or deleting any of those functions breaks every
benchmark run, so the names are checked here.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import mscn

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield {name: importlib.import_module(name)
               for name in ("run", "selfcheck", "traced_cli", "tracer")}
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_every_traced_name_exists(perfbench):
    targets = perfbench["traced_cli"].targets(mscn, perfbench["tracer"].Tracer())
    missing = [f"{home.__name__}.{fname}" for home, fname, _, _ in targets
               if not callable(getattr(home, fname, None))]
    assert not missing


def test_benchmark_self_check_passes(perfbench):
    assert perfbench["selfcheck"].run(ROOT, perfbench["run"].END_TO_END) == []
