"""The benchmark's contract with the package.

`perfbench/` drives the program from outside: its tracer wraps named
functions of the `mscn` modules, and its self-check compares the
program's scorers and recall with an independent reference before every
benchmark run.  Renaming or deleting any of those functions breaks every
benchmark run, so the names are checked here, as is the span nesting
the benchmark's per-layer self times rely on.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mscn
from mscn.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield {name: importlib.import_module(name)
               for name in ("checks", "reference", "run", "selfcheck",
                            "traced_cli", "tracer")}
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.fixture(scope="module")
def traced_smoke_train(perfbench, tmp_path_factory):
    """The smoke dataset, and a train on it with two evaluation workers
    run through perfbench's traced CLI: (data dir, run dir, trace)."""
    tmp_path = tmp_path_factory.mktemp("traced")
    smoke = str(ROOT / "configs" / "smoke.json")
    data = tmp_path / "data"
    assert main(["gen-data", "--config", smoke, "--out", str(data)]) == EXIT_OK
    trace = tmp_path / "trace.npz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace),
         "train", "--config", smoke, "--data", str(data / "dataset.mscd"),
         "--out", str(tmp_path / "run"), "--threads", "2"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    return data, tmp_path / "run", perfbench["tracer"].load(trace)


def test_every_traced_name_exists(perfbench):
    targets = perfbench["traced_cli"].targets(mscn, perfbench["tracer"].Tracer())
    missing = [f"{home.__name__}.{fname}" for home, fname, _, _ in targets
               if not callable(getattr(home, fname, None))]
    assert not missing


def test_benchmark_self_check_passes(perfbench):
    assert perfbench["selfcheck"].run(ROOT, perfbench["run"].END_TO_END) == []


def test_training_steps_nest_under_train(traced_smoke_train):
    """In a traced train with two evaluation workers, every warmup and
    bilevel step span has the `meta_loop.train` span as its parent: no
    training step runs on a thread of its own."""
    _, _, spans = traced_smoke_train
    names = [spans["names"][i] for i in spans["name"]]
    steps = [i for i, name in enumerate(names)
             if name in ("meta_loop.warmup_step", "meta_loop.bilevel_step")]
    assert steps
    parents = {names[spans["parent"][i]] for i in steps}
    assert parents == {"meta_loop.train"}


def test_traced_train_passes_the_benchmark_check(perfbench, traced_smoke_train):
    """The check of the benchmark's traced rounds holds on a traced smoke
    train: each kind of step span is counted as often as the epochs'
    pools give steps, and the purifier fits and best checkpoints match
    metrics.tsv.  A change that takes training steps out of the traced
    process fails here, not only in the benchmark's CI round."""
    data, run, trace = traced_smoke_train
    checks = perfbench["checks"]
    calls = {name: int((trace["name"] == i).sum())
             for i, name in enumerate(trace["names"])}
    clean = perfbench["reference"].read_dataset(data / "dataset.mscd")["train"]["clean"]
    train = json.loads((ROOT / "configs" / "smoke.json").read_text())["train"]
    problems = checks.check_traced_train(
        checks.read_tsv(run / "metrics.tsv"), calls, trace["records"],
        clean == 1, dict(train, mode="mscn"))
    assert problems == []
    assert calls["meta_loop.warmup_step"] and calls["meta_loop.bilevel_step"]
