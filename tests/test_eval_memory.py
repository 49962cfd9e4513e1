"""The files the eval memory harness writes.

`benchmarks/eval_memory.py` is a script, not part of the package; it is
imported from its directory, with its commands stubbed, so no command
runs.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def eval_memory():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("eval_memory")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


@pytest.fixture
def workdir(eval_memory, tmp_path, monkeypatch):
    """An empty working directory, and commands that take 1 s, peak at
    40 MB, list a 5-pair test split and write a fixed eval report."""
    def run_cli(args, env, log=None, entry=None):
        if args[0] == "eval":
            out = Path(args[args.index("--out") + 1])
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.tsv").write_text("rsum\t1\n", encoding="utf-8")
        return 1.0, 40.0, "wrote dataset.mscd\n  test: 5 pairs\n"

    monkeypatch.setattr(eval_memory, "run_cli", run_cli)
    monkeypatch.setattr(eval_memory, "worker_series",
                        lambda cases, *args: [])
    monkeypatch.chdir(tmp_path)
    return tmp_path


ARGV = ["--pairs-per-cluster", "5", "--repeats", "2", "--max-pairs", "0"]


def test_no_out_writes_no_file(eval_memory, workdir):
    assert eval_memory.main(ARGV) == 0
    assert list(workdir.iterdir()) == []


def test_out_writes_the_results(eval_memory, workdir):
    assert eval_memory.main([*ARGV, "--out", "now.json"]) == 0
    assert [p.name for p in workdir.iterdir()] == ["now.json"]
    doc = json.loads((workdir / "now.json").read_text(encoding="utf-8"))
    assert doc["n_test"] == 5
    assert doc["eval_wall_s"] == [1.0, 1.0]
    assert doc["eval_peak_rss_mb"] == [40.0, 40.0]
    assert doc["worker_series"] == []
