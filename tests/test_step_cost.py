"""The step-cost harness's comparison with an earlier output.

`benchmarks/step_cost.py` is a script, not part of the package; it is
imported from its directory.  Nothing here trains.
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def step_cost():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("step_cost")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_step_cost.json").read_text(encoding="utf-8"))


def test_compare_ignores_timings(step_cost, committed):
    """A run that differs from the committed output only in its timings
    passes."""
    now = copy.deepcopy(committed["results"])
    for result in now.values():
        result["recorded_ms"] *= 3.0
        result["replayed_ms"] /= 2.0
    assert step_cost.compare(now, committed["results"]) == []


@pytest.mark.parametrize("kind", ["warmup_step", "bilevel_step", "baseline_step"])
@pytest.mark.parametrize("field", ["nodes", "kernels", "identical"])
def test_compare_names_each_field_that_fails(step_cost, committed, kind, field):
    """A changed node or kernel count, or a replay that differs from its
    record, is named by step and field, and nothing else is."""
    now = copy.deepcopy(committed["results"])
    now[kind][field] = False if field == "identical" else now[kind][field] + 1
    problems = step_cost.compare(now, committed["results"])
    assert len(problems) == 1
    assert problems[0].startswith(f"{kind} {field}: ")


def test_against_another_config_is_refused(step_cost, committed, tmp_path,
                                           capsys):
    """An earlier output of another config is refused before anything is
    measured."""
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(committed, config="configs/smoke.json")),
                     encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        step_cost.main(["--config", "configs/default.json",
                        "--against", str(other),
                        "--out", str(tmp_path / "out.json")])
    assert exit_.value.code == 2
    assert "measured on configs/smoke.json" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_against_without_out_writes_nothing(step_cost, committed, tmp_path,
                                            monkeypatch):
    """A comparison run with no --out leaves the file it compares against,
    and every other file, as they were."""
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "default.json").write_bytes(
        (ROOT / "configs" / "default.json").read_bytes())
    pinned = tmp_path / "BENCH_step_cost.json"
    pinned.write_bytes((ROOT / "BENCH_step_cost.json").read_bytes())
    before = pinned.read_bytes()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(step_cost, "measure",
                        lambda ds, cfg, kind, steps, warmup:
                        dict(committed["results"][kind], recorded_ms=1.0))
    assert step_cost.main(["--steps", "1", "--warmup", "1",
                           "--against", "BENCH_step_cost.json"]) == 0
    assert pinned.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_step_cost.json", "configs"]
