"""The trend harness's comparison with an earlier output, and the files
it writes.

`benchmarks/trend.py` is a script, not part of the package; it is
imported from its directory, and its runs are stubbed where `main` runs.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trend():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("trend")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


def summary_of(trend, rsums: list) -> dict:
    """`trend.summarize` of every arm at noise 0.5 and seeds 1 and 2, each
    arm reading rsums[i] at seed i + 1."""
    runs = [{"noise": 0.5, "arm": arm, "seed": i + 1, "rsum": rsum,
             "r1sum": rsum / 10, "best_epoch": 3}
            for arm in trend.ARMS for i, rsum in enumerate(rsums)]
    return trend.summarize(runs, [0.5], [1, 2])


def test_compare_skips_an_arm_the_earlier_output_lacks(trend):
    """An arm that the earlier output does not have is listed as skipped,
    and every other arm is still compared."""
    now = summary_of(trend, [100.0, 110.0])
    earlier = summary_of(trend, [120.0, 124.0])
    new_arm = next(iter(trend.ARMS))
    del earlier["0.5"]["arms"][new_arm]
    arms, skipped = trend.compare(now, earlier)
    assert skipped == [new_arm]
    assert set(arms["0.5"]) == set(trend.ARMS) - {new_arm}
    for cell in arms["0.5"].values():
        # means 105 against 122; the larger seed range is 10
        assert cell == {"delta_mean_rsum": -17.0, "seed_range": 10.0,
                        "moved": True}


def test_compare_skips_a_noise_ratio_the_earlier_output_lacks(trend):
    """A noise ratio that the earlier output was not run at is listed as
    skipped, and the shared ratio is still compared."""
    runs = [{"noise": ratio, "arm": arm, "seed": seed, "rsum": 100.0 + seed,
             "r1sum": 10.0, "best_epoch": 3}
            for ratio in (0.2, 0.5) for arm in trend.ARMS for seed in (1, 2)]
    now = trend.summarize(runs, [0.2, 0.5], [1, 2])
    earlier = trend.summarize([r for r in runs if r["noise"] == 0.5], [0.5],
                              [1, 2])
    arms, skipped = trend.compare(now, earlier)
    assert skipped == ["noise 0.2"]
    assert set(arms) == {"0.5"}
    assert set(arms["0.5"]) == set(trend.ARMS)


@pytest.fixture
def stubbed(trend, tmp_path, monkeypatch):
    """A copy of the pinned output in an empty working directory, and
    `main` with runs that train nothing, on the calling process."""
    pinned = tmp_path / "BENCH_trend.json"
    pinned.write_bytes((ROOT / "BENCH_trend.json").read_bytes())
    monkeypatch.chdir(tmp_path)

    class Inline:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    def run_one(job):
        _, ratio, arm, seed = job
        return {"noise": ratio, "arm": arm, "seed": seed, "rsum": 100.0,
                "r1sum": 10.0, "best_epoch": 3, "wall_s": 0.0}

    monkeypatch.setattr(trend, "ProcessPoolExecutor", Inline)
    monkeypatch.setattr(trend, "run_one", run_one)
    return pinned, ["--config", str(ROOT / "configs" / "default.json"),
                    "--seeds", "1", "--noise", "0.5"]


def test_against_without_out_leaves_the_pinned_file(trend, stubbed):
    """A comparison run with no --out leaves the file it compares against
    as it was, and writes no other file."""
    pinned, argv = stubbed
    before = pinned.read_bytes()
    assert trend.main([*argv, "--against", pinned.name]) == 0
    assert pinned.read_bytes() == before
    assert [p.name for p in pinned.parent.iterdir()] == [pinned.name]


def test_out_writes_the_output(trend, stubbed):
    """--out writes the runs, their summary and the comparison."""
    pinned, argv = stubbed
    assert trend.main([*argv, "--out", "now.json",
                       "--against", pinned.name]) == 0
    now = json.loads((pinned.parent / "now.json").read_text(encoding="utf-8"))
    assert now["noise"] == [0.5]
    assert len(now["runs"]) == len(trend.ARMS)
    assert set(now["against"]["arms"]["0.5"]) == set(trend.ARMS)
