"""The trend harness's comparison with an earlier output.

`benchmarks/trend.py` is a script, not part of the package; it is
imported from its directory.
"""

from __future__ import annotations

import importlib
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
