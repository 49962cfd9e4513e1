"""The paired harness's statistics: medians, quartiles, pairs won and the
unresolved flag.

`benchmarks/paired.py` is a script, not part of the package; it is
imported from its directory.  Nothing here runs a round.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def paired():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("paired")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


def test_quartiles_interpolate_between_order_statistics(paired):
    # numpy.percentile([...], [25, 75]) of the same values
    assert paired.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 4.0)
    assert paired.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)
    assert paired.quartiles([7.0]) == (7.0, 7.0)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither(paired):
    parent = [5.0, 5.0, 5.0, 5.0]
    change = [4.0, 6.0, 5.0, 3.0]
    assert paired.wins(parent, change, "lower") == 2
    assert paired.wins(parent, change, "higher") == 1


def test_unresolved_where_the_parent_spread_exceeds_the_bound(paired):
    # quartiles 1.75 / 3.25 around a median of 2.5: a spread of 60%
    spread = [1.0, 2.0, 3.0, 4.0]
    assert paired.unresolved(spread, 0.25)
    assert not paired.unresolved(spread, 0.6)
    assert not paired.unresolved([10.0, 10.0, 10.0], 0.0)


def test_summary_skips_pairs_with_a_failed_round(paired):
    metrics = [{"name": "train_s", "better": "lower", "bound": 0.25},
               {"name": "test_rsum", "better": "higher", "bound": 0.25}]
    rounds = {
        "parent": [{"train_s": 5.0, "test_rsum": 131.0},
                   {"train_s": 5.2, "test_rsum": 131.0},
                   None,
                   {"train_s": 5.4, "test_rsum": 131.0}],
        "change": [{"train_s": 4.0, "test_rsum": 131.0},
                   {"train_s": 5.3, "test_rsum": 131.0},
                   {"train_s": 1.0, "test_rsum": 999.0},
                   {"train_s": 4.2, "test_rsum": 131.0}],
    }
    summary = paired.summarize(rounds, metrics)
    train = summary["train_s"]
    assert train["pairs"] == 3 and train["wins"] == 2
    assert train["parent"]["median"] == 5.2
    assert train["change"]["median"] == 4.2
    assert train["parent"]["quartiles"] == pytest.approx((5.1, 5.3))
    assert not train["unresolved"]
    rsum = summary["test_rsum"]
    assert rsum["wins"] == 0 and rsum["change"]["median"] == 131.0
    assert paired.summarize({"parent": [None], "change": [None]},
                            metrics)["train_s"] == {"pairs": 0}
