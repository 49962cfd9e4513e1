"""Paired benchmark rounds of an earlier revision and this checkout.

Usage, from the root of a checkout:

    python3 benchmarks/paired.py REV [--pairs 10] [--workload W ...] [--seed 1]

Checks REV out into a temporary `git worktree` and runs, for each
workload (every workload of BENCHMARK.json unless `--workload` names
some), `--pairs` pairs of untraced benchmark rounds: BENCHMARK.json's
command with `--workload W --seed S --seconds <run_seconds> --trace 0`,
once in REV's tree and once in this one.  Pair i runs seed `--seed` + i
in both trees, and the tree that goes first alternates from pair to pair.
Each tree runs its own `perfbench/` and `src/`.

For every end-to-end metric of BENCHMARK.json it prints REV's median and
quartiles, this tree's median and quartiles, and the pairs this tree won
(better in the metric's direction; ties count for neither side).  A
metric is "unresolved" where REV's own quartile spread exceeds the
metric's bound, as a share of REV's median: there the two trees cannot
be told apart by that bound.  A round whose check fails, or whose output
ends in no result, counts as failed and adds no value.  The last line of
standard output is one JSON object with every round's metrics and the
summary.  BENCHMARK.json is read, never written, and the worktree is
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values) -> tuple[float, float]:
    """The first and third quartiles of `values`, interpolated between
    order statistics (numpy's default); both are the value itself for one
    value."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(parent, change, better: str) -> int:
    """Pairs (parent[i], change[i]) where the change reads better, by the
    direction `better` ("lower" or "higher"); a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def unresolved(parent, bound: float) -> bool:
    """Whether the parent's quartile spread exceeds `bound` times the size
    of its median, so that a move within the bound cannot be seen."""
    q1, q3 = quartiles(parent)
    return q3 - q1 > bound * abs(statistics.median(parent))


def summarize(rounds: dict, metrics: list) -> dict:
    """Per metric of `metrics` (BENCHMARK.json's end-to-end entries), the
    medians and quartiles of both sides and the pairs won, over the pairs
    in which both rounds succeeded.  `rounds` maps each side to a list of
    per-pair metric dicts, None for a failed round."""
    pairs = [(p, c) for p, c in zip(rounds["parent"], rounds["change"])
             if p is not None and c is not None]
    out = {}
    for m in metrics:
        name = m["name"]
        values = {side: [pair[i][name] for pair in pairs]
                  for i, side in enumerate(SIDES)}
        if not pairs:
            out[name] = {"pairs": 0}
            continue
        cell = {"pairs": len(pairs),
                "wins": wins(values["parent"], values["change"], m["better"]),
                "unresolved": unresolved(values["parent"], m["bound"])}
        for side in SIDES:
            cell[side] = {"median": statistics.median(values[side]),
                          "quartiles": quartiles(values[side])}
        out[name] = cell
    return out


def _run_round(tree: Path, command: list, workload: str, seed: int,
               seconds: int):
    """One untraced round in `tree`: its metric values, or None if it
    failed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if (proc.returncode != 0 or not isinstance(result, dict)
            or result.get("correct") is not True or result.get("failed") != 0):
        sys.stderr.write(f"{tree.name} {workload} seed {seed}: round failed\n"
                         f"{proc.stderr[-2000:]}")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def _print_summary(workload: str, summary: dict, failed: dict) -> None:
    print(f"{workload}: failed rounds parent {failed['parent']}, "
          f"change {failed['change']}")
    for name, cell in summary.items():
        if not cell["pairs"]:
            print(f"  {name}\tno pair completed")
            continue
        p, c = cell["parent"], cell["change"]
        print(f"  {name}\t{p['median']:.6g} [{p['quartiles'][0]:.6g}, "
              f"{p['quartiles'][1]:.6g}] -> {c['median']:.6g} "
              f"[{c['quartiles'][0]:.6g}, {c['quartiles'][1]:.6g}]\t"
              f"won {cell['wins']} of {cell['pairs']}"
              + ("\tunresolved" if cell["unresolved"] else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="the revision to compare this checkout with")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json (repeatable; default all)")
    p.add_argument("--seed", type=int, default=1,
                   help="the seed of the first pair; pair i runs seed + i")
    args = p.parse_args(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            p.error(f"unknown workload {w!r}; BENCHMARK.json has {known}")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    report = {"rev": args.rev, "pairs": args.pairs, "seed": args.seed,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        parent = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", str(parent),
                        args.rev], cwd=root, check=True, capture_output=True)
        try:
            trees = {"parent": parent, "change": root}
            for workload in workloads:
                rounds = {side: [] for side in SIDES}
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    for side in order:
                        rounds[side].append(_run_round(
                            trees[side], bench["command"], workload,
                            args.seed + i, bench["run_seconds"]))
                failed = {side: rounds[side].count(None) for side in SIDES}
                summary = summarize(rounds, bench["end_to_end"])
                _print_summary(workload, summary, failed)
                report["workloads"][workload] = {
                    "rounds": rounds, "failed": failed, "summary": summary}
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent)],
                           cwd=root, capture_output=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
