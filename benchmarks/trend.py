"""Test recall of three training arms across seeds and noise ratios.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/trend.py [--config configs/default.json]
        [--seeds 3] [--noise 0,0.2,0.5,0.7]
        [--against PARENT.json] [--out FILE]

For each noise ratio it builds the config's dataset in memory and
corrupts that share of the train pairs with the config's noise seed.  On
each dataset it trains three arms: `mscn` (the config as it is),
`mscn_fixed` (the same with `use_adaptive_margin: false`) and `baseline`
(`fixed_margin_baseline` mode).  Each arm trains with `--seeds` training
seeds: the config's own, then 1, 2, ....  A run evaluates the
best-validation checkpoints on the test split with the arm's scorer.

Runs go to two processes with one BLAS thread each, and each run
evaluates on one worker.  A run's numbers are those of the same config
through `mscn train`, which trains the two network pairs on one thread
too.

The output has every run and, per noise ratio and arm, the mean, range
and sample standard deviation of the test rsum and of the R@1 sum
(image-to-text plus text-to-image R@1), and the best epochs.  Paired wins
count the seeds on which one arm beats another.  With `--against`, each
arm's mean rsum is compared with the same arm in an earlier output: an
arm has moved when the difference exceeds the larger of the two seed
ranges.  An arm the earlier output lacks is listed under "skipped" and
not compared.  Nothing is asserted.  The output is written only to
`--out` (`--out BENCH_trend.json` regenerates the pinned results), so a
quick check leaves every file as it was.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# mscn first: importing it sets one BLAS thread, as in `mscn train`, and
# that takes effect only before numpy loads
from mscn import cli, datagen, evalkit, meta_loop

import numpy as np  # noqa: E402

WORKERS = 2

# arm name -> overrides of the config's train section
ARMS = {
    "mscn": {"mode": "mscn"},
    "mscn_fixed": {"mode": "mscn", "use_adaptive_margin": False},
    "baseline": {"mode": "fixed_margin_baseline"},
}
PAIRS = (("mscn_fixed", "baseline"), ("mscn", "baseline"),
         ("mscn_fixed", "mscn"))


def _dataset(raw: dict, ratio: float) -> datagen.Dataset:
    ds = datagen.generate(cli.build_config(raw, "data"))
    if ratio > 0:
        ds = datagen.inject_noise(ds, ratio, cli.build_config(raw, "noise").seed)
    return ds


def run_one(job: tuple) -> dict:
    """Train one arm at one seed and noise ratio; its test recall."""
    config, ratio, arm, seed = job
    raw = cli.load_config(config)
    ds = _dataset(raw, ratio)
    cfg = cli.build_config(raw, "train", seed=seed, **ARMS[arm])
    t0 = time.perf_counter()
    result = meta_loop.train(ds, cfg, threads=1)
    report = evalkit.evaluate(result.best_nets, ds.test, ks=cfg.eval_ks,
                              scorer=meta_loop.SCORER_OF_MODE[cfg.mode],
                              threads=1)
    return {"noise": ratio, "arm": arm, "seed": seed,
            "rsum": report.rsum,
            "r1sum": report.image_to_text[1] + report.text_to_image[1],
            "best_epoch": result.best_epoch,
            "wall_s": time.perf_counter() - t0}


def _stats(values: list) -> dict:
    return {"mean": statistics.fmean(values),
            "min": min(values), "max": max(values),
            "std": statistics.stdev(values) if len(values) > 1 else 0.0,
            "values": values}


def summarize(runs: list, noise: list, seeds: list) -> dict:
    """Per noise ratio: each arm's statistics and the paired wins."""
    by = {(r["noise"], r["arm"], r["seed"]): r for r in runs}
    out = {}
    for ratio in noise:
        arms = {}
        for arm in ARMS:
            rows = [by[ratio, arm, s] for s in seeds]
            arms[arm] = {"rsum": _stats([r["rsum"] for r in rows]),
                         "r1sum": _stats([r["r1sum"] for r in rows]),
                         "best_epoch": [r["best_epoch"] for r in rows]}
        wins = {}
        for a, b in PAIRS:
            wins[f"{a}>{b}"] = {
                key: sum(by[ratio, a, s][key] > by[ratio, b, s][key] for s in seeds)
                for key in ("rsum", "r1sum")}
        out[str(ratio)] = {"arms": arms, "paired_wins": wins}
    return out


def compare(summary: dict, earlier: dict) -> tuple[dict, list]:
    """Each arm's change in mean rsum against `earlier`'s summary, and
    whether it exceeds the larger seed range of the two; and what is not
    compared: each arm that `earlier` lacks at some shared noise ratio, by
    name, and each noise ratio it lacks, as "noise <ratio>"."""
    out, skipped = {}, set()
    for ratio, cell in summary.items():
        if ratio not in earlier:
            skipped.add(f"noise {ratio}")
            continue
        for arm, now in cell["arms"].items():
            if arm not in earlier[ratio]["arms"]:
                skipped.add(arm)
                continue
            then = earlier[ratio]["arms"][arm]["rsum"]
            spread = max(now["rsum"]["max"] - now["rsum"]["min"],
                         then["max"] - then["min"])
            delta = now["rsum"]["mean"] - then["mean"]
            out.setdefault(ratio, {})[arm] = {
                "delta_mean_rsum": delta, "seed_range": spread,
                "moved": abs(delta) > spread}
    return out, sorted(skipped)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default="configs/default.json")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--noise", default="0,0.2,0.5,0.7",
                   help="comma-separated noise ratios")
    p.add_argument("--against", help="an earlier output to compare with")
    p.add_argument("--out", help="where to write the output as JSON")
    args = p.parse_args(argv)
    noise = [float(x) for x in args.noise.split(",")]
    if args.seeds < 1:
        p.error("--seeds must be at least 1")

    raw = cli.load_config(args.config)
    first = cli.build_config(raw, "train").seed
    seeds = list(dict.fromkeys([first, *range(1, args.seeds + 1)]))[:args.seeds]
    # the mscn arms take longest; start them first
    jobs = [(args.config, r, arm, s) for arm in ARMS for r in noise for s in seeds]
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        runs = list(pool.map(run_one, jobs))
    summary = summarize(runs, noise, seeds)
    for ratio, cell in summary.items():
        for arm, st in cell["arms"].items():
            print(f"noise {ratio}\t{arm}\trsum {st['rsum']['mean']:.1f} "
                  f"[{st['rsum']['min']:.0f}, {st['rsum']['max']:.0f}]\t"
                  f"R@1 sum {st['r1sum']['mean']:.1f}\t"
                  f"best epochs {st['best_epoch']}")
    doc = {
        "config": args.config,
        "seeds": seeds,
        "noise": noise,
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "elapsed_s": time.perf_counter() - t0,
        "summary": summary,
        "runs": runs,
    }
    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))
        arms, skipped = compare(summary, earlier["summary"])
        doc["against"] = {"file": args.against, "arms": arms,
                          "skipped": skipped}
        moved = [(r, a) for r, cells in arms.items()
                 for a, c in cells.items() if c["moved"]]
        print(f"arms moved beyond their seed range: {moved or 'none'}")
        if skipped:
            print(f"not in {args.against}, not compared: {skipped}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
