"""Per-step cost of the three training steps, at the shapes of a config.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/step_cost.py [--config configs/default.json]
        [--steps 50] [--warmup 5] [--out BENCH_step_cost.json]

Builds the config's dataset in memory, then for each of `warmup_step`,
`bilevel_step` and `baseline_step` runs `--warmup` untimed steps followed
by `--steps` timed ones on one network pair, each on the next batch of
the training split.  It prints the median wall milliseconds of a step and
the number of nodes one step records on its computation records, and
writes the same numbers, with the inputs that produced them, to `--out`.
It runs with the package's one BLAS thread unless OPENBLAS_NUM_THREADS
is set, and records that.  Nothing is asserted: the numbers are for
before/after comparisons on one host, run alternately.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# mscn first: importing it sets one BLAS thread, as in `mscn train`, and
# that takes effect only before numpy loads
from mscn import autodiff as ad
from mscn import cli, datagen, meta_loop

import numpy as np  # noqa: E402

STEPS = ("warmup_step", "bilevel_step", "baseline_step")


def _stepper(kind: str, ds, cfg):
    """A function net, i -> net that takes step i of `kind`."""
    train, meta = ds.train, ds.meta
    n_batches = len(train) // cfg.batch_size
    rng = np.random.default_rng(cfg.seed)

    def batch(i):
        lo = (i % n_batches) * cfg.batch_size
        return (train.images[lo:lo + cfg.batch_size],
                train.texts[lo:lo + cfg.batch_size])

    def step(net, i):
        imgs, txts = batch(i)
        if kind == "baseline_step":
            return meta_loop.baseline_step(net, imgs, txts, cfg.lr_main, cfg)[0]
        mb = meta_loop.construct_meta_batch(meta, train, cfg.meta_batch_size, rng)
        fn = getattr(meta_loop, kind)
        return fn(net, imgs, txts, mb, cfg.lr_main, cfg.lr_meta, cfg)[0]

    return step


class _CountingTape(ad.Tape):
    nodes = 0

    def __exit__(self, *exc):
        _CountingTape.nodes += len(self.nodes)
        return super().__exit__(*exc)


def _nodes_per_step(step, net) -> int:
    """Nodes appended to every record opened by one step."""
    plain = ad.Tape
    _CountingTape.nodes = 0
    ad.Tape = _CountingTape
    try:
        step(net, 0)
    finally:
        ad.Tape = plain
    return _CountingTape.nodes


def measure(ds, cfg, kind: str, steps: int, warmup: int) -> dict:
    step = _stepper(kind, ds, cfg)
    net = meta_loop.NetState.init(ds.d_img, ds.d_txt, cfg,
                                  np.random.default_rng(cfg.seed))
    for i in range(warmup):
        net = step(net, i)
    wall = []
    for i in range(warmup, warmup + steps):
        t0 = time.perf_counter()
        net = step(net, i)
        wall.append(time.perf_counter() - t0)
    return {"median_ms": 1e3 * statistics.median(wall),
            "nodes": _nodes_per_step(step, net)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default="configs/default.json")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--out", default="BENCH_step_cost.json")
    args = p.parse_args(argv)
    if args.steps < 1 or args.warmup < 0:
        p.error("--steps must be at least 1 and --warmup at least 0")

    raw = cli.load_config(args.config)
    ds = datagen.generate(cli.build_config(raw, "data"))
    noise = cli.build_config(raw, "noise")
    if noise.ratio > 0:
        ds = datagen.inject_noise(ds, noise.ratio, noise.seed)
    cfg = cli.build_config(raw, "train")
    results = {}
    for kind in STEPS:
        mode = "fixed_margin_baseline" if kind == "baseline_step" else "mscn"
        results[kind] = measure(ds, dataclasses.replace(cfg, mode=mode),
                                kind, args.steps, args.warmup)
        print(f"{kind}\t{results[kind]['median_ms']:.3f} ms\t"
              f"{results[kind]['nodes']} nodes")
    doc = {
        "config": args.config,
        "steps": args.steps,
        "warmup": args.warmup,
        "batch_size": cfg.batch_size,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "results": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
