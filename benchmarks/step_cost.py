"""Per-step cost of the three training steps, recorded and replayed, at the
shapes of a config.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/step_cost.py [--config configs/default.json]
        [--steps 50] [--warmup 5] [--out FILE] [--against FILE]

Builds the config's dataset in memory.  For each of `warmup_step`,
`bilevel_step` and `baseline_step` it trains two copies of one network
pair on the same batches, as `train` runs them: one calls the step on its
own, so every stage records, and one passes a dict of plans, as
`train` does, so the first step captures each stage and every later step
replays it: the bilevel step's retained virtual and meta stages as one
plan, and its actual stage as another.  `--warmup` (at least 1) untimed
steps, the capture among them, are followed by `--steps` timed ones, the
two copies alternating which goes first.  It prints each step's median
wall milliseconds recorded and replayed, the nodes one recorded step
appends to its records and the kernels of its plans, and only with
`--out` writes them, with the inputs that produced them, to that file
(`--out BENCH_step_cost.json` regenerates the pinned numbers).  The two
copies must end bitwise equal; if they do not it says so and exits 1.
It runs with the package's one BLAS thread unless OPENBLAS_NUM_THREADS
is set, and records that.  The timings are for before/after comparisons
on one host, run alternately.

With --against FILE (an earlier --out of the same --config; another
config's is refused) it also exits 1, naming each field, if a step's
`nodes` or `kernels` differ from FILE's.  Those counts follow from the
code and the config's shapes alone, so they hold on any host; timings
and host are not compared.
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
    """A function net, i, plans -> net that takes step i of `kind`; step i
    reads the same batch and meta batch whichever net takes it."""
    train, meta = ds.train, ds.meta
    n_batches = len(train) // cfg.batch_size
    fn = getattr(meta_loop, kind)

    def step(net, i, plans):
        lo = (i % n_batches) * cfg.batch_size
        imgs = train.images[lo:lo + cfg.batch_size]
        txts = train.texts[lo:lo + cfg.batch_size]
        if kind == "baseline_step":
            return fn(net, imgs, txts, cfg.lr_main, cfg, plans=plans)[0]
        mb = meta_loop.construct_meta_batch(
            meta, train, cfg.meta_batch_size, np.random.default_rng([cfg.seed, i]))
        return fn(net, imgs, txts, mb, cfg.lr_main, cfg.lr_meta, cfg,
                  plans=plans)[0]

    return step


class _CountingTape(ad.Tape):
    nodes = 0

    def __exit__(self, *exc):
        _CountingTape.nodes += len(self.nodes)
        return super().__exit__(*exc)


def _nodes_per_step(step, net) -> int:
    """Nodes appended to every record opened by one recorded step."""
    plain = ad.Tape
    _CountingTape.nodes = 0
    ad.Tape = _CountingTape
    try:
        step(net, 0, None)
    finally:
        ad.Tape = plain
    return _CountingTape.nodes


def _state_bytes(net) -> list[bytes]:
    arrays = [*net.main.arrays(), *net.meta.arrays()]
    for opt in (net.opt_main, net.opt_meta):
        arrays += [opt.m, opt.v, np.array(opt.t)]
    return [a.tobytes() for a in arrays]


def measure(ds, cfg, kind: str, steps: int, warmup: int) -> dict:
    step = _stepper(kind, ds, cfg)
    nets = [meta_loop.NetState.init(ds.d_img, ds.d_txt, cfg,
                                    np.random.default_rng(cfg.seed))
            for _ in range(2)]
    plans = {}
    runs = ((0, None), (1, plans))  # (net, plans): recorded, replayed
    for i in range(warmup):
        for k, p in runs:
            nets[k] = step(nets[k], i, p)
    wall = ([], [])
    for i in range(warmup, warmup + steps):
        for k, p in runs if i % 2 else runs[::-1]:
            t0 = time.perf_counter()
            nets[k] = step(nets[k], i, p)
            wall[k].append(time.perf_counter() - t0)
    identical = _state_bytes(nets[0]) == _state_bytes(nets[1])
    return {"recorded_ms": 1e3 * statistics.median(wall[0]),
            "replayed_ms": 1e3 * statistics.median(wall[1]),
            "nodes": _nodes_per_step(step, nets[0]),
            "kernels": sum(len(plan) for plan in plans.values()),
            "identical": identical}


def compare(results: dict, earlier: dict) -> list[str]:
    """What makes `results` fail against `earlier`, the results of an
    earlier run at the same config: one line per step and field whose
    count differs, and per step whose replay differs from its record."""
    problems = []
    for kind in STEPS:
        now, then = results[kind], earlier.get(kind, {})
        for field in ("nodes", "kernels"):
            if now[field] != then.get(field):
                problems.append(f"{kind} {field}: {then.get(field)} -> {now[field]}")
        if not now["identical"]:
            problems.append(f"{kind} identical: false")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default="configs/default.json")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--out", help="where to write the results as JSON")
    p.add_argument("--against", help="an earlier --out to compare with")
    args = p.parse_args(argv)
    if args.steps < 1 or args.warmup < 1:
        p.error("--steps and --warmup must be at least 1 (a warmup step "
                "captures the plans)")
    if args.against:
        earlier = json.loads(Path(args.against).read_text(encoding="utf-8"))
        if os.path.normpath(earlier["config"]) != os.path.normpath(args.config):
            p.error(f"{args.against} was measured on {earlier['config']}, "
                    f"not on {args.config}")

    raw = cli.load_config(args.config)
    ds = datagen.generate(cli.build_config(raw, "data"))
    noise = cli.build_config(raw, "noise")
    if noise.ratio > 0:
        ds = datagen.inject_noise(ds, noise.ratio, noise.seed)
    cfg = cli.build_config(raw, "train")
    results = {}
    for kind in STEPS:
        mode = "fixed_margin_baseline" if kind == "baseline_step" else "mscn"
        r = results[kind] = measure(ds, dataclasses.replace(cfg, mode=mode),
                                    kind, args.steps, args.warmup)
        print(f"{kind}\trecorded {r['recorded_ms']:.3f} ms\t"
              f"replayed {r['replayed_ms']:.3f} ms\t{r['nodes']} nodes\t"
              f"{r['kernels']} kernels"
              + ("" if r["identical"] else "\treplay DIFFERS from record"))
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
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                  encoding="utf-8")
    if args.against is None:
        return 0 if all(r["identical"] for r in results.values()) else 1
    problems = compare(results, earlier["results"])
    for line in problems:
        print(f"differs: {line}")
    print(f"{len(problems)} differences from {args.against}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
