"""Peak memory and wall time of `mscn eval`: on a large test split, and on
one worker against a pool of two.

Usage, from the root of a checkout:

    python3 benchmarks/eval_memory.py [--pairs-per-cluster 2000]
        [--repeats 5] [--max-pairs 2000] [--out FILE]

Builds the inputs of perfbench's eval-large workload in a temporary
directory: the default config's dataset, two checkpoints from a
warmup-only `train` on it, and a dataset of --pairs-per-cluster pairs per
cluster whose test split is evaluated (2000 x 2000 at the default).  Then
it runs `mscn eval` of both checkpoints on that split --repeats times,
with one worker per CPU this process may run on, as perfbench does.

The worker series then evaluates the same checkpoints with the mscn
scorer at 100, 400, 800 and 2000 test pairs and with the cosine scorer
at 400 and 2000 (the cases of at most --max-pairs; 0 runs none), each
on one worker and on a pool of two, --repeats times in alternating
order, so host drift falls on both alike.  Both series set
`evalkit.MIN_BLOCKS_PER_WORKER` to 1 before the command runs, so at
`--threads 2` every split of two blocks or more fans out, whatever the
constant.  Per case the output holds the number of blocks the split is
scored in (tiles for mscn, strips for cosine), the median wall seconds
and peak RSS of each series, and the workers the constant gives the case
at `--threads 2`: the numbers that set the constant.

Every step is a python child of this process, which imports neither
numpy nor mscn.  Linux counts the RSS a child had before exec, a copy of
its parent's, in the child's peak RSS (`ru_maxrss`), so only a small
parent lets the number be the eval's own; the parent's peak is recorded
beside it.  Only with --out (`--out BENCH_eval_memory.json` regenerates
the pinned numbers) are the median wall seconds and every run's peak RSS
written to that file, with the reports' sha256 and the host and BLAS
facts that `step_cost.py` records; a report that differs between repeats
or series raises.  Nothing else is asserted: the numbers are for before/after
comparisons on one host, run alternately.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

# the spawn helper that output_hashes.py uses too; this script's directory
# is on sys.path when it runs
from output_hashes import cli_env, run_cli

ROOT = Path(__file__).resolve().parent.parent
# the worker series: (scorer, test pairs)
CASES = (("mscn", 100), ("mscn", 400), ("mscn", 800), ("mscn", 2000),
         ("cosine", 400), ("cosine", 2000))
SERIES = {"serial": 1, "pool": 2}   # name -> --threads
# `mscn` with a pool for any split of two blocks or more
POOL_CLI = ("import sys\nfrom mscn import evalkit\n"
            "evalkit.MIN_BLOCKS_PER_WORKER = 1\n"
            "from mscn.cli import main\nsys.exit(main())")
# the block shapes and the pool rule of the package under test
PROBE = ("import json\nfrom mscn import evalkit as ek\n"
         "print(json.dumps([ek.TILE, ek.CHUNK_ROWS,"
         " getattr(ek, 'MIN_BLOCKS_PER_WORKER', 1)]))")


def worker_series(cases, repeats, data, ckpts, env, work, log) -> list:
    """Per case, `mscn eval` on one worker and on a pool of two, run
    alternately; the rows of the output's `worker_series`."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                           stdout=subprocess.PIPE, text=True)
    tile, chunk_rows, min_blocks = json.loads(probe.stdout)
    runs = {(case, name): [] for case in cases for name in SERIES}
    reports = {case: set() for case in cases}
    order = list(SERIES)
    for r in range(repeats):
        for case in cases:
            scorer, n = case
            for name in order if r % 2 == 0 else order[::-1]:
                wall, peak, _ = run_cli(
                    ["eval", "--data", data[n], *ckpts, "--scorer", scorer,
                     "--threads", SERIES[name], "--out", work / "eval"],
                    env, log, entry=("-c", POOL_CLI))
                runs[case, name].append((wall, peak))
                reports[case].add(hashlib.sha256(
                    (work / "eval" / "report.tsv").read_bytes()).hexdigest())
    rows = []
    for case in cases:
        scorer, n = case
        if len(reports[case]) != 1:
            raise RuntimeError(f"{scorer} eval of {n} pairs: report.tsv "
                               "differs between runs")
        blocks = (math.ceil(n / tile) ** 2 if scorer == "mscn"
                  else math.ceil(n / chunk_rows))
        workers = min(2, blocks // min_blocks)   # evalkit._block_map's rule
        row = {"scorer": scorer, "pairs": n, "blocks": blocks,
               "pool_workers_at_threads_2": workers if workers >= 2 else 0}
        for name in SERIES:
            walls, peaks = zip(*runs[case, name])
            row[name] = {"median_s": statistics.median(walls),
                         "median_peak_rss_mb": statistics.median(peaks),
                         "wall_s": list(walls), "peak_rss_mb": list(peaks)}
        row["report_sha256"] = reports[case].pop()
        rows.append(row)
        print(f"{scorer:6s} {n:5d} pairs, {blocks:4d} blocks: serial "
              f"{row['serial']['median_s']:.3f} s "
              f"{row['serial']['median_peak_rss_mb']:.1f} MB, pool "
              f"{row['pool']['median_s']:.3f} s "
              f"{row['pool']['median_peak_rss_mb']:.1f} MB; "
              f"{row['pool_workers_at_threads_2'] or 'no'} pool workers "
              "at --threads 2")
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs-per-cluster", type=int, default=2000)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--max-pairs", type=int, default=2000,
                   help="leave the worker series' larger cases out")
    p.add_argument("--out", help="where to write the results as JSON")
    args = p.parse_args(argv)
    if args.pairs_per_cluster < 1 or args.repeats < 1 or args.max_pairs < 0:
        p.error("--pairs-per-cluster and --repeats must be at least 1, "
                "--max-pairs at least 0")
    threads = len(os.sched_getaffinity(0))
    cases = [(scorer, n) for scorer, n in CASES if n <= args.max_pairs]

    env = cli_env()
    default_cfg = ROOT / "configs" / "default.json"
    warm = json.loads(default_cfg.read_text())
    warm["train"]["epochs"] = 0
    with tempfile.TemporaryDirectory(prefix="eval_memory_") as tmp:
        work = Path(tmp)
        log = work / "cli.log"
        (work / "warm.json").write_text(json.dumps(warm), encoding="utf-8")
        run_cli(["gen-data", "--config", default_cfg, "--out", work / "data"],
                env, log)
        data = {}
        for n in sorted({args.pairs_per_cluster, *(n for _, n in cases)}):
            # the default config's test split is a tenth of its 10 clusters
            cfg = json.loads(default_cfg.read_text())
            cfg["data"]["pairs_per_cluster"] = n
            (work / f"data{n}.json").write_text(json.dumps(cfg),
                                                encoding="utf-8")
            listing = run_cli(["gen-data", "--config", work / f"data{n}.json",
                               "--out", work / f"data{n}"], env, log)[2]
            if n == args.pairs_per_cluster:
                n_test = next(int(line.split()[1])
                              for line in listing.splitlines()
                              if line.split()[:1] == ["test:"])
            data[n] = work / f"data{n}" / "dataset.mscd"
        run_cli(["train", "--config", work / "warm.json",
                 "--data", work / "data" / "dataset.mscd", "--out", work / "run",
                 "--threads", threads], env, log)
        ckpts = ["--checkpoint", work / "run" / "net1_best.mscp",
                 "--checkpoint", work / "run" / "net2_best.mscp"]
        ev = ["eval", "--data", data[args.pairs_per_cluster], *ckpts,
              "--split", "test", "--threads", threads, "--out", work / "eval"]
        walls, peaks, reports = [], [], set()
        for _ in range(args.repeats):
            wall, peak, _ = run_cli(ev, env, log)
            walls.append(wall)
            peaks.append(peak)
            reports.add(hashlib.sha256(
                (work / "eval" / "report.tsv").read_bytes()).hexdigest())
        if len(reports) != 1:
            raise RuntimeError("report.tsv differs between repeats of one eval")
        print(f"eval {n_test} x {n_test}, 2 checkpoints, {threads} threads: "
              f"median {statistics.median(walls):.3f} s, peak RSS "
              f"{min(peaks):.1f}-{max(peaks):.1f} MB over {args.repeats} runs")
        series = worker_series(cases, args.repeats, data, ckpts, env, work,
                               log)

    doc = {
        "pairs_per_cluster": args.pairs_per_cluster,
        "n_test": n_test,
        "checkpoints": 2,
        "threads": threads,
        "repeats": args.repeats,
        "eval_median_s": statistics.median(walls),
        "eval_wall_s": walls,
        "eval_peak_rss_mb": peaks,
        "parent_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_sha256": reports.pop(),
        "worker_series": series,
        # the package sets one BLAS thread unless the variable is set
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "host": {"cpus": threads,
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": metadata.version("numpy")},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
