"""Peak memory and wall time of `mscn eval` on a large test split.

Usage, from the root of a checkout:

    python3 benchmarks/eval_memory.py [--pairs-per-cluster 2000]
        [--repeats 5] [--out BENCH_eval_memory.json]

Builds the inputs of perfbench's eval-large workload in a temporary
directory: the default config's dataset, two checkpoints from a
warmup-only `train` on it, and a dataset of --pairs-per-cluster pairs per
cluster whose test split is evaluated (2000 x 2000 at the default).  Then
it runs `mscn eval` of both checkpoints on that split --repeats times,
with one worker per CPU this process may run on, as perfbench does.

Every step is a `python -m mscn.cli` child of this process, which imports
neither numpy nor mscn.  Linux counts the RSS a child had before exec, a
copy of its parent's, in the child's peak RSS (`ru_maxrss`), so only a
small parent lets the number be the eval's own; the parent's peak is
recorded beside it.  The median wall seconds and every run's peak RSS go
to --out, with the report's sha256 and the host and BLAS facts that
`step_cost.py` records.  Nothing is asserted: the numbers are for
before/after comparisons on one host, run alternately.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, env, log: Path) -> tuple[float, float, str]:
    """Run `mscn <args>` with its output in `log`; its wall seconds, peak
    RSS in MB and standard output.  Raises RuntimeError if it fails."""
    with open(log, "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mscn.cli",
                                 *map(str, args)], env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        # wait4, unlike Popen.wait, also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        out.seek(0)
        text = out.read()
    if proc.returncode != 0:
        raise RuntimeError(f"mscn {args[0]} exited {proc.returncode}:\n{text}")
    return wall, usage.ru_maxrss / 1024.0, text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pairs-per-cluster", type=int, default=2000)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", default="BENCH_eval_memory.json")
    args = p.parse_args(argv)
    if args.pairs_per_cluster < 1 or args.repeats < 1:
        p.error("--pairs-per-cluster and --repeats must be at least 1")
    threads = len(os.sched_getaffinity(0))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    default_cfg = ROOT / "configs" / "default.json"
    large = json.loads(default_cfg.read_text())
    large["data"]["pairs_per_cluster"] = args.pairs_per_cluster
    warm = json.loads(default_cfg.read_text())
    warm["train"]["epochs"] = 0
    with tempfile.TemporaryDirectory(prefix="eval_memory_") as tmp:
        work = Path(tmp)
        log = work / "cli.log"
        for name, cfg in (("large", large), ("warm", warm)):
            (work / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        run_cli(["gen-data", "--config", default_cfg, "--out", work / "data"],
                env, log)
        listing = run_cli(["gen-data", "--config", work / "large.json",
                           "--out", work / "large"], env, log)[2]
        n_test = next(int(line.split()[1]) for line in listing.splitlines()
                      if line.split()[:1] == ["test:"])
        run_cli(["train", "--config", work / "warm.json",
                 "--data", work / "data" / "dataset.mscd", "--out", work / "run",
                 "--threads", threads], env, log)
        ev = ["eval", "--data", work / "large" / "dataset.mscd",
              "--checkpoint", work / "run" / "net1_best.mscp",
              "--checkpoint", work / "run" / "net2_best.mscp",
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
        # the package sets one BLAS thread unless the variable is set
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "host": {"cpus": threads,
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": metadata.version("numpy")},
    }
    print(f"eval {n_test} x {n_test}, 2 checkpoints, {threads} threads: "
          f"median {doc['eval_median_s']:.3f} s, peak RSS "
          f"{min(peaks):.1f}-{max(peaks):.1f} MB over {args.repeats} runs")
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
