"""The sha256 of every output file that "byte-identical" refers to.

Usage, from the root of a checkout:

    python3 benchmarks/output_hashes.py [--config configs/default.json]
        [--out FILE] [--against FILE]

Runs, in a temporary directory and on one thread each, the three runs of
the perfbench workloads built from --config:

- default: `gen-data` and `train` of the config itself;
- baseline-4k: the config at 400 pairs per cluster, trained with
  `--mode fixed_margin_baseline`;
- eval-large: a warmup-only `train` (epochs 0) on the default data, then
  `eval` of both its best checkpoints on the test split of the config at
  2000 pairs per cluster.

It writes the sha256 of each run's dataset, `metrics.tsv`, four
checkpoints and `test_report.tsv`, and of eval-large's `report.tsv`, to
--out, if given.  With --against FILE (an earlier --out) it lists the
files whose hash differs and exits 1 if any do; without --out it writes
nothing, so the file it compares with keeps its bytes.  Every step is a
`python -m mscn.cli` child of this process, which imports neither numpy
nor mscn, so the child's `ru_maxrss` (read through `os.wait4`) is the
command's own peak RSS, not this process's.  Each step prints that peak on stdout, then the
hashes of what it wrote; the peaks are neither written to --out nor
compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILES = ("metrics.tsv", "net1_best.mscp", "net2_best.mscp",
             "net1_final.mscp", "net2_final.mscp", "test_report.tsv")


def run_cli(args, env, log=None,
            entry=("-m", "mscn.cli")) -> tuple[float, float, str]:
    """Run `mscn <args>` with its output in `log` (a temporary file if
    None); its wall seconds, peak RSS in MB and output.  Raises
    RuntimeError with the output if it fails.  `entry` is how python
    starts the command."""
    with (open(log, "w+", encoding="utf-8") if log else
          tempfile.TemporaryFile("w+", encoding="utf-8")) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *entry, *map(str, args)],
                                env=env, stdout=out, stderr=subprocess.STDOUT)
        # wait4, unlike Popen.wait, also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        out.seek(0)
        text = out.read()
    if proc.returncode != 0:
        raise RuntimeError(f"mscn {args[0]} exited {proc.returncode}:\n{text}")
    return wall, usage.ru_maxrss / 1024.0, text


def cli_env() -> dict:
    """This process's environment with the checkout's `src` first on
    PYTHONPATH, so `python -m mscn.cli` runs the code under test."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(config: Path, env) -> dict:
    """{"<run>/<file>": sha256} of the three runs built from `config`."""
    base = json.loads(config.read_text(encoding="utf-8"))
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="output_hashes_") as tmp:
        work = Path(tmp)

        def config_with(name, section, key, value) -> Path:
            cfg = json.loads(json.dumps(base))
            cfg[section][key] = value
            path = work / f"{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            return path

        def step(run, args, outputs) -> None:
            """Run `mscn <args>`; print its peak RSS, then hash and print
            each of `run`'s `outputs`."""
            print(f"{run_cli(args, env)[1]:.2f} MB  peak RSS of {run}: "
                  f"mscn {args[0]}", flush=True)
            for name in outputs:
                key = f"{run}/{name}"
                hashes[key] = sha256(work / key)
                print(f"{hashes[key][:8]}  {key}", flush=True)

        def train(run, cfg, data, *extra) -> None:
            step(run, ["train", "--config", cfg, "--data", data,
                       "--out", work / run, "--threads", 1, *extra], RUN_FILES)

        def gen_data(run, cfg) -> Path:
            step(run, ["gen-data", "--config", cfg, "--out", work / run],
                 ["dataset.mscd"])
            return work / run / "dataset.mscd"

        data = gen_data("default", config)
        train("default", config, data)
        small = config_with("baseline-4k", "data", "pairs_per_cluster", 400)
        train("baseline-4k", small, gen_data("baseline-4k", small),
              "--mode", "fixed_margin_baseline")
        large = config_with("eval-large", "data", "pairs_per_cluster", 2000)
        warm = config_with("warmup", "train", "epochs", 0)
        train("warmup", warm, data)
        step("eval-large", ["eval", "--data", gen_data("eval-large", large),
                            "--checkpoint", work / "warmup" / "net1_best.mscp",
                            "--checkpoint", work / "warmup" / "net2_best.mscp",
                            "--split", "test", "--threads", 1,
                            "--out", work / "eval-large"], ["report.tsv"])
    return hashes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default=str(ROOT / "configs" / "default.json"))
    p.add_argument("--out", help="where to write the hashes as JSON")
    p.add_argument("--against", help="an earlier --out to compare with")
    args = p.parse_args(argv)
    hashes = output_hashes(Path(args.config), cli_env())
    if args.out:
        doc = {"config": Path(args.config).name, "sha256": hashes}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                  encoding="utf-8")
    if args.against is None:
        return 0
    want = json.loads(Path(args.against).read_text(encoding="utf-8"))["sha256"]
    differ = sorted(n for n in want.keys() | hashes.keys()
                    if want.get(n) != hashes.get(n))
    for name in differ:
        print(f"differs: {name} {want.get(name, '-')[:8]} -> "
              f"{hashes.get(name, '-')[:8]}")
    print(f"{len(differ)} of {len(want.keys() | hashes.keys())} files differ "
          f"from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
