"""The sha256 of every output file that "byte-identical" refers to.

Usage, from the root of a checkout:

    python3 benchmarks/output_hashes.py [--config configs/default.json]
        [--out BENCH_output_hashes.json] [--against FILE]

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
--out.  With --against FILE (an earlier --out) it lists the files whose
hash differs and exits 1 if any do.  Every step is a `python -m mscn.cli`
child of this process, which imports neither numpy nor mscn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILES = ("metrics.tsv", "net1_best.mscp", "net2_best.mscp",
             "net1_final.mscp", "net2_final.mscp", "test_report.tsv")


def run_cli(args, env) -> None:
    """Run `mscn <args>`; raises RuntimeError with its output if it fails."""
    proc = subprocess.run([sys.executable, "-m", "mscn.cli", *map(str, args)],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"mscn {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stdout}")


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

        def train(run, cfg, data, *extra) -> None:
            run_cli(["train", "--config", cfg, "--data", data,
                     "--out", work / run, "--threads", 1, *extra], env)
            for name in RUN_FILES:
                hashes[f"{run}/{name}"] = sha256(work / run / name)

        def gen_data(run, cfg) -> Path:
            run_cli(["gen-data", "--config", cfg, "--out", work / run], env)
            data = work / run / "dataset.mscd"
            hashes[f"{run}/dataset.mscd"] = sha256(data)
            return data

        data = gen_data("default", config)
        train("default", config, data)
        small = config_with("baseline-4k", "data", "pairs_per_cluster", 400)
        train("baseline-4k", small, gen_data("baseline-4k", small),
              "--mode", "fixed_margin_baseline")
        large = config_with("eval-large", "data", "pairs_per_cluster", 2000)
        warm = config_with("warmup", "train", "epochs", 0)
        train("warmup", warm, data)
        run_cli(["eval", "--data", gen_data("eval-large", large),
                 "--checkpoint", work / "warmup" / "net1_best.mscp",
                 "--checkpoint", work / "warmup" / "net2_best.mscp",
                 "--split", "test", "--threads", 1,
                 "--out", work / "eval-large"], env)
        hashes["eval-large/report.tsv"] = sha256(work / "eval-large" / "report.tsv")
    return hashes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default=str(ROOT / "configs" / "default.json"))
    p.add_argument("--out", default="BENCH_output_hashes.json")
    p.add_argument("--against", help="an earlier --out to compare with")
    args = p.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    hashes = output_hashes(Path(args.config), env)
    doc = {"config": Path(args.config).name, "sha256": hashes}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, digest in hashes.items():
        print(f"{digest[:8]}  {name}")
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
