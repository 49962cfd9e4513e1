"""End-to-end benchmark of the mscn CLI (gen-data, train, eval).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run sets up the workload's inputs (several times, timing each), then
runs whole rounds of the workload's CLI commands until S seconds have
passed (at least one round), checks every output against the independent
reference in reference.py and the properties in checks.py, and prints the
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run adds a traced round and
reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import selfcheck  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
WORKLOADS = ("train-mscn-default", "train-baseline-4k", "eval-large")
END_TO_END = [  # name, unit
    ("setup_s", "s"), ("train_s", "s"), ("train_pairs_per_s", "pairs/s"),
    ("eval_s", "s"), ("eval_pairs_per_s", "pairs/s"), ("peak_rss_mb", "MB"),
    ("test_rsum", "points"),
]
SETUP_REPS = 5  # setup_s is the median of this many set-ups
SHORT_REPS = 5  # runs per round of a workload's short command (see round_commands)
RUN_LIMIT_S = 170  # every command is killed once the run has lasted this long
# the program's scores are compared cell by cell with the reference on every
# row of a test split up to SAMPLED_ALL rows, else on SAMPLED_ROWS seeded rows
SAMPLED_ALL, SAMPLED_ROWS = 500, 20


class Runner:
    """Runs CLI commands one at a time and keeps their timings."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] +
            ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def cli(self, args, trace=None) -> dict:
        """Run `mscn <args>` (traced into `trace` if given); wall seconds,
        peak RSS in MB and success."""
        argv = [sys.executable]
        argv += [str(HERE / "traced_cli.py"), str(trace)] if trace else ["-m", "mscn.cli"]
        argv += [str(a) for a in args]
        self.attempted += 1
        with open(self.work / "cli.log", "a", encoding="utf-8") as log:
            log.write(f"$ {' '.join(argv)}\n")
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0), proc.kill)
            timer.start()
            try:
                # wait4, unlike Popen.wait, also returns the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        ok = proc.returncode == 0
        self.failed += not ok
        return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "ok": ok}


class Workload:
    """Inputs, commands and checks of one workload, for one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.work = name, work
        self.seed = seed  # picks the rows of the score check, not the inputs
        default = json.loads((ROOT / "configs" / "default.json").read_text())
        self.config = default
        self.data_cfg = ROOT / "configs" / "default.json"
        self.train_cfg = self.data_cfg
        self.scorer = "mscn"
        self.datasets = {"data": default}
        if name == "train-baseline-4k":
            default["data"]["pairs_per_cluster"] = 400
            self.data_cfg = self.train_cfg = self._write("config.json", default)
            default["train"]["mode"] = "fixed_margin_baseline"  # given by --mode
            self.scorer = "cosine"
        elif name == "eval-large":
            large = json.loads(json.dumps(default))
            large["data"]["pairs_per_cluster"] = 2000
            self.datasets["large"] = large
            self.large_cfg = self._write("large.json", large)
            warm = json.loads(json.dumps(default))
            warm["train"]["epochs"] = 0
            self.config = warm
            self.train_cfg = self._write("warmup.json", warm)

    def _write(self, name, cfg) -> Path:
        path = self.work / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def setup_commands(self, out: Path) -> list:
        cmds = [["gen-data", "--config", self.data_cfg, "--out", out / "data"]]
        if "large" in self.datasets:
            cmds.append(["gen-data", "--config", self.large_cfg, "--out", out / "large"])
        return cmds

    def eval_split(self, inputs: Path) -> Path:
        return inputs / ("large" if "large" in self.datasets else "data") / "dataset.mscd"

    def round_commands(self, inputs: Path, out: Path, threads: str) -> list:
        """(role, args) of one round: a train, then the evals of its best
        checkpoints."""
        train = ["train", "--config", self.train_cfg, "--data",
                 inputs / "data" / "dataset.mscd", "--out", out / "run",
                 "--threads", threads]
        if self.scorer == "cosine":
            train += ["--mode", "fixed_margin_baseline"]
        ev = ["eval", "--data", self.eval_split(inputs),
              "--checkpoint", out / "run" / "net1_best.mscp",
              "--checkpoint", out / "run" / "net2_best.mscp",
              "--split", "test", "--scorer", self.scorer,
              "--threads", threads, "--out", out / "eval"]
        # the short command runs SHORT_REPS times and its median is reported
        if "large" in self.datasets:
            return [("train", train)] * SHORT_REPS + [("eval", ev)]
        return [("train", train)] + [("eval", ev)] * SHORT_REPS

    # -- checks ---------------------------------------------------------

    def check_inputs(self, inputs: Path) -> list:
        problems = []
        ratio = self.config["noise"]["ratio"]
        for key, cfg in self.datasets.items():
            ds = reference.read_dataset(inputs / key / "dataset.mscd")
            problems += [f"{key} dataset: {p}" for p in
                         checks.check_dataset(ds, cfg["data"], ratio)]
        return problems

    def check_round(self, inputs: Path, out: Path) -> tuple[list, float]:
        """Problems with one round's outputs, and its test rsum."""
        train_cfg = self.config["train"]
        rows = checks.read_tsv(out / "run" / "metrics.tsv")
        problems = checks.check_metrics(rows, train_cfg)
        ckpts = [reference.read_checkpoint(out / "run" / f"net{k}_best.mscp")
                 for k in (1, 2)]
        data = reference.read_dataset(inputs / "data" / "dataset.mscd")
        val = data["val"]
        problems += checks.check_best_epoch(rows, reference.recall_report(
            reference.averaged_scores(ckpts, val["image"], val["text"], self.scorer),
            val, train_cfg["eval_ks"]))

        test = reference.read_dataset(self.eval_split(inputs))["test"]
        ref_scores = reference.averaged_scores(ckpts, test["image"], test["text"],
                                               self.scorer)
        expected = reference.recall_report(ref_scores, test)
        problems += checks.check_report(out / "eval" / "report.tsv", expected)
        if "large" not in self.datasets:
            problems += checks.check_report(out / "run" / "test_report.tsv", expected)
        rows_checked = _sample_rows(len(test), self.seed)
        program = _program_scores(out / "run", test, rows_checked, self.scorer)
        problems += checks.check_scores(program, ref_scores[rows_checked],
                                        f"{self.name} test scores")
        return problems, expected["rsum"]


def _sample_rows(n: int, seed: int):
    if n <= SAMPLED_ALL:
        return np.arange(n)
    rng = np.random.default_rng(seed % 2**32)
    return np.sort(rng.choice(n, SAMPLED_ROWS, replace=False))


def _program_scores(run_dir: Path, split, rows, scorer: str):
    """The program's own averaged scores of the given image rows."""
    sys.path.insert(0, str(ROOT / "src"))
    from mscn import evalkit, model
    models = [model.load_checkpoint(run_dir / f"net{k}_best.mscp") for k in (1, 2)]
    scores, _ = evalkit.score_matrix(models, split["image"][rows], split["text"],
                                     scorer=scorer, threads=1)
    return scores


def _differing_files(a: Path, b: Path) -> list:
    """Files under `a` whose bytes differ from (or are missing in) `b`."""
    problems = []
    for path in sorted(a.rglob("*")):
        twin = b / path.relative_to(a)
        if path.is_file() and not (twin.is_file()
                                   and twin.read_bytes() == path.read_bytes()):
            problems.append(f"{path.relative_to(a)} differs between traced and "
                            "untraced runs")
    return problems


def _round_metrics(wl: Workload, inputs: Path, out: Path, results) -> tuple:
    """(problems, end-to-end metrics) of one completed round."""
    problems, rsum = wl.check_round(inputs, out)
    data = reference.read_dataset(inputs / "data" / "dataset.mscd")
    n_test = len(reference.read_dataset(wl.eval_split(inputs))["test"])
    rows = checks.read_tsv(out / "run" / "metrics.tsv")
    steps = sum(checks.optimizer_steps(rows, len(data["train"]),
                                       wl.config["train"]).values())
    train_s = statistics.median(r["wall"] for role, r in results if role == "train")
    eval_s = statistics.median(r["wall"] for role, r in results if role == "eval")
    return problems, {
        "train_s": train_s,
        "train_pairs_per_s": steps * wl.config["train"]["batch_size"] / train_s,
        "eval_s": eval_s,
        "eval_pairs_per_s": n_test * n_test * 2 / eval_s,
        "peak_rss_mb": max(r["rss_mb"] for _, r in results),
        "test_rsum": rsum,
    }


def _traced_round(wl: Workload, runner: Runner, inputs: Path,
                  untraced: Path, untraced_s: float) -> tuple:
    """Set up and run each distinct command of a round once more, traced.
    Returns (problems, per-layer metrics)."""
    work = runner.work
    traced_inputs = work / "traced_inputs"
    traces = []
    for i, cmd in enumerate(wl.setup_commands(traced_inputs)):
        runner.cli(cmd, trace=work / f"setup{i}.npz")
        traces.append(tracer.load(work / f"setup{i}.npz"))
    problems = _differing_files(traced_inputs, inputs)
    out = work / "traced"
    commands = []
    for cmd in wl.round_commands(inputs, out, runner.threads):
        if cmd not in commands:
            commands.append(cmd)
    traced_s = sum(runner.cli(args, trace=work / f"{role}.npz")["wall"]
                   for role, args in commands)
    by_role = {role: tracer.load(work / f"{role}.npz") for role, _ in commands}
    traces += by_role.values()
    problems += _differing_files(out, untraced)
    train_trace = by_role["train"]
    calls = {n: int((train_trace["name"] == i).sum())
             for i, n in enumerate(train_trace["names"])}
    clean = reference.read_dataset(inputs / "data" / "dataset.mscd")["train"]["clean"]
    problems += checks.check_traced_train(
        checks.read_tsv(out / "run" / "metrics.tsv"), calls,
        train_trace["records"], clean == 1, wl.config["train"])
    return problems, layers.layer_metrics(traces, traced_s - untraced_s)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, started + RUN_LIMIT_S)
    wl = Workload(workload, seed, work)

    inputs = work / "inputs"
    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        results = [runner.cli(c) for c in wl.setup_commands(inputs)]
        setup_times.append(sum(r["wall"] for r in results))
    problems = wl.check_inputs(inputs)

    rounds = []
    measure_from = time.monotonic()
    while not rounds or (time.monotonic() - measure_from < seconds and not trace):
        out = work / f"round{len(rounds)}"
        results = [(role, runner.cli(args))
                   for role, args in wl.round_commands(inputs, out, runner.threads)]
        rounds.append((out, results))

    by_round = []
    for out, results in rounds:
        if all(r["ok"] for _, r in results):
            found, values = _round_metrics(wl, inputs, out, results)
            problems += found
            by_round.append(values)
    if not by_round:
        problems.append("no round completed")
    metrics = {"setup_s": statistics.median(setup_times)}
    for name, _ in END_TO_END[1:]:  # all but setup_s
        metrics[name] = (statistics.median(m[name] for m in by_round)
                         if by_round else 0.0)

    if trace:
        found, metrics = _traced_round(wl, runner, inputs, rounds[0][0],
                                       metrics["train_s"] + metrics["eval_s"])
        problems += found

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not problems and runner.failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(END_TO_END) if not trace else {n: u for n, u, _ in layers.PER_LAYER}
    return {"correct": not problems, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/mscn/cli.py", "configs/default.json"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from the root "
                  "of a checkout", file=sys.stderr)
            return 2
    problems = selfcheck.run(ROOT, END_TO_END)
    if problems:
        for p in problems:
            print(f"self-check failed: {p}", file=sys.stderr)
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
