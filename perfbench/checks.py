"""Output checks that do not trust the program.

Each check returns a list of problems (empty when it passes).  Datasets
and checkpoints are read with the independent readers of reference.py;
recall is recomputed with the reference scorer; the training properties
are derived from the config and the dataset, never from a stored copy of
earlier output.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference

SCORE_TOLERANCE = 1e-12  # max |program - reference| per score cell
RSUM_TOLERANCE = 1e-9  # rsum is a float sum of six recalls


def split_sizes(total: int, data: dict) -> dict:
    """The documented split arithmetic: test and val from the total, then
    a meta split of about meta_fraction of the train split, at least 2."""
    n_test = int(round(data["test_fraction"] * total))
    n_val = int(round(data["val_fraction"] * total))
    rest = total - n_test - n_val
    f = data["meta_fraction"]
    n_meta = max(2, int(round(rest * f / (1.0 + f)))) if f > 0 else 2
    return {"train": rest - n_meta, "meta": n_meta, "val": n_val, "test": n_test}


def check_dataset(ds: dict, data: dict, ratio: float) -> list:
    problems = []
    total = data["n_clusters"] * data["pairs_per_cluster"]
    sizes = {name: len(ds[name]) for name in reference.SPLITS}
    if sizes != split_sizes(total, data) or ds["manifest"]["sizes"] != sizes:
        problems.append(f"split sizes {sizes} != {split_sizes(total, data)}")
    ids = np.concatenate([ds[n]["id"] for n in reference.SPLITS])
    if not np.array_equal(np.sort(ids), np.arange(total)):
        problems.append("record ids are not a permutation of 0..total-1")
    cluster = np.asarray(ds["manifest"]["cluster_by_id"])
    train = ds["train"]
    dirty = train["clean"] == 0
    want = math.floor(ratio * len(train))  # documented: floor(ratio * n_train)
    if int(dirty.sum()) != want:
        problems.append(f"{int(dirty.sum())} corrupted train pairs, expected {want}")
    if np.any((train["partner"] != train["id"]) != dirty):
        problems.append("clean flags disagree with the original partners")
    own, source = cluster[train["id"][dirty]], cluster[train["partner"][dirty]]
    if np.any(own == source):
        problems.append(f"{int(np.sum(own == source))} corrupted texts from "
                        "their own cluster")
    # the text itself must sit nearest the partner cluster's clean texts
    clean = np.concatenate([ds[n][ds[n]["clean"] == 1] for n in reference.SPLITS])
    k = data["n_clusters"]
    means = np.stack([clean["text"][cluster[clean["id"]] == c].mean(axis=0)
                      for c in range(k)])
    nearest = np.argmin(((train["text"][dirty][:, None, :] - means) ** 2).sum(-1), 1)
    if np.any(nearest != source):
        problems.append(f"{int(np.sum(nearest != source))} corrupted texts do not "
                        "lie in their partner's cluster")
    for name in ("meta", "val", "test"):
        split = ds[name]
        if np.any(split["clean"] != 1) or np.any(split["partner"] != split["id"]):
            problems.append(f"{name} split is not clean")
    return problems


def read_tsv(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def read_kv(path) -> dict:
    return dict(line.split("\t") for line in
                Path(path).read_text(encoding="utf-8").splitlines() if line)


def _num(cell):
    return None if cell == "-" else float(cell)


def check_metrics(rows: list, train: dict) -> list:
    """One row per epoch, finite losses, the learning-rate schedule."""
    problems = []
    warmup, epochs = train["warmup_epochs"], train["epochs"]
    if [int(r["epoch"]) for r in rows] != list(range(warmup + epochs)):
        problems.append(f"metrics.tsv has {len(rows)} rows, "
                        f"expected epochs 0..{warmup + epochs - 1}")
    decay_at, factor = train["lr_decay_epoch"], train["lr_decay_factor"]
    for r in rows:
        e = int(r["epoch"])
        if r["phase"] != ("warmup" if e < warmup else "main"):
            problems.append(f"epoch {e}: phase {r['phase']}")
        scale = factor if e >= decay_at else 1.0
        for col in ("lr_main", "lr_meta"):
            base = train[col]
            if _num(r[col]) != base * scale:
                problems.append(f"epoch {e}: {col} {r[col]} != {base * scale!r}")
        losses = ["net1_train_loss", "net2_train_loss"]
        if train["mode"] == "mscn":
            losses += ["net1_meta_loss", "net2_meta_loss"]
        for col in losses:
            v = _num(r[col])
            if v is None or not math.isfinite(v):
                problems.append(f"epoch {e}: {col} is {r[col]}")
    return problems


def optimizer_steps(rows: list, n_train: int, train: dict) -> dict:
    """Optimizer steps by kind ("warmup", "bilevel", "baseline"), derived
    from the pool each net trained on: the full train split in warmup and
    baseline epochs, otherwise the set the *other* net admitted (or the
    full split when that set is smaller than one batch)."""
    bs, mode = train["batch_size"], train["mode"]
    steps = {"warmup": 0, "bilevel": 0, "baseline": 0}
    for r in rows:
        for other in ("net2_purified", "net1_purified"):
            pool = n_train
            if r["phase"] == "main" and mode == "mscn" and r[other] != "-":
                admitted = int(r[other])
                pool = admitted if admitted >= bs else n_train
            kind = ("baseline" if mode != "mscn" else
                    "warmup" if r["phase"] == "warmup" else "bilevel")
            steps[kind] += pool // bs
    return steps


def check_report(path, expected: dict) -> list:
    """A report.tsv / test_report.tsv against reference recall."""
    got = read_kv(path)
    problems = [f"{path.name}: {k} {got.get(k)} != {v!r}"
                for k, v in expected.items()
                if k != "rsum" and (k not in got or float(got[k]) != v)]
    if abs(float(got["rsum"]) - expected["rsum"]) > RSUM_TOLERANCE:
        problems.append(f"{path.name}: rsum {got['rsum']} != {expected['rsum']!r}")
    return problems


def check_best_epoch(rows: list, val_recall: dict) -> list:
    """The best checkpoints score, on the validation split, exactly the
    row of the first maximum of val_rsum."""
    rsums = [float(r["val_rsum"]) for r in rows]
    best = rows[int(np.argmax(rsums))]
    return [f"best checkpoints: val {k} {v!r} != row epoch {best['epoch']} "
            f"{best['val_' + k]}" for k, v in val_recall.items()
            if k != "rsum" and float(best["val_" + k]) != v]


def check_scores(program: np.ndarray, ref: np.ndarray, what: str) -> list:
    err = float(np.max(np.abs(program - ref)))
    return [] if err <= SCORE_TOLERANCE else [
        f"{what}: scores differ from the reference by {err:.3g}"]


def check_traced_train(rows: list, trace_calls: dict, records: dict,
                       clean: np.ndarray, train: dict) -> list:
    """Properties that need the traced train run."""
    problems = []
    steps = optimizer_steps(rows, clean.size, train)
    for kind, n in steps.items():
        calls = trace_calls.get(f"meta_loop.{kind}_step", 0)
        if calls != n:
            problems.append(f"{kind}_step called {calls} times, pools give {n}")
    n_clean = int(clean.sum())
    for epoch, net, admitted in records.get("fit_purifier", []):
        row = rows[epoch]
        tp = int(clean[admitted].sum())
        want = {f"net{net + 1}_purified": len(admitted),
                f"net{net + 1}_purity_precision": tp / max(len(admitted), 1),
                f"net{net + 1}_purity_recall": tp / max(n_clean, 1)}
        for col, v in want.items():
            if float(row[col]) != v:
                problems.append(f"epoch {epoch}: {col} {row[col]} != {v!r}")
    rsums = [float(r["val_rsum"]) for r in rows]
    improvements = sum(1 for i, v in enumerate(rsums) if v > max(rsums[:i], default=-1))
    saves = records.get("save_checkpoint", []).count("net1_best.mscp")
    if saves != improvements:
        problems.append(f"net1_best saved {saves} times, val_rsum rose {improvements}")
    return problems
