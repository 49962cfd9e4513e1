"""Retrieval evaluation: averaged score matrices and recall@K.

Both scorers embed images and texts once per model, then run one block
loop; they differ only in the block's shape and the function that scores
it.  The mscn scorer scores fixed tiles of at most TILE images x TILE
texts, the training batch's block, through `model.block_feature` and
`model.block_scores`, the plain-numpy scorer that picks the training
negatives, with every cell the bits of `model.all_pairs_scores`.  A
tile's (TILE * TILE, d_emb) intermediate is 2 MiB at d_emb=64 whatever
the split size, so peak memory follows the tile, not the number of texts.
The cosine scorer scores fixed CHUNK_ROWS-row chunks that span all texts
through `model.block_cosine`.  The worker count (`threads`, or the CPUs
this process may run on) only decides how many blocks run concurrently,
never how the matrix is partitioned, so outputs are bitwise invariant to
it.

Ranking is deterministic: a candidate ranks ahead of the true one if its
score is strictly higher, or equal with a lower index.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import model
from .datagen import Split

TILE = 64
CHUNK_ROWS = 32


def worker_count(threads=None) -> int:
    """`threads` if given, else the number of CPUs this process may run on."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"worker count must be positive, got {threads}")
        return int(threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def score_matrix(models, images, texts, scorer: str = "mscn",
                 threads=None) -> tuple[np.ndarray, int]:
    """(n_img, n_txt) score matrix averaged over the given network pairs.

    models: list of (MainNetParams, MetaNetParams) tuples; the meta slot
    is ignored by the cosine scorer.  Degenerate cells score 0.5 (mscn) or
    0 (cosine) and are counted, not fatal."""
    if not models:
        raise ValueError("score_matrix: need at least one model")
    if scorer not in ("mscn", "cosine"):
        raise ValueError(f"unknown scorer: {scorer!r}")
    sides = [(model.embed_image(images, main).data,
              model.embed_text(texts, main).data) for main, _ in models]
    ni, nt = len(images), len(texts)
    out = np.empty((ni, nt), dtype=np.float64)

    if scorer == "mscn":
        blocks = [(slice(r, r + TILE), slice(c, c + TILE))
                  for r in range(0, ni, TILE) for c in range(0, nt, TILE)]

        def score(u, v, main, meta):
            return model.block_scores(
                model.block_feature(u, v, main.sim_w, degenerate="half"), meta)
    else:
        # splitting the columns of a cosine block would change gemm bits
        blocks = [(slice(r, r + CHUNK_ROWS), slice(None))
                  for r in range(0, ni, CHUNK_ROWS)]

        def score(u, v, main, meta):
            scores, n_bad = model.block_cosine(u, v, degenerate="zero")
            return scores.data, n_bad

    def run_block(block) -> int:
        rows, cols = block
        acc = None
        bad = 0
        for (main, meta), (u, v) in zip(models, sides):
            scores, n_bad = score(u[rows], v[cols], main, meta)
            bad += n_bad
            acc = scores if acc is None else acc + scores
        out[rows, cols] = acc / len(models)
        return bad

    workers = worker_count(threads)
    if workers == 1 or len(blocks) <= 1:
        return out, sum(map(run_block, blocks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return out, sum(pool.map(run_block, blocks))


def ranks(scores: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """1-based rank of each query's true candidate (row q, column truth[q]).

    rank = 1 + #(strictly higher) + #(equal with a lower index).  A NaN
    score has no rank, so any NaN cell raises ValueError."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"ranks: score matrix must be 2D, got {s.shape}")
    nq, nc = s.shape
    t = np.asarray(truth, dtype=np.int64)
    if t.shape != (nq,) or (nq and (t.min() < 0 or t.max() >= nc)):
        raise ValueError("ranks: truth indices out of range")
    if nq == 0:
        raise ValueError("ranks: no queries")
    n_nan = np.count_nonzero(np.isnan(s))
    if n_nan:
        raise ValueError(f"ranks: {n_nan} NaN score(s) cannot be ranked")
    true_scores = s[np.arange(nq), t]
    higher = (s > true_scores[:, None]).sum(axis=1)
    cols = np.arange(nc)
    earlier_tie = ((s == true_scores[:, None]) & (cols[None, :] < t[:, None])).sum(axis=1)
    return 1 + higher + earlier_tie


def _recall(rank: np.ndarray, k: int, n_candidates: int) -> float:
    if not 1 <= k <= n_candidates:
        raise ValueError(f"recall_at_k: k={k} outside [1, {n_candidates}]")
    return 100.0 * int(np.count_nonzero(rank <= k)) / len(rank)


def recall_at_k(scores: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Percentage of queries whose true candidate ranks in the top k."""
    return _recall(ranks(scores, truth), k, np.shape(scores)[1])


@dataclass
class RecallReport:
    ks: tuple
    image_to_text: dict
    text_to_image: dict
    rsum: float
    n_images: int
    n_texts: int
    degenerate_pairs: int
    scorer: str

    def format_text(self) -> str:
        lines = [f"retrieval report ({self.scorer} scorer, "
                 f"{self.n_images} images x {self.n_texts} texts)"]
        for name, table in (("image-to-text", self.image_to_text),
                            ("text-to-image", self.text_to_image)):
            cells = "  ".join(f"R@{k}={table[k]:6.2f}" for k in self.ks)
            lines.append(f"  {name:13s} {cells}")
        lines.append(f"  rsum {self.rsum:.2f}")
        if self.degenerate_pairs:
            lines.append(f"  degenerate pairs scored neutrally: {self.degenerate_pairs}")
        return "\n".join(lines) + "\n"

    def format_kv(self) -> str:
        pairs = [("scorer", self.scorer),
                 ("n_images", str(self.n_images)),
                 ("n_texts", str(self.n_texts)),
                 ("degenerate_pairs", str(self.degenerate_pairs))]
        for k in self.ks:
            pairs.append((f"i2t_r{k}", f"{self.image_to_text[k]:.17g}"))
        for k in self.ks:
            pairs.append((f"t2i_r{k}", f"{self.text_to_image[k]:.17g}"))
        pairs.append(("rsum", f"{self.rsum:.17g}"))
        return "".join(f"{key}\t{val}\n" for key, val in pairs)


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if not line:
            continue
        key, val = line.split("\t")
        out[key] = val
    return out


def _truth_maps(split: Split) -> tuple[np.ndarray, np.ndarray]:
    """Column of each image's true text and row of each text's true image.

    Record j carries the text that originally belonged to record
    original_partner[j]; on clean splits both maps are the identity."""
    id_to_pos = {int(rid): i for i, rid in enumerate(split.ids)}
    partner_pos = np.array([id_to_pos.get(int(p), -1)
                            for p in split.original_partner], dtype=np.int64)
    if np.any(partner_pos < 0):
        raise ValueError("evaluate: a text's original image is not in the split")
    i2t = np.full(len(split), -1, dtype=np.int64)
    i2t[partner_pos] = np.arange(len(split))
    if np.any(i2t < 0):
        raise ValueError("evaluate: an image has no matching text in the split")
    t2i = partner_pos
    return i2t, t2i


def evaluate(models, split: Split, ks=(1, 5, 10), scorer: str = "mscn",
             threads=None) -> RecallReport:
    """Recall@K in both directions with scores averaged over `models`."""
    ks = tuple(int(k) for k in ks)
    scores, n_bad = score_matrix(models, split.images, split.texts,
                                 scorer=scorer, threads=threads)
    i2t_truth, t2i_truth = _truth_maps(split)
    i2t_rank = ranks(scores, i2t_truth)
    t2i_rank = ranks(scores.T, t2i_truth)
    i2t = {k: _recall(i2t_rank, k, scores.shape[1]) for k in ks}
    t2i = {k: _recall(t2i_rank, k, scores.shape[0]) for k in ks}
    rsum = float(sum(i2t.values()) + sum(t2i.values()))
    return RecallReport(ks=ks, image_to_text=i2t, text_to_image=t2i, rsum=rsum,
                        n_images=len(split), n_texts=len(split),
                        degenerate_pairs=n_bad, scorer=scorer)
