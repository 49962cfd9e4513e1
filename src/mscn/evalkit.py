"""Retrieval evaluation: averaged score blocks and recall@K.

Both scorers embed images and texts once per model, then score the
(n_img, n_txt) matrix block by block; they differ only in the block's
shape and the function that scores it.  The mscn scorer scores fixed
tiles of at most TILE images x TILE texts, the training batch's block,
through `model.block_feature` and `model.block_scores`, the plain-numpy
scorer that picks the training negatives, with every cell the bits of
`model.all_pairs_scores`.  Those score a tile in chunks of whole rows,
at most `model.BLOCK_CELLS` cells for blocks up to 256 wide, so whatever
the split size the largest array a tile builds is its (TILE * TILE,
d_sim) feature, 1 MiB at d_sim=32, and no chunk's intermediate exceeds
512 KiB at d_emb=64.  The cosine scorer scales each side's rows to unit
norm once per model (`model.cosine_side`) and scores fixed CHUNK_ROWS-row
strips that span all texts as one product of those rows
(`model.cosine_strip`), with the bits of `model.block_cosine`.  The worker
count (at most `threads`, or the CPUs this process may run on) only
decides how many forked worker processes score blocks at once, never how
the matrix is partitioned, so outputs are bitwise invariant to it.  A
split too small to give every worker MIN_BLOCKS_PER_WORKER blocks is
scored in the calling process.

`score_matrix` writes the blocks its workers return into the matrix.
`evaluate` builds none and moves no block between processes: a first
pass scores the blocks that hold a true pair for their true scores, and
a second the rest for the candidates that rank ahead of each row's and
column's true one.  A held block that holds the true pairs of all its
rows and columns (a diagonal tile of a 1:1 split) counts in the first
pass; any other (a cosine strip) is scored again in the second.

Ranking is deterministic: a candidate ranks ahead of the true one if its
score is strictly higher, or equal with a lower index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import model
from .datagen import Split

TILE = 64
CHUNK_ROWS = 32
# a pool starts only from this many blocks per worker: on 2 vCPUs two forked
# workers cost `mscn eval` 0.04-0.06 s on 4 tiles or 13 strips, and saved
# 24-26% on 169 tiles and 39-44% on 1024 (benchmarks/eval_memory.py, README)
MIN_BLOCKS_PER_WORKER = 8


def worker_count(threads=None) -> int:
    """`threads` if given, else the number of CPUs this process may run on:
    the most workers an evaluation may use (see `_block_map`)."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"worker count must be positive, got {threads}")
        return int(threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_scorer(models, images, texts, scorer: str):
    """Embed both sides once per model (for the cosine scorer, as unit
    rows) and tile the (n_img, n_txt) matrix.

    Returns the blocks, (rows, cols) slice pairs in row-major order; a
    function block_of(i, j) giving the index of the block that holds cell
    (i, j) (it takes arrays too); and a function scoring one block
    averaged over `models` -> (scores, count of degenerate cells)."""
    if not models:
        raise ValueError("need at least one model")
    if scorer not in ("mscn", "cosine"):
        raise ValueError(f"unknown scorer: {scorer!r}")
    embedded = [(model.embed_image(images, main), model.embed_text(texts, main))
                for main, _ in models]
    ni, nt = len(images), len(texts)

    if scorer == "mscn":
        height, width = TILE, TILE
        sides = [(u.data, v.data) for u, v in embedded]

        def score(side, rows, cols, main, meta):
            u, v = side
            return model.block_scores(
                model.block_feature(u[rows], v[cols], main.sim_w), meta)
    else:
        # splitting the columns of a cosine block would change gemm bits
        height, width = CHUNK_ROWS, max(nt, 1)
        sides = [(*model.cosine_side(u), *model.cosine_side(v))
                 for u, v in embedded]

        def score(side, rows, cols, main, meta):
            u, bad_u, v, bad_v = side
            return model.cosine_strip(u[rows], bad_u[rows], v[cols], bad_v[cols])

    col_starts = range(0, nt, width)
    blocks = [(slice(r, r + height), slice(c, c + width))
              for r in range(0, ni, height) for c in col_starts]

    def block_of(i, j):
        return i // height * len(col_starts) + j // width

    def averaged(block) -> tuple[np.ndarray, int]:
        rows, cols = block
        acc = None
        bad = 0
        for (main, meta), side in zip(models, sides):
            scores, n_bad = score(side, rows, cols, main, meta)
            bad += n_bad
            acc = scores if acc is None else acc + scores
        return acc / len(models), bad

    return blocks, block_of, averaged


def _block_map(threads, n_blocks: int):
    """A `map` over at most `worker_count(threads)` workers, and no more than
    give each MIN_BLOCKS_PER_WORKER of the `n_blocks` blocks: `map` itself
    below two, else one that forks a pool per call, whose workers inherit
    the function (only items and results are pickled), and closes it."""
    workers = min(worker_count(threads), n_blocks // MIN_BLOCKS_PER_WORKER)
    if workers < 2:
        return map
    import multiprocessing

    def pooled(fn, items) -> list:
        with multiprocessing.get_context("fork").Pool(
                workers, _take, (fn,)) as pool:
            return pool.map(_run, items)
    return pooled


_work = None   # in a pool worker, the function its calls run


def _take(fn) -> None:   # the pool's initializer
    global _work
    _work = fn


def _run(item):
    return _work(item)


def score_matrix(models, images, texts, scorer: str = "mscn",
                 threads=None) -> tuple[np.ndarray, int]:
    """(n_img, n_txt) score matrix averaged over the given network pairs.

    models: list of (MainNetParams, MetaNetParams) tuples; the meta slot
    is ignored by the cosine scorer.  Returns the matrix and the number of
    degenerate cells, which have no similarity direction: the model's
    block scorers score them 0.5 (mscn) or 0 (cosine), where training
    refuses them (`model.refuse_degenerate`)."""
    blocks, _, score = _block_scorer(models, images, texts, scorer)
    out = np.empty((len(images), len(texts)), dtype=np.float64)
    n_bad = 0
    for block, (scores, bad) in zip(
            blocks, _block_map(threads, len(blocks))(score, blocks)):
        out[block] = scores
        n_bad += bad
    return out, n_bad


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
    _check_no_nan(np.count_nonzero(np.isnan(s)))
    return 1 + _ahead(s, s[np.arange(nq), t], t, 0)


def _check_no_nan(n_nan: int) -> None:
    if n_nan:
        raise ValueError(f"ranks: {n_nan} NaN score(s) cannot be ranked")


def _check_cutoff(k: int, n_candidates: int) -> None:
    if not 1 <= k <= n_candidates:
        raise ValueError(f"recall_at_k: k={k} outside [1, {n_candidates}]")


def _ahead(scores: np.ndarray, true_scores: np.ndarray, truth: np.ndarray,
           first: int) -> np.ndarray:
    """Per row of a block, the candidates that rank ahead of the row's true
    one: a strictly higher score, or an equal one at a lower index.  The
    block's columns are candidates first, first + 1, ..."""
    t = true_scores[:, None]
    ahead = np.count_nonzero(scores > t, axis=1)
    tied = scores == t
    if tied.any():
        lower = np.arange(first, first + scores.shape[1]) < truth[:, None]
        ahead += np.count_nonzero(tied & lower, axis=1)
    return ahead


def _recall(rank: np.ndarray, k: int, n_candidates: int) -> float:
    _check_cutoff(k, n_candidates)
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
    """Recall@K in both directions with scores averaged over `models`.

    The ranks equal those of `ranks` on `score_matrix`'s output, but no
    (n_img, n_txt) matrix is built; see the module docstring."""
    ks = tuple(int(k) for k in ks)
    i2t_truth, t2i_truth = _truth_maps(split)
    n = len(split)
    if n == 0:
        raise ValueError("ranks: no queries")
    for k in ks:
        _check_cutoff(k, n)
    blocks, block_of, score = _block_scorer(models, split.images, split.texts,
                                            scorer)
    truth_block = block_of(np.arange(n), i2t_truth)
    true_score = np.empty(n, dtype=np.float64)
    text_true_score = None   # every text's, once the first pass is done

    def count(b):
        """Block b's true scores, and its counts once every true score they
        need is known: a square block holding its rows' true pairs holds
        its columns' (the maps are inverse), so it knows its own."""
        rows, cols = blocks[b]
        scores, bad = score(blocks[b])
        q = np.flatnonzero(truth_block == b)
        true = scores[q - rows.start, i2t_truth[q] - cols.start]
        if len(q) == len(scores) == scores.shape[1]:
            row_true, col_true = true, true[t2i_truth[cols] - rows.start]
        elif text_true_score is None:
            return true, None
        else:
            row_true, col_true = true_score[rows], text_true_score[cols]
        return true, (_ahead(scores, row_true, i2t_truth[rows], cols.start),
                      _ahead(scores.T, col_true, t2i_truth[cols], rows.start),
                      np.count_nonzero(np.isnan(scores)), bad)

    each = _block_map(threads, len(blocks))
    # np.unique imports numpy.ma in numpy 2.4: about 1.3 MB and 10 ms
    held = sorted(set(truth_block.tolist()))
    first = dict(zip(held, each(count, held)))
    for b, (block_true, _) in first.items():
        true_score[truth_block == b] = block_true
    counts = {b: c for b, (_, c) in first.items() if c}
    text_true_score = true_score[t2i_truth]
    rest = [b for b in range(len(blocks)) if b not in counts]
    counts.update((b, c) for b, (_, c) in zip(rest, each(count, rest)))

    i2t_ahead = np.zeros(n, dtype=np.int64)
    t2i_ahead = np.zeros(n, dtype=np.int64)
    n_nan = n_bad = 0
    for b, (rows_ahead, cols_ahead, nan, bad) in counts.items():
        rows, cols = blocks[b]
        i2t_ahead[rows] += rows_ahead
        t2i_ahead[cols] += cols_ahead
        n_nan += nan
        n_bad += bad
    _check_no_nan(n_nan)
    i2t = {k: _recall(1 + i2t_ahead, k, n) for k in ks}
    t2i = {k: _recall(1 + t2i_ahead, k, n) for k in ks}
    rsum = float(sum(i2t.values()) + sum(t2i.values()))
    return RecallReport(ks=ks, image_to_text=i2t, text_to_image=t2i, rsum=rsum,
                        n_images=n, n_texts=n, degenerate_pairs=n_bad,
                        scorer=scorer)
