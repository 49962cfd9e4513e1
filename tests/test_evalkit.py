"""Evaluation checks: recall@K against a stable-sort oracle (with deliberate
score ties), deterministic tiled fan-out in the calling process and on a
pool of forked workers, and its memory bound, truth-map inversion,
block-wise ranking against ranks of the whole score matrix, and the
report round trip."""

from __future__ import annotations

import multiprocessing.pool
import os
import tracemalloc

import numpy as np
import pytest

from mscn import datagen as dg
from mscn import evalkit as ek
from mscn import model
from conftest import rng_for
from test_model import tiny_nets


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools built while the test runs."""
    built = []
    real = multiprocessing.pool.Pool

    class Counted(real):
        def __init__(self, processes=None, *args, **kwargs):
            built.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", Counted)
    return built


@pytest.fixture
def block_paths(monkeypatch, pools):
    """`for _ in block_paths():` runs a test body in the calling process, as
    these small splits are scored, and again on a pool: at one block per
    worker any split of two blocks or more fans out to at most `threads`
    workers."""
    def paths():
        yield "serial"
        assert pools == [], "the serial path built a pool"
        monkeypatch.setattr(ek, "MIN_BLOCKS_PER_WORKER", 1)
        yield "pooled"
    return paths


def recall_oracle(scores: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Rank by descending score with a stable sort, so equal scores keep
    ascending index order; completely independent of the library's
    counting formula."""
    hits = 0
    for q in range(scores.shape[0]):
        order = np.argsort(-scores[q], kind="stable")
        rank = int(np.flatnonzero(order == truth[q])[0]) + 1
        hits += rank <= k
    return 100.0 * hits / scores.shape[0]


class TestRecallAtK:
    def test_identity_matrix(self):
        s = np.eye(5)
        truth = np.arange(5)
        assert ek.recall_at_k(s, truth, 1) == 100.0

    def test_hand_ranks_with_ties(self):
        # query 0: true candidate 1 with score 0.7, candidate 0 ties -> rank 2
        s = np.array([[0.7, 0.7, 0.1],
                      [0.9, 0.2, 0.2]])
        truth = np.array([1, 2])
        assert ek.recall_at_k(s, truth, 1) == 0.0
        assert ek.recall_at_k(s, truth, 2) == 50.0  # q0 rank 2; q1 rank 3
        assert ek.recall_at_k(s, truth, 3) == 100.0
        np.testing.assert_array_equal(ek.ranks(s, truth), [2, 3])

    def test_tie_on_lower_index_wins(self):
        s = np.array([[0.5, 0.5]])
        assert ek.recall_at_k(s, np.array([0]), 1) == 100.0
        assert ek.recall_at_k(s, np.array([1]), 1) == 0.0

    def test_matches_stable_sort_oracle(self):
        for trial in range(30):
            rng = rng_for(800, trial)
            nq = int(rng.integers(2, 30))
            nc = int(rng.integers(2, 30))
            # quantize to force plenty of ties
            s = np.round(rng.uniform(size=(nq, nc)), 1)
            truth = rng.integers(0, nc, size=nq)
            for k in (1, min(5, nc), nc):
                assert ek.recall_at_k(s, truth, k) == recall_oracle(s, truth, k)

    def test_monotone_in_k(self):
        rng = rng_for(801)
        s = rng.uniform(size=(40, 25))
        truth = rng.integers(0, 25, size=40)
        vals = [ek.recall_at_k(s, truth, k) for k in range(1, 26)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 100.0

    def test_validation(self):
        s = np.ones((3, 4))
        with pytest.raises(ValueError, match="k=5"):
            ek.recall_at_k(s, np.zeros(3, dtype=int), 5)
        with pytest.raises(ValueError, match="k=0"):
            ek.recall_at_k(s, np.zeros(3, dtype=int), 0)
        with pytest.raises(ValueError, match="truth"):
            ek.recall_at_k(s, np.array([0, 1, 4]), 2)

    def test_nan_true_scores_rejected(self):
        """A NaN true score compares neither above nor equal to anything,
        so it would rank first at every cutoff."""
        s = np.full((5, 5), 0.5)
        np.fill_diagonal(s, np.nan)
        with pytest.raises(ValueError, match="5 NaN score"):
            ek.recall_at_k(s, np.arange(5), 1)

    def test_nan_candidate_rejected(self):
        """A NaN candidate would never rank ahead of the true one."""
        s = np.eye(4) * 0.5
        s[2, 0] = np.nan
        with pytest.raises(ValueError, match="1 NaN score"):
            ek.ranks(s, np.array([1, 1, 1, 1]))


class TestScoreMatrix:
    def test_two_model_average(self):
        rng = rng_for(802)
        imgs, txts = rng.normal(size=(7, 5)), rng.normal(size=(9, 4))
        m1 = tiny_nets(60)
        m2 = tiny_nets(61)
        s1, _ = ek.score_matrix([m1], imgs, txts)
        s2, _ = ek.score_matrix([m2], imgs, txts)
        both, _ = ek.score_matrix([m1, m2], imgs, txts)
        np.testing.assert_array_equal(both, (s1 + s2) / 2)
        assert np.all((both > 0) & (both < 1))

    def test_worker_count_invariance(self, block_paths, pools):
        rng = rng_for(803)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(40, 4))
        nets = tiny_nets(62)
        base, _ = ek.score_matrix([nets], imgs, txts, threads=1)
        for _ in block_paths():
            for workers in (2, 4, 7):
                out, _ = ek.score_matrix([nets], imgs, txts, threads=workers)
                np.testing.assert_array_equal(out, base)
        # two tiles: one worker each on the pool, whatever `threads`
        assert pools == [2, 2, 2]

    @pytest.mark.parametrize("ni,nt", [(1, 70), (65, 129), (129, 1), (130, 130)])
    def test_tiles_match_whole_matrix(self, block_paths, ni, nt):
        """Edge tiles of one row or one column: bitwise equal for any worker
        count, and equal to whole-matrix scoring up to the last bit of a
        BLAS kernel switch."""
        rng = rng_for(806, ni, nt)
        imgs, txts = rng.normal(size=(ni, 5)), rng.normal(size=(nt, 4))
        nets = [tiny_nets(t, d_emb=64, d_sim=32, hidden=64, mscn_hidden=32)
                for t in (66, 67)]
        base, n_bad = ek.score_matrix(nets, imgs, txts, threads=1)
        assert n_bad == 0
        for _ in block_paths():
            for workers in (2, 3):
                out, _ = ek.score_matrix(nets, imgs, txts, threads=workers)
                np.testing.assert_array_equal(out, base)
        whole = [model.all_pairs_scores(imgs, txts, m, h)[0].data for m, h in nets]
        np.testing.assert_allclose(base, (whole[0] + whole[1]) / 2,
                                   rtol=0, atol=1e-15)

    def test_memory_follows_the_tile(self):
        """64 images x 2048 texts at d_emb=64: a block spanning every text
        would need 32 MiB per (rows, 2048, 64) intermediate; a 64 x 64 tile
        needs 2 MiB."""
        rng = rng_for(807)
        imgs, txts = rng.normal(size=(64, 5)), rng.normal(size=(2048, 4))
        nets = tiny_nets(68, d_emb=64, d_sim=32, hidden=64, mscn_hidden=32)
        tracemalloc.start()
        try:
            out, _ = ek.score_matrix([nets], imgs, txts, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 12 * 2**20

    def test_degenerate_cells_score_half(self, block_paths):
        main, meta = tiny_nets(69)
        main = main.with_arrays([np.zeros_like(a) if f == "sim_w" else a
                                 for f, a in main.items()])
        rng = rng_for(808)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(65, 4))
        for _ in block_paths():
            for workers in (1, 2):
                out, n_bad = ek.score_matrix([(main, meta)], imgs, txts,
                                             threads=workers)
                assert n_bad == 70 * 65
                np.testing.assert_array_equal(out, np.full((70, 65), 0.5))

    @pytest.mark.parametrize("scorer", ["mscn", "cosine"])
    def test_degenerate_cells_count_once(self, block_paths, scorer):
        """All-zero main weights make every embedding zero, so every cell is
        degenerate on both sides; each counts once."""
        main, meta = tiny_nets(70)
        main = main.with_arrays([np.zeros_like(a) for a in main.arrays()])
        rng = rng_for(809)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(65, 4))
        neutral = 0.5 if scorer == "mscn" else 0.0
        for _ in block_paths():
            for workers in (1, 2):
                out, n_bad = ek.score_matrix([(main, meta)], imgs, txts,
                                             scorer=scorer, threads=workers)
                assert n_bad == 70 * 65
                np.testing.assert_array_equal(out, np.full((70, 65), neutral))

    def test_pool_needs_enough_blocks_per_worker(self, monkeypatch, pools):
        """8 blocks per worker: 16 blocks give two workers, 15 none, and
        `threads` still caps the count."""
        monkeypatch.setattr(ek, "MIN_BLOCKS_PER_WORKER", 8)
        for threads, n_blocks in ((2, 16), (2, 15), (1, 1024), (4, 24),
                                  (4, 1024)):
            each = ek._block_map(threads, n_blocks)
            assert list(each(abs, [-1, 2])) == [1, 2]
        assert pools == [2, 3, 4]

    def test_pooled_calls_leave_no_worker_running(self, monkeypatch, pools):
        """A pooled `score_matrix` and a pooled `evaluate` (two passes)
        each close their pools before they return."""
        monkeypatch.setattr(ek, "MIN_BLOCKS_PER_WORKER", 1)
        split = make_split(130, 6)
        nets = [tiny_nets(82)]
        ek.score_matrix(nets, split.images, split.texts, threads=2)
        assert multiprocessing.active_children() == []
        ek.evaluate(nets, split, ks=(1,), threads=2)
        assert multiprocessing.active_children() == []
        assert pools == [2, 2, 2]

    def test_worker_exception_reaches_the_caller(self, monkeypatch, pools):
        """An exception raised while a worker scores a block is raised
        again in the caller, with its type and message."""
        def broken(*args, **kwargs):
            raise FloatingPointError("tile scorer broke")

        monkeypatch.setattr(model, "block_feature", broken)
        monkeypatch.setattr(ek, "MIN_BLOCKS_PER_WORKER", 1)
        split = make_split(130, 7)
        with pytest.raises(FloatingPointError, match="tile scorer broke"):
            ek.evaluate([tiny_nets(83)], split, ks=(1,), threads=2)
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_default_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert ek.worker_count() == 1

    def test_cosine_scorer(self):
        rng = rng_for(804)
        imgs, txts = rng.normal(size=(4, 5)), rng.normal(size=(6, 4))
        main, _ = tiny_nets(63)
        s, n_bad = ek.score_matrix([(main, None)], imgs, txts, scorer="cosine")
        assert n_bad == 0
        assert np.all(np.abs(s) <= 1 + 1e-12)

    def test_cosine_strips_equal_whole_side_block_cosine(self, block_paths):
        """Strips of unit rows scaled once per side give the bits of
        `model.block_cosine` on the whole sides, degenerate cells included:
        70 rows are two whole strips and a part one."""
        main, _ = tiny_nets(82, hidden=16)
        rng = rng_for(811)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(70, 4))
        # zero input rows embed to zero only through zero biases
        main = main.with_arrays([np.zeros_like(a) if f.endswith("b1")
                                 or f.endswith("b2") else a
                                 for f, a in main.items()])
        imgs[33], txts[5] = 0.0, 0.0
        u = model.embed_image(imgs, main)
        v = model.embed_text(txts, main)
        want, want_bad = model.block_cosine(u, v)
        assert want_bad == 70 + 70 - 1
        for _ in block_paths():
            got, n_bad = ek.score_matrix([(main, None)], imgs, txts,
                                         scorer="cosine", threads=2)
            assert n_bad == want_bad
            assert got.tobytes() == want.data.tobytes()

    def test_needs_a_model(self):
        with pytest.raises(ValueError, match="at least one"):
            ek.score_matrix([], np.zeros((2, 5)), np.zeros((2, 4)))


class TestTruthMaps:
    def test_clean_split_is_identity(self):
        ds = dg.generate(dg.GenConfig(seed=30, n_clusters=4, pairs_per_cluster=30,
                                      d_img=8, d_txt=6))
        i2t, t2i = ek._truth_maps(ds.test)
        np.testing.assert_array_equal(i2t, np.arange(len(ds.test)))
        np.testing.assert_array_equal(t2i, np.arange(len(ds.test)))

    def test_deranged_split_inverts(self):
        """Three records whose texts rotated: 0 -> 1 -> 2 -> 0."""
        split = dg.Split(
            ids=np.array([10, 11, 12]),
            images=np.zeros((3, 2)),
            texts=np.zeros((3, 2)),
            original_partner=np.array([11, 12, 10]),
            clean=np.zeros(3, dtype=bool),
            cluster=np.array([0, 1, 2]),
        )
        i2t, t2i = ek._truth_maps(split)
        # image 10's text now sits on record 2; image 11's on record 0 ...
        np.testing.assert_array_equal(i2t, [2, 0, 1])
        np.testing.assert_array_equal(t2i, [1, 2, 0])

    def test_missing_partner_rejected(self):
        split = dg.Split(
            ids=np.array([0, 1]),
            images=np.zeros((2, 2)),
            texts=np.zeros((2, 2)),
            original_partner=np.array([0, 5]),
            clean=np.ones(2, dtype=bool),
            cluster=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="not in the split"):
            ek._truth_maps(split)


class TestEvaluate:
    def test_consistent_with_direct_recall(self):
        ds = dg.generate(dg.GenConfig(seed=31, n_clusters=4, pairs_per_cluster=40,
                                      d_img=8, d_txt=6))
        nets = tiny_nets(64, d_img=8, d_txt=6)
        report = ek.evaluate([nets], ds.test, ks=(1, 5, 10))
        scores, _ = ek.score_matrix([nets], ds.test.images, ds.test.texts)
        truth = np.arange(len(ds.test))
        for k in (1, 5, 10):
            assert report.image_to_text[k] == ek.recall_at_k(scores, truth, k)
            assert report.text_to_image[k] == ek.recall_at_k(scores.T, truth, k)
        assert report.rsum == pytest.approx(
            sum(report.image_to_text.values()) + sum(report.text_to_image.values()))

    def test_cutoff_validated(self):
        ds = dg.generate(dg.GenConfig(seed=31, n_clusters=4, pairs_per_cluster=40,
                                      d_img=8, d_txt=6))
        nets = tiny_nets(64, d_img=8, d_txt=6)
        with pytest.raises(ValueError, match="k=1000"):
            ek.evaluate([nets], ds.test, ks=(1, 1000))

    @pytest.mark.parametrize("scorer", ["mscn", "cosine"])
    def test_empty_split_is_a_value_error(self, scorer):
        ds = dg.generate(dg.GenConfig(seed=33, n_clusters=4, pairs_per_cluster=30,
                                      d_img=8, d_txt=6, test_fraction=0.0))
        assert len(ds.test) == 0
        nets = tiny_nets(66, d_img=8, d_txt=6)
        with pytest.raises(ValueError, match="no queries"):
            ek.evaluate([nets], ds.test, ks=(1,), scorer=scorer)

    def test_small_split_runs_on_the_calling_thread(self, pools):
        """100 pairs are 4 tiles, too few to share: even at threads=2 no
        pool is built, and `threads` is still validated."""
        split = make_split(100, 6)
        nets = [tiny_nets(t) for t in (80, 81)]
        one = ek.evaluate(nets, split, ks=(1, 5), threads=1)
        two = ek.evaluate(nets, split, ks=(1, 5), threads=2)
        assert pools == []
        assert two.format_kv() == one.format_kv()
        with pytest.raises(ValueError, match="worker count must be positive"):
            ek.evaluate(nets, split, ks=(1,), threads=0)

    def test_kv_roundtrip(self):
        ds = dg.generate(dg.GenConfig(seed=32, n_clusters=4, pairs_per_cluster=30,
                                      d_img=8, d_txt=6))
        nets = tiny_nets(65, d_img=8, d_txt=6)
        report = ek.evaluate([nets], ds.test, ks=(1, 5, 10))
        parsed = ek.parse_kv(report.format_kv())
        assert float(parsed["i2t_r1"]) == report.image_to_text[1]
        assert float(parsed["rsum"]) == report.rsum
        assert parsed["scorer"] == "mscn"
        assert int(parsed["n_images"]) == len(ds.test)


def make_split(n, tag, permuted=False, d_img=5, d_txt=4):
    """n random pairs; `permuted` moves the texts as `original_partner`
    allows, so the truth maps are a permutation and its inverse."""
    rng = rng_for(810, n, tag)
    ids = np.arange(100, 100 + n)
    partner = rng.permutation(ids) if permuted else ids
    return dg.Split(ids=ids, images=rng.normal(size=(n, d_img)),
                    texts=rng.normal(size=(n, d_txt)), original_partner=partner,
                    clean=partner == ids, cluster=np.zeros(n, dtype=np.int64))


def oracle_report(models, split, ks, scorer="mscn"):
    """The report of `ranks` on the whole averaged score matrix."""
    scores, n_bad = ek.score_matrix(models, split.images, split.texts,
                                    scorer=scorer, threads=1)
    i2t_truth, t2i_truth = ek._truth_maps(split)
    i2t_rank, t2i_rank = ek.ranks(scores, i2t_truth), ek.ranks(scores.T, t2i_truth)
    i2t = {k: ek._recall(i2t_rank, k, len(split)) for k in ks}
    t2i = {k: ek._recall(t2i_rank, k, len(split)) for k in ks}
    return ek.RecallReport(ks=ks, image_to_text=i2t, text_to_image=t2i,
                           rsum=float(sum(i2t.values()) + sum(t2i.values())),
                           n_images=len(split), n_texts=len(split),
                           degenerate_pairs=n_bad, scorer=scorer)


def assert_matches_oracle(models, split, scorer):
    """Every cutoff from 1 to n, so the reports pin each direction's whole
    rank histogram; bitwise equal for 1, 2 and 3 workers."""
    ks = tuple(range(1, len(split) + 1))
    expected = oracle_report(models, split, ks, scorer).format_kv()
    for workers in (1, 2, 3):
        got = ek.evaluate(models, split, ks=ks, scorer=scorer, threads=workers)
        assert got.format_kv() == expected


class TestBlockwiseRanks:
    """`evaluate` counts ranks block by block; its reports must equal those
    of `ranks` on the materialized matrix."""

    @pytest.mark.parametrize("scorer", ["mscn", "cosine"])
    @pytest.mark.parametrize("permuted", [False, True])
    @pytest.mark.parametrize("n", [1, 65, 129, 130])
    def test_matches_whole_matrix_ranks(self, block_paths, n, permuted, scorer):
        split = make_split(n, 0, permuted)
        nets = [tiny_nets(t) for t in (71, 72)]
        for _ in block_paths():
            assert_matches_oracle(nets, split, scorer)

    @pytest.mark.parametrize("scorer", ["mscn", "cosine"])
    def test_exact_ties_in_other_blocks(self, block_paths, scorer):
        """Records 3, 100 and 129 are copies, in three different tiles and
        strips: each true score ties with two cells of other blocks, one at
        a lower and one at a higher index (except at the ends)."""
        split = make_split(130, 1)
        for r in (100, 129):
            split.images[r], split.texts[r] = split.images[3], split.texts[3]
        nets = [tiny_nets(t) for t in (73, 74)]
        scores, _ = ek.score_matrix(nets, split.images, split.texts,
                                    scorer=scorer)
        group = [3, 100, 129]
        for i in group:
            assert np.all(scores[i, group] == scores[i, i])
            assert np.all(scores[group, i] == scores[i, i])
        for _ in block_paths():
            assert_matches_oracle(nets, split, scorer)

    @pytest.mark.parametrize("scorer", ["mscn", "cosine"])
    def test_degenerate_pairs(self, block_paths, scorer):
        """All-zero main weights make every cell degenerate and every score
        equal, so each true candidate ranks behind every lower index."""
        main, meta = tiny_nets(75)
        main = main.with_arrays([np.zeros_like(a) for a in main.arrays()])
        split = make_split(130, 2)
        for _ in block_paths():
            assert_matches_oracle([(main, meta)], split, scorer)
            report = ek.evaluate([(main, meta)], split, ks=(1,),
                                 scorer=scorer, threads=2)
            assert report.degenerate_pairs == 130 * 130
            assert report.image_to_text[1] == 100.0 / 130

    @pytest.mark.parametrize("cells", [
        [(70, 100)],                       # in the truth tile of rows 64-127
        [(5, 129)],                        # in a tile that holds no true pair
        [(70, 70), (5, 129), (129, 0)],    # a true cell and two others
    ])
    def test_nan_cells_counted_in_every_block(self, block_paths, monkeypatch,
                                              cells):
        split = make_split(130, 3)
        main, meta = tiny_nets(76)
        u_all = model.embed_image(split.images, main).data
        v_all = model.embed_text(split.texts, main).data
        real = model.block_feature

        def poisoned(u, v, sim_w):
            unit, norms = real(u, v, sim_w)
            r0 = int(np.flatnonzero((u_all == u[0]).all(axis=1))[0])
            c0 = int(np.flatnonzero((v_all == v[0]).all(axis=1))[0])
            for i, j in cells:
                if r0 <= i < r0 + len(u) and c0 <= j < c0 + len(v):
                    unit[(i - r0) * len(v) + j - c0] = np.nan
            return unit, norms

        monkeypatch.setattr(model, "block_feature", poisoned)
        message = rf"ranks: {len(cells)} NaN score\(s\) cannot be ranked"
        scores, _ = ek.score_matrix([(main, meta)], split.images, split.texts)
        with pytest.raises(ValueError, match=message):
            ek.ranks(scores, np.arange(130))
        for _ in block_paths():
            for workers in (1, 2, 3):
                with pytest.raises(ValueError, match=message):
                    ek.evaluate([(main, meta)], split, ks=(1,), threads=workers)

    def test_cutoffs_checked_before_any_block(self, monkeypatch):
        def no_scoring(*args, **kwargs):
            raise AssertionError("a block was scored")

        monkeypatch.setattr(model, "block_feature", no_scoring)
        monkeypatch.setattr(model, "cosine_strip", no_scoring)
        split = make_split(65, 4)
        for scorer in ("mscn", "cosine"):
            with pytest.raises(ValueError, match=r"k=66 outside \[1, 65\]"):
                ek.evaluate([tiny_nets(77)], split, ks=(1, 66), scorer=scorer)

    def test_memory_holds_no_score_matrix(self):
        """1024 pairs, two d_emb=64 networks: one (1024, 1024) float64
        matrix is 8 MiB, and `ranks` of one adds as much again.  Block-wise
        ranking holds the embeddings (2 MiB), one tile's feature (3 MiB at
        its peak) and the 16 diagonal tiles (0.5 MiB)."""
        split = make_split(1024, 5)
        nets = [tiny_nets(t, d_emb=64, d_sim=32, hidden=64, mscn_hidden=32)
                for t in (78, 79)]
        tracemalloc.start()
        try:
            ek.evaluate(nets, split, ks=(1, 5, 10), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    def test_rescores_only_blocks_that_miss_a_true_pair(self, monkeypatch):
        """The diagonal tiles of a 1:1 split hold the true pairs of all
        their rows and columns, so each of the 9 tiles is scored once.  A
        cosine strip holds its rows' true pairs but not its columns', so
        each of the 5 strips is scored in both passes."""
        scored = []

        def counted(name, real):
            def scorer(*args):
                scored.append(name)
                return real(*args)
            monkeypatch.setattr(model, name, scorer)

        counted("block_feature", model.block_feature)
        counted("cosine_strip", model.cosine_strip)
        split = make_split(130, 8)
        for scorer in ("mscn", "cosine"):
            ek.evaluate([tiny_nets(84)], split, ks=(1,), scorer=scorer)
        assert scored == ["block_feature"] * 9 + ["cosine_strip"] * 10
