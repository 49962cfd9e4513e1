"""Evaluation checks: recall@K against a stable-sort oracle (with deliberate
score ties), deterministic tiled fan-out and its memory bound, truth-map
inversion, and the report round trip."""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from mscn import datagen as dg
from mscn import evalkit as ek
from mscn import model
from conftest import rng_for
from test_model import tiny_nets


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

    def test_worker_count_invariance(self):
        rng = rng_for(803)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(40, 4))
        nets = tiny_nets(62)
        base, _ = ek.score_matrix([nets], imgs, txts, threads=1)
        for workers in (2, 4, 7):
            out, _ = ek.score_matrix([nets], imgs, txts, threads=workers)
            np.testing.assert_array_equal(out, base)

    @pytest.mark.parametrize("ni,nt", [(1, 70), (65, 129), (129, 1), (130, 130)])
    def test_tiles_match_whole_matrix(self, ni, nt):
        """Edge tiles of one row or one column: bitwise equal for any worker
        count, and equal to whole-matrix scoring up to the last bit of a
        BLAS kernel switch."""
        rng = rng_for(806, ni, nt)
        imgs, txts = rng.normal(size=(ni, 5)), rng.normal(size=(nt, 4))
        nets = [tiny_nets(t, d_emb=64, d_sim=32, hidden=64, mscn_hidden=32)
                for t in (66, 67)]
        base, n_bad = ek.score_matrix(nets, imgs, txts, threads=1)
        assert n_bad == 0
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

    def test_degenerate_cells_score_half(self):
        main, meta = tiny_nets(69)
        main = main.with_arrays([np.zeros_like(a) if f == "sim_w" else a
                                 for f, a in main.items()])
        rng = rng_for(808)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(65, 4))
        for workers in (1, 2):
            out, n_bad = ek.score_matrix([(main, meta)], imgs, txts,
                                         threads=workers)
            assert n_bad == 70 * 65
            np.testing.assert_array_equal(out, np.full((70, 65), 0.5))

    @pytest.mark.parametrize("scorer", ["mscn", "cosine"])
    def test_degenerate_cells_count_once(self, scorer):
        """All-zero main weights make every embedding zero, so every cell is
        degenerate on both sides; each counts once."""
        main, meta = tiny_nets(70)
        main = main.with_arrays([np.zeros_like(a) for a in main.arrays()])
        rng = rng_for(809)
        imgs, txts = rng.normal(size=(70, 5)), rng.normal(size=(65, 4))
        neutral = 0.5 if scorer == "mscn" else 0.0
        for workers in (1, 2):
            out, n_bad = ek.score_matrix([(main, meta)], imgs, txts,
                                         scorer=scorer, threads=workers)
            assert n_bad == 70 * 65
            np.testing.assert_array_equal(out, np.full((70, 65), neutral))

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
