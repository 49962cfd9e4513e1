"""Network and checkpoint checks: embedding shapes, similarity feature
contracts, score range, gradients w.r.t. every parameter tensor, and the
binary checkpoint format."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from mscn import autodiff as ad
from mscn import model
from conftest import (assert_close_grad, central_difference, fail_writes_halfway,
                      rng_for)


def tiny_nets(tag=0, d_img=5, d_txt=4, d_emb=6, d_sim=3, hidden=4, mscn_hidden=4):
    rng = rng_for(500, tag)
    main = model.MainNetParams.init(d_img, d_txt, d_emb, d_sim, rng, hidden=hidden)
    meta = model.MetaNetParams.init(d_sim, rng, hidden=mscn_hidden)
    return main, meta


class TestInit:
    def test_bounds_follow_fan_in(self):
        main, meta = tiny_nets()
        for name, arr in main.items() + meta.items():
            fan_in = {"img_w1": 5, "img_b1": 5, "txt_w1": 4, "txt_b1": 4}.get(name)
            if fan_in is None:
                continue
            bound = 1 / np.sqrt(fan_in)
            assert np.all(np.abs(arr) <= bound), name

    def test_seeded_init_reproducible(self):
        a, _ = tiny_nets(7)
        b, _ = tiny_nets(7)
        for (_, x), (_, y) in zip(a.items(), b.items()):
            np.testing.assert_array_equal(x, y)

    def test_sim_dim_must_be_below_embedding_dim(self):
        with pytest.raises(ValueError, match="below"):
            model.MainNetParams.init(5, 4, 6, 6, rng_for(1))

    @pytest.mark.parametrize("bundle", [model.MainNetParams, model.MetaNetParams])
    def test_fields_are_the_dataclass_fields_in_order(self, bundle):
        """`with_arrays` and `lift` build a bundle positionally from values
        in FIELDS order, so FIELDS must list its fields as declared."""
        assert bundle.FIELDS == tuple(f.name for f in dataclasses.fields(bundle))


class TestEmbeddings:
    def test_single_and_batch_agree(self):
        main, _ = tiny_nets(1)
        rng = rng_for(501)
        imgs = rng.normal(size=(3, 5))
        batch = model.embed_image(imgs, main).data
        assert batch.shape == (3, 6)
        for i in range(3):
            single = model.embed_image(imgs[i:i + 1], main).data
            assert single.shape == (1, 6)
            # batched dgemm and one-row dgemv may differ in the last bit
            np.testing.assert_allclose(single[0], batch[i], rtol=1e-13, atol=1e-15)

    def test_dimension_mismatch(self):
        main, _ = tiny_nets(1)
        with pytest.raises(ad.ShapeMismatchError, match="embed_image"):
            model.embed_image(np.zeros((2, 7)), main)
        with pytest.raises(ad.ShapeMismatchError, match="embed_text"):
            model.embed_text(np.zeros((2, 5)), main)


class TestSimilarityFeature:
    def test_unit_norm_and_symmetry(self):
        main, _ = tiny_nets(2)
        rng = rng_for(502)
        u = ad.Tensor(rng.normal(size=(4, 6)))
        v = ad.Tensor(rng.normal(size=(4, 6)))
        f_uv = model.similarity_feature(u, v, main.sim_w)
        f_vu = model.similarity_feature(v, u, main.sim_w)
        np.testing.assert_allclose(np.linalg.norm(f_uv.data, axis=-1), 1.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(f_uv.data, f_vu.data)

    def test_identical_embeddings_degenerate(self):
        main, _ = tiny_nets(2)
        u = ad.Tensor(np.ones((1, 6)))
        with pytest.raises(model.DegenerateSimilarityError):
            model.similarity_feature(u, u, main.sim_w)

    def test_scale_invariance_of_direction(self):
        """Scaling |u-v|^2 by c scales the projection but not the feature."""
        main, _ = tiny_nets(2)
        rng = rng_for(503)
        u = rng.normal(size=(2, 6))
        v = rng.normal(size=(2, 6))
        base = model.similarity_feature(ad.Tensor(u), ad.Tensor(v), main.sim_w).data
        scaled = model.similarity_feature(
            ad.Tensor(v + np.sqrt(3.0) * (u - v)), ad.Tensor(v), main.sim_w).data
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestScores:
    def test_scores_inside_unit_interval_near_half_at_init(self):
        main, meta = tiny_nets(3)
        rng = rng_for(504)
        feats = model.similarity_feature(
            ad.Tensor(rng.normal(size=(8, 6))), ad.Tensor(rng.normal(size=(8, 6))),
            main.sim_w)
        s = model.mscn_score(feats, meta).data
        assert np.all((s > 0) & (s < 1))
        assert np.all(np.abs(s - 0.5) < 0.4)

    def test_all_pairs_matches_pair_score(self):
        main, meta = tiny_nets(4)
        rng = rng_for(506)
        imgs = rng.normal(size=(3, 5))
        txts = rng.normal(size=(4, 4))
        mat, n_bad = model.all_pairs_scores(imgs, txts, main, meta)
        assert mat.shape == (3, 4) and n_bad == 0
        for i in range(3):
            row = model.pair_score(np.repeat(imgs[i:i + 1], 4, axis=0), txts,
                                   main, meta).data
            np.testing.assert_allclose(mat.data[i], row, rtol=1e-12, atol=0)

    def test_degenerate_policy(self):
        """With sim_w = 0 no pair has a similarity direction: the scorer
        scores every cell 0.5 and counts it, the training scorer raises."""
        main, meta = tiny_nets(4)
        main = main.with_arrays([np.zeros_like(a) if i == 8 else a
                                 for i, a in enumerate(main.arrays())])  # sim_w = 0
        rng = rng_for(507)
        imgs, txts = rng.normal(size=(2, 5)), rng.normal(size=(3, 4))
        with pytest.raises(model.DegenerateSimilarityError):
            model.pair_score(imgs, txts[:2], main, meta)
        mat, n_bad = model.all_pairs_scores(imgs, txts, main, meta)
        assert n_bad == 6
        np.testing.assert_array_equal(mat.data, np.full((2, 3), 0.5))


class TestBlockScores:
    """The off-record block scorer against the recorded composition of
    `all_pairs_scores`: every cell bit for bit."""

    @staticmethod
    def _block(imgs, txts, main, meta):
        u = model.embed_image(imgs, main).data
        v = model.embed_text(txts, main).data
        return model.block_scores(model.block_feature(u, v, main.sim_w), meta)

    @pytest.mark.parametrize("ni, nt", [(1, 1), (1, 7), (7, 1), (3, 5),
                                        (13, 64), (64, 64), (37, 53),
                                        (36, 36), (64, 36)])
    def test_bitwise_equal_to_recorded_composition(self, ni, nt):
        """At BLOCK_CELLS = 1024, 64-wide blocks run 16-row chunks; 37 x 53
        is two 16-row chunks and a ragged 5-row one; 36 x 36 is a 28-row
        chunk of 1008 cells and a ragged 8-row one, as in the remainder
        tile of a 100-pair split, and 64 x 36 is two of them and 8 rows."""
        for tag in range(4):
            main, meta = tiny_nets(tag, d_emb=64, d_sim=32, hidden=64,
                                   mscn_hidden=32)
            rng = rng_for(511, ni, nt, tag)
            imgs, txts = rng.normal(size=(ni, 5)), rng.normal(size=(nt, 4))
            want, want_bad = model.all_pairs_scores(imgs, txts, main, meta)
            got, n_bad = self._block(imgs, txts, main, meta)
            assert got.shape == (ni, nt) and n_bad == want_bad == 0
            assert got.tobytes() == want.data.tobytes(), (ni, nt, tag)

    @pytest.mark.parametrize("cells, ni, nt, d_sim, mscn_hidden", [
        (96, 64, 64, 32, 32),  # 4-row chunks of 256 cells, the fewest rows
        (64, 64, 64, 32, 32),  # rows as wide as BLOCK_CELLS: 4 rows still
        (8, 3, 3, 32, 32),     # 9 cells in one chunk
        (8, 1, 17, 32, 32),    # one row, wider than BLOCK_CELLS
        (16, 33, 1, 32, 32),   # a one-cell last chunk starts 4 rows earlier
        (8, 9, 1, 32, 32),     # the same after one whole chunk
        (12, 2, 29, 32, 32),   # a block of fewer rows than a chunk
        (12, 9, 3, 32, 32),    # 4-row chunks of 12 cells, a ragged last one
        (12, 5, 7, 1, 1)])     # one-wide products are outer products
    def test_small_chunks_keep_every_bit(self, monkeypatch, cells, ni, nt,
                                         d_sim, mscn_hidden):
        monkeypatch.setattr(model, "BLOCK_CELLS", cells)
        main, meta = tiny_nets(9, d_emb=64, d_sim=d_sim, hidden=64,
                               mscn_hidden=mscn_hidden)
        rng = rng_for(513, ni, nt)
        imgs, txts = rng.normal(size=(ni, 5)), rng.normal(size=(nt, 4))
        want, _ = model.all_pairs_scores(imgs, txts, main, meta)
        got, n_bad = self._block(imgs, txts, main, meta)
        assert n_bad == 0
        assert got.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 9, 16, 17, 33, 100])
    def test_cell_chunks_cover_the_block_in_gemv_groups(self, monkeypatch, n):
        """`_row_chunks` of an n-row block, every width and a small
        BLOCK_CELLS: whole rows in order, gemv groups, bounded, and no
        one-cell chunk of a larger block."""
        for cells in (8, 12, 24):
            monkeypatch.setattr(model, "BLOCK_CELLS", cells)
            for width in (0, 1, 2, 3, 7, 29):
                chunks = model._row_chunks(n, width)
                assert ([c for chunk in chunks for c in range(*chunk)]
                        == list(range(n * width))), (cells, width)
                assert all(start % width == stop % width == 0
                           for start, stop in chunks)
                sizes = [stop - start for start, stop in chunks]
                assert all(size % 4 == 0 for size in sizes[:-1])
                assert all(0 < size <= max(cells, 4 * width) for size in sizes)
                assert n * width < 2 or 1 not in sizes

    def test_half_policy_scores_degenerate_cells_and_counts_them(self):
        """Image 0 and text 2 embed to the same point, so cell (0, 2) has
        no similarity direction: 0.5 and counted, every other cell as
        recorded."""
        main, meta = tiny_nets(12, d_txt=5)
        main = main.with_arrays(main.arrays()[:4] * 2 + main.arrays()[8:])
        rng = rng_for(512)
        imgs, txts = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        txts[2] = imgs[0]
        want, want_bad = model.all_pairs_scores(imgs, txts, main, meta)
        got, n_bad = self._block(imgs, txts, main, meta)
        assert n_bad == want_bad == 1 and got[0, 2] == 0.5
        assert got.tobytes() == want.data.tobytes()


class TestBatchContract:
    """Every scorer and matmul take (n, d) batches; a 1-D operand is refused."""

    def test_1d_operands_raise(self):
        main, meta = tiny_nets(6)
        rng = rng_for(510)
        img, txt = rng.normal(size=5), rng.normal(size=4)
        u, f = rng.normal(size=6), rng.normal(size=3)
        cases = [
            ("matmul", lambda: ad.matmul(u, main.sim_w)),
            ("matmul", lambda: ad.matmul(main.sim_w, f)),
            ("embed_image", lambda: model.embed_image(img, main)),
            ("embed_text", lambda: model.embed_text(txt, main)),
            ("similarity_feature",
             lambda: model.similarity_feature(u, u + 1.0, main.sim_w)),
            ("mscn_score", lambda: model.mscn_score(f, meta)),
            ("embed_image", lambda: model.pair_score(img, txt, main, meta)),
        ]
        for op, call in cases:
            with pytest.raises(ad.ShapeMismatchError, match=op):
                call()


class TestParameterGradients:
    """FD oracle w.r.t. every parameter tensor through the full scorer."""

    def test_every_parameter_tensor(self):
        main, meta = tiny_nets(5)
        rng = rng_for(509)
        imgs = rng.normal(size=(3, 5))
        txts = rng.normal(size=(3, 4))

        def loss_value(main_arrays, meta_arrays):
            m = main.with_arrays(main_arrays)
            t = meta.with_arrays(meta_arrays)
            mat, _ = model.all_pairs_scores(imgs, txts, m, t)
            return float(ad.reduce_sum(ad.square(mat)).data)

        with ad.Tape() as tape:
            m_l = main.lift(tape)
            t_l = meta.lift(tape)
            mat, _ = model.all_pairs_scores(imgs, txts, m_l, t_l)
            grads = ad.backward(tape, ad.reduce_sum(ad.square(mat)))

        main_arrays = main.arrays()
        meta_arrays = meta.arrays()
        for k, (name, leaf) in enumerate(m_l.items()):
            def f(x, k=k):
                per = [a.copy() for a in main_arrays]
                per[k] = x
                return loss_value(per, meta_arrays)

            assert_close_grad(grads[leaf].data,
                              central_difference(f, main_arrays[k]),
                              rel=1e-5, label=f"main.{name}")
        for k, (name, leaf) in enumerate(t_l.items()):
            def f(x, k=k):
                per = [a.copy() for a in meta_arrays]
                per[k] = x
                return loss_value(main_arrays, per)

            assert_close_grad(grads[leaf].data,
                              central_difference(f, meta_arrays[k]),
                              rel=1e-5, label=f"meta.{name}")


class TestCheckpointFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        main, meta = tiny_nets(6)
        path = tmp_path / "net.mscp"
        model.save_checkpoint(path, main, meta)
        main2, meta2 = model.load_checkpoint(path)
        for (n1, a), (n2, b) in zip(main.items(), main2.items()):
            assert n1 == n2
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
            assert np.asarray(a).shape == np.asarray(b).shape
        for (_, a), (_, b) in zip(meta.items(), meta2.items()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        # bytes written twice are identical
        path2 = tmp_path / "net2.mscp"
        model.save_checkpoint(path2, main2, meta2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.mscp"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(model.CheckpointFormatError, match="magic"):
            model.load_checkpoint(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "x.mscp"
        p.write_bytes(b"MSCP" + (2).to_bytes(4, "little"))
        with pytest.raises(model.CheckpointFormatError, match="version"):
            model.load_checkpoint(p)

    def test_truncation(self, tmp_path):
        main, meta = tiny_nets(6)
        p = tmp_path / "x.mscp"
        model.save_checkpoint(p, main, meta)
        blob = p.read_bytes()
        for cut in (6, len(blob) // 2, len(blob) - 3):
            p.write_bytes(blob[:cut])
            with pytest.raises(model.CheckpointFormatError):
                model.load_checkpoint(p)
        # headers whose element count wraps in 64 bits (to 0, and negative)
        # must still read as truncated
        name = b"main.img_w1"
        for dims in ((65536,) * 4, (3, 2**32 - 1, 2**32 - 1, 3)):
            p.write_bytes(blob[:8] + len(name).to_bytes(2, "little") + name
                          + len(dims).to_bytes(4, "little")
                          + b"".join(d.to_bytes(4, "little") for d in dims))
            with pytest.raises(model.CheckpointFormatError, match="truncated"):
                model.load_checkpoint(p)

    def test_tensor_name_not_utf8(self, tmp_path):
        main, meta = tiny_nets(6)
        p = tmp_path / "x.mscp"
        model.save_checkpoint(p, main, meta)
        p.write_bytes(p.read_bytes().replace(b"main.sim_w", b"\xffain.sim_w"))
        with pytest.raises(model.CheckpointFormatError, match="UTF-8"):
            model.load_checkpoint(p)

    def test_missing_tensor_detected(self, tmp_path):
        main, meta = tiny_nets(6)
        p = tmp_path / "x.mscp"
        model.save_checkpoint(p, main, meta)
        blob = p.read_bytes()
        # drop the final tensor record (meta.b2: 2 + len(name) + 4 + 4 + 8 bytes)
        name = b"meta.b2"
        cut = blob.rindex(name) - 2
        p.write_bytes(blob[:cut])
        with pytest.raises(model.CheckpointFormatError, match="missing"):
            model.load_checkpoint(p)

    def test_non_finite_tensor_rejected(self, tmp_path):
        """A NaN true score would rank first and inflate recall, so a
        non-finite parameter is a format error, named by its tensor."""
        main, meta = tiny_nets(6)
        p = tmp_path / "x.mscp"
        for bad in (np.nan, np.inf, -np.inf):
            model.save_checkpoint(p, main, meta.with_arrays(
                meta.arrays()[:-1] + [np.array([bad])]))
            with pytest.raises(model.CheckpointFormatError,
                               match="non-finite value in tensor meta.b2"):
                model.load_checkpoint(p)

    def test_failed_save_leaves_previous_checkpoint_intact(self, tmp_path, monkeypatch):
        """A write that dies partway (here: the disk fills up) must not tear
        the checkpoint it was replacing, nor leave its temporary file."""
        main, meta = tiny_nets(6)
        path = tmp_path / "net1_best.mscp"
        model.save_checkpoint(path, main, meta)
        before = path.read_bytes()
        newer = tiny_nets(7)
        fail_writes_halfway(monkeypatch, path.name)
        with pytest.raises(OSError, match="No space"):
            model.save_checkpoint(path, *newer)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net1_best.mscp"]
