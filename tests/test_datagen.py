"""Synthetic data checks: split arithmetic, determinism, cluster
separability, the cross-cluster noise guarantee, and the binary format
round trip with corruption rejection."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from mscn import datagen as dg


def small_cfg(seed=11, **kw) -> dg.GenConfig:
    base = dict(seed=seed, n_clusters=4, pairs_per_cluster=30,
                d_img=8, d_txt=6, within_cluster_std=0.1)
    base.update(kw)
    return dg.GenConfig(**base)


class TestSplitSizes:
    def test_frozen_default_arithmetic(self):
        """10 clusters x 100 pairs -> 784 train / 16 meta / 100 val / 100 test."""
        sizes = dg.split_sizes(1000, dg.GenConfig())
        assert sizes == {"train": 784, "meta": 16, "val": 100, "test": 100}

    def test_meta_floor(self):
        sizes = dg.split_sizes(120, small_cfg())
        assert sizes["meta"] == 2
        assert sum(sizes.values()) == 120

    def test_splits_always_partition_total(self):
        for total in (60, 137, 1000, 5000):
            sizes = dg.split_sizes(total, dg.GenConfig())
            assert sum(sizes.values()) == total


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = dg.generate(small_cfg(3))
        b = dg.generate(small_cfg(3))
        for (_, sa), (_, sb) in zip(a.splits(), b.splits()):
            np.testing.assert_array_equal(sa.images, sb.images)
            np.testing.assert_array_equal(sa.texts, sb.texts)
            np.testing.assert_array_equal(sa.ids, sb.ids)
        assert a.manifest == b.manifest

    def test_different_seed_differs(self):
        a = dg.generate(small_cfg(3))
        b = dg.generate(small_cfg(4))
        assert not np.array_equal(a.train.images, b.train.images)

    def test_splits_disjoint_and_cover(self):
        ds = dg.generate(small_cfg(5))
        all_ids = np.concatenate([s.ids for _, s in ds.splits()])
        assert all_ids.size == 4 * 30
        assert np.unique(all_ids).size == all_ids.size
        np.testing.assert_array_equal(np.sort(all_ids), np.arange(120))

    def test_everything_clean_and_self_partnered(self):
        ds = dg.generate(small_cfg(6))
        for _, split in ds.splits():
            assert np.all(split.clean)
            np.testing.assert_array_equal(split.original_partner, split.ids)

    def test_clusters_separable_in_both_modalities(self):
        """Nearest empirical centroid recovers the cluster for >= 99%."""
        ds = dg.generate(dg.GenConfig(seed=7))
        for arrays in ("images", "texts"):
            x = np.concatenate([getattr(s, arrays) for _, s in ds.splits()])
            c = np.concatenate([s.cluster for _, s in ds.splits()])
            centroids = np.stack([x[c == k].mean(axis=0) for k in range(10)])
            d = np.linalg.norm(x[:, None, :] - centroids[None], axis=-1)
            acc = np.mean(np.argmin(d, axis=1) == c)
            assert acc >= 0.99, (arrays, acc)

    def test_modalities_independent(self):
        """Image and text centroids come from independent draws."""
        ds = dg.generate(small_cfg(8, d_img=6, d_txt=6))
        img = ds.train.images[ds.train.cluster == 0].mean(axis=0)
        txt = ds.train.texts[ds.train.cluster == 0].mean(axis=0)
        cos = img @ txt / (np.linalg.norm(img) * np.linalg.norm(txt))
        assert abs(cos) < 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError, match="clusters"):
            dg.generate(small_cfg(n_clusters=1))
        with pytest.raises(ValueError, match="std"):
            dg.generate(small_cfg(within_cluster_std=0.0))
        with pytest.raises(ValueError, match="fraction"):
            dg.generate(small_cfg(test_fraction=1.2))


class TestInjectNoise:
    def test_zero_ratio_identity(self):
        ds = dg.generate(small_cfg(9))
        out = dg.inject_noise(ds, 0.0, noise_seed=1)
        np.testing.assert_array_equal(out.train.texts, ds.train.texts)
        assert np.all(out.train.clean)
        assert out.manifest["noise"]["n_corrupted"] == 0

    def test_exact_corruption_count_and_cross_cluster(self):
        ds = dg.generate(dg.GenConfig(seed=10))
        for ratio in (0.2, 0.5):
            out = dg.inject_noise(ds, ratio, noise_seed=77)
            n = len(ds.train)
            k = int(np.floor(ratio * n))
            corrupted = ~out.train.clean
            assert corrupted.sum() == k
            assert out.manifest["noise"]["n_corrupted"] == k
            # a corrupted record's text originates from a different cluster
            cluster_by_id = np.asarray(out.manifest["cluster_by_id"])
            src_cluster = cluster_by_id[out.train.original_partner[corrupted]]
            own_cluster = out.train.cluster[corrupted]
            assert np.all(src_cluster != own_cluster)
            assert np.all(out.train.original_partner[corrupted]
                          != out.train.ids[corrupted])

    def test_untouched_records_and_other_splits(self):
        ds = dg.generate(dg.GenConfig(seed=10))
        out = dg.inject_noise(ds, 0.5, noise_seed=77)
        keep = out.train.clean
        np.testing.assert_array_equal(out.train.texts[keep], ds.train.texts[keep])
        np.testing.assert_array_equal(out.train.images, ds.train.images)
        for name in ("meta", "val", "test"):
            np.testing.assert_array_equal(getattr(out, name).texts,
                                          getattr(ds, name).texts)

    def test_injection_is_pure_and_text_conserving(self):
        ds = dg.generate(small_cfg(12))
        before = ds.train.texts.copy()
        out = dg.inject_noise(ds, 0.4, noise_seed=5)
        np.testing.assert_array_equal(ds.train.texts, before)
        assert np.all(ds.train.clean)
        # the corrupted texts are a permutation, nothing invented or lost
        np.testing.assert_array_equal(
            np.sort(out.train.texts.view("f8").reshape(len(ds.train), -1), axis=0),
            np.sort(before.view("f8").reshape(len(ds.train), -1), axis=0))

    def test_same_generation_different_ratio(self):
        """Noise only reassigns train texts; everything else is identical."""
        ds = dg.generate(small_cfg(13))
        a = dg.inject_noise(ds, 0.0, noise_seed=3)
        b = dg.inject_noise(ds, 0.5, noise_seed=3)
        np.testing.assert_array_equal(a.train.images, b.train.images)
        np.testing.assert_array_equal(a.test.texts, b.test.texts)
        np.testing.assert_array_equal(a.meta.texts, b.meta.texts)
        assert not np.array_equal(a.train.texts, b.train.texts)

    def test_deterministic_and_seed_sensitive(self):
        ds = dg.generate(small_cfg(14))
        a = dg.inject_noise(ds, 0.5, noise_seed=8)
        b = dg.inject_noise(ds, 0.5, noise_seed=8)
        c = dg.inject_noise(ds, 0.5, noise_seed=9)
        np.testing.assert_array_equal(a.train.texts, b.train.texts)
        assert not np.array_equal(a.train.texts, c.train.texts)

    def test_too_few_selected(self):
        ds = dg.generate(small_cfg(15))
        with pytest.raises(dg.NoiseInjectionError, match="at least 2"):
            dg.inject_noise(ds, 1.0 / len(ds.train), noise_seed=1)

    def test_dominant_cluster_rejected(self):
        ds = dg.generate(small_cfg(16))
        ds.train.cluster[:] = 0  # pretend one cluster dominates the train split
        with pytest.raises(dg.NoiseInjectionError, match="cross-cluster"):
            dg.inject_noise(ds, 0.5, noise_seed=1)

    def test_ratio_validation(self):
        ds = dg.generate(small_cfg(17))
        with pytest.raises(ValueError, match="ratio"):
            dg.inject_noise(ds, 1.0, noise_seed=1)
        with pytest.raises(ValueError, match="ratio"):
            dg.inject_noise(ds, -0.1, noise_seed=1)


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = dg.inject_noise(dg.generate(small_cfg(18)), 0.3, noise_seed=2)
        p = tmp_path / "data.mscd"
        dg.write_dataset(p, ds)
        back = dg.read_dataset(p)
        for (_, sa), (_, sb) in zip(ds.splits(), back.splits()):
            np.testing.assert_array_equal(sa.ids, sb.ids)
            np.testing.assert_array_equal(sa.images, sb.images)
            np.testing.assert_array_equal(sa.texts, sb.texts)
            np.testing.assert_array_equal(sa.original_partner, sb.original_partner)
            np.testing.assert_array_equal(sa.clean, sb.clean)
            np.testing.assert_array_equal(sa.cluster, sb.cluster)
        assert back.manifest == ds.manifest
        p2 = tmp_path / "again.mscd"
        dg.write_dataset(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.mscd"
        p.write_bytes(b"WRNG" + bytes(40))
        with pytest.raises(dg.DatasetFormatError, match="magic"):
            dg.read_dataset(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "x.mscd"
        p.write_bytes(b"MSCD" + (9).to_bytes(4, "little") + bytes(24))
        with pytest.raises(dg.DatasetFormatError, match="version"):
            dg.read_dataset(p)

    def test_truncations(self, tmp_path):
        ds = dg.generate(small_cfg(19))
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        blob = p.read_bytes()
        for cut in (10, 40, len(blob) // 2, len(blob) - 5):
            p.write_bytes(blob[:cut])
            with pytest.raises(dg.DatasetFormatError):
                dg.read_dataset(p)

    def test_trailing_garbage(self, tmp_path):
        ds = dg.generate(small_cfg(19))
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        p.write_bytes(p.read_bytes() + b"xxxx")
        with pytest.raises(dg.DatasetFormatError, match="trailing"):
            dg.read_dataset(p)

    def test_bad_clean_flag(self, tmp_path):
        ds = dg.generate(small_cfg(19))
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        blob = bytearray(p.read_bytes())
        blob[32 + 16] = 7  # first record's clean byte
        p.write_bytes(bytes(blob))
        with pytest.raises(dg.DatasetFormatError, match="clean flag"):
            dg.read_dataset(p)

    def test_manifest_size_mismatch(self, tmp_path):
        ds = dg.generate(small_cfg(19))
        ds.manifest["sizes"]["train"] += 1
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        with pytest.raises(dg.DatasetFormatError, match="sizes"):
            dg.read_dataset(p)

    def test_manifest_must_be_an_object(self, tmp_path):
        ds = dg.generate(small_cfg(19))
        ds.manifest = [1, 2]
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        with pytest.raises(dg.DatasetFormatError, match="JSON object"):
            dg.read_dataset(p)

    def test_non_integer_cluster_entry(self, tmp_path):
        for entry in ("x", 1.5, None, True, 2**63):
            ds = dg.generate(small_cfg(19))
            ds.manifest["cluster_by_id"][3] = entry
            p = tmp_path / "x.mscd"
            dg.write_dataset(p, ds)
            with pytest.raises(dg.DatasetFormatError, match="non-integer"):
                dg.read_dataset(p)

    def test_huge_record_count_rejected_before_allocating(self, tmp_path):
        """A header claiming 2**32 - 1 train records is a truncation, found
        from the byte count before any array of that size exists."""
        ds = dg.generate(small_cfg(19))
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        blob = bytearray(p.read_bytes())
        blob[8:12] = (2**32 - 1).to_bytes(4, "little")  # train count
        p.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(dg.DatasetFormatError, match="truncated"):
                dg.read_dataset(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * len(blob)

    def test_record_id_beyond_int64_rejected(self, tmp_path):
        ds = dg.generate(small_cfg(19))
        p = tmp_path / "x.mscd"
        dg.write_dataset(p, ds)
        blob = bytearray(p.read_bytes())
        blob[32:40] = (2**63).to_bytes(8, "little")  # first record's id
        p.write_bytes(bytes(blob))
        with pytest.raises(dg.DatasetFormatError, match="record id"):
            dg.read_dataset(p)

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "x.mscd"
        for split, field, bad in (("test", "images", np.nan),
                                  ("train", "texts", np.inf),
                                  ("meta", "images", -np.inf)):
            ds = dg.generate(small_cfg(19))
            records = getattr(ds, split)
            getattr(records, field)[0, 1] = bad
            dg.write_dataset(p, ds)
            with pytest.raises(dg.DatasetFormatError,
                               match=f"non-finite image or text value in "
                                     f"record {records.ids[0]}$"):
                dg.read_dataset(p)

    def test_read_arrays_are_contiguous_and_typed(self, tmp_path):
        ds = dg.inject_noise(dg.generate(small_cfg(18)), 0.3, noise_seed=2)
        p = tmp_path / "data.mscd"
        dg.write_dataset(p, ds)
        for _, split in dg.read_dataset(p).splits():
            for name, dtype in (("ids", np.int64), ("images", np.float64),
                                ("texts", np.float64),
                                ("original_partner", np.int64),
                                ("clean", np.bool_), ("cluster", np.int64)):
                arr = getattr(split, name)
                assert arr.dtype == dtype, name
                assert arr.flags.c_contiguous and arr.flags.writeable, name

