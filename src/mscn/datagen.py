"""Synthetic bimodal retrieval data with controllable correspondence noise.

Each cluster gets an independent random centroid per modality (a unit
direction scaled to 10x the within-cluster noise), and each pair draws
Gaussian noise around its cluster's centroids.  Correspondence noise is
injected only into the train split by reassigning the texts of a selected
subset so that every corrupted record carries a text from a different
cluster: selected records are arranged into cluster blocks (shuffled
within each block) and the text assignment is rotated by the largest
block size, which provably never maps a record back into its own block
when the rotation is at most half the selection size.

Binary layout (little-endian): magic "MSCD", u32 version, u32 counts of
the four splits, u32 d_img, u32 d_txt, then the records of train, meta,
val, test in order (u64 id, u64 original_partner, u8 clean flag, f64
image vector, f64 text vector), then a u32-length-prefixed JSON manifest.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .fileio import write_atomic

DATASET_MAGIC = b"MSCD"
DATASET_VERSION = 1

SPLIT_NAMES = ("train", "meta", "val", "test")


class DatasetFormatError(ValueError):
    """Dataset bytes are malformed, truncated, or inconsistent."""


class NoiseInjectionError(ValueError):
    """The requested corruption cannot guarantee cross-cluster mismatch."""


@dataclass
class GenConfig:
    seed: int = 20240601
    n_clusters: int = 10
    pairs_per_cluster: int = 100
    d_img: int = 16
    d_txt: int = 12
    within_cluster_std: float = 0.1
    test_fraction: float = 0.1
    val_fraction: float = 0.1
    meta_fraction: float = 0.02  # of the train split, approximately

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_clusters < 2:
            raise ValueError("need at least 2 clusters for cross-cluster noise")
        if self.pairs_per_cluster < 1:
            raise ValueError("pairs_per_cluster must be positive")
        if self.d_img < 1 or self.d_txt < 1:
            raise ValueError("modality dimensions must be positive")
        if not self.within_cluster_std > 0:
            raise ValueError("within_cluster_std must be positive")
        for name in ("test_fraction", "val_fraction", "meta_fraction"):
            f = getattr(self, name)
            if not 0.0 <= f < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {f}")
        if self.test_fraction + self.val_fraction >= 0.9:
            raise ValueError("test and validation fractions leave no train data")


@dataclass
class NoiseConfig:
    ratio: float = 0.0  # fraction of train pairs to corrupt
    seed: int = 1

    def validate(self):
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError(f"noise ratio must lie in [0, 1), got {self.ratio}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Split:
    ids: np.ndarray               # (n,) int64, global pair ids
    images: np.ndarray            # (n, d_img) float64
    texts: np.ndarray             # (n, d_txt) float64
    original_partner: np.ndarray  # (n,) int64: id the text truly belongs to
    clean: np.ndarray             # (n,) bool
    cluster: np.ndarray           # (n,) int64, image-side cluster

    def __len__(self):
        return self.ids.size


@dataclass
class Dataset:
    train: Split
    meta: Split
    val: Split
    test: Split
    manifest: dict = field(default_factory=dict)

    def splits(self):
        return [(name, getattr(self, name)) for name in SPLIT_NAMES]

    @property
    def d_img(self) -> int:
        return self.train.images.shape[1]

    @property
    def d_txt(self) -> int:
        return self.train.texts.shape[1]


def split_sizes(total: int, cfg: GenConfig) -> dict[str, int]:
    """Deterministic split arithmetic: test/val from the total, then the
    meta split carved out of what remains so that it is ~meta_fraction of
    the final train split (floor of 2)."""
    n_test = int(round(cfg.test_fraction * total))
    n_val = int(round(cfg.val_fraction * total))
    remaining = total - n_test - n_val
    f = cfg.meta_fraction
    n_meta = max(2, int(round(remaining * f / (1.0 + f)))) if f > 0 else 2
    n_train = remaining - n_meta
    if n_train < 2:
        raise ValueError(f"split arithmetic leaves {n_train} train pairs")
    return {"train": n_train, "meta": n_meta, "val": n_val, "test": n_test}


def _unit_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    vec = rng.normal(size=(n, d))
    norms = np.linalg.norm(vec, axis=1, keepdims=True)
    while np.any(norms < 1e-9):  # astronomically unlikely; redraw to be total
        vec = rng.normal(size=(n, d))
        norms = np.linalg.norm(vec, axis=1, keepdims=True)
    return vec / norms


def generate(cfg: GenConfig) -> Dataset:
    """Clean dataset: every record's text is its own (clean flags all set)."""
    cfg.validate()
    total = cfg.n_clusters * cfg.pairs_per_cluster
    sizes = split_sizes(total, cfg)

    root = np.random.SeedSequence([int(cfg.seed)])
    s_img_c, s_txt_c, s_img_n, s_txt_n, s_perm = root.spawn(5)
    scale = 10.0 * cfg.within_cluster_std
    centroids_img = scale * _unit_directions(
        np.random.Generator(np.random.PCG64(s_img_c)), cfg.n_clusters, cfg.d_img)
    centroids_txt = scale * _unit_directions(
        np.random.Generator(np.random.PCG64(s_txt_c)), cfg.n_clusters, cfg.d_txt)

    cluster_by_id = np.arange(total, dtype=np.int64) // cfg.pairs_per_cluster
    rng_img = np.random.Generator(np.random.PCG64(s_img_n))
    rng_txt = np.random.Generator(np.random.PCG64(s_txt_n))
    images = centroids_img[cluster_by_id] + cfg.within_cluster_std * rng_img.normal(
        size=(total, cfg.d_img))
    texts = centroids_txt[cluster_by_id] + cfg.within_cluster_std * rng_txt.normal(
        size=(total, cfg.d_txt))

    perm = np.random.Generator(np.random.PCG64(s_perm)).permutation(total)
    bounds = np.cumsum([0, sizes["test"], sizes["val"], sizes["meta"], sizes["train"]])
    chosen = {
        "test": perm[bounds[0]:bounds[1]],
        "val": perm[bounds[1]:bounds[2]],
        "meta": perm[bounds[2]:bounds[3]],
        "train": perm[bounds[3]:bounds[4]],
    }

    def make_split(idx: np.ndarray) -> Split:
        idx = np.sort(idx).astype(np.int64)
        return Split(
            ids=idx.copy(),
            images=images[idx].copy(),
            texts=texts[idx].copy(),
            original_partner=idx.copy(),
            clean=np.ones(idx.size, dtype=bool),
            cluster=cluster_by_id[idx].copy(),
        )

    manifest = {
        "format": "mscd",
        "version": DATASET_VERSION,
        "seed": int(cfg.seed),
        "n_clusters": cfg.n_clusters,
        "pairs_per_cluster": cfg.pairs_per_cluster,
        "d_img": cfg.d_img,
        "d_txt": cfg.d_txt,
        "within_cluster_std": cfg.within_cluster_std,
        "fractions": {"test": cfg.test_fraction, "val": cfg.val_fraction,
                      "meta": cfg.meta_fraction},
        "sizes": sizes,
        "cluster_by_id": cluster_by_id.tolist(),
        "noise": {"ratio": 0.0, "seed": None, "n_corrupted": 0,
                  "protocol": "cluster-block-rotation"},
    }
    return Dataset(train=make_split(chosen["train"]), meta=make_split(chosen["meta"]),
                   val=make_split(chosen["val"]), test=make_split(chosen["test"]),
                   manifest=manifest)


def inject_noise(ds: Dataset, ratio: float, noise_seed: int) -> Dataset:
    """Corrupt floor(ratio * n_train) train records with cross-cluster texts.

    Pure: returns a new Dataset; the input is untouched.  ratio=0 returns
    an identical copy.  Raises NoiseInjectionError when one cluster holds
    more than half of the selected records (rotation cannot then avoid
    same-cluster reassignment)."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1), got {ratio}")
    train = ds.train
    n = len(train)
    k = int(np.floor(ratio * n))
    out = Dataset(
        train=Split(train.ids.copy(), train.images.copy(), train.texts.copy(),
                    train.original_partner.copy(), train.clean.copy(),
                    train.cluster.copy()),
        meta=ds.meta, val=ds.val, test=ds.test,
        manifest=json.loads(json.dumps(ds.manifest)),
    )
    out.manifest["noise"] = {"ratio": ratio, "seed": int(noise_seed),
                             "n_corrupted": k,
                             "protocol": "cluster-block-rotation"}
    if k == 0:
        return out
    if k < 2:
        raise NoiseInjectionError(
            f"ratio {ratio} selects {k} record(s); need at least 2 to derange")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(noise_seed)])))
    selected = np.sort(rng.choice(n, size=k, replace=False))
    # arrange into cluster blocks, shuffled within each block
    order = []
    sizes = []
    for c in np.unique(train.cluster[selected]):
        block = selected[train.cluster[selected] == c]
        sizes.append(block.size)
        order.append(rng.permutation(block))
    biggest = max(sizes)
    if 2 * biggest > k:
        raise NoiseInjectionError(
            f"cluster block of {biggest} among {k} selected records; "
            "rotation cannot guarantee cross-cluster texts")
    arranged = np.concatenate(order)
    source = np.roll(arranged, -biggest)  # record at t takes the text of t+K
    out.train.texts[arranged] = train.texts[source]
    out.train.original_partner[arranged] = train.ids[source]
    out.train.clean[arranged] = False
    return out


# ---------------------------------------------------------------------------
# binary serialization


def _record_dtype(d_img: int, d_txt: int) -> np.dtype:
    """One packed record: u64 id, u64 original partner, u8 clean flag, then
    the image and text vectors as little-endian f64."""
    return np.dtype([("id", "<u8"), ("partner", "<u8"), ("clean", "u1"),
                     ("image", "<f8", (d_img,)), ("text", "<f8", (d_txt,))])


def write_dataset(path, ds: Dataset) -> None:
    blob = bytearray()
    blob += DATASET_MAGIC
    blob += struct.pack("<I", DATASET_VERSION)
    blob += struct.pack("<4I", *(len(split) for _, split in ds.splits()))
    blob += struct.pack("<2I", ds.d_img, ds.d_txt)
    dtype = _record_dtype(ds.d_img, ds.d_txt)
    for _, split in ds.splits():
        records = np.empty(len(split), dtype=dtype)
        records["id"] = split.ids
        records["partner"] = split.original_partner
        records["clean"] = split.clean
        records["image"] = split.images
        records["text"] = split.texts
        blob += records.tobytes()
    manifest = json.dumps(ds.manifest, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    blob += struct.pack("<I", len(manifest))
    blob += manifest
    write_atomic(path, blob)


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DATASET_MAGIC:
        raise DatasetFormatError(f"bad magic: {blob[:4]!r}")
    if len(blob) < 8:
        raise DatasetFormatError("truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"unsupported version: {version}")
    pos = 8

    def take(count: int) -> bytes:
        nonlocal pos
        if pos + count > len(blob):
            raise DatasetFormatError(f"truncated at byte {pos}: needed {count} more")
        chunk = blob[pos:pos + count]
        pos += count
        return chunk

    counts = struct.unpack("<4I", take(16))
    d_img, d_txt = struct.unpack("<2I", take(8))
    if d_img < 1 or d_txt < 1 or d_img > 1_000_000 or d_txt > 1_000_000:
        raise DatasetFormatError(f"implausible dimensions ({d_img}, {d_txt})")
    dtype = _record_dtype(d_img, d_txt)
    records = []
    for count in counts:
        # take() checks the byte count, so a huge claimed count allocates nothing
        rec = np.frombuffer(take(count * dtype.itemsize), dtype=dtype)
        bad = np.flatnonzero(rec["clean"] > 1)
        if bad.size:
            first = rec[bad[0]]
            raise DatasetFormatError(
                f"bad clean flag {first['clean']} in record {first['id']}")
        bad = np.flatnonzero(~(np.isfinite(rec["image"]).all(axis=1)
                               & np.isfinite(rec["text"]).all(axis=1)))
        if bad.size:
            raise DatasetFormatError("non-finite image or text value in record "
                                     f"{rec['id'][bad[0]]}")
        records.append(rec)
    (manifest_len,) = struct.unpack("<I", take(4))
    try:
        manifest = json.loads(take(manifest_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"bad manifest: {exc}") from None
    if pos != len(blob):
        raise DatasetFormatError(f"{len(blob) - pos} trailing bytes after manifest")

    if not isinstance(manifest, dict):
        raise DatasetFormatError("manifest must be a JSON object")
    sizes = manifest.get("sizes")
    if not isinstance(sizes, dict) or [sizes.get(n) for n in SPLIT_NAMES] != list(counts):
        raise DatasetFormatError("manifest sizes disagree with record counts")
    cluster_by_id = manifest.get("cluster_by_id")
    total = sum(counts)
    if not isinstance(cluster_by_id, list) or len(cluster_by_id) != total:
        raise DatasetFormatError("manifest cluster_by_id has the wrong length")
    if not all(type(c) is int and -2**63 <= c < 2**63 for c in cluster_by_id):
        raise DatasetFormatError("manifest cluster_by_id holds a non-integer entry")
    cluster_by_id = np.asarray(cluster_by_id, dtype=np.int64)

    def build(rec) -> Split:
        # range checks run on the stored u64 values, so an id >= 2**63
        # is rejected here rather than wrapping in the int64 copy
        if rec.size and rec["id"].max() >= total:
            raise DatasetFormatError("record id outside the dataset range")
        if rec.size and rec["partner"].max() >= total:
            raise DatasetFormatError("partner id outside the dataset range")
        ids = rec["id"].astype(np.int64)
        return Split(ids=ids,
                     images=np.array(rec["image"], dtype=np.float64, order="C"),
                     texts=np.array(rec["text"], dtype=np.float64, order="C"),
                     original_partner=rec["partner"].astype(np.int64),
                     clean=rec["clean"].astype(bool),
                     cluster=cluster_by_id[ids])

    train, meta, val, test = (build(r) for r in records)
    return Dataset(train=train, meta=meta, val=val, test=test, manifest=manifest)
