"""Network definitions and checkpoint serialization.

Two parameter bundles live here: the main networks (an image branch and a
text branch, each a two-layer MLP into a shared embedding space, plus a
projection used by the similarity feature) and the correction network (a
small MLP that maps a similarity feature to a match score in (0, 1)).

Row-vector convention throughout: inputs are (batch, features) and weights
are (fan_in, fan_out), applied as x @ W + b.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff
from .autodiff import (
    ShapeMismatchError,
    Tape,
    Tensor,
    _active_tape,
    _gemm,
    _lift,
    add,
    div,
    l2norm,
    matmul,
    relu,
    reshape,
    sigmoid,
    square,
    sub,
    transpose,
)
from .fileio import write_atomic

# Below this, the similarity feature's direction is numerically meaningless.
NORM_EPSILON = 1e-12


class DegenerateSimilarityError(ValueError):
    """Similarity feature norm fell below the representable threshold."""


class CheckpointFormatError(ValueError):
    """Checkpoint bytes are malformed, truncated, or incomplete."""


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _Params:
    """A parameter bundle: a dataclass whose FIELDS name its tensors, in
    checkpoint order."""

    FIELDS = ()

    def items(self):
        return [(f, getattr(self, f)) for f in self.FIELDS]

    def arrays(self) -> list[np.ndarray]:
        return [_as_array(getattr(self, f)) for f in self.FIELDS]

    def with_arrays(self, arrays):
        return replace(self, **dict(zip(self.FIELDS, arrays)))

    def lift(self, tape: Tape):
        """Copy with every field registered as a leaf of `tape`.  A bundle
        that is not lifted holds plain arrays, which every op takes as
        constants."""
        return replace(self, **{f: tape.leaf(getattr(self, f))
                                for f in self.FIELDS})


@dataclass
class MainNetParams(_Params):
    """Image branch, text branch, and the similarity projection."""

    img_w1: object
    img_b1: object
    img_w2: object
    img_b2: object
    txt_w1: object
    txt_b1: object
    txt_w2: object
    txt_b2: object
    sim_w: object

    FIELDS = ("img_w1", "img_b1", "img_w2", "img_b2",
              "txt_w1", "txt_b1", "txt_w2", "txt_b2", "sim_w")

    @classmethod
    def init(cls, d_img: int, d_txt: int, d_emb: int, d_sim: int,
             rng: np.random.Generator, hidden: Optional[int] = None) -> "MainNetParams":
        if not d_sim < d_emb:
            raise ValueError(
                f"similarity dimension must be below embedding dimension, "
                f"got d_sim={d_sim}, d_emb={d_emb}")
        h = d_emb if hidden is None else hidden
        return cls(
            img_w1=_uniform_init(rng, d_img, (d_img, h)),
            img_b1=_uniform_init(rng, d_img, (h,)),
            img_w2=_uniform_init(rng, h, (h, d_emb)),
            img_b2=_uniform_init(rng, h, (d_emb,)),
            txt_w1=_uniform_init(rng, d_txt, (d_txt, h)),
            txt_b1=_uniform_init(rng, d_txt, (h,)),
            txt_w2=_uniform_init(rng, h, (h, d_emb)),
            txt_b2=_uniform_init(rng, h, (d_emb,)),
            sim_w=_uniform_init(rng, d_emb, (d_emb, d_sim)),
        )

    @property
    def d_img(self) -> int:
        return self.img_w1.shape[0]

    @property
    def d_txt(self) -> int:
        return self.txt_w1.shape[0]


@dataclass
class MetaNetParams(_Params):
    """Correction network: similarity feature -> match score."""

    w1: object
    b1: object
    w2: object
    b2: object

    FIELDS = ("w1", "b1", "w2", "b2")

    @classmethod
    def init(cls, d_sim: int, rng: np.random.Generator, hidden: int = 32) -> "MetaNetParams":
        return cls(
            w1=_uniform_init(rng, d_sim, (d_sim, hidden)),
            b1=_uniform_init(rng, d_sim, (hidden,)),
            w2=_uniform_init(rng, hidden, (hidden, 1)),
            b2=_uniform_init(rng, hidden, (1,)),
        )

    @property
    def d_sim(self) -> int:
        return self.w1.shape[0]


def _as_array(x) -> np.ndarray:
    return np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)


def _check_input(x: Tensor, d: int, op: str):
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeMismatchError(op, x.shape, (-1, d))


def _mlp(x, w1, b1, w2, b2) -> Tensor:
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)


def embed_image(images, params: MainNetParams) -> Tensor:
    """(k, d_img) -> (k, d_emb)."""
    x = _lift(images)
    _check_input(x, params.d_img, "embed_image")
    return _mlp(x, params.img_w1, params.img_b1, params.img_w2, params.img_b2)


def embed_text(texts, params: MainNetParams) -> Tensor:
    """(k, d_txt) -> (k, d_emb)."""
    x = _lift(texts)
    _check_input(x, params.d_txt, "embed_text")
    return _mlp(x, params.txt_w1, params.txt_b1, params.txt_w2, params.txt_b2)


def similarity_feature(u, v, sim_w) -> Tensor:
    """Unit-normalized projection of the squared embedding difference.

    u, v: (k, d_emb), same shape.  Raises DegenerateSimilarityError when
    the projection norm is not representable (norm <= 1e-12), which
    happens iff u ~ v to machine precision or the projection annihilates
    the difference.
    """
    u, v = _lift(u), _lift(v)
    if u.ndim != 2 or u.shape != v.shape:
        raise ShapeMismatchError("similarity_feature", u.shape, v.shape)
    unit, _ = _unit_feature(sub(u, v), sim_w)
    return unit


def _unit_feature(diff: Tensor, sim_w,
                  degenerate: str = "error") -> tuple[Tensor, np.ndarray]:
    """The similarity feature of embedding differences `diff` (k, d_emb),
    and the mask of its degenerate rows; see `_unit_rows`."""
    return _unit_rows(matmul(square(diff), sim_w), degenerate)


def _unit_rows(x: Tensor, degenerate: str = "error",
               neutral: str = "half") -> tuple[Tensor, np.ndarray]:
    """Each row of `x` scaled to unit norm, and the mask of rows whose norm
    is not representable (<= NORM_EPSILON).

    degenerate="error" raises on any such row (the training contract);
    degenerate=`neutral`, the calling scorer's evaluation mode ("half" or
    "zero"), divides those rows by 1 instead, for the caller to score
    neutrally (evaluation only, never under an active record)."""
    norms = l2norm(x)
    mask = norms.data <= NORM_EPSILON
    if degenerate == "error":
        if mask.any():
            raise DegenerateSimilarityError(
                f"{int(np.sum(mask))} row(s) with norm <= {NORM_EPSILON:g}")
        safe = norms
    elif degenerate == neutral:
        if _active_tape() is not None:
            raise RuntimeError(f"degenerate={degenerate!r} is an evaluation "
                               "mode; it cannot run under an active record")
        safe = Tensor(np.where(mask, 1.0, norms.data))
    else:
        raise ValueError(f"unknown degenerate policy: {degenerate!r}")
    return div(x, reshape(safe, (x.shape[0], 1))), mask


def mscn_score(features, params: MetaNetParams) -> Tensor:
    """Correction-network match score; (k, d_sim) -> (k,)."""
    f = _lift(features)
    _check_input(f, params.d_sim, "mscn_score")
    logits = _mlp(f, params.w1, params.b1, params.w2, params.b2)
    return sigmoid(reshape(logits, (f.shape[0],)))


def pair_score(image, text, main: MainNetParams, meta: MetaNetParams) -> Tensor:
    """Scores of aligned image/text pairs under one network pair:
    (k, d_img) x (k, d_txt) -> (k,)."""
    u = embed_image(image, main)
    v = embed_text(text, main)
    return mscn_score(similarity_feature(u, v, main.sim_w), meta)


def all_pairs_scores(images, texts, main: MainNetParams, meta: MetaNetParams,
                     degenerate: str = "error") -> tuple[Tensor, int]:
    """Score matrix of every image against every text: (n_img, n_txt).

    The differentiable form of `block_scores`, recorded op by op.
    degenerate="error" raises on unrepresentable similarity norms (the
    training contract); degenerate="half" scores those cells 0.5 and
    reports the count (evaluation only, never under an active record).
    See `_unit_rows`.
    """
    u, v = embed_image(images, main), embed_text(texts, main)
    ni, nt, d = u.shape[0], v.shape[0], u.shape[1]
    diff = sub(reshape(u, (ni, 1, d)), reshape(v, (1, nt, d)))
    unit, mask = _unit_feature(reshape(diff, (ni * nt, d)), main.sim_w,
                               degenerate)
    scores = reshape(mscn_score(unit, meta), (ni, nt))
    n_bad = int(mask.sum())
    if n_bad:
        scores = Tensor(np.where(mask.reshape(ni, nt), 0.5, scores.data))
    return scores, n_bad


def block_feature(u, v, sim_w,
                  degenerate: str = "error") -> tuple[np.ndarray, np.ndarray]:
    """Off the record, the similarity feature of every row of `u` against
    every row of `v` as (n_u * n_v, d_sim) unit rows, and the (n_u, n_v)
    mask of degenerate cells.  It runs the ops of `all_pairs_scores` in
    their order and gemm shapes, so every cell keeps their bits.  Under
    degenerate="error" a non-finite norm raises ValueError too; "half"
    leaves degenerate rows for `block_scores` to score 0.5."""
    u, v = _as_array(u), _as_array(v)
    x = np.subtract(u[:, None], v[None]).reshape(-1, u.shape[1])
    np.multiply(x, x, out=x)
    x = _gemm(x, _as_array(sim_w))
    norms = np.sqrt((x * x).sum(axis=-1))
    mask = norms <= NORM_EPSILON
    if degenerate == "error":
        if mask.any():
            raise DegenerateSimilarityError(
                f"{int(np.sum(mask))} row(s) with norm <= {NORM_EPSILON:g}")
        if not np.isfinite(norms).all():
            raise ValueError("block_feature: non-finite similarity norm")
    elif degenerate == "half":
        norms[mask] = 1.0
    else:
        raise ValueError(f"unknown degenerate policy: {degenerate!r}")
    x /= norms[:, None]
    return x, mask.reshape(len(u), len(v))


def block_scores(feature: tuple[np.ndarray, np.ndarray],
                 meta: MetaNetParams) -> tuple[np.ndarray, int]:
    """Off the record, the correction network's (n_u, n_v) scores of a
    `block_feature`, degenerate cells 0.5, and their count: bit for bit
    those of `all_pairs_scores`."""
    unit, mask = feature
    w1, b1, w2, b2 = meta.arrays()
    h = _gemm(unit, w1)
    h += b1
    np.maximum(h, 0.0, out=h)
    scores = _gemm(h, w2).reshape(mask.shape)
    scores += b2
    autodiff._expit(scores, out=scores)  # the name rebinds on first use
    scores[mask] = 0.5
    return scores, int(mask.sum())


def cosine_scores(images, texts, main: MainNetParams,
                  degenerate: str = "error") -> tuple[Tensor, int]:
    """Cosine similarity of every image embedding against every text
    embedding: (n_img, n_txt) in [-1, 1].

    Used by the fixed-margin ablation, which has no correction network.
    Embeds both sides, then scores them in one `block_cosine` call; see
    there for the degenerate policies."""
    return block_cosine(embed_image(images, main), embed_text(texts, main),
                        degenerate)


def block_cosine(u, v, degenerate: str = "error") -> tuple[Tensor, int]:
    """Cosine similarity of every row of `u` against every row of `v`:
    (n_u, d_emb) x (n_v, d_emb) -> (n_u, n_v).

    degenerate="error" raises on an unrepresentable embedding norm;
    degenerate="zero" scores every cell whose image or text has one as 0
    and reports the number of such cells (evaluation only).  See
    `_unit_rows`."""
    uu, bad_u = _unit_rows(_lift(u), degenerate, neutral="zero")
    vv, bad_v = _unit_rows(_lift(v), degenerate, neutral="zero")
    scores = matmul(uu, transpose(vv))
    mask = bad_u[:, None] | bad_v[None, :]
    n_bad = int(mask.sum())
    if n_bad:
        scores = Tensor(np.where(mask, 0.0, scores.data))
    return scores, n_bad


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, then one self-describing record per
# tensor (name, rank, dims, float64 little-endian payload)

CHECKPOINT_MAGIC = b"MSCP"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, main: MainNetParams, meta: MetaNetParams) -> None:
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    entries = [("main." + n, v) for n, v in main.items()]
    entries += [("meta." + n, v) for n, v in meta.items()]
    for name, value in entries:
        arr = _as_array(value)
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f8").tobytes()
    write_atomic(path, blob)


def load_checkpoint(path) -> tuple[MainNetParams, MetaNetParams]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic: {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointFormatError("truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version: {version}")
    pos = 8
    tensors: dict[str, np.ndarray] = {}

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointFormatError(
                f"truncated at byte {pos}: needed {n} more")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    while pos < len(blob):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"tensor name at byte {pos - name_len} is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4))
        if rank > 8:
            raise CheckpointFormatError(f"implausible rank {rank} for {name}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = math.prod(dims)  # exact: a fixed-width product can wrap
        arr = np.frombuffer(take(8 * count), dtype="<f8").reshape(dims).copy()
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor: {name}")
        if not np.isfinite(arr).all():
            raise CheckpointFormatError(f"non-finite value in tensor {name}")
        tensors[name] = arr

    expected = ({"main." + f for f in MainNetParams.FIELDS}
                | {"meta." + f for f in MetaNetParams.FIELDS})
    if set(tensors) != expected:
        missing = sorted(expected - set(tensors))
        extra = sorted(set(tensors) - expected)
        raise CheckpointFormatError(
            f"wrong tensor set: missing={missing} unexpected={extra}")
    main = MainNetParams(**{f: tensors["main." + f] for f in MainNetParams.FIELDS})
    meta = MetaNetParams(**{f: tensors["meta." + f] for f in MetaNetParams.FIELDS})
    return main, meta
