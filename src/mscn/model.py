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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (
    ShapeMismatchError,
    Tape,
    Tensor,
    _expit_ufunc,
    _gemm,
    _lift,
    add,
    as_array,
    div,
    host,
    l2norm,
    matmul,
    relu,
    reshape,
    sigmoid,
    square,
    sub,
    transpose,
)
from .fileio import Reader, write_atomic

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
    checkpoint order, which is the order of its dataclass fields, so a
    bundle is built from its values positionally."""

    FIELDS = ()

    def items(self):
        return [(f, getattr(self, f)) for f in self.FIELDS]

    def arrays(self) -> list[np.ndarray]:
        return [as_array(getattr(self, f)) for f in self.FIELDS]

    def with_arrays(self, arrays):
        return type(self)(*arrays)

    def lift(self, tape: Tape):
        """Copy with every field registered as a leaf of `tape`.  A bundle
        that is not lifted holds plain arrays, which every op takes as
        constants."""
        return type(self)(*[tape.leaf(getattr(self, f)) for f in self.FIELDS])


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


def refuse_degenerate(count: int) -> None:
    """The training contract: a similarity feature or embedding whose norm
    is not representable (<= NORM_EPSILON) has no direction to learn from,
    so a training scorer that met `count` > 0 of them raises."""
    if count:
        raise DegenerateSimilarityError(
            f"{count} degenerate cell(s): norm <= {NORM_EPSILON:g}")


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
    unit, mask = _unit_rows(matmul(square(sub(u, v)), sim_w))
    host(_refuse_marked, mask)
    return unit


def _refuse_marked(mask: np.ndarray) -> None:
    """`refuse_degenerate` of the cells that `mask` marks."""
    refuse_degenerate(int(mask.sum()))


def _unit_rows(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """Each row of `x` scaled to unit norm, and the mask of rows whose norm
    is not representable (<= NORM_EPSILON).  Those rows are divided by 1
    off the record, for a scorer to score neutrally; a gradient through
    them is not the feature's, so training refuses them (see
    `refuse_degenerate`)."""
    norms = l2norm(x)
    mask = host(np.less_equal, norms.data, NORM_EPSILON)
    divisor = host(_railed, norms.data, mask)
    if divisor is not norms.data:
        norms = Tensor(divisor)
    return div(x, reshape(norms, (x.shape[0], 1))), mask


def _railed(norms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`norms` with the rows `mask` marks set to 1, or `norms` itself if it
    marks none.  A plan captured on a step with no such row replays this
    too, so a later degenerate step divides by 1 and is refused as a
    recorded step is."""
    return np.where(mask, 1.0, norms) if mask.any() else norms


def mscn_score(features, params: MetaNetParams) -> Tensor:
    """Correction-network match score; (k, d_sim) -> (k,)."""
    f = _lift(features)
    _check_input(f, params.d_sim, "mscn_score")
    logits = _mlp(f, params.w1, params.b1, params.w2, params.b2)
    return sigmoid(reshape(logits, (f.shape[0],)))


def pair_score(image, text, main: MainNetParams, meta: MetaNetParams) -> Tensor:
    """Scores of aligned image/text pairs under one network pair:
    (k, d_img) x (k, d_txt) -> (k,).  Raises on a degenerate pair, as
    `similarity_feature` does."""
    u = embed_image(image, main)
    v = embed_text(text, main)
    return mscn_score(similarity_feature(u, v, main.sim_w), meta)


def all_pairs_scores(images, texts, main: MainNetParams,
                     meta: MetaNetParams) -> tuple[Tensor, int]:
    """Score matrix of every image against every text: (n_img, n_txt),
    and the number of degenerate cells, which score 0.5.

    The differentiable form of `block_scores`, recorded op by op.  A
    degenerate cell's score is a constant, so a caller that records it
    for training refuses it first (see `_unit_rows`).
    """
    u, v = embed_image(images, main), embed_text(texts, main)
    ni, nt, d = u.shape[0], v.shape[0], u.shape[1]
    diff = sub(reshape(u, (ni, 1, d)), reshape(v, (1, nt, d)))
    unit, mask = _unit_rows(matmul(square(reshape(diff, (ni * nt, d))),
                                   main.sim_w))
    scores = reshape(mscn_score(unit, meta), (ni, nt))
    n_bad = int(mask.sum())
    if n_bad:
        scores = Tensor(np.where(mask.reshape(ni, nt), 0.5, scores.data))
    return scores, n_bad


# The most cells of a block that `block_feature` and `block_scores` hold at
# once, in whole rows, for blocks up to 256 wide: a (BLOCK_CELLS, d_emb)
# difference is 512 KiB at d_emb=64.  A multiple of 4 and at least 8,
# because OpenBLAS's gemv, which the correction network's last layer runs
# on, sums rows four at a time.
BLOCK_CELLS = 1024


def _row_chunks(n_u: int, n_v: int) -> list[tuple[int, int]]:
    """(start, stop) cell ranges of whole rows of an n_u x n_v block, in
    row-major order: max(4, BLOCK_CELLS // n_v // 4 * 4) rows each but the
    last, so every chunk but the last starts and ends on a gemv row group
    and each cell is summed as in one product of all n_u * n_v rows.  No
    chunk is a single cell of a larger block, whose one-row products numpy
    would run as a gemv or a dot instead of the block's gemm or gemv: a
    one-cell last chunk of a one-wide block starts 4 rows earlier."""
    if not n_u * n_v:
        return []
    bounds = [*range(0, n_u, max(4, BLOCK_CELLS // n_v // 4 * 4)), n_u]
    if n_v == 1 and n_u > 1 and n_u - bounds[-2] == 1:
        bounds[-2] -= 4
    return [(a * n_v, b * n_v) for a, b in zip(bounds[:-1], bounds[1:])]


def block_feature(u, v, sim_w) -> tuple[np.ndarray, np.ndarray]:
    """Off the record, the similarity feature of every row of `u` against
    every row of `v` as (n_u * n_v, d_sim) unit rows, and the (n_u, n_v)
    norms of the rows before scaling.  It runs the ops of
    `all_pairs_scores` in their order on chunks of whole rows, at most
    BLOCK_CELLS cells for blocks up to 256 wide (see `_row_chunks`), so
    every cell keeps their bits.  Each chunk writes into the results and
    into buffers of one chunk, which are allocated once per block.  A
    degenerate row (norm <= NORM_EPSILON) is divided by 1, for
    `block_scores` to score 0.5; a non-finite norm is left in place."""
    u, v, sim_w = as_array(u), as_array(v), as_array(sim_w)
    n_u, (n_v, d) = len(u), v.shape
    chunks = _row_chunks(n_u, n_v)
    cells = max((stop - start for start, stop in chunks), default=0)
    unit = np.empty((n_u * n_v, sim_w.shape[1]))
    norms = np.empty(n_u * n_v)
    diff = np.empty((cells, d))
    squares = np.empty((cells, sim_w.shape[1]))
    for start, stop in chunks:
        x = diff[:stop - start]
        np.subtract(u[start // n_v:stop // n_v, None], v[None],
                    out=x.reshape(-1, n_v, d))
        np.multiply(x, x, out=x)
        x = _gemm(x, sim_w, out=unit[start:stop])
        sq = np.multiply(x, x, out=squares[:stop - start])
        sq.sum(axis=-1, out=norms[start:stop])
    np.sqrt(norms, out=norms)
    unit /= _railed(norms, norms <= NORM_EPSILON)[:, None]
    return unit, norms.reshape(n_u, n_v)


def block_scores(feature: tuple[np.ndarray, np.ndarray],
                 meta: MetaNetParams) -> tuple[np.ndarray, int]:
    """Off the record, the correction network's (n_u, n_v) scores of a
    `block_feature`, degenerate cells 0.5, and their count: bit for bit
    those of `all_pairs_scores`.  The hidden layer is held for one chunk
    of `block_feature`'s whole rows at a time, at most BLOCK_CELLS cells
    for blocks up to 256 wide, in one buffer per block."""
    unit, norms = feature
    mask = norms <= NORM_EPSILON
    w1, b1, w2, b2 = meta.arrays()
    scores = np.empty(mask.shape)
    flat = scores.reshape(-1, 1)
    chunks = _row_chunks(*mask.shape)
    cells = max((stop - start for start, stop in chunks), default=0)
    hidden = np.empty((cells, w1.shape[1]))
    for start, stop in chunks:
        h = _gemm(unit[start:stop], w1, out=hidden[:stop - start])
        h += b1
        np.maximum(h, 0.0, out=h)
        _gemm(h, w2, out=flat[start:stop])
    scores += b2
    _expit_ufunc()(scores, out=scores)
    scores[mask] = 0.5
    return scores, int(mask.sum())


def cosine_scores(images, texts, main: MainNetParams) -> tuple[Tensor, int]:
    """Cosine similarity of every image embedding against every text
    embedding: (n_img, n_txt) in [-1, 1].

    Used by the fixed-margin ablation, which has no correction network,
    to train: embeds both sides, scores them as `block_cosine` does and
    raises DegenerateSimilarityError if an embedding norm is not
    representable, so the count it returns is 0."""
    scores, mask = _cosine_cells(embed_image(images, main),
                                 embed_text(texts, main))
    host(_refuse_marked, mask)
    return scores, 0


def block_cosine(u, v) -> tuple[Tensor, int]:
    """Cosine similarity of every row of `u` against every row of `v`:
    (n_u, d_emb) x (n_v, d_emb) -> (n_u, n_v), and the number of cells
    whose image or text embedding has an unrepresentable norm, which
    score 0.  See `_unit_rows`.  It runs the ops that `cosine_scores`
    records; evaluation scores strips of `cosine_side` rows with
    `cosine_strip` instead, which gives the same bits."""
    scores, mask = _cosine_cells(u, v)
    n_bad = int(mask.sum())
    if n_bad:
        scores = Tensor(np.where(mask, 0.0, scores.data))
    return scores, n_bad


def cosine_side(x) -> tuple[np.ndarray, np.ndarray]:
    """Off the record, the rows of `x` scaled as `block_cosine` scales
    them, and the mask of its degenerate rows (see `_unit_rows`).  A row's
    norm reads only that row, so each row keeps its bits whatever rows
    are scaled with it."""
    unit, mask = _unit_rows(_lift(x))
    return unit.data, mask


def cosine_strip(u, bad_u, v, bad_v) -> tuple[np.ndarray, int]:
    """`block_cosine` of the rows whose `cosine_side`s are `u` and `v`,
    with their masks `bad_u` and `bad_v`: the same product of the same
    unit rows, so the same bits, and the count of degenerate cells."""
    scores = _gemm(u, v.T)
    mask = _either(bad_u, bad_v)
    n_bad = int(mask.sum())
    if n_bad:
        scores = np.where(mask, 0.0, scores)
    return scores, n_bad


def _cosine_cells(u, v) -> tuple[Tensor, np.ndarray]:
    """The cosines of `block_cosine` before its degenerate cells are
    zeroed, and the mask of those cells."""
    uu, bad_u = _unit_rows(_lift(u))
    vv, bad_v = _unit_rows(_lift(v))
    return matmul(uu, transpose(vv)), host(_either, bad_u, bad_v)


def _either(bad_u: np.ndarray, bad_v: np.ndarray) -> np.ndarray:
    return bad_u[:, None] | bad_v[None, :]


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
        arr = as_array(value)
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f8").tobytes()
    write_atomic(path, blob)


def load_checkpoint(path) -> tuple[MainNetParams, MetaNetParams]:
    reader = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                    CheckpointFormatError)
    take = reader.take
    tensors: dict[str, np.ndarray] = {}

    while reader.left:
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(
                f"tensor name at byte {reader.pos - name_len} is not UTF-8"
            ) from None
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
