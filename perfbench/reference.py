"""Independent readers and a reference scorer in plain numpy.

Nothing here imports the program.  The dataset (.mscd) and checkpoint
(.mscp) readers parse the documented binary layouts directly, and the
scorer recomputes the published forward pass: the two branch MLPs, the
squared embedding difference and its projection, the unit normalisation,
the correction head and the sigmoid.  Recall is computed by sorting each
query's candidates and scanning for the true one, not by counting.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

SPLITS = ("train", "meta", "val", "test")
NORM_EPSILON = 1e-12
CHUNK_ROWS = 10  # score-matrix rows per block; 10 x 2000 x 64 doubles stay in cache


def read_dataset(path) -> dict:
    """{"manifest": dict, split: record array} from an .mscd file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"MSCD" or struct.unpack_from("<I", blob, 4)[0] != 1:
        raise ValueError(f"{path}: not an MSCD v1 file")
    counts = struct.unpack_from("<4I", blob, 8)
    d_img, d_txt = struct.unpack_from("<2I", blob, 24)
    record = np.dtype([("id", "<u8"), ("partner", "<u8"), ("clean", "u1"),
                       ("image", "<f8", (d_img,)), ("text", "<f8", (d_txt,))])
    out, pos = {}, 32
    for name, count in zip(SPLITS, counts):
        out[name] = np.frombuffer(blob, dtype=record, count=count, offset=pos)
        pos += count * record.itemsize
    (length,) = struct.unpack_from("<I", blob, pos)
    out["manifest"] = json.loads(blob[pos + 4:pos + 4 + length])
    if pos + 4 + length != len(blob):
        raise ValueError(f"{path}: trailing bytes")
    return out


def read_checkpoint(path) -> dict:
    """{"main.img_w1": array, ...} from an .mscp file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"MSCP" or struct.unpack_from("<I", blob, 4)[0] != 1:
        raise ValueError(f"{path}: not an MSCP v1 file")
    tensors, pos = {}, 8
    while pos < len(blob):
        (n,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2:pos + 2 + n].decode()
        pos += 2 + n
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        count = int(np.prod(dims))
        tensors[name] = np.frombuffer(blob, "<f8", count, pos).reshape(dims)
        pos += 8 * count
    return tensors


def _branch(x, p, side):
    hidden = np.maximum(x @ p[f"main.{side}_w1"] + p[f"main.{side}_b1"], 0.0)
    return hidden @ p[f"main.{side}_w2"] + p[f"main.{side}_b2"]


def mscn_scores(p, images, texts) -> np.ndarray:
    """(n_img, n_txt) correction-head scores of one checkpoint.

    Cells whose projected difference has no representable norm score 0.5,
    the program's evaluation policy."""
    u, v = _branch(images, p, "img"), _branch(texts, p, "txt")
    out = np.empty((u.shape[0], v.shape[0]))
    for r in range(0, u.shape[0], CHUNK_ROWS):
        diff = u[r:r + CHUNK_ROWS, None, :] - v[None, :, :]
        proj = (diff * diff) @ p["main.sim_w"]
        norm = np.sqrt((proj * proj).sum(axis=-1))
        bad = norm <= NORM_EPSILON
        unit = proj / np.where(bad, 1.0, norm)[..., None]
        hidden = np.maximum(unit @ p["meta.w1"] + p["meta.b1"], 0.0)
        logit = (hidden @ p["meta.w2"])[..., 0] + p["meta.b2"][0]
        out[r:r + CHUNK_ROWS] = np.where(bad, 0.5, 1.0 / (1.0 + np.exp(-logit)))
    return out


def cosine_scores(p, images, texts) -> np.ndarray:
    """(n_img, n_txt) cosine similarity of the two branch embeddings."""
    u, v = _branch(images, p, "img"), _branch(texts, p, "txt")
    nu = np.linalg.norm(u, axis=1, keepdims=True)
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    return (u / nu) @ (v / nv).T


def averaged_scores(checkpoints, images, texts, scorer="mscn") -> np.ndarray:
    fn = mscn_scores if scorer == "mscn" else cosine_scores
    return sum(fn(p, images, texts) for p in checkpoints) / len(checkpoints)


def ranks(scores, truth) -> np.ndarray:
    """1-based rank of each query's true candidate: candidates sorted by
    descending score, ties broken by the lower candidate index."""
    order = np.argsort(-scores, axis=1, kind="stable")
    hit = order == np.asarray(truth)[:, None]
    return hit.argmax(axis=1) + 1


def recall_report(scores, split, ks=(1, 5, 10)) -> dict:
    """Recall@k (percent) both ways plus rsum, keyed as in the report files.

    Text j of the split truly belongs to the image whose id is
    partner[j]; on clean splits that is image j itself."""
    pos = {int(i): n for n, i in enumerate(split["id"])}
    t2i = np.array([pos[int(p)] for p in split["partner"]])
    i2t = np.empty_like(t2i)
    i2t[t2i] = np.arange(t2i.size)
    r_i2t, r_t2i = ranks(scores, i2t), ranks(scores.T, t2i)
    out = {}
    for k in ks:
        out[f"i2t_r{k}"] = 100.0 * int(np.count_nonzero(r_i2t <= k)) / r_i2t.size
    for k in ks:
        out[f"t2i_r{k}"] = 100.0 * int(np.count_nonzero(r_t2i <= k)) / r_t2i.size
    out["rsum"] = float(sum(out.values()))
    return out

