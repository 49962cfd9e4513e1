"""Training objectives.

The triplet loss ranks each true pair above its hardest in-batch
negatives under a margin that adapts to the pair's own match score: pairs
the correction network trusts get the full margin, distrusted pairs get a
vanishing one.  The fixed-margin baseline, which has no correction
network, ranks the cosines of its embeddings under the fixed margin
instead.  The meta loss is the binary cross-entropy on trusted positive /
constructed negative pairs and is what trains the correction network.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    ShapeMismatchError,
    Tensor,
    _lift,
    add,
    as_array,
    clamp,
    host,
    log,
    mul,
    neg,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    scalar_mul,
    sigmoid,
    sub,
    take_rows,
)
from .model import (
    MainNetParams,
    MetaNetParams,
    block_feature,
    block_scores,
    embed_image,
    embed_text,
    mscn_score,
    pair_score,
    refuse_degenerate,
    similarity_feature,
)
from .purifier import SCORE_CLAMP_HI, SCORE_CLAMP_LO


def _check_margin_base(gamma: float):
    if not gamma > 0:
        raise ValueError(f"margin base must be positive, got {gamma}")


def _check_margin_params(gamma: float, tau: float):
    _check_margin_base(gamma)
    if not tau > 0:
        raise ValueError(f"margin sharpness must be positive, got {tau}")


def adaptive_margin(score, gamma: float, tau: float):
    """Per-pair margin gamma / (1 + (s/(1-s))^-tau).

    Computed as gamma * sigmoid(tau * (log s - log(1-s))), which is the
    same function on (0, 1) and stays on existing primitives.  Accepts a
    Tensor (elementwise) or a plain float; scores must be strictly inside
    (0, 1).
    """
    _check_margin_params(gamma, tau)
    s = score if isinstance(score, Tensor) else Tensor(float(score))
    host(_refuse_outside_unit, s.data)
    out = scalar_mul(gamma, sigmoid(scalar_mul(tau, sub(log(s), log(sub(1.0, s))))))
    return out if isinstance(score, Tensor) else out.item()


def _refuse_outside_unit(s: np.ndarray) -> None:
    if (s <= 0.0).any() or (s >= 1.0).any():
        raise ValueError("adaptive_margin: scores must lie strictly in (0, 1)")


def _hardest_negatives(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of each row's and row of each column's highest off-diagonal
    cell of the square matrix `s`; ties resolve to the lowest index."""
    if s.shape[0] < 2:
        raise ValueError("triplet loss: need at least 2 pairs for negatives")
    off = s.copy()
    np.fill_diagonal(off, -np.inf)
    return off.argmax(axis=1), off.argmax(axis=0)


def _hinges(cells: Tensor, diag, text, img, gamma: float, tau=None) -> Tensor:
    """Two-sided hinge loss per true pair from the 1-D score vector `cells`:
    cells[diag] are the true pairs, cells[text] each image's hardest text
    and cells[img] each text's hardest image.  The margin adapts to the
    true pair's score when `tau` is given, else it is the fixed `gamma`."""
    pos = take_rows(cells, diag)
    if tau is not None:
        margin = adaptive_margin(pos, gamma, tau)
    else:
        margin = Tensor(host(np.full, len(diag), gamma))
    gap = sub(margin, pos)
    return add(relu(add(gap, take_rows(cells, text))),
               relu(add(gap, take_rows(cells, img))))


def triplet_loss_from_scores(scores: Tensor, gamma: float) -> Tensor:
    """The fixed-margin baseline's loss: the max-violation hinges of VSE++
    (Faghri et al., BMVC 2018) summed over the batch.

    scores: the full (n, n) score matrix, true pairs on the diagonal, in
    any range (the baseline ranks cosines).  The hinges read 3n cells,
    gathered from the flattened matrix."""
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ShapeMismatchError("triplet_loss_from_scores", scores.shape)
    _check_margin_base(gamma)
    n = scores.shape[0]
    diag, text, img = host(_flat_hinge_cells, scores.data)
    return reduce_sum(_hinges(reshape(scores, (n * n,)), diag, text, img, gamma))


def _flat_hinge_cells(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into the square `s` of the true pairs, each image's
    hardest text and each text's hardest image."""
    n = s.shape[0]
    text_neg, img_neg = _hardest_negatives(s)
    rows = np.arange(n)
    return rows * (n + 1), rows * n + text_neg, img_neg * n + rows


def triplet_loss(images, texts, main: MainNetParams, meta: MetaNetParams,
                 gamma: float, tau: float, adaptive: bool = True,
                 feature=None) -> Tensor:
    """Ranking loss of a batch of aligned pairs under one network pair.

    The hardest negatives are picked from the clamped scores of every
    image against every text, computed off the record from `feature`, the
    batch's `block_feature` under `main` (built here if None).  Only the
    3n cells the hinges read are scored on it: the true pairs, each
    image's hardest text and each text's hardest image.  A degenerate
    cell of the pick block raises DegenerateSimilarityError, and a
    non-finite norm ValueError: neither has a score to pick by."""
    _check_margin_params(gamma, tau)
    imgs, txts = _lift(images), _lift(texts)
    if imgs.ndim != 2 or txts.ndim != 2 or imgs.shape[0] != txts.shape[0]:
        raise ShapeMismatchError("triplet_loss", imgs.shape, txts.shape)
    u, v = embed_image(imgs, main), embed_text(txts, main)
    if feature is None:
        feature = host(block_feature, u.data, v.data, as_array(main.sim_w))
    text_neg, img_neg = host(_pick_negatives, *feature, *meta.arrays())
    u_rows, v_rows, diag, text, img = host(_hinge_rows, text_neg, img_neg)
    unit = similarity_feature(take_rows(u, u_rows), take_rows(v, v_rows),
                              main.sim_w)
    cells = clamp(mscn_score(unit, meta), SCORE_CLAMP_LO, SCORE_CLAMP_HI)
    return reduce_sum(_hinges(cells, diag, text, img, gamma,
                              tau if adaptive else None))


def _pick_negatives(unit, norms, *meta) -> tuple[np.ndarray, np.ndarray]:
    """`_hardest_negatives` of the clamped `block_scores` of the feature
    (unit, norms) under the correction network's arrays `meta`, after
    the checks that `triplet_loss` documents."""
    scores, n_bad = block_scores((unit, norms), MetaNetParams(*meta))
    refuse_degenerate(n_bad)
    if not np.isfinite(norms).all():
        raise ValueError("triplet_loss: non-finite similarity norm")
    return _hardest_negatives(
        np.clip(scores, SCORE_CLAMP_LO, SCORE_CLAMP_HI, out=scores))


def _hinge_rows(text_neg: np.ndarray, img_neg: np.ndarray) -> tuple:
    """The rows of u and of v whose 3n cells the hinges read, in the order
    true pairs, hardest texts, hardest images; then the positions of
    those three groups among the cells."""
    n = text_neg.size
    rows = np.arange(n)
    return (np.concatenate([rows, rows, img_neg]),
            np.concatenate([rows, text_neg, rows]), rows, rows + n, rows + 2 * n)


def meta_loss(images, texts, labels, main: MainNetParams,
              meta: MetaNetParams) -> Tensor:
    """Mean binary cross-entropy of correction scores on labeled pairs.

    labels: 1 for trusted positives, 0 for constructed negatives."""
    imgs, txts = _lift(images), _lift(texts)
    y = host(np.asarray, labels, np.float64)
    if imgs.ndim != 2 or txts.ndim != 2 or imgs.shape[0] != txts.shape[0]:
        raise ShapeMismatchError("meta_loss", imgs.shape, txts.shape)
    if y.shape != (imgs.shape[0],):
        raise ShapeMismatchError("meta_loss", y.shape, (imgs.shape[0],))
    if y.size == 0:
        raise ValueError("meta_loss: empty batch")
    host(_refuse_non_binary, y)
    s = clamp(pair_score(imgs, txts, main, meta), SCORE_CLAMP_LO, SCORE_CLAMP_HI)
    return neg(reduce_mean(add(mul(Tensor(y), log(s)),
                               mul(Tensor(host(np.subtract, 1.0, y)),
                                   log(sub(1.0, s))))))


def _refuse_non_binary(y: np.ndarray) -> None:
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("meta_loss: labels must be 0 or 1")
