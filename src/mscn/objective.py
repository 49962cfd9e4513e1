"""Training objectives.

The triplet loss ranks each true pair above its hardest in-batch
negatives under a margin that adapts to the pair's own match score: pairs
the correction network trusts get the full margin, distrusted pairs get a
vanishing one.  The meta loss is plain binary cross-entropy on trusted
positive / constructed negative pairs and is what trains the correction
network.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    ShapeMismatchError,
    Tensor,
    _lift,
    add,
    clamp,
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
    _unit_feature,
    block_feature,
    block_scores,
    embed_image,
    embed_text,
    mscn_score,
    pair_score,
)
from .purifier import SCORE_CLAMP_HI, SCORE_CLAMP_LO


def _check_margin_params(gamma: float, tau: float):
    if not gamma > 0:
        raise ValueError(f"margin base must be positive, got {gamma}")
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
    if (s.data <= 0.0).any() or (s.data >= 1.0).any():
        raise ValueError("adaptive_margin: scores must lie strictly in (0, 1)")
    out = scalar_mul(gamma, sigmoid(scalar_mul(tau, sub(log(s), log(sub(1.0, s))))))
    return out if isinstance(score, Tensor) else out.item()


def _hardest_negatives(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of each row's and row of each column's highest off-diagonal
    cell of the square matrix `s`; ties resolve to the lowest index."""
    if s.shape[0] < 2:
        raise ValueError("triplet loss: need at least 2 pairs for negatives")
    off = s.copy()
    np.fill_diagonal(off, -np.inf)
    return off.argmax(axis=1), off.argmax(axis=0)


def _hinges(cells: Tensor, diag, text, img, gamma: float, tau: float,
            adaptive: bool) -> Tensor:
    """Two-sided hinge loss per true pair from the 1-D score vector `cells`:
    cells[diag] are the true pairs, cells[text] each image's hardest text
    and cells[img] each text's hardest image."""
    _check_margin_params(gamma, tau)
    pos = take_rows(cells, diag)
    if adaptive:
        margin = adaptive_margin(pos, gamma, tau)
    else:
        margin = Tensor(np.full(len(diag), gamma))
    gap = sub(margin, pos)
    return add(relu(add(gap, take_rows(cells, text))),
               relu(add(gap, take_rows(cells, img))))


def per_pair_hinges(scores: Tensor, gamma: float, tau: float,
                    adaptive: bool = True, clamp_scores: bool = True) -> Tensor:
    """Two-sided hinge loss per true pair, given the full score matrix.

    scores: (n, n) with true pairs on the diagonal.  Scores are clamped to
    the shared rails first (probability scorers only; disable for scorers
    with other ranges, e.g. cosine).  The hinges read 3n cells, gathered
    from the flattened matrix."""
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ShapeMismatchError("per_pair_hinges", scores.shape)
    n = scores.shape[0]
    s = clamp(scores, SCORE_CLAMP_LO, SCORE_CLAMP_HI) if clamp_scores else scores
    text_neg, img_neg = _hardest_negatives(s.data)
    rows = np.arange(n)
    return _hinges(reshape(s, (n * n,)), rows * (n + 1), rows * n + text_neg,
                   img_neg * n + rows, gamma, tau, adaptive)


def triplet_loss_from_scores(scores: Tensor, gamma: float, tau: float,
                             adaptive: bool = True,
                             clamp_scores: bool = True) -> Tensor:
    """Sum of the per-pair hinges over the batch."""
    return reduce_sum(per_pair_hinges(scores, gamma, tau, adaptive=adaptive,
                                      clamp_scores=clamp_scores))


def triplet_loss(images, texts, main: MainNetParams, meta: MetaNetParams,
                 gamma: float, tau: float, adaptive: bool = True,
                 feature=None) -> Tensor:
    """Ranking loss of a batch of aligned pairs under one network pair.

    The hardest negatives are picked from the clamped scores of every
    image against every text, computed off the record from `feature`, the
    batch's `block_feature` under `main` (built here if None).  Only the
    3n cells the hinges read are scored on it: the true pairs, each
    image's hardest text and each text's hardest image."""
    imgs, txts = _lift(images), _lift(texts)
    if imgs.ndim != 2 or txts.ndim != 2 or imgs.shape[0] != txts.shape[0]:
        raise ShapeMismatchError("triplet_loss", imgs.shape, txts.shape)
    n = imgs.shape[0]
    u, v = embed_image(imgs, main), embed_text(txts, main)
    if feature is None:
        feature = block_feature(u.data, v.data, main.sim_w)
    scores, _ = block_scores(feature, meta)
    text_neg, img_neg = _hardest_negatives(
        np.clip(scores, SCORE_CLAMP_LO, SCORE_CLAMP_HI, out=scores))
    rows = np.arange(n)
    unit, _ = _unit_feature(
        sub(take_rows(u, np.concatenate([rows, rows, img_neg])),
            take_rows(v, np.concatenate([rows, text_neg, rows]))),
        main.sim_w)
    cells = clamp(mscn_score(unit, meta), SCORE_CLAMP_LO, SCORE_CLAMP_HI)
    return reduce_sum(_hinges(cells, rows, rows + n, rows + 2 * n,
                              gamma, tau, adaptive))


def meta_loss(images, texts, labels, main: MainNetParams, meta: MetaNetParams,
              negative_term: bool = True) -> Tensor:
    """Mean binary cross-entropy of correction scores on labeled pairs.

    labels: 1 for trusted positives, 0 for constructed negatives.  With
    negative_term=False only the positive half -y*log(s) is kept (the
    ablated form); default is the full BCE.
    """
    imgs, txts = _lift(images), _lift(texts)
    y = np.asarray(labels, dtype=np.float64)
    if imgs.ndim != 2 or txts.ndim != 2 or imgs.shape[0] != txts.shape[0]:
        raise ShapeMismatchError("meta_loss", imgs.shape, txts.shape)
    if y.shape != (imgs.shape[0],):
        raise ShapeMismatchError("meta_loss", y.shape, (imgs.shape[0],))
    if y.size == 0:
        raise ValueError("meta_loss: empty batch")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("meta_loss: labels must be 0 or 1")
    s = clamp(pair_score(imgs, txts, main, meta), SCORE_CLAMP_LO, SCORE_CLAMP_HI)
    ll = mul(Tensor(y), log(s))
    if negative_term:
        ll = add(ll, mul(Tensor(1.0 - y), log(sub(1.0, s))))
    return neg(reduce_mean(ll))
