"""Bi-level training of two network pairs with purified co-training.

One optimization step runs in three stages on a shared retained record:

1. virtual update: a plain descent step on the main params, recorded as a
   differentiable function of the correction-network params;
2. meta update: the correction network steps on the meta loss evaluated
   through those virtual main params (the second-order path);
3. actual update: the main params step on the training loss under the
   freshly updated correction network, from the original main params.

Each epoch both network pairs score every training pair, a Beta mixture
splits the scores into clean/noisy, and each pair trains on the set the
*other* pair admitted.  A warmup phase precedes this: fixed-margin
training plus per-iteration supervised updates of the correction network.
The sets are fixed before an epoch's steps start, so within an epoch the
two pairs' step loops share nothing and can run on two threads.

Everything stochastic draws from SeedSequence([seed, *tags]) streams, so
a run is a pure function of (dataset bytes, config).
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import evalkit, model, objective, purifier
from .datagen import Dataset, Split

log = logging.getLogger(__name__)

# every training mode, and the scorer its networks are evaluated with
SCORER_OF_MODE = {"mscn": "mscn", "fixed_margin_baseline": "cosine"}

# rng stream tags
_TAG_INIT = 0
_TAG_SHUFFLE = 1
_TAG_META_BATCH = 2
_TAG_NEG_PAIRS = 3

# Adam's decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteGradientError(RuntimeError):
    """A gradient or loss left the finite range; training must not continue."""


@dataclass
class TrainConfig:
    seed: int = 20240601
    mode: str = "mscn"
    gamma: float = 0.2
    tau: float = 2.0
    batch_size: int = 64
    meta_batch_size: int = 64  # half trusted positives, half constructed negatives
    lr_main: float = 2e-4
    # the correction head sees ~800 updates at this scale, so its rate has to
    # be much hotter than the embedding rate or it never leaves init
    lr_meta: float = 1e-2
    warmup_epochs: int = 5
    epochs: int = 50
    lr_decay_epoch: int = 30  # global epoch index; both rates x factor from there on
    lr_decay_factor: float = 0.1
    d_emb: int = 64
    d_sim: int = 32
    branch_hidden: Optional[int] = None
    mscn_hidden: int = 32
    use_adaptive_margin: bool = True
    use_purification: bool = True
    eval_ks: tuple = (1, 5, 10)

    def validate(self):
        if self.mode not in SCORER_OF_MODE:
            raise ValueError(f"mode must be one of {tuple(SCORER_OF_MODE)}, "
                             f"got {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.meta_batch_size < 2 or self.meta_batch_size % 2:
            raise ValueError("meta_batch_size must be even and at least 2")
        if self.lr_main < 0 or self.lr_meta < 0:
            raise ValueError("learning rates must be non-negative")
        if self.warmup_epochs < 0 or self.epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.warmup_epochs + self.epochs < 1:
            raise ValueError("warmup_epochs + epochs must be at least 1")
        if not 0 < self.lr_decay_factor <= 1:
            raise ValueError("lr_decay_factor must lie in (0, 1]")
        if not self.d_sim < self.d_emb:
            raise ValueError("d_sim must be below d_emb")
        if not self.eval_ks or list(self.eval_ks) != sorted(set(self.eval_ks)):
            raise ValueError("eval_ks must be distinct and ascending")
        objective._check_margin_params(self.gamma, self.tau)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), *map(int, tags)])))


class AdamState:
    """First/second moment estimates of a whole bundle, held flat in the
    order of its arrays, plus the step counter."""

    def __init__(self, arrays):
        size = sum(np.size(a) for a in arrays)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0


def optimizer_step(arrays, grads, state: AdamState, lr: float, names=None,
                   context: str = "optimizer_step") -> list[np.ndarray]:
    """One Adam update of the bundle `arrays` from the aligned `grads`,
    taken as one update of their concatenation; returns arrays of the
    input shapes.  Every operation is elementwise, so each entry gets the
    bits a per-array update would give it.  A non-finite gradient entry
    raises NonFiniteGradientError naming its tensor (`names`, aligned with
    `arrays`, else its index) before anything changes."""
    g = np.concatenate(grads, axis=None)
    _check_finite(g, grads, names, context)
    new = np.concatenate(arrays, axis=None)
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    # in place, operation for operation:
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
    #   new = a - lr * m_hat / (sqrt(v_hat) + eps)
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    step = m / (1 - b1 ** state.t)
    step *= lr
    den = v / (1 - b2 ** state.t)
    np.sqrt(den, out=den)
    den += eps
    step /= den
    new -= step
    return _split(new, arrays)


def _split(flat: np.ndarray, like) -> list[np.ndarray]:
    """`flat` cut into views with the shapes of the arrays in `like`."""
    out, lo = [], 0
    for a in like:
        hi = lo + a.size
        out.append(flat[lo:hi].reshape(a.shape))
        lo = hi
    return out


@dataclass
class NetState:
    main: model.MainNetParams
    meta: model.MetaNetParams
    opt_main: AdamState
    opt_meta: AdamState

    @classmethod
    def init(cls, d_img: int, d_txt: int, cfg: TrainConfig,
             rng: np.random.Generator) -> "NetState":
        """A network pair at the shapes of `cfg`, drawn from `rng`, with
        zeroed optimizer moments."""
        main = model.MainNetParams.init(d_img, d_txt, cfg.d_emb, cfg.d_sim,
                                        rng, hidden=cfg.branch_hidden)
        meta = model.MetaNetParams.init(cfg.d_sim, rng, hidden=cfg.mscn_hidden)
        return cls(main=main, meta=meta, opt_main=AdamState(main.arrays()),
                   opt_meta=AdamState(meta.arrays()))


@dataclass
class MetaBatch:
    images: np.ndarray
    texts: np.ndarray
    labels: np.ndarray


def construct_meta_batch(meta_split: Split, train_split: Split, m: int,
                         rng: np.random.Generator) -> MetaBatch:
    """Half trusted positives (drawn with replacement from the meta split),
    half negatives built from distinct train records: image of i, text of
    j, i != j enforced by construction."""
    if m < 2 or m % 2:
        raise ValueError(f"meta batch size must be even and >= 2, got {m}")
    if len(meta_split) == 0:
        raise ValueError("meta split is empty")
    n = len(train_split)
    if n < 2:
        raise ValueError("need at least 2 train records for negatives")
    half = m // 2
    pos = rng.integers(0, len(meta_split), size=half)
    i = rng.integers(0, n, size=half)
    j = rng.integers(0, n - 1, size=half)
    j = j + (j >= i)
    images = np.concatenate([meta_split.images[pos], train_split.images[i]])
    texts = np.concatenate([meta_split.texts[pos], train_split.texts[j]])
    labels = np.concatenate([np.ones(half), np.zeros(half)])
    return MetaBatch(images=images, texts=texts, labels=labels)


def _check_finite(flat: np.ndarray, grads, names, context: str):
    """Check the concatenated gradient `flat` once; if it holds a
    non-finite entry, raise naming the first of `grads` that does."""
    if np.isfinite(flat).all():
        return
    for i, g in enumerate(grads):
        finite = np.isfinite(g)
        if not finite.all():
            name = names[i] if names is not None else f"array {i}"
            raise NonFiniteGradientError(
                f"{context}: non-finite gradient in {name} "
                f"(|max|={np.abs(g[finite]).max() if finite.any() else 'n/a'})")


def _descend(params, lifted, grads, opt: AdamState, lr: float, context: str):
    """Optimizer step on `params` from the gradients of `lifted`, its copy
    on a record, after checking that they are finite."""
    g = [grads[t].data for _, t in lifted.items()]
    return params.with_arrays(optimizer_step(params.arrays(), g, opt, lr,
                                             lifted.FIELDS, context))


def _descend_on(params, loss_of, opt: AdamState, lr: float, context: str):
    """Lift `params` onto a fresh record, differentiate loss_of(lifted) and
    descend.  Returns (new params, loss value)."""
    with ad.Tape() as tape:
        lifted = params.lift(tape)
        loss = loss_of(lifted)
        grads = ad.backward(tape, loss)
    return _descend(params, lifted, grads, opt, lr, context), loss.item()


def virtual_update(tape: ad.Tape, main_lifted: model.MainNetParams,
                   meta_lifted: model.MetaNetParams, images, texts,
                   alpha: float, cfg: TrainConfig, feature=None):
    """Stage 1: record loss, gradients, and the descent step W - alpha*g as
    functions of the correction params.  Returns (virtual params, loss).
    `feature`: see `objective.triplet_loss`."""
    loss = objective.triplet_loss(images, texts, main_lifted, meta_lifted,
                                  cfg.gamma, cfg.tau,
                                  adaptive=cfg.use_adaptive_margin,
                                  feature=feature)
    leaves = [t for _, t in main_lifted.items()]
    grads = ad.backward_retaining(tape, loss, wrt=leaves)
    stepped = [ad.sub(t, ad.scalar_mul(alpha, grads[t])) for t in leaves]
    return main_lifted.with_arrays(stepped), loss


def meta_update(tape: ad.Tape, virtual_main: model.MainNetParams,
                meta_lifted: model.MetaNetParams, batch: MetaBatch,
                state: NetState, lr_meta: float):
    """Stage 2: optimizer step on the meta loss taken through the virtual
    main params.  Returns (new meta params, meta loss value)."""
    mloss = objective.meta_loss(batch.images, batch.texts, batch.labels,
                                virtual_main, meta_lifted)
    grads = ad.backward(tape, mloss, wrt=[t for _, t in meta_lifted.items()])
    return _descend(state.meta, meta_lifted, grads, state.opt_meta, lr_meta,
                    "meta_update"), mloss.item()


def actual_update(state: NetState, meta_new: model.MetaNetParams, images, texts,
                  lr_main: float, cfg: TrainConfig, feature=None):
    """Stage 3: step the main params on the same batch under the updated
    correction network (held constant).  `feature`: see
    `objective.triplet_loss`."""
    return _descend_on(
        state.main,
        lambda main_l: objective.triplet_loss(images, texts, main_l, meta_new,
                                              cfg.gamma, cfg.tau,
                                              adaptive=cfg.use_adaptive_margin,
                                              feature=feature),
        state.opt_main, lr_main, "actual_update")


def _retained_stages(state: NetState, images, texts, batch: MetaBatch,
                     lr_main: float, lr_meta: float, cfg: TrainConfig,
                     feature=None):
    """Stages 1 and 2 on one retained record, which is freed on return.
    Returns (new meta params, train loss value, meta loss value)."""
    with ad.Tape(retain=True) as tape:
        main_l = state.main.lift(tape)
        meta_l = state.meta.lift(tape)
        virtual_main, train_loss = virtual_update(
            tape, main_l, meta_l, images, texts, lr_main, cfg, feature)
        meta_new, meta_loss_val = meta_update(
            tape, virtual_main, meta_l, batch, state, lr_meta)
    return meta_new, train_loss.item(), meta_loss_val


def bilevel_step(state: NetState, images, texts, batch: MetaBatch,
                 lr_main: float, lr_meta: float, cfg: TrainConfig):
    """One full three-stage step; returns (new state, diagnostics)."""
    # stages 1 and 3 pick negatives under the same main params, so from one
    # similarity feature, which the correction network does not enter
    main = state.main
    feature = model.block_feature(model.embed_image(images, main).data,
                                  model.embed_text(texts, main).data, main.sim_w)
    meta_new, train_loss, meta_loss_val = _retained_stages(
        state, images, texts, batch, lr_main, lr_meta, cfg, feature)
    main_new, _ = actual_update(state, meta_new, images, texts, lr_main, cfg,
                                feature)
    return (replace(state, main=main_new, meta=meta_new),
            {"train_loss": train_loss, "meta_loss": meta_loss_val})


def warmup_step(state: NetState, images, texts, batch: MetaBatch,
                lr_main: float, lr_meta: float, cfg: TrainConfig):
    """Fixed-margin step on the main params, then a supervised step of the
    correction network at the updated main params."""
    main_new, loss_val = _descend_on(
        state.main,
        lambda main_l: objective.triplet_loss(images, texts, main_l, state.meta,
                                              cfg.gamma, cfg.tau, adaptive=False),
        state.opt_main, lr_main, "warmup main")
    meta_new, meta_loss_val = _descend_on(
        state.meta,
        lambda meta_l: objective.meta_loss(
            batch.images, batch.texts, batch.labels, main_new, meta_l),
        state.opt_meta, lr_meta, "warmup meta")
    return (replace(state, main=main_new, meta=meta_new),
            {"train_loss": loss_val, "meta_loss": meta_loss_val})


def baseline_step(state: NetState, images, texts, lr_main: float,
                  cfg: TrainConfig):
    """Fixed-margin triplet step on cosine scores; no correction network."""
    def loss_of(main_l):
        scores, _ = model.cosine_scores(images, texts, main_l)
        return objective.triplet_loss_from_scores(
            scores, cfg.gamma, cfg.tau, adaptive=False, clamp_scores=False)

    main_new, loss_val = _descend_on(state.main, loss_of, state.opt_main,
                                     lr_main, "baseline")
    return replace(state, main=main_new), {"train_loss": loss_val, "meta_loss": None}


def fit_purifier(main: model.MainNetParams, meta: model.MetaNetParams,
                 train_split: Split, meta_split: Split, seed: int, epoch: int,
                 net_idx: int):
    """Fit the score mixture for one network pair and purify the train set.

    Components are initialized from the pair's scores of the trusted meta
    pairs (positives) and of freshly constructed cross-index train pairs
    (negatives); EM then runs on the scores of all train pairs."""
    def scores(images, texts) -> np.ndarray:
        return model.pair_score(images, texts, main, meta).data

    train_scores = purifier.clamp_score(scores(train_split.images, train_split.texts))
    pos_scores = scores(meta_split.images, meta_split.texts)
    rng = _rng(seed, _TAG_NEG_PAIRS, epoch, net_idx)
    neg = construct_meta_batch(meta_split, train_split,
                               2 * max(len(meta_split), 2), rng)
    half = len(neg.labels) // 2
    neg_scores = scores(neg.images[half:], neg.texts[half:])
    init = purifier.moment_match_init(pos_scores, neg_scores)
    fit = purifier.em_fit(train_scores, init)
    admitted = purifier.purify(fit.mixture, train_scores)
    return admitted, fit, train_scores


def metrics_columns(eval_ks) -> tuple[str, ...]:
    """Header of metrics.tsv: one recall column per direction and cutoff."""
    return (
        "epoch", "phase", "lr_main", "lr_meta",
        "net1_train_loss", "net1_meta_loss", "net2_train_loss", "net2_meta_loss",
        "net1_purified", "net2_purified",
        "net1_purity_precision", "net1_purity_recall",
        "net2_purity_precision", "net2_purity_recall",
        *(f"val_i2t_r{k}" for k in eval_ks),
        *(f"val_t2i_r{k}" for k in eval_ks),
        "val_rsum", "degenerate_pairs",
    )


def format_metrics_row(row: dict, columns) -> str:
    cells = []
    for col in columns:
        v = row.get(col)
        if v is None:
            cells.append("-")
        elif isinstance(v, float):
            cells.append(f"{v:.17g}")
        else:
            cells.append(str(v))
    return "\t".join(cells)


@dataclass
class TrainResult:
    nets: list
    best_nets: list  # (main, meta) params at the best-validation epoch
    metrics: list
    audit: list
    best_epoch: int
    best_rsum: float
    final_val: evalkit.RecallReport


def _purity(admitted: np.ndarray, clean: np.ndarray) -> tuple[float, float]:
    mask = np.zeros(clean.size, dtype=bool)
    mask[admitted] = True
    tp = int(np.sum(mask & clean))
    precision = tp / max(int(mask.sum()), 1)
    recall = tp / max(int(clean.sum()), 1)
    return precision, recall


def _train_net_epoch(net: NetState, k: int, pool: np.ndarray, epoch: int,
                     warm: bool, lr_main: float, lr_meta: float,
                     train_split: Split, meta_split: Split, cfg: TrainConfig):
    """One epoch of steps of network pair `k` over its training pool.

    Reads nothing the other pair's loop writes: every random draw comes
    from a stream keyed by (epoch, k, step).  Returns (net, training
    losses, meta losses)."""
    order = _rng(cfg.seed, _TAG_SHUFFLE, epoch, k).permutation(pool.size)
    shuffled = pool[order]
    losses, mlosses = [], []
    for step in range(pool.size // cfg.batch_size):
        sel = shuffled[step * cfg.batch_size:(step + 1) * cfg.batch_size]
        imgs = train_split.images[sel]
        txts = train_split.texts[sel]
        if cfg.mode == "fixed_margin_baseline":
            net, diag = baseline_step(net, imgs, txts, lr_main, cfg)
        else:
            mb = construct_meta_batch(
                meta_split, train_split, cfg.meta_batch_size,
                _rng(cfg.seed, _TAG_META_BATCH, epoch, k, step))
            step_fn = warmup_step if warm else bilevel_step
            net, diag = step_fn(net, imgs, txts, mb, lr_main, lr_meta, cfg)
        if not np.isfinite(diag["train_loss"]):
            raise NonFiniteGradientError(
                f"epoch {epoch} net {k + 1}: non-finite training loss")
        losses.append(diag["train_loss"])
        if diag["meta_loss"] is not None:
            mlosses.append(diag["meta_loss"])
    return net, losses, mlosses


def train(ds: Dataset, cfg: TrainConfig, out_dir=None, threads=None) -> TrainResult:
    """Run the full schedule (warmup then main epochs) on two network pairs.

    With out_dir set, writes metrics.tsv (one row per epoch, flushed as it
    goes), best-validation checkpoints, and final checkpoints.  `threads`
    is the worker count of every validation eval (see
    `evalkit.worker_count`).  In mscn mode with more than one worker, each
    epoch runs net 2's step loop on a second thread while net 1's runs on
    the calling thread; the outputs do not depend on it.  The baseline's
    many small ops would only contend for the interpreter lock, so its
    loops run one after the other."""
    cfg.validate()
    train_split, meta_split, val_split = ds.train, ds.meta, ds.val
    if len(train_split) < cfg.batch_size:
        raise ValueError(
            f"train split ({len(train_split)}) smaller than one batch "
            f"({cfg.batch_size})")
    if len(meta_split) < 1:
        raise ValueError("meta split is empty")
    if len(val_split) < max(cfg.eval_ks):
        raise ValueError(
            f"validation split ({len(val_split)}) too small for "
            f"R@{max(cfg.eval_ks)}")

    nets = [NetState.init(ds.d_img, ds.d_txt, cfg, _rng(cfg.seed, _TAG_INIT, k))
            for k in range(2)]

    out_path = Path(out_dir) if out_dir is not None else None
    columns = metrics_columns(cfg.eval_ks)
    metrics_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_path / "metrics.tsv", "w", encoding="utf-8")
        metrics_fh.write("\t".join(columns) + "\n")
        metrics_fh.flush()

    total_epochs = cfg.warmup_epochs + cfg.epochs
    metrics_rows: list[dict] = []
    audit: list[dict] = []
    best_rsum = -1.0
    best_epoch = -1
    best_nets = [(net.main, net.meta) for net in nets]
    report = None
    executor = None
    if cfg.mode == "mscn" and evalkit.worker_count(threads) > 1:
        executor = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="mscn-net")

    try:
        for epoch in range(total_epochs):
            warm = epoch < cfg.warmup_epochs
            factor = cfg.lr_decay_factor if epoch >= cfg.lr_decay_epoch else 1.0
            lr_main = cfg.lr_main * factor
            lr_meta = cfg.lr_meta * factor

            row = dict.fromkeys(columns)
            row.update(epoch=epoch, phase="warmup" if warm else "main",
                       lr_main=lr_main, lr_meta=lr_meta)
            pools = [np.arange(len(train_split)), np.arange(len(train_split))]
            if not warm and cfg.mode == "mscn" and cfg.use_purification:
                # each net trains on the set the *other* net admitted
                for k in range(2):
                    admitted, fit, scores = fit_purifier(
                        nets[k].main, nets[k].meta, train_split, meta_split,
                        cfg.seed, epoch, k)
                    fallback = admitted.size < cfg.batch_size
                    if fallback:
                        log.warning(
                            "epoch %d: net %d purified only %d pairs "
                            "(< batch %d); falling back to the full train set",
                            epoch, k + 1, admitted.size, cfg.batch_size)
                    pool = np.arange(len(train_split)) if fallback else admitted
                    pools[1 - k] = pool
                    precision, recall = _purity(admitted, train_split.clean)
                    row.update({f"net{k + 1}_purified": int(admitted.size),
                                f"net{k + 1}_purity_precision": precision,
                                f"net{k + 1}_purity_recall": recall})
                    audit.append({
                        "epoch": epoch, "scored_by": k, "trains": 1 - k,
                        "alpha": fit.mixture.alpha.copy(),
                        "beta": fit.mixture.beta.copy(),
                        "weight": fit.mixture.weight.copy(),
                        "iterations": fit.iterations,
                        "mean_log_likelihood": fit.mean_log_likelihood,
                        "scores": scores,
                        "admitted": admitted,
                        "fallback": fallback,
                        "pool": pool,
                    })

            def run_net(k):
                return _train_net_epoch(nets[k], k, pools[k], epoch, warm,
                                        lr_main, lr_meta, train_split,
                                        meta_split, cfg)

            if executor is None:
                done = [run_net(k) for k in range(2)]
            else:
                second = executor.submit(run_net, 1)
                done = [run_net(0), second.result()]
            nets, losses, mlosses = (list(col) for col in zip(*done))

            report = evalkit.evaluate(
                [(net.main, net.meta) for net in nets], val_split,
                ks=cfg.eval_ks, scorer=SCORER_OF_MODE[cfg.mode],
                threads=threads)
            for k in range(2):
                for col, values in (("train_loss", losses[k]),
                                    ("meta_loss", mlosses[k])):
                    if values:
                        row[f"net{k + 1}_{col}"] = float(np.mean(values))
            row.update(val_rsum=report.rsum,
                       degenerate_pairs=report.degenerate_pairs)
            for k in cfg.eval_ks:
                row[f"val_i2t_r{k}"] = report.image_to_text[k]
                row[f"val_t2i_r{k}"] = report.text_to_image[k]
            metrics_rows.append(row)
            if metrics_fh is not None:
                metrics_fh.write(format_metrics_row(row, columns) + "\n")
                metrics_fh.flush()

            if report.rsum > best_rsum:
                best_rsum = report.rsum
                best_epoch = epoch
                # optimizer steps replace arrays rather than mutate them, so
                # holding references freezes this epoch's params
                best_nets = [(net.main, net.meta) for net in nets]
                if out_path is not None:
                    for k, net in enumerate(nets):
                        model.save_checkpoint(
                            out_path / f"net{k + 1}_best.mscp", net.main, net.meta)
    finally:
        if executor is not None:
            executor.shutdown()
        if metrics_fh is not None:
            metrics_fh.close()

    if out_path is not None:
        for k, net in enumerate(nets):
            model.save_checkpoint(out_path / f"net{k + 1}_final.mscp",
                                  net.main, net.meta)
    return TrainResult(nets=nets, best_nets=best_nets, metrics=metrics_rows,
                       audit=audit, best_epoch=best_epoch, best_rsum=best_rsum,
                       final_val=report)
