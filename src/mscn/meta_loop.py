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
The sets are fixed before an epoch's steps start.  All a run carries from
one epoch to the next is one `RunState`: `run_epoch` takes it through an
epoch, and `train` loops over it and writes the files.

Everything stochastic draws from SeedSequence([seed, *tags]) streams, so
a run is a pure function of (dataset bytes, config).
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evalkit, model, objective, purifier
from .datagen import Dataset, Split, seeded_rng

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
        if min(self.d_emb, self.d_sim, self.mscn_hidden) < 1:
            raise ValueError("d_emb, d_sim and mscn_hidden must be at least 1")
        if not self.d_sim < self.d_emb:
            raise ValueError("d_sim must be below d_emb")
        ks = list(self.eval_ks)
        if not ks or ks[0] < 1 or ks != sorted(set(ks)):
            raise ValueError("eval_ks must be distinct, ascending and at least 1")
        objective._check_margin_params(self.gamma, self.tau)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return seeded_rng([int(seed), *map(int, tags)])


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
        main = model.MainNetParams.init(d_img, d_txt, cfg.d_emb, cfg.d_sim, rng)
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


def _descend(params, grads, opt: AdamState, lr: float, context: str):
    """Optimizer step on `params` from the arrays `grads`, in the order of
    its fields, after checking that they are finite."""
    return params.with_arrays(optimizer_step(params.arrays(), grads, opt, lr,
                                             params.FIELDS, context))


def _fields(params) -> list:
    """The values of a bundle's fields, as the bundle holds them."""
    return [value for _, value in params.items()]


def _planned(plans, key, inputs, body) -> list:
    """body(), the list of arrays a stage computes from the arrays
    `inputs`, or a replay of its plan.

    `plans` is None for a step called on its own, or the dict of plans
    that `train` keeps for a run (`run_epoch` makes one per call when
    given none), keyed by stage: a plan bakes in only what holds for the
    whole run, and takes what changes, such as a step size, among
    `inputs`.  If it holds `key`, the arrays come from a replay of that
    plan on `inputs`: no record is made.  Otherwise body() runs and, with
    `plans`, is captured into the plan of `key` that the run's later steps
    replay."""
    plan = None if plans is None else plans.get(key)
    if plan is not None:
        return plan.run(inputs)
    capture = None if plans is None else ad.Capture(inputs)
    with capture or nullcontext():
        outputs = body()
    if capture is not None:
        plans[key] = capture.plan(outputs)
    return outputs


def _descend_on(params, loss_of, opt: AdamState, lr: float, context: str,
                plans=None, reads=()):
    """Lift `params` onto a fresh record, differentiate loss_of(lifted) and
    descend.  Returns (new params, loss value).

    `reads` are the other arrays that loss_of reads.  With `plans` (see
    `_planned`) the gradients and loss come from the plan of `context`,
    which bakes in no learning rate: the optimizer step runs outside it."""
    def gradients_and_loss():
        with ad.Tape() as tape:
            lifted = params.lift(tape)
            loss = loss_of(lifted)
            by_leaf = ad.backward(tape, loss)
        return [*(by_leaf[t].data for t in _fields(lifted)), loss.data]

    *grads, loss = _planned(plans, context, [*_fields(params), *reads],
                            gradients_and_loss)
    return _descend(params, grads, opt, lr, context), float(loss)


def virtual_update(tape: ad.Tape, main_lifted: model.MainNetParams,
                   meta_lifted: model.MetaNetParams, images, texts,
                   alpha, cfg: TrainConfig, feature=None):
    """Stage 1: record loss, gradients, and the descent step W - alpha*g as
    functions of the correction params.  Returns (virtual params, loss).
    `alpha` is the step size, a float or a 0-d array (which a plan takes
    as an input); `feature`: see `objective.triplet_loss`."""
    loss = objective.triplet_loss(images, texts, main_lifted, meta_lifted,
                                  cfg.gamma, cfg.tau,
                                  adaptive=cfg.use_adaptive_margin,
                                  feature=feature)
    leaves = _fields(main_lifted)
    grads = ad.backward_retaining(tape, loss, wrt=leaves)
    stepped = [ad.sub(t, ad.mul(grads[t], alpha)) for t in leaves]
    return main_lifted.with_arrays(stepped), loss


def meta_update(tape: ad.Tape, virtual_main: model.MainNetParams,
                meta_lifted: model.MetaNetParams, batch: MetaBatch):
    """Stage 2: the meta loss taken through the virtual main params, and
    its gradients by the correction params.  Returns (gradient arrays in
    field order, meta loss); the optimizer step is the caller's."""
    mloss = objective.meta_loss(batch.images, batch.texts, batch.labels,
                                virtual_main, meta_lifted)
    leaves = _fields(meta_lifted)
    grads = ad.backward(tape, mloss, wrt=leaves)
    return [grads[t].data for t in leaves], mloss


def actual_update(state: NetState, meta_new: model.MetaNetParams, images, texts,
                  lr_main: float, cfg: TrainConfig, feature=None, plans=None):
    """Stage 3: step the main params on the same batch under the updated
    correction network (held constant).  `feature`: see
    `objective.triplet_loss`; `plans`: see `_planned`."""
    return _descend_on(
        state.main,
        lambda main_l: objective.triplet_loss(images, texts, main_l, meta_new,
                                              cfg.gamma, cfg.tau,
                                              adaptive=cfg.use_adaptive_margin,
                                              feature=feature),
        state.opt_main, lr_main, "actual_update", plans,
        (images, texts, *_fields(meta_new), *(feature or ())))


def _retained_stages(state: NetState, images, texts, batch: MetaBatch,
                     alpha, cfg: TrainConfig) -> list:
    """The pick feature of the batch, then stages 1 and 2 on one retained
    record, which is freed on return.  Returns the arrays [correction
    gradients in field order..., train loss, meta loss, feature unit
    rows, feature norms].

    Stages 1 and 3 pick negatives under the same main params, so from one
    similarity feature, which the correction network does not enter: it
    is built here, off the record, for both."""
    main = state.main
    feature = ad.host(model.block_feature, model.embed_image(images, main).data,
                      model.embed_text(texts, main).data, main.sim_w)
    with ad.Tape(retain=True) as tape:
        main_l = main.lift(tape)
        meta_l = state.meta.lift(tape)
        virtual_main, train_loss = virtual_update(
            tape, main_l, meta_l, images, texts, alpha, cfg, feature)
        grads, meta_loss = meta_update(tape, virtual_main, meta_l, batch)
    return [*grads, train_loss.data, meta_loss.data, *feature]


def bilevel_step(state: NetState, images, texts, batch: MetaBatch,
                 lr_main: float, lr_meta: float, cfg: TrainConfig, plans=None):
    """One full three-stage step; returns (new state, diagnostics).  With
    `plans` (see `_planned`) the retained stages are one plan, which takes
    the virtual step size `lr_main` as an input, and the actual stage
    another; both optimizer steps run outside them."""
    alpha = np.array(lr_main, dtype=np.float64)
    *grads, train_loss, meta_loss, unit, norms = _planned(
        plans, "retained",
        [*_fields(state.main), *_fields(state.meta), images, texts,
         batch.images, batch.texts, batch.labels, alpha],
        lambda: _retained_stages(state, images, texts, batch, alpha, cfg))
    meta_new = _descend(state.meta, grads, state.opt_meta, lr_meta,
                        "meta_update")
    main_new, _ = actual_update(state, meta_new, images, texts, lr_main, cfg,
                                (unit, norms), plans)
    return (NetState(main_new, meta_new, state.opt_main, state.opt_meta),
            {"train_loss": float(train_loss), "meta_loss": float(meta_loss)})


def warmup_step(state: NetState, images, texts, batch: MetaBatch,
                lr_main: float, lr_meta: float, cfg: TrainConfig, plans=None):
    """Fixed-margin step on the main params, then a supervised step of the
    correction network at the updated main params.  `plans`: see
    `_planned`."""
    main_new, loss_val = _descend_on(
        state.main,
        lambda main_l: objective.triplet_loss(images, texts, main_l, state.meta,
                                              cfg.gamma, cfg.tau, adaptive=False),
        state.opt_main, lr_main, "warmup main", plans,
        (images, texts, *_fields(state.meta)))
    meta_new, meta_loss_val = _descend_on(
        state.meta,
        lambda meta_l: objective.meta_loss(
            batch.images, batch.texts, batch.labels, main_new, meta_l),
        state.opt_meta, lr_meta, "warmup meta", plans,
        (batch.images, batch.texts, batch.labels, *_fields(main_new)))
    return (NetState(main_new, meta_new, state.opt_main, state.opt_meta),
            {"train_loss": loss_val, "meta_loss": meta_loss_val})


def baseline_step(state: NetState, images, texts, lr_main: float,
                  cfg: TrainConfig, plans=None):
    """Fixed-margin triplet step on cosine scores; no correction network.
    `plans`: see `_planned`."""
    def loss_of(main_l):
        scores, _ = model.cosine_scores(images, texts, main_l)
        return objective.triplet_loss_from_scores(scores, cfg.gamma)

    main_new, loss_val = _descend_on(state.main, loss_of, state.opt_main,
                                     lr_main, "baseline", plans, (images, texts))
    return (NetState(main_new, state.meta, state.opt_main, state.opt_meta),
            {"train_loss": loss_val, "meta_loss": None})


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


def _purity(admitted: np.ndarray, clean: np.ndarray) -> tuple[float, float]:
    """Precision and recall of the distinct indices `admitted` for `clean`."""
    tp = int(clean[admitted].sum())
    return tp / max(admitted.size, 1), tp / max(int(clean.sum()), 1)


def _purified_pools(nets, row: dict, ds: Dataset, cfg: TrainConfig,
                    epoch: int) -> list[np.ndarray]:
    """The training pool of each net for this epoch: the set the *other*
    net admitted, or the whole train split if that set is smaller than a
    batch.  Writes each fit's counts and purity to `row`; the scores and
    mixtures die here."""
    pools = [None, None]
    for k in range(2):
        admitted, _, _ = fit_purifier(nets[k].main, nets[k].meta, ds.train,
                                      ds.meta, cfg.seed, epoch, k)
        if admitted.size < cfg.batch_size:
            log.warning("seed %d, gamma %g, %s margin, epoch %d: net %d "
                        "purified only %d pairs (< batch %d); falling back "
                        "to the full train set", cfg.seed, cfg.gamma,
                        "adaptive" if cfg.use_adaptive_margin else "fixed",
                        epoch, k + 1, admitted.size, cfg.batch_size)
            pools[1 - k] = np.arange(len(ds.train))
        else:
            pools[1 - k] = admitted
        precision, recall = _purity(admitted, ds.train.clean)
        row.update({f"net{k + 1}_purified": int(admitted.size),
                    f"net{k + 1}_purity_precision": precision,
                    f"net{k + 1}_purity_recall": recall})
    return pools


def _train_net_epoch(net: NetState, k: int, pool: np.ndarray, epoch: int,
                     warm: bool, lr_main: float, lr_meta: float, ds: Dataset,
                     cfg: TrainConfig, plans: dict):
    """One epoch of steps of network pair `k` over its training pool.

    Reads nothing the other pair's loop writes: every random draw comes
    from a stream keyed by (epoch, k, step).  Each step replays the plans
    of its stages from `plans` and captures those it lacks (see
    `_planned`).  Returns (net, the pair's metrics-row cells: its mean
    training and meta loss, where it had any)."""
    order = _rng(cfg.seed, _TAG_SHUFFLE, epoch, k).permutation(pool.size)
    shuffled = pool[order]
    losses, mlosses = [], []
    # every step is a full batch, so a plan's shapes hold for the run
    for step in range(pool.size // cfg.batch_size):
        sel = shuffled[step * cfg.batch_size:(step + 1) * cfg.batch_size]
        imgs = ds.train.images[sel]
        txts = ds.train.texts[sel]
        if cfg.mode == "fixed_margin_baseline":
            net, diag = baseline_step(net, imgs, txts, lr_main, cfg, plans=plans)
        else:
            mb = construct_meta_batch(
                ds.meta, ds.train, cfg.meta_batch_size,
                _rng(cfg.seed, _TAG_META_BATCH, epoch, k, step))
            step_fn = warmup_step if warm else bilevel_step
            net, diag = step_fn(net, imgs, txts, mb, lr_main, lr_meta, cfg,
                                plans=plans)
        if not np.isfinite(diag["train_loss"]):
            raise NonFiniteGradientError(
                f"epoch {epoch} net {k + 1}: non-finite training loss")
        losses.append(diag["train_loss"])
        if diag["meta_loss"] is not None:
            mlosses.append(diag["meta_loss"])
    return net, {f"net{k + 1}_{col}": float(np.mean(values))
                 for col, values in (("train_loss", losses), ("meta_loss", mlosses))
                 if values}


@dataclass
class RunState:
    """Everything a run carries from one epoch to the next."""
    nets: list  # one NetState per network pair, with its optimizer moments
    best_nets: list  # (main, meta) params at the best-validation epoch
    metrics: list  # the metrics row of every finished epoch
    best_epoch: int = -1
    best_rsum: float = -1.0

    @classmethod
    def init(cls, ds: Dataset, cfg: TrainConfig) -> "RunState":
        """The state before epoch 0: both network pairs at their init draws."""
        nets = [NetState.init(ds.d_img, ds.d_txt, cfg, _rng(cfg.seed, _TAG_INIT, k))
                for k in range(2)]
        return cls(nets=nets, best_nets=[(net.main, net.meta) for net in nets],
                   metrics=[])


def run_epoch(state: RunState, epoch: int, ds: Dataset, cfg: TrainConfig,
              threads=None, plans=None) -> tuple[RunState, dict]:
    """Epoch `epoch` of the schedule, from the state after the epoch before:
    the learning rates, the purified pools, each network pair's steps, the
    validation eval and the best-so-far update.  Returns the state after
    it and the epoch's metrics row, which is appended to `metrics`.

    Takes over `state`: the steps update its nets' Adam moments in place
    and the epoch's results are stored into it, so only the returned state
    may be used afterwards.  `threads`: see `train`.  `plans` is the dict
    of plans (see `_planned`) that both network pairs' steps share; with
    None, a dict of this call's own."""
    warm = epoch < cfg.warmup_epochs
    factor = cfg.lr_decay_factor if epoch >= cfg.lr_decay_epoch else 1.0
    lr_main = cfg.lr_main * factor
    lr_meta = cfg.lr_meta * factor
    plans = {} if plans is None else plans

    row = dict.fromkeys(metrics_columns(cfg.eval_ks))
    row.update(epoch=epoch, phase="warmup" if warm else "main",
               lr_main=lr_main, lr_meta=lr_meta)
    if not warm and cfg.mode == "mscn" and cfg.use_purification:
        pools = _purified_pools(state.nets, row, ds, cfg, epoch)
    else:
        pools = [np.arange(len(ds.train))] * 2
    for k in range(2):
        state.nets[k], cells = _train_net_epoch(
            state.nets[k], k, pools[k], epoch, warm, lr_main, lr_meta, ds, cfg,
            plans)
        row.update(cells)

    report = evalkit.evaluate(
        [(net.main, net.meta) for net in state.nets], ds.val,
        ks=cfg.eval_ks, scorer=SCORER_OF_MODE[cfg.mode], threads=threads)
    row.update(val_rsum=report.rsum, degenerate_pairs=report.degenerate_pairs)
    for k in cfg.eval_ks:
        row[f"val_i2t_r{k}"] = report.image_to_text[k]
        row[f"val_t2i_r{k}"] = report.text_to_image[k]
    state.metrics.append(row)
    if report.rsum > state.best_rsum:
        state.best_rsum = report.rsum
        state.best_epoch = epoch
        # optimizer steps replace arrays rather than mutate them, so
        # holding references freezes this epoch's params
        state.best_nets = [(net.main, net.meta) for net in state.nets]
    return state, row


def train(ds: Dataset, cfg: TrainConfig, out_dir=None, threads=None) -> RunState:
    """Run the schedule's epochs through `run_epoch`; returns the final state.

    With out_dir set, writes metrics.tsv (one row per epoch, flushed as it
    goes), best-validation checkpoints, and final checkpoints.  Each epoch
    trains net 1 and then net 2 on the calling thread: their steps are
    engine ops of a few microseconds that hold the interpreter lock, so a
    second thread would mostly wait for it.  `threads` caps the worker
    processes of every validation eval (see `evalkit.worker_count`); a
    split too small to share, such as the default 100-pair one, is scored
    in the calling process.  The outputs do not depend on it.

    Both network pairs and every epoch share one dict of plans, which is
    not part of the `RunState`: each stage is captured once per run, in
    the first step that runs it, and every other step replays it.
    A replay gives the bits of a recorded step, so a run resumed from a
    pickled state captures again and ends on the same bytes."""
    cfg.validate()
    if len(ds.train) < cfg.batch_size:
        raise ValueError(f"train split ({len(ds.train)}) smaller than one "
                         f"batch ({cfg.batch_size})")
    if len(ds.meta) < 1:
        raise ValueError("meta split is empty")
    if len(ds.val) < max(cfg.eval_ks):
        raise ValueError(f"validation split ({len(ds.val)}) too small for "
                         f"R@{max(cfg.eval_ks)}")

    state = RunState.init(ds, cfg)
    plans = {}
    out_path = Path(out_dir) if out_dir is not None else None
    columns = metrics_columns(cfg.eval_ks)
    metrics_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_path / "metrics.tsv", "w", encoding="utf-8")
        metrics_fh.write("\t".join(columns) + "\n")
        metrics_fh.flush()

    try:
        for epoch in range(cfg.warmup_epochs + cfg.epochs):
            state, row = run_epoch(state, epoch, ds, cfg, threads, plans)
            if out_path is not None:
                metrics_fh.write(format_metrics_row(row, columns) + "\n")
                metrics_fh.flush()
                if state.best_epoch == epoch:
                    for k, net in enumerate(state.nets):
                        model.save_checkpoint(
                            out_path / f"net{k + 1}_best.mscp", net.main, net.meta)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if out_path is not None:
        for k, net in enumerate(state.nets):
            model.save_checkpoint(out_path / f"net{k + 1}_final.mscp",
                                  net.main, net.meta)
    return state
