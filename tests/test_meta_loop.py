"""Bi-level step semantics, optimizer behavior, and the training driver."""

import gc
import threading
import weakref

import numpy as np
import pytest

from conftest import (assert_close_grad, central_difference,
                      full_matrix_triplet_loss, meta_kink_margin, rng_for,
                      triplet_kink_margin)
from mscn import autodiff as ad
from mscn import datagen, meta_loop, model, objective, purifier
from mscn.meta_loop import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                            NetState, NonFiniteGradientError,
                            TrainConfig, actual_update, baseline_step,
                            bilevel_step, construct_meta_batch, fit_purifier,
                            format_metrics_row, metrics_columns,
                            optimizer_step, train, virtual_update, warmup_step)
from test_model import tiny_nets


def tiny_cfg(**kw):
    base = dict(seed=7, batch_size=8, meta_batch_size=8, lr_main=1e-3,
                lr_meta=1e-3, warmup_epochs=1, epochs=2, lr_decay_epoch=100,
                d_emb=6, d_sim=3, branch_hidden=4, mscn_hidden=4,
                eval_ks=(1, 5))
    base.update(kw)
    return TrainConfig(**base)


def tiny_state(tag: int, d_img: int = 5, d_txt: int = 4) -> NetState:
    main, meta = tiny_nets(tag, d_img=d_img, d_txt=d_txt)
    return NetState(main=main, meta=meta, opt_main=AdamState(main.arrays()),
                    opt_meta=AdamState(meta.arrays()))


def batch_data(tag: int, n: int = 6, d_img: int = 5, d_txt: int = 4):
    rng = rng_for(9100, tag)
    return rng.normal(size=(n, d_img)), rng.normal(size=(n, d_txt))


def stamped_split(n: int, offset: int = 0, d_img: int = 5, d_txt: int = 4):
    """Split whose rows are identifiable by their first coordinate."""
    images = np.full((n, d_img), 0.25)
    texts = np.full((n, d_txt), 0.25)
    images[:, 0] = offset + np.arange(n)
    texts[:, 0] = offset + np.arange(n)
    ids = np.arange(n)
    return datagen.Split(ids=ids, images=images, texts=texts,
                         original_partner=ids.copy(),
                         clean=np.ones(n, dtype=bool),
                         cluster=np.zeros(n, dtype=np.int64))


def meta_batch_for(tag: int, m: int = 8):
    train_split = stamped_split(12)
    rng = rng_for(9200, tag)
    train_split.images[:] = rng.normal(size=train_split.images.shape)
    train_split.texts[:] = rng.normal(size=train_split.texts.shape)
    meta_split = stamped_split(4)
    meta_split.images[:] = rng.normal(size=meta_split.images.shape)
    meta_split.texts[:] = rng.normal(size=meta_split.texts.shape)
    return construct_meta_batch(meta_split, train_split, m, rng_for(9300, tag))


def small_dataset(noise: float = 0.5) -> datagen.Dataset:
    cfg = datagen.GenConfig(seed=5, n_clusters=6, pairs_per_cluster=20,
                            d_img=8, d_txt=6)
    ds = datagen.generate(cfg)
    if noise > 0:
        ds = datagen.inject_noise(ds, noise, noise_seed=11)
    return ds


def train_cfg(**kw):
    base = dict(seed=13, batch_size=16, meta_batch_size=8, lr_main=1e-3,
                lr_meta=5e-4, warmup_epochs=1, epochs=2, lr_decay_epoch=100,
                d_emb=8, d_sim=4, branch_hidden=8, mscn_hidden=8,
                eval_ks=(1, 5))
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config and optimizer


def test_default_config_is_valid_and_pinned():
    cfg = TrainConfig()
    cfg.validate()
    assert cfg.gamma == 0.2 and cfg.tau == 2.0
    assert cfg.lr_main == 2e-4 and cfg.lr_meta == 1e-2
    assert cfg.warmup_epochs == 5 and cfg.epochs == 50
    assert cfg.lr_decay_epoch == 30 and cfg.lr_decay_factor == 0.1
    assert cfg.batch_size == 64 and cfg.meta_batch_size == 64


def test_config_validation_rejects_bad_values():
    bad = [dict(mode="other"), dict(batch_size=1), dict(meta_batch_size=7),
           dict(meta_batch_size=0), dict(lr_main=-1.0), dict(epochs=-1),
           dict(lr_decay_factor=0.0), dict(warmup_epochs=0, epochs=0),
           dict(d_emb=4, d_sim=4),
           dict(eval_ks=(5, 1)), dict(eval_ks=()), dict(gamma=-0.1),
           dict(tau=0.0), dict(seed=-1)]
    for kw in bad:
        with pytest.raises(ValueError):
            tiny_cfg(**kw).validate()


def test_adam_first_step_closed_form():
    # with t=1 the bias corrections cancel: step = lr * g / (|g| + eps)
    x = np.array([1.0, -1.0, 2.0])
    g = np.array([0.3, -0.7, 0.0])
    state = AdamState([x])
    (out,) = optimizer_step([x], [g], state, 0.01)
    expected = x - 0.01 * g / (np.abs(g) + ADAM_EPS)
    np.testing.assert_allclose(out, expected, rtol=1e-15)
    assert state.t == 1


def test_adam_matches_reference_loop():
    rng = rng_for(9001)
    x = rng.normal(size=7)
    state = AdamState([x])
    ref = x.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    cur = [x.copy()]
    for t in range(1, 11):
        g = 2.0 * cur[0]  # gradient of sum(x^2)
        cur = optimizer_step(cur, [g], state, 0.05)
        gr = 2.0 * ref
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * gr
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * gr * gr
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        ref = ref - 0.05 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    np.testing.assert_array_equal(cur[0], ref)
    assert np.all(np.abs(cur[0]) < np.abs(x))  # it did descend


def _reference_step(arrays, grads, m, v, t, lr):
    """Per-array update with the formula applied to each tensor alone."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    out = []
    for i, (a, g) in enumerate(zip(arrays, grads)):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        m_hat = m[i] / (1 - b1 ** t)
        v_hat = v[i] / (1 - b2 ** t)
        out.append(a - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


def test_flat_step_matches_per_array_loop_bitwise():
    rng = rng_for(9003)
    main = model.MainNetParams.init(16, 12, 64, 32, rng)
    cur = main.arrays()
    ref = [a.copy() for a in cur]
    m = [np.zeros_like(a) for a in cur]
    v = [np.zeros_like(a) for a in cur]
    state = AdamState(cur)
    for t in range(1, 11):
        grads = [rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 2)
                 for a in cur]
        grads[t % len(grads)][0] = 0.0
        cur = optimizer_step(cur, grads, state, 0.05)
        ref = _reference_step(ref, grads, m, v, t, 0.05)
        assert [a.shape for a in cur] == [a.shape for a in ref]
        for got, want in zip(cur, ref):
            assert got.tobytes() == want.tobytes()
    assert state.t == 10


def test_non_finite_gradient_names_its_tensor():
    rng = rng_for(9004)
    arrays = model.MainNetParams.init(16, 12, 64, 32, rng).arrays()
    names = model.MainNetParams.FIELDS
    for bad in (np.nan, np.inf):
        grads = [np.zeros_like(a) for a in arrays]
        grads[4][3, 2] = bad
        state = AdamState(arrays)
        with pytest.raises(NonFiniteGradientError,
                           match=r"^ctx: non-finite gradient in txt_w1 "):
            optimizer_step(arrays, grads, state, 0.1, names, "ctx")
        with pytest.raises(NonFiniteGradientError, match="in array 4 "):
            optimizer_step(arrays, grads, state, 0.1)
        assert state.t == 0 and not state.m.any() and not state.v.any()


def test_optimizer_identity_cases():
    rng = rng_for(9002)
    x = rng.normal(size=5)
    g = rng.normal(size=5)
    (out,) = optimizer_step([x.copy()], [g], AdamState([x]), 0.0)
    np.testing.assert_array_equal(out, x)
    (out,) = optimizer_step([x.copy()], [np.zeros(5)], AdamState([x]), 0.3)
    np.testing.assert_array_equal(out, x)


# ---------------------------------------------------------------------------
# meta batch construction


def test_meta_batch_composition():
    train_split = stamped_split(30)
    meta_split = stamped_split(5, offset=1000)
    mb = construct_meta_batch(meta_split, train_split, 10, rng_for(9010))
    assert mb.images.shape == (10, 5) and mb.texts.shape == (10, 4)
    np.testing.assert_array_equal(mb.labels, [1] * 5 + [0] * 5)
    # positives are aligned rows of the trusted split
    assert np.all(mb.images[:5, 0] >= 1000)
    np.testing.assert_array_equal(mb.images[:5, 0], mb.texts[:5, 0])
    # negatives pair image i with text j, i != j, both from the train split
    assert np.all(mb.images[5:, 0] < 1000)
    assert np.all(mb.images[5:, 0] != mb.texts[5:, 0])


def test_meta_batch_negatives_never_collide():
    train_split = stamped_split(3)
    meta_split = stamped_split(2, offset=1000)
    for seed in range(40):
        mb = construct_meta_batch(meta_split, train_split, 20, rng_for(9011, seed))
        assert np.all(mb.images[10:, 0] != mb.texts[10:, 0])


def test_meta_batch_deterministic():
    train_split = stamped_split(30)
    meta_split = stamped_split(5, offset=1000)
    a = construct_meta_batch(meta_split, train_split, 12, rng_for(9012))
    b = construct_meta_batch(meta_split, train_split, 12, rng_for(9012))
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.texts, b.texts)


def test_meta_batch_validation():
    train_split = stamped_split(10)
    meta_split = stamped_split(3, offset=100)
    with pytest.raises(ValueError):
        construct_meta_batch(meta_split, train_split, 7, rng_for(0))
    with pytest.raises(ValueError):
        construct_meta_batch(meta_split, train_split, 0, rng_for(0))
    with pytest.raises(ValueError):
        construct_meta_batch(stamped_split(0), train_split, 4, rng_for(0))
    with pytest.raises(ValueError):
        construct_meta_batch(meta_split, stamped_split(1), 4, rng_for(0))


# ---------------------------------------------------------------------------
# virtual / meta / actual updates


def test_virtual_update_zero_alpha_is_identity():
    state = tiny_state(9020)
    imgs, txts = batch_data(9020)
    cfg = tiny_cfg()
    with ad.Tape(retain=True) as tape:
        main_l = state.main.lift(tape)
        meta_l = state.meta.lift(tape)
        virt, loss = virtual_update(tape, main_l, meta_l, imgs, txts, 0.0, cfg)
    for (name, orig), (_, stepped) in zip(state.main.items(), virt.items()):
        np.testing.assert_array_equal(stepped.data, orig, err_msg=name)
    assert np.isfinite(loss.item())


def test_virtual_update_matches_plain_descent_step():
    state = tiny_state(9021)
    imgs, txts = batch_data(9021)
    cfg = tiny_cfg()
    alpha = 0.05
    with ad.Tape() as tape:
        main_l = state.main.lift(tape)
        loss = objective.triplet_loss(imgs, txts, main_l, state.meta,
                                      cfg.gamma, cfg.tau, adaptive=True)
        grads = ad.backward(tape, loss)
        plain = {name: np.asarray(orig) - alpha * grads[t].data
                 for (name, orig), (_, t) in zip(state.main.items(), main_l.items())}
    with ad.Tape(retain=True) as tape:
        main_l = state.main.lift(tape)
        meta_l = state.meta.lift(tape)
        virt, _ = virtual_update(tape, main_l, meta_l, imgs, txts, alpha, cfg)
    for name, stepped in virt.items():
        np.testing.assert_array_equal(stepped.data, plain[name], err_msg=name)


def flatten_meta(meta: model.MetaNetParams) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in meta.arrays()])


def unflatten_meta(vec: np.ndarray, like: model.MetaNetParams) -> model.MetaNetParams:
    arrays = []
    pos = 0
    for a in like.arrays():
        arrays.append(vec[pos:pos + a.size].reshape(a.shape).copy())
        pos += a.size
    return like.with_arrays(arrays)


def test_meta_gradient_matches_finite_differences():
    """d(meta loss)/d(correction params) through the recorded virtual step."""
    cfg = tiny_cfg()
    alpha = 2e-3
    checked = 0
    for seed in range(60):
        state = tiny_state(9030 + seed)
        imgs, txts = batch_data(9030 + seed, n=5)
        mb = meta_batch_for(9030 + seed, m=8)
        if triplet_kink_margin(imgs, txts, state.main, state.meta,
                               cfg.gamma, cfg.tau) < 1e-3:
            continue

        def run(vec, want_grad=False):
            meta_p = unflatten_meta(vec, state.meta)
            with ad.Tape(retain=True) as tape:
                main_l = state.main.lift(tape)
                meta_l = meta_p.lift(tape)
                virt, _ = virtual_update(tape, main_l, meta_l, imgs, txts,
                                         alpha, cfg)
                mloss = objective.meta_loss(mb.images, mb.texts, mb.labels,
                                            virt, meta_l)
                if not want_grad:
                    return mloss.item(), virt
                grads = ad.backward(tape, mloss)
                return np.concatenate([grads[t].data.reshape(-1)
                                       for _, t in meta_l.items()])

        theta = flatten_meta(state.meta)
        _, virt = run(theta)
        virt_np = state.main.with_arrays([t.data for _, t in virt.items()])
        if meta_kink_margin(mb.images, mb.texts, virt_np, state.meta) < 1e-3:
            continue
        analytic = run(theta, want_grad=True)
        numeric = central_difference(lambda v: run(v)[0], theta)
        assert_close_grad(analytic, numeric, rel=1e-4, abs_floor=1e-9,
                          label=f"seed {seed}")
        checked += 1
        if checked >= 4:
            break
    assert checked >= 4


def test_meta_gradient_matches_full_matrix_form(monkeypatch):
    """The meta gradient of the retained stages, taken through the virtual
    step (second order), is the same when the triplet loss records every
    cell of the score matrix: within 1e-12 of its largest entry."""
    def full_matrix(images, texts, main, meta, gamma, tau, adaptive=True,
                    feature=None):
        scores, _ = model.all_pairs_scores(images, texts, main, meta)
        return full_matrix_triplet_loss(scores, gamma, tau, adaptive=adaptive)

    def meta_grads(loss, state, imgs, txts, mb, cfg):
        grads = []

        def capture(params, lifted, g, opt, lr, context):
            grads.append([g[t].data for _, t in lifted.items()])
            return params

        with monkeypatch.context() as m:
            m.setattr(meta_loop, "_descend", capture)
            m.setattr(objective, "triplet_loss", loss)
            meta_loop._retained_stages(state, imgs, txts, mb, cfg.lr_main,
                                       cfg.lr_meta, cfg)
        return grads[0]

    for seed in range(20):
        imgs, txts = batch_data(9035 + seed, n=6)
        mb = meta_batch_for(9035 + seed)
        state = tiny_state(9035 + seed)
        for adaptive in (True, False):
            cfg = tiny_cfg(lr_main=0.05, use_adaptive_margin=adaptive)
            got = meta_grads(objective.triplet_loss, state, imgs, txts, mb, cfg)
            want = meta_grads(full_matrix, state, imgs, txts, mb, cfg)
            tol = 1e-12 * max(np.abs(w).max() for w in want)
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= tol, (seed, adaptive)


def test_bilevel_zero_meta_lr_keeps_meta_and_steps_main():
    cfg = tiny_cfg(lr_meta=0.0)
    imgs, txts = batch_data(9040)
    mb = meta_batch_for(9040)
    state = tiny_state(9040)
    new_state, diag = bilevel_step(state, imgs, txts, mb, cfg.lr_main, 0.0, cfg)
    for (name, a), (_, b) in zip(state.meta.items(), new_state.meta.items()):
        np.testing.assert_array_equal(np.asarray(b), np.asarray(a), err_msg=name)
    # main step must equal a plain step under the (unchanged) correction net
    ref_state = tiny_state(9040)
    ref_main, _ = actual_update(ref_state, ref_state.meta, imgs, txts,
                                cfg.lr_main, cfg)
    for (name, a), (_, b) in zip(new_state.main.items(), ref_main.items()):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b), err_msg=name)
    assert np.isfinite(diag["train_loss"]) and np.isfinite(diag["meta_loss"])


def test_bilevel_zero_main_lr_reduces_to_direct_meta_gradient():
    # with alpha=0 the virtual params equal the originals, so the meta step
    # must match a supervised step of the correction net at fixed main params
    cfg = tiny_cfg(lr_main=0.0)
    imgs, txts = batch_data(9041)
    mb = meta_batch_for(9041)
    state = tiny_state(9041)
    new_state, _ = bilevel_step(state, imgs, txts, mb, 0.0, cfg.lr_meta, cfg)
    ref = tiny_state(9041)
    with ad.Tape() as tape:
        meta_l = ref.meta.lift(tape)
        mloss = objective.meta_loss(mb.images, mb.texts, mb.labels,
                                    ref.main, meta_l)
        grads = ad.backward(tape, mloss)
    g = [grads[t].data for _, t in meta_l.items()]
    expected = optimizer_step(ref.meta.arrays(), g, ref.opt_meta, cfg.lr_meta)
    for (name, got), want in zip(new_state.meta.items(), expected):
        np.testing.assert_array_equal(np.asarray(got), want, err_msg=name)
    # main params did not move
    for (name, a), (_, b) in zip(state.main.items(), new_state.main.items()):
        np.testing.assert_array_equal(np.asarray(b), np.asarray(a), err_msg=name)


def test_bilevel_meta_step_uses_second_order_path():
    # with alpha > 0 the meta update must differ from the direct-gradient
    # step, proving the virtual-params path carries signal
    cfg = tiny_cfg()
    imgs, txts = batch_data(9042)
    mb = meta_batch_for(9042)
    direct, _ = bilevel_step(tiny_state(9042), imgs, txts, mb, 0.0,
                             cfg.lr_meta, cfg)
    through, _ = bilevel_step(tiny_state(9042), imgs, txts, mb, 0.5,
                              cfg.lr_meta, cfg)
    deltas = [np.max(np.abs(np.asarray(a) - np.asarray(b)))
              for (_, a), (_, b) in zip(direct.meta.items(), through.meta.items())]
    assert max(deltas) > 0.0


def test_bilevel_deterministic():
    cfg = tiny_cfg()
    imgs, txts = batch_data(9043)
    mb = meta_batch_for(9043)
    outs = []
    for _ in range(2):
        state = tiny_state(9043)
        new_state, diag = bilevel_step(state, imgs, txts, mb, cfg.lr_main,
                                       cfg.lr_meta, cfg)
        outs.append((new_state, diag))
    for (_, a), (_, b) in zip(outs[0][0].main.items(), outs[1][0].main.items()):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    for (_, a), (_, b) in zip(outs[0][0].meta.items(), outs[1][0].meta.items()):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    assert outs[0][1] == outs[1][1]


def test_bilevel_builds_the_pick_feature_once(monkeypatch):
    """Stages 1 and 3 pick from one similarity feature of the batch's n^2
    cells, built once per step, and a step that builds it in each stage
    gives the same bytes.  A warmup step builds it once too."""
    cfg = tiny_cfg()
    imgs, txts = batch_data(9045, n=8)
    mb = meta_batch_for(9045)
    state = tiny_state(9045)
    meta_new, _, _ = meta_loop._retained_stages(
        tiny_state(9045), imgs, txts, mb, cfg.lr_main, cfg.lr_meta, cfg)
    want, _ = actual_update(tiny_state(9045), meta_new, imgs, txts,
                            cfg.lr_main, cfg)
    shapes = []
    real = model.block_feature

    def spy(u, v, *args, **kwargs):
        shapes.append((len(u), len(v)))
        return real(u, v, *args, **kwargs)

    monkeypatch.setattr(model, "block_feature", spy)
    monkeypatch.setattr(objective, "block_feature", spy)
    got, _ = bilevel_step(state, imgs, txts, mb, cfg.lr_main, cfg.lr_meta, cfg)
    assert shapes == [(8, 8)]
    for (name, a), (_, b) in zip(got.main.items(), want.items()):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    for (name, a), (_, b) in zip(got.meta.items(), meta_new.items()):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    warmup_step(tiny_state(9045), imgs, txts, mb, cfg.lr_main, cfg.lr_meta,
                cfg)
    assert shapes == [(8, 8)] * 2


def test_bilevel_rejects_non_finite():
    # poisoned params must abort the step; depending on where the NaN
    # surfaces it trips either domain validation or the gradient check
    cfg = tiny_cfg()
    imgs, txts = batch_data(9044)
    mb = meta_batch_for(9044)
    state = tiny_state(9044)
    poisoned = state.meta.arrays()
    poisoned[0] = poisoned[0].copy()
    poisoned[0][0, 0] = np.nan
    state.meta = state.meta.with_arrays(poisoned)
    with pytest.raises((NonFiniteGradientError, ValueError)):
        bilevel_step(state, imgs, txts, mb, cfg.lr_main, cfg.lr_meta, cfg)
    from mscn.meta_loop import _check_finite
    bad, good = np.array([1.0, np.inf]), np.array([1.0, 2.0])
    with pytest.raises(NonFiniteGradientError, match="in w "):
        _check_finite(bad, [bad], ["w"], "test")
    _check_finite(good, [good], ["w"], "test")


@pytest.mark.parametrize("context, step, poisoned_call", [
    ("warmup main", "warmup", 1),
    ("warmup meta", "warmup", 2),
    ("meta_update", "bilevel", 1),
    ("actual_update", "bilevel", 2),
    ("baseline", "baseline", 1),
])
def test_every_descent_checks_its_gradients(monkeypatch, context, step,
                                            poisoned_call):
    """Each optimizer step refuses a non-finite gradient and names its
    stage.  The n-th first-order sweep of the step returns one inf entry
    (the virtual stage sweeps with backward_retaining, which is left
    alone)."""
    real_backward = ad.backward
    calls = []

    def poisoned_backward(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        calls.append(None)
        if len(calls) == poisoned_call:
            first = next(iter(grads))
            bad = grads[first].data.copy()
            bad.flat[0] = np.inf
            grads[first] = ad.Tensor(bad)
        return grads

    monkeypatch.setattr(ad, "backward", poisoned_backward)
    cfg = tiny_cfg()
    imgs, txts = batch_data(9045)
    mb = meta_batch_for(9045)
    run = {
        "warmup": lambda s: warmup_step(s, imgs, txts, mb, 1e-3, 1e-3, cfg),
        "bilevel": lambda s: bilevel_step(s, imgs, txts, mb, 1e-3, 1e-3, cfg),
        "baseline": lambda s: baseline_step(s, imgs, txts, 1e-3, cfg),
    }[step]
    with pytest.raises(NonFiniteGradientError, match=f"^{context}: non-finite"):
        run(tiny_state(9045))
    assert len(calls) == poisoned_call


# ---------------------------------------------------------------------------
# warmup and baseline steps


def test_warmup_main_step_uses_fixed_margin():
    cfg = tiny_cfg()
    imgs, txts = batch_data(9051)
    state = tiny_state(9051)
    new_state, _ = warmup_step(state, imgs, txts, meta_batch_for(9051),
                               cfg.lr_main, cfg.lr_meta, cfg)
    ref = tiny_state(9051)
    with ad.Tape() as tape:
        main_l = ref.main.lift(tape)
        loss = objective.triplet_loss(imgs, txts, main_l, ref.meta,
                                      cfg.gamma, cfg.tau, adaptive=False)
        grads = ad.backward(tape, loss)
    g = [grads[t].data for _, t in main_l.items()]
    expected = optimizer_step(ref.main.arrays(), g, ref.opt_main, cfg.lr_main)
    for (name, got), want in zip(new_state.main.items(), expected):
        np.testing.assert_array_equal(np.asarray(got), want, err_msg=name)


def test_warmup_meta_step_is_supervised_at_updated_main():
    cfg = tiny_cfg()
    imgs, txts = batch_data(9052)
    mb = meta_batch_for(9052)
    state = tiny_state(9052)
    new_state, diag = warmup_step(state, imgs, txts, mb, cfg.lr_main,
                                  cfg.lr_meta, cfg)
    assert diag["meta_loss"] is not None
    # the main step does not read the meta batch (see the test above)
    ref_after, _ = warmup_step(tiny_state(9052), imgs, txts, mb, cfg.lr_main,
                               cfg.lr_meta, cfg)
    ref = tiny_state(9052)
    with ad.Tape() as tape:
        meta_l = ref.meta.lift(tape)
        mloss = objective.meta_loss(mb.images, mb.texts, mb.labels,
                                    ref_after.main, meta_l)
        grads = ad.backward(tape, mloss)
    g = [grads[t].data for _, t in meta_l.items()]
    expected = optimizer_step(ref.meta.arrays(), g, ref.opt_meta, cfg.lr_meta)
    for (name, got), want in zip(new_state.meta.items(), expected):
        np.testing.assert_array_equal(np.asarray(got), want, err_msg=name)


def test_baseline_step_ignores_meta():
    cfg = tiny_cfg(mode="fixed_margin_baseline")
    imgs, txts = batch_data(9053)
    state = tiny_state(9053)
    new_state, diag = baseline_step(state, imgs, txts, cfg.lr_main, cfg)
    assert new_state.meta is state.meta
    assert diag["meta_loss"] is None
    changed = any(not np.array_equal(np.asarray(a), np.asarray(b))
                  for (_, a), (_, b) in zip(state.main.items(),
                                            new_state.main.items()))
    assert changed


# ---------------------------------------------------------------------------
# purifier wiring


def test_steps_free_their_records_without_the_cyclic_gc(monkeypatch):
    """Each kind of step leaves no reference cycles behind: with the cyclic
    collector off, its records are dead as soon as it returns."""
    tapes = []

    class TrackedTape(ad.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(ad, "Tape", TrackedTape)
    cfg = tiny_cfg()
    imgs, txts = batch_data(40)
    mb = meta_batch_for(40)
    steps = {
        "warmup": lambda s: warmup_step(s, imgs, txts, mb, 1e-3, 1e-3, cfg),
        "bilevel": lambda s: bilevel_step(s, imgs, txts, mb, 1e-3, 1e-3, cfg),
        "baseline": lambda s: baseline_step(s, imgs, txts, 1e-3, cfg),
    }
    gc.collect()
    gc.disable()
    try:
        for name, step in steps.items():
            state, _ = step(tiny_state(40))  # settles any one-time caches
            gc.collect()
            tapes.clear()
            state, _ = step(state)
            assert tapes and all(ref() is None for ref in tapes), name
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_retained_record_is_freed_before_the_actual_step(monkeypatch):
    """A bilevel step holds one record at a time: the retained record of
    the virtual and meta stages is dead by reference counting when the
    actual stage starts."""
    retained = []

    class TrackedTape(ad.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.retain:
                retained.append(weakref.ref(self))

    alive = []
    real_actual_update = meta_loop.actual_update

    def spy(*args, **kwargs):
        alive.append([ref() is not None for ref in retained])
        return real_actual_update(*args, **kwargs)

    monkeypatch.setattr(ad, "Tape", TrackedTape)
    monkeypatch.setattr(meta_loop, "actual_update", spy)
    cfg = tiny_cfg()
    imgs, txts = batch_data(41)
    gc.collect()
    gc.disable()
    try:
        bilevel_step(tiny_state(41), imgs, txts, meta_batch_for(41), 1e-3, 1e-3, cfg)
    finally:
        gc.enable()
    assert alive == [[False]]


def test_fit_purifier_provenance():
    ds = small_dataset(noise=0.5)
    state = tiny_state(9060, d_img=8, d_txt=6)
    admitted, fit, scores = fit_purifier(state.main, state.meta, ds.train,
                                         ds.meta, seed=3, epoch=0, net_idx=0)
    assert scores.shape == (len(ds.train),)
    assert np.all((scores >= purifier.SCORE_CLAMP_LO)
                  & (scores <= purifier.SCORE_CLAMP_HI))
    post = purifier.posterior_clean(fit.mixture, scores)
    np.testing.assert_array_equal(admitted, np.flatnonzero(post > 0.5))


def test_fit_purifier_deterministic():
    ds = small_dataset(noise=0.5)
    state = tiny_state(9061, d_img=8, d_txt=6)
    a = fit_purifier(state.main, state.meta, ds.train, ds.meta,
                     seed=3, epoch=2, net_idx=1)
    b = fit_purifier(state.main, state.meta, ds.train, ds.meta,
                     seed=3, epoch=2, net_idx=1)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[2], b[2])


# ---------------------------------------------------------------------------
# the full driver


def test_train_smoke_and_outputs(tmp_path):
    ds = small_dataset(noise=0.5)
    cfg = train_cfg()
    result = train(ds, cfg, out_dir=tmp_path)
    assert len(result.metrics) == 3
    assert [r["phase"] for r in result.metrics] == ["warmup", "main", "main"]
    lines = (tmp_path / "metrics.tsv").read_text().splitlines()
    assert lines[0] == "\t".join(metrics_columns(cfg.eval_ks))
    assert "val_i2t_r5" in lines[0] and "val_i2t_r10" not in lines[0]
    assert len(lines) == 4
    for name in ("net1_best.mscp", "net2_best.mscp",
                 "net1_final.mscp", "net2_final.mscp"):
        assert (tmp_path / name).exists()
    # final checkpoints hold exactly the returned params
    for k, net in enumerate(result.nets):
        main, meta = model.load_checkpoint(tmp_path / f"net{k + 1}_final.mscp")
        for (_, a), (_, b) in zip(main.items(), net.main.items()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        for (_, a), (_, b) in zip(meta.items(), net.meta.items()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    # best checkpoints hold the best-validation params
    for k, (best_main, best_meta) in enumerate(result.best_nets):
        main, meta = model.load_checkpoint(tmp_path / f"net{k + 1}_best.mscp")
        for (_, a), (_, b) in zip(main.items(), best_main.items()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        for (_, a), (_, b) in zip(meta.items(), best_meta.items()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    rsums = [r["val_rsum"] for r in result.metrics]
    assert result.best_rsum == max(rsums)
    assert result.best_epoch == rsums.index(max(rsums))
    assert result.final_val.rsum == rsums[-1]
    # warmup rows carry no purifier columns, main rows do
    assert result.metrics[0]["net1_purified"] is None
    assert result.metrics[1]["net1_purified"] is not None
    assert result.metrics[1]["net1_meta_loss"] is not None


def test_train_bitwise_deterministic(tmp_path):
    ds = small_dataset(noise=0.5)
    outs = []
    for run_idx in range(2):
        out = tmp_path / f"run{run_idx}"
        result = train(ds, train_cfg(), out_dir=out)
        outs.append((result, (out / "metrics.tsv").read_bytes(),
                     (out / "net1_final.mscp").read_bytes(),
                     (out / "net2_final.mscp").read_bytes()))
    assert outs[0][1] == outs[1][1]
    assert outs[0][2] == outs[1][2]
    assert outs[0][3] == outs[1][3]
    for (_, a), (_, b) in zip(outs[0][0].nets[0].main.items(),
                              outs[1][0].nets[0].main.items()):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_train_seed_changes_outcome():
    ds = small_dataset(noise=0.5)
    a = train(ds, train_cfg(seed=13, warmup_epochs=1, epochs=0))
    b = train(ds, train_cfg(seed=14, warmup_epochs=1, epochs=0))
    same = all(np.array_equal(np.asarray(x), np.asarray(y))
               for (_, x), (_, y) in zip(a.nets[0].main.items(),
                                         b.nets[0].main.items()))
    assert not same


def test_train_audit_provenance():
    ds = small_dataset(noise=0.5)
    result = train(ds, train_cfg())
    assert len(result.audit) == 4  # 2 nets x 2 main epochs
    n = len(ds.train)
    for entry in result.audit:
        assert entry["trains"] == 1 - entry["scored_by"]
        mix = purifier.BetaMixture(alpha=entry["alpha"], beta=entry["beta"],
                                   weight=entry["weight"])
        post = purifier.posterior_clean(mix, entry["scores"])
        np.testing.assert_array_equal(entry["admitted"],
                                      np.flatnonzero(post > 0.5))
        if entry["fallback"]:
            np.testing.assert_array_equal(entry["pool"], np.arange(n))
        else:
            np.testing.assert_array_equal(entry["pool"], entry["admitted"])
    by_epoch = {(e["epoch"], e["scored_by"]): e for e in result.audit}
    for epoch in (1, 2):
        row = result.metrics[epoch]
        assert row["net1_purified"] == by_epoch[(epoch, 0)]["admitted"].size
        assert row["net2_purified"] == by_epoch[(epoch, 1)]["admitted"].size


def test_train_baseline_mode():
    ds = small_dataset(noise=0.5)
    cfg = train_cfg(mode="fixed_margin_baseline", warmup_epochs=0, epochs=2)
    result = train(ds, cfg)
    assert len(result.audit) == 0
    for row in result.metrics:
        assert row["net1_meta_loss"] is None
        assert row["net1_purified"] is None
    # the correction nets never move in baseline mode
    from mscn.meta_loop import _rng, _TAG_INIT
    for k in range(2):
        rng = _rng(cfg.seed, _TAG_INIT, k)
        main0 = model.MainNetParams.init(ds.d_img, ds.d_txt, cfg.d_emb,
                                         cfg.d_sim, rng,
                                         hidden=cfg.branch_hidden)
        meta0 = model.MetaNetParams.init(cfg.d_sim, rng, hidden=cfg.mscn_hidden)
        for (_, a), (_, b) in zip(result.nets[k].meta.items(), meta0.items()):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        moved = any(not np.array_equal(np.asarray(a), np.asarray(b))
                    for (_, a), (_, b) in zip(result.nets[k].main.items(),
                                              main0.items()))
        assert moved


def test_train_lr_decay_schedule():
    ds = small_dataset(noise=0.0)
    cfg = train_cfg(warmup_epochs=0, epochs=3, lr_decay_epoch=1,
                    lr_decay_factor=0.1)
    result = train(ds, cfg)
    lrs = [r["lr_main"] for r in result.metrics]
    assert lrs == [cfg.lr_main, cfg.lr_main * 0.1, cfg.lr_main * 0.1]


@pytest.mark.parametrize("warmup_epochs, epochs", [(1, 0), (0, 1)])
def test_non_finite_loss_in_threaded_net_2_matches_serial(
        monkeypatch, warmup_epochs, epochs):
    """A non-finite training loss of net 2 aborts the run with the serial
    path's error, also when net 2's steps run on their own thread (warmup
    and bilevel loops alike)."""
    made = []

    class NumberedAdam(AdamState):
        def __init__(self, arrays):
            super().__init__(arrays)
            made.append(self)  # per net: main, then meta

    net2_threads = set()

    def poison(real):
        def step(state, *args, **kwargs):
            new, diag = real(state, *args, **kwargs)
            if state.opt_main is made[2]:
                net2_threads.add(threading.get_ident())
                diag = dict(diag, train_loss=float("nan"))
            return new, diag
        return step

    monkeypatch.setattr(meta_loop, "AdamState", NumberedAdam)
    monkeypatch.setattr(meta_loop, "warmup_step", poison(warmup_step))
    monkeypatch.setattr(meta_loop, "bilevel_step", poison(bilevel_step))
    ds = small_dataset(noise=0.5)
    cfg = train_cfg(warmup_epochs=warmup_epochs, epochs=epochs)
    messages = {}
    for threads in (1, 2):
        made.clear()
        net2_threads.clear()
        with pytest.raises(NonFiniteGradientError) as err:
            train(ds, cfg, threads=threads)
        messages[threads] = str(err.value)
        on_calling_thread = net2_threads == {threading.get_ident()}
        assert on_calling_thread == (threads == 1)
    assert messages[1] == messages[2] == "epoch 0 net 2: non-finite training loss"


def test_train_no_purification_switch():
    ds = small_dataset(noise=0.5)
    cfg = train_cfg(warmup_epochs=0, epochs=1, use_purification=False)
    result = train(ds, cfg)
    assert result.audit == []
    assert result.metrics[0]["net1_purified"] is None


def test_warmup_scores_separate_clean_from_noisy():
    """After warmup alone on 40%-corrupted default-scale data, the corrected
    scores are already bimodal: clean pairs average above noisy pairs."""
    base = datagen.generate(datagen.GenConfig())
    ds = datagen.inject_noise(base, 0.4, noise_seed=20240602)
    result = train(ds, TrainConfig(epochs=0))
    clean = ds.train.clean
    for net in result.nets:
        s = model.pair_score(ad.Tensor(ds.train.images),
                             ad.Tensor(ds.train.texts),
                             net.main, net.meta).data
        assert s[clean].mean() > s[~clean].mean()


def test_train_validation_errors():
    ds = small_dataset(noise=0.0)
    with pytest.raises(ValueError):
        train(ds, train_cfg(batch_size=4096))
    with pytest.raises(ValueError):
        train(ds, train_cfg(eval_ks=(1, 500)))


def test_format_metrics_row():
    columns = metrics_columns(TrainConfig().eval_ks)
    row = {c: None for c in columns}
    row.update(epoch=3, phase="main", lr_main=2e-4, val_rsum=123.5,
               net1_purified=77, degenerate_pairs=0)
    cells = format_metrics_row(row, columns).split("\t")
    assert len(cells) == len(columns)
    assert cells[0] == "3" and cells[1] == "main"
    assert cells[2] == f"{2e-4:.17g}"
    assert cells[3] == "-"
    assert cells[columns.index("net1_purified")] == "77"
    assert cells[columns.index("val_rsum")] == f"{123.5:.17g}"


def test_default_metrics_header_is_pinned():
    assert "\t".join(metrics_columns(TrainConfig().eval_ks)) == "\t".join((
        "epoch", "phase", "lr_main", "lr_meta",
        "net1_train_loss", "net1_meta_loss", "net2_train_loss", "net2_meta_loss",
        "net1_purified", "net2_purified",
        "net1_purity_precision", "net1_purity_recall",
        "net2_purity_precision", "net2_purity_recall",
        "val_i2t_r1", "val_i2t_r5", "val_i2t_r10",
        "val_t2i_r1", "val_t2i_r5", "val_t2i_r10",
        "val_rsum", "degenerate_pairs"))


def test_metrics_tsv_follows_eval_ks(tmp_path):
    """Every cutoff in eval_ks gets its columns, so the recall cells of
    each row add up to that row's val_rsum."""
    train(small_dataset(noise=0.5), train_cfg(eval_ks=(1, 3)), out_dir=tmp_path)
    header, *rows = (tmp_path / "metrics.tsv").read_text().splitlines()
    header = header.split("\t")
    recall = [i for i, c in enumerate(header) if c.startswith(("val_i2t_r", "val_t2i_r"))]
    assert [header[i] for i in recall] == [
        "val_i2t_r1", "val_i2t_r3", "val_t2i_r1", "val_t2i_r3"]
    assert len(rows) == 3
    for line in rows:
        cells = line.split("\t")
        assert len(cells) == len(header)
        total = sum(float(cells[i]) for i in recall)
        assert total == pytest.approx(float(cells[header.index("val_rsum")]), rel=1e-12)
