"""Acceptance gate: nine tests, one per shipped guarantee.

Each test pins its own tolerance and, where one applies, a wall-clock
budget.  The end-to-end trend test also pins golden retrieval numbers
frozen from its first oracle run; under the fixed seed they must
reproduce bitwise, so any numeric drift in the pipeline fails loudly.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from mscn import autodiff as ad
from mscn import datagen, evalkit, model, objective, purifier
from mscn.meta_loop import TrainConfig, train, virtual_update
from conftest import (
    assert_close_grad,
    central_difference,
    meta_kink_margin,
    rng_for,
    triplet_kink_margin,
)

# FD checks only hold at a safe distance from relu/argmax/clamp switches
KINK_CLEARANCE = 1e-3


# ---------------------------------------------------------------------------
# 1. gradient suite: every loss and network op against central differences


def _rand_main(rng, d_img, d_txt, d_emb, d_sim, hidden):
    return model.MainNetParams.init(d_img, d_txt, d_emb, d_sim, rng, hidden=hidden)


def _rand_meta(rng, d_sim, hidden):
    return model.MetaNetParams.init(d_sim, rng, hidden=hidden)


def _preact_margin(x, w, b):
    return float(np.abs(np.asarray(x) @ np.asarray(w) + np.asarray(b)).min())


def _projected(out: ad.Tensor, proj: np.ndarray) -> ad.Tensor:
    return ad.reduce_sum(ad.mul(out, ad.Tensor(proj)))


def _fixed_hinge_margin(s: np.ndarray, gamma: float) -> float:
    """Distance of a fixed-margin hinge loss on the score matrix `s` from
    its switches: a tie for some hardest negative, or a hinge at zero."""
    off = s + np.where(np.eye(len(s), dtype=bool), -np.inf, 0.0)
    diag = np.diag(s)
    margins = []
    for mat in (off, off.T):
        top2 = np.sort(mat, axis=1)[:, -2:]
        margins.append(float((top2[:, 1] - top2[:, 0]).min()))
        margins.append(float(np.abs(gamma - diag + mat.max(axis=1)).min()))
    return min(margins)


def _unit_feature_margins(imgs, txts, main, meta):
    """Distance from the relu and normalization switches along pair scoring."""
    u = model.embed_image(imgs, main).data
    v = model.embed_text(txts, main).data
    proj = ((u - v) ** 2) @ np.asarray(main.sim_w)
    norms = np.linalg.norm(proj, axis=-1)
    feats = proj / norms[:, None]
    return [
        _preact_margin(imgs, main.img_w1, main.img_b1),
        _preact_margin(txts, main.txt_w1, main.txt_b1),
        float(norms.min()),
        _preact_margin(feats, meta.w1, meta.b1),
    ]


def _gradient_case(kind: str, rng):
    """One randomized configuration: leaf arrays, a scalar forward over them,
    and the margin to the nearest non-smooth switch."""
    n = int(rng.integers(3, 6))
    d_img, d_txt = int(rng.integers(3, 6)), int(rng.integers(3, 6))
    d_emb, d_sim, hidden = 5, 3, 4
    main = _rand_main(rng, d_img, d_txt, d_emb, d_sim, hidden)
    meta = _rand_meta(rng, d_sim, hidden=3)
    imgs = rng.normal(size=(n, d_img))
    txts = rng.normal(size=(n, d_txt))
    leaves = {"imgs": imgs, "txts": txts}
    leaves.update({f"main.{k}": np.asarray(v) for k, v in main.items()})
    leaves.update({f"meta.{k}": np.asarray(v) for k, v in meta.items()})

    def nets_from(leafs):
        m = main.with_arrays([leafs[f"main.{k}"] for k, _ in main.items()])
        h = meta.with_arrays([leafs[f"meta.{k}"] for k, _ in meta.items()])
        return m, h

    if kind == "embed_image":
        proj = rng.normal(size=(n, d_emb))

        def forward(leafs):
            m, _ = nets_from(leafs)
            return _projected(model.embed_image(leafs["imgs"], m), proj)

        margin = _preact_margin(imgs, main.img_w1, main.img_b1)
    elif kind == "embed_text":
        proj = rng.normal(size=(n, d_emb))

        def forward(leafs):
            m, _ = nets_from(leafs)
            return _projected(model.embed_text(leafs["txts"], m), proj)

        margin = _preact_margin(txts, main.txt_w1, main.txt_b1)
    elif kind == "similarity_feature":
        proj = rng.normal(size=(n, d_sim))

        def forward(leafs):
            m, _ = nets_from(leafs)
            u = model.embed_image(leafs["imgs"], m)
            v = model.embed_text(leafs["txts"], m)
            return _projected(model.similarity_feature(u, v, m.sim_w), proj)

        margin = min(_unit_feature_margins(imgs, txts, main, meta)[:3])
    elif kind == "mscn_score":
        feats = rng.normal(size=(n, d_sim))
        feats /= np.linalg.norm(feats, axis=-1, keepdims=True)
        leaves = {f"meta.{k}": np.asarray(v) for k, v in meta.items()} | {
            "feats": feats}
        proj = rng.normal(size=n)

        def forward(leafs):
            h = meta.with_arrays([leafs[f"meta.{k}"] for k, _ in meta.items()])
            return _projected(model.mscn_score(leafs["feats"], h), proj)

        margin = _preact_margin(feats, meta.w1, meta.b1)
    elif kind == "pair_score":
        proj = rng.normal(size=n)

        def forward(leafs):
            m, h = nets_from(leafs)
            return _projected(
                model.pair_score(leafs["imgs"], leafs["txts"], m, h), proj)

        margin = min(_unit_feature_margins(imgs, txts, main, meta))
    elif kind in ("cosine_scores", "triplet_cosine"):
        proj = rng.normal(size=(n, n))
        gamma = 0.2

        def forward(leafs):
            m, _ = nets_from(leafs)
            scores, _ = model.cosine_scores(leafs["imgs"], leafs["txts"], m)
            if kind == "triplet_cosine":
                return objective.triplet_loss_from_scores(scores, gamma)
            return _projected(scores, proj)

        u = model.embed_image(imgs, main).data
        v = model.embed_text(txts, main).data
        margin = min(
            _preact_margin(imgs, main.img_w1, main.img_b1),
            _preact_margin(txts, main.txt_w1, main.txt_b1),
            float(np.linalg.norm(u, axis=-1).min()),
            float(np.linalg.norm(v, axis=-1).min()),
        )
        if kind == "triplet_cosine":
            margin = min(margin, _fixed_hinge_margin(
                model.cosine_scores(imgs, txts, main)[0].data, gamma))
    elif kind == "all_pairs_scores":
        proj = rng.normal(size=(n, n))

        def forward(leafs):
            m, h = nets_from(leafs)
            scores, _ = model.all_pairs_scores(leafs["imgs"], leafs["txts"], m, h)
            return _projected(scores, proj)

        margin = triplet_kink_margin(imgs, txts, main, meta, 0.2, 2.0)
    elif kind == "adaptive_margin":
        s = rng.uniform(0.05, 0.95, size=n)
        gamma, tau = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.5, 4.0))
        proj = rng.normal(size=n)
        leaves = {"s": s}

        def forward(leafs):
            return _projected(
                objective.adaptive_margin(
                    leafs["s"] if isinstance(leafs["s"], ad.Tensor)
                    else ad.Tensor(leafs["s"]), gamma, tau), proj)

        margin = float(min(s.min(), (1 - s).max()))
    elif kind in ("triplet_adaptive", "triplet_fixed"):
        gamma, tau = 0.2, 2.0

        def forward(leafs, adaptive=(kind == "triplet_adaptive")):
            m, h = nets_from(leafs)
            return objective.triplet_loss(leafs["imgs"], leafs["txts"], m, h,
                                          gamma, tau, adaptive=adaptive)

        margin = triplet_kink_margin(imgs, txts, main, meta, gamma, tau)
    elif kind == "meta_bce":
        labels = (rng.uniform(size=n) < 0.5).astype(np.float64)

        def forward(leafs):
            m, h = nets_from(leafs)
            return objective.meta_loss(leafs["imgs"], leafs["txts"], labels,
                                       m, h)

        margin = meta_kink_margin(imgs, txts, main, meta)
    else:
        raise AssertionError(kind)
    return leaves, forward, margin


GRADIENT_KINDS = (
    "embed_image", "embed_text", "similarity_feature", "mscn_score",
    "pair_score", "cosine_scores", "all_pairs_scores", "adaptive_margin",
    "triplet_adaptive", "triplet_fixed", "triplet_cosine", "meta_bce",
)


def test_1_gradient_suite_matches_central_differences():
    """200 randomized configs, every loss and network op, rel err <= 1e-5."""
    t0 = time.monotonic()
    checked = 0
    for i in range(200):
        kind = GRADIENT_KINDS[i % len(GRADIENT_KINDS)]
        for attempt in itertools.count():
            rng = rng_for(4100, i, attempt)
            leaves, forward, margin = _gradient_case(kind, rng)
            if margin >= KINK_CLEARANCE:
                break
        target = sorted(leaves)[int(rng.integers(0, len(leaves)))]

        with ad.Tape() as tape:
            lifted = {k: tape.leaf(v) for k, v in leaves.items()}
            loss = forward(lifted)
            grads = ad.backward(tape, loss)
        analytic = grads[lifted[target]].data

        def scalar(x):
            plain = {k: ad.Tensor(v) for k, v in leaves.items()}
            plain[target] = ad.Tensor(x)
            return forward(plain).item()

        numeric = central_difference(scalar, leaves[target], h=1e-5)
        assert_close_grad(analytic, numeric, rel=1e-5, abs_floor=1e-8,
                          label=f"{kind} config {i} wrt {target}")
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200
    assert elapsed < 120, f"gradient suite took {elapsed:.1f}s (budget 120s)"


# ---------------------------------------------------------------------------
# 2. meta-gradient through the recorded virtual step, toy scale


def test_2_meta_gradient_suite_matches_composed_pipeline():
    """50 instances with 9 correction parameters, rel err <= 1e-4."""
    t0 = time.monotonic()
    cfg = TrainConfig(seed=7, batch_size=4, meta_batch_size=4, d_emb=4,
                      d_sim=2, mscn_hidden=2, eval_ks=(1,))
    alpha = 2e-3
    checked = 0
    for instance in itertools.count():
        rng = rng_for(4200, instance)
        main = _rand_main(rng, 4, 3, cfg.d_emb, cfg.d_sim, 3)
        meta = _rand_meta(rng, cfg.d_sim, hidden=cfg.mscn_hidden)
        assert sum(a.size for a in meta.arrays()) == 9
        imgs = rng.normal(size=(4, 4))
        txts = rng.normal(size=(4, 3))
        mb_imgs = rng.normal(size=(4, 4))
        mb_txts = rng.normal(size=(4, 3))
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        if triplet_kink_margin(imgs, txts, main, meta,
                               cfg.gamma, cfg.tau) < KINK_CLEARANCE:
            continue

        def run(vec, want_grad=False):
            arrays, pos = [], 0
            for a in meta.arrays():
                arrays.append(vec[pos:pos + a.size].reshape(a.shape).copy())
                pos += a.size
            meta_p = meta.with_arrays(arrays)
            with ad.Tape(retain=True) as tape:
                main_l = main.lift(tape)
                meta_l = meta_p.lift(tape)
                virt, _ = virtual_update(tape, main_l, meta_l, imgs, txts,
                                         alpha, cfg)
                mloss = objective.meta_loss(mb_imgs, mb_txts, labels,
                                            virt, meta_l)
                if not want_grad:
                    return mloss.item(), virt
                grads = ad.backward(tape, mloss)
                return np.concatenate([grads[t].data.reshape(-1)
                                       for _, t in meta_l.items()])

        theta = np.concatenate([a.reshape(-1) for a in meta.arrays()])
        _, virt = run(theta)
        virt_np = main.with_arrays([t.data for _, t in virt.items()])
        if meta_kink_margin(mb_imgs, mb_txts, virt_np, meta) < KINK_CLEARANCE:
            continue
        analytic = run(theta, want_grad=True)
        numeric = central_difference(lambda v: run(v)[0], theta)
        assert_close_grad(analytic, numeric, rel=1e-4, abs_floor=1e-9,
                          label=f"instance {instance}")
        checked += 1
        if checked == 50:
            break
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"meta-gradient suite took {elapsed:.1f}s (budget 60s)"


# ---------------------------------------------------------------------------
# 3. adaptive-margin identities


def test_3_adaptive_margin_identities():
    grid = np.arange(1, 10_001) / 10_002.0
    for gamma, tau in [(0.2, 2.0), (0.35, 1.0), (1.0, 4.0)]:
        assert objective.adaptive_margin(0.5, gamma, tau) == gamma / 2
        m = objective.adaptive_margin(ad.Tensor(grid), gamma, tau).data
        m_c = objective.adaptive_margin(ad.Tensor(1.0 - grid), gamma, tau).data
        np.testing.assert_allclose(m + m_c, gamma, rtol=0, atol=1e-12)
        assert np.all(np.diff(m) > 0), "margin must be strictly increasing"


# ---------------------------------------------------------------------------
# 4. EM suite


def test_4_em_suite():
    t0 = time.monotonic()
    # (a) per-fit log-likelihood trajectory never decreases
    for i in range(1000):
        rng = rng_for(4400, i)
        n = int(rng.integers(20, 400))
        a1, b1 = rng.uniform(0.5, 10, size=2)
        a2, b2 = rng.uniform(0.5, 10, size=2)
        half = n // 2
        scores = purifier.clamp_score(np.concatenate([
            rng.beta(a1, b1, size=half), rng.beta(a2, b2, size=n - half)]))
        init = purifier.moment_match_init(scores[:half], scores[half:])
        fit = purifier.em_fit(scores, init)
        diffs = np.diff(fit.trajectory)
        assert np.all(diffs >= -1e-9), f"set {i}: log-likelihood dropped {diffs.min()}"

    # (b) separated half/half mixture: component means recovered to +-0.05
    rng = rng_for(4401)
    clean = rng.beta(8, 2, size=1000)
    noisy = rng.beta(2, 8, size=1000)
    scores = purifier.clamp_score(np.concatenate([clean, noisy]))
    init = purifier.moment_match_init(clean[:100], noisy[:100])
    fit = purifier.em_fit(scores, init)
    means = fit.mixture.alpha / (fit.mixture.alpha + fit.mixture.beta)
    assert abs(means[0] - 0.8) <= 0.05, f"clean-component mean {means[0]:.3f}"
    assert abs(means[1] - 0.2) <= 0.05, f"noisy-component mean {means[1]:.3f}"

    # (c) moment matching alone recovers known shape parameters
    samples = rng_for(4402).beta(2.0, 5.0, size=10_000)
    a_hat, b_hat = purifier.moment_match(samples)
    assert abs(a_hat - 2.0) <= 0.3 and abs(b_hat - 5.0) <= 0.3, (a_hat, b_hat)

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"EM suite took {elapsed:.1f}s (budget 120s)"


# ---------------------------------------------------------------------------
# 5. purification quality on the separated mixture


def test_5_purification_f1_on_separated_mixture():
    rng = rng_for(4500)
    clean = rng.beta(8, 2, size=1000)
    noisy = rng.beta(2, 8, size=1000)
    scores = purifier.clamp_score(np.concatenate([clean, noisy]))
    truth = np.arange(2000) < 1000
    init = purifier.moment_match_init(clean[:100], noisy[:100])
    fit = purifier.em_fit(scores, init)
    kept = purifier.purify(fit.mixture, scores)
    flags = np.zeros(2000, dtype=bool)
    flags[kept] = True
    tp = float(np.sum(flags & truth))
    precision = tp / max(flags.sum(), 1)
    recall = tp / truth.sum()
    f1 = 2 * precision * recall / max(precision + recall, 1e-12)
    # Bayes misclassification past the 0.5 crossing is ~2% per component,
    # so anything materially below this bound means selection is broken
    assert f1 >= 0.95, f"purification F1 {f1:.4f} (precision {precision:.4f}, recall {recall:.4f})"


# ---------------------------------------------------------------------------
# 6. end-to-end robustness trend on the default benchmark


# frozen from the first oracle run under the fixed seeds; bitwise thereafter
GOLDEN_R1SUM = {"mscn_50": 12.0, "baseline_50": 7.0, "mscn_00": 16.0}


def test_6_end_to_end_robustness_trend(tmp_path):
    t0 = time.monotonic()
    base = datagen.generate(datagen.GenConfig())

    def arm(mode, noise_ratio):
        ds = (datagen.inject_noise(base, noise_ratio, noise_seed=20240602)
              if noise_ratio else base)
        result = train(ds, TrainConfig(mode=mode))
        scorer = "mscn" if mode == "mscn" else "cosine"
        report = evalkit.evaluate(result.best_nets, ds.test, ks=(1, 5, 10),
                                  scorer=scorer)
        return report.image_to_text[1] + report.text_to_image[1]

    mscn_50 = arm("mscn", 0.5)
    baseline_50 = arm("fixed_margin_baseline", 0.5)
    mscn_00 = arm("mscn", 0.0)

    margin = mscn_50 - baseline_50
    retention = mscn_50 / mscn_00
    assert margin >= 5.0, (
        f"corrected pipeline must beat the fixed-margin baseline by >= 5 "
        f"R@1 points at 50% noise, got {mscn_50} vs {baseline_50}")
    assert retention >= 0.70, (
        f"50%-noise run must retain >= 70% of the clean run's R@1, got "
        f"{mscn_50} / {mscn_00} = {retention:.2f}")
    got = {"mscn_50": mscn_50, "baseline_50": baseline_50, "mscn_00": mscn_00}
    assert got == GOLDEN_R1SUM, f"golden drift: {got} != {GOLDEN_R1SUM}"
    elapsed = time.monotonic() - t0
    assert elapsed < 900, f"trend run took {elapsed:.1f}s (budget 900s)"


# ---------------------------------------------------------------------------
# 7. determinism of full train+eval runs


def test_7_bitwise_determinism(tmp_path):
    # reduced scale; the seeding scheme is size-independent
    gen = datagen.GenConfig(seed=5, n_clusters=6, pairs_per_cluster=20,
                            d_img=8, d_txt=6)
    ds = datagen.inject_noise(datagen.generate(gen), 0.5, noise_seed=11)
    cfg = TrainConfig(seed=13, batch_size=16, meta_batch_size=8, lr_main=1e-3,
                      lr_meta=5e-4, warmup_epochs=1, epochs=2, d_emb=8,
                      d_sim=4, mscn_hidden=8, eval_ks=(1, 5))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        train(ds, cfg, out_dir=out)
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert "metrics.tsv" in files and "net1_final.mscp" in files
    for fname in files:
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"


# ---------------------------------------------------------------------------
# 8. format round-trips and corruption rejection


def test_8_format_round_trips_and_rejection(tmp_path):
    gen = datagen.GenConfig(seed=3, n_clusters=4, pairs_per_cluster=6,
                            d_img=5, d_txt=4)
    ds = datagen.inject_noise(datagen.generate(gen), 0.4, noise_seed=9)
    p1, p2 = tmp_path / "d1.mscd", tmp_path / "d2.mscd"
    datagen.write_dataset(p1, ds)
    datagen.write_dataset(p2, datagen.read_dataset(p1))
    assert p1.read_bytes() == p2.read_bytes(), "dataset round-trip not bit-exact"

    rng = rng_for(4800)
    main = _rand_main(rng, 5, 4, 6, 3, None)
    meta = _rand_meta(rng, 3, hidden=4)
    c1, c2 = tmp_path / "c1.mscp", tmp_path / "c2.mscp"
    model.save_checkpoint(c1, main, meta)
    model.save_checkpoint(c2, *model.load_checkpoint(c1))
    assert c1.read_bytes() == c2.read_bytes(), "checkpoint round-trip not bit-exact"

    def corrupt(path, blob):
        path.write_bytes(blob)
        return path

    raw_ds = p1.read_bytes()
    bad = tmp_path / "bad"
    with pytest.raises(datagen.DatasetFormatError):
        datagen.read_dataset(corrupt(bad, b"XXXX" + raw_ds[4:]))
    with pytest.raises(datagen.DatasetFormatError):
        datagen.read_dataset(corrupt(bad, raw_ds[:4] + b"\xff\xff\xff\xff" + raw_ds[8:]))
    with pytest.raises(datagen.DatasetFormatError):
        datagen.read_dataset(corrupt(bad, raw_ds[:len(raw_ds) // 2]))

    raw_cp = c1.read_bytes()
    with pytest.raises(model.CheckpointFormatError):
        model.load_checkpoint(corrupt(bad, b"XXXX" + raw_cp[4:]))
    with pytest.raises(model.CheckpointFormatError):
        model.load_checkpoint(corrupt(bad, raw_cp[:4] + b"\xff\xff\xff\xff" + raw_cp[8:]))
    with pytest.raises(model.CheckpointFormatError):
        model.load_checkpoint(corrupt(bad, raw_cp[:len(raw_cp) - 3]))


# ---------------------------------------------------------------------------
# 9. recall against a brute-force oracle


def _recall_oracle(scores: np.ndarray, truth: np.ndarray, k: int) -> float:
    hits = 0
    for i in range(scores.shape[0]):
        row = scores[i]
        t = int(truth[i])
        # rank: strictly better scores first, ties broken by lowest index
        rank = 1
        for j in range(row.size):
            if row[j] > row[t] or (row[j] == row[t] and j < t):
                rank += 1
        if rank <= k:
            hits += 1
    return 100.0 * hits / scores.shape[0]


def test_9_recall_matches_brute_force_oracle():
    for i in range(100):
        rng = rng_for(4900, i)
        n_q = int(rng.integers(1, 51))
        n_c = int(rng.integers(10, 51))  # recall_at_k rejects k > candidates
        scores = rng.normal(size=(n_q, n_c))
        if i % 3 == 0:
            scores = np.round(scores, 1)  # force ties
        truth = rng.integers(0, n_c, size=n_q)
        for k in (1, 5, 10):
            mine = evalkit.recall_at_k(scores, truth, k)
            want = _recall_oracle(scores, truth, k)
            assert mine == want, (i, k, mine, want)
