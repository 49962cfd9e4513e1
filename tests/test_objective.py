"""Objective checks: the adaptive margin against its odds-ratio form and
frozen hand values, the triplet loss against a loop-written oracle, the
meta loss against a literal BCE, and FD gradients through both losses."""

from __future__ import annotations

import numpy as np
import pytest

from mscn import autodiff as ad
from mscn import model, objective
from conftest import (
    assert_close_grad,
    bce_oracle,
    central_difference,
    margin_oracle,
    meta_kink_margin,
    rng_for,
    triplet_kink_margin,
    triplet_oracle,
)
from test_model import tiny_nets


class TestAdaptiveMargin:
    def test_frozen_hand_values(self):
        assert objective.adaptive_margin(0.5, 0.2, 2.0) == pytest.approx(0.1, abs=1e-15)
        assert objective.adaptive_margin(0.9, 0.2, 2.0) == pytest.approx(
            0.2 * 81 / 82, rel=1e-12)

    def test_matches_odds_ratio_form(self):
        rng = rng_for(700)
        s = rng.uniform(0.01, 0.99, size=500)
        for gamma, tau in [(0.2, 2.0), (0.5, 1.0), (1.0, 4.5), (0.05, 0.3)]:
            mine = objective.adaptive_margin(ad.Tensor(s), gamma, tau).data
            np.testing.assert_allclose(mine, margin_oracle(s, gamma, tau), rtol=1e-12)

    def test_complement_identity(self):
        """margin(s) + margin(1-s) == gamma."""
        rng = rng_for(701)
        s = rng.uniform(0.001, 0.999, size=300)
        total = (objective.adaptive_margin(ad.Tensor(s), 0.2, 2.0).data
                 + objective.adaptive_margin(ad.Tensor(1.0 - s), 0.2, 2.0).data)
        np.testing.assert_allclose(total, 0.2, rtol=0, atol=1e-12)

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.001, 0.999, 999)
        m = objective.adaptive_margin(ad.Tensor(grid), 0.2, 2.0).data
        assert np.all(np.diff(m) > 0)
        assert np.all((m > 0) & (m < 0.2))
        assert objective.adaptive_margin(1e-6, 0.2, 2.0) < 1e-9
        assert objective.adaptive_margin(1 - 1e-6, 0.2, 2.0) > 0.2 - 1e-9

    def test_scalar_and_tensor_paths_agree(self):
        t = objective.adaptive_margin(ad.Tensor(0.73), 0.2, 2.0).item()
        f = objective.adaptive_margin(0.73, 0.2, 2.0)
        assert t == f

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="strictly"):
            objective.adaptive_margin(0.0, 0.2, 2.0)
        with pytest.raises(ValueError, match="strictly"):
            objective.adaptive_margin(1.0, 0.2, 2.0)
        with pytest.raises(ValueError, match="positive"):
            objective.adaptive_margin(0.5, -0.1, 2.0)
        with pytest.raises(ValueError, match="positive"):
            objective.adaptive_margin(0.5, 0.2, 0.0)

    def test_gradient_positive_everywhere(self):
        with ad.Tape() as tape:
            s = tape.leaf(np.linspace(0.05, 0.95, 19))
            m = objective.adaptive_margin(s, 0.2, 2.0)
            g = ad.backward(tape, ad.reduce_sum(m))[s].data
        assert np.all(g > 0)
        assert_close_grad(
            g,
            central_difference(
                lambda x: float(np.sum(margin_oracle(x, 0.2, 2.0))),
                np.linspace(0.05, 0.95, 19)),
            rel=1e-6)


def hinge_grad(s: np.ndarray, gamma: float) -> np.ndarray:
    """Gradient of the summed fixed-margin hinges w.r.t. raw scores."""
    with ad.Tape() as tape:
        x = tape.leaf(s)
        loss = objective.triplet_loss_from_scores(x, gamma, 2.0, adaptive=False,
                                                  clamp_scores=False)
        return ad.backward(tape, loss)[x].data


def hinge_grad_oracle(s: np.ndarray, gamma: float) -> np.ndarray:
    """The same gradient by loops: each active hinge sends -1 to its true
    pair and +1 to its hardest negative, the lowest index among ties and
    never the diagonal."""
    n = s.shape[0]
    g = np.zeros_like(s)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        t = max(others, key=lambda j: (s[i, j], -j))
        if gamma - s[i, i] + s[i, t] > 0:
            g[i, i] -= 1.0
            g[i, t] += 1.0
        k = max(others, key=lambda j: (s[j, i], -j))
        if gamma - s[i, i] + s[k, i] > 0:
            g[i, i] -= 1.0
            g[k, i] += 1.0
    return g


def routed(text_neg, img_neg) -> np.ndarray:
    """Expected gradient when every hinge is active and the hardest
    negatives are the given indices."""
    n = len(text_neg)
    g = np.zeros((n, n))
    for i, (t, k) in enumerate(zip(text_neg, img_neg)):
        g[i, i] -= 2.0
        g[i, t] += 1.0
        g[k, i] += 1.0
    return g


class TestHardestNegatives:
    """The hinges pick their negatives inside per_pair_hinges; the picks
    show in where the gradient goes."""

    def test_hand_matrix(self):
        s = np.array([[0.9, 0.2, 0.8],
                      [0.1, 0.7, 0.6],
                      [0.3, 0.5, 0.4]])
        want = routed([2, 2, 1], [2, 2, 0])
        np.testing.assert_array_equal(hinge_grad_oracle(s, 1.0), want)
        np.testing.assert_array_equal(hinge_grad(s, 1.0), want)

    def test_tie_takes_lowest_index(self):
        s = np.array([[0.9, 0.6, 0.6],
                      [0.6, 0.9, 0.6],
                      [0.6, 0.6, 0.9]])
        want = routed([1, 0, 0], [1, 0, 0])
        np.testing.assert_array_equal(hinge_grad_oracle(s, 1.0), want)
        np.testing.assert_array_equal(hinge_grad(s, 1.0), want)

    def test_diagonal_never_selected(self):
        rng = rng_for(702)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = rng.uniform(size=(n, n))
            s[np.arange(n), np.arange(n)] = 5.0  # even an absurdly high true score
            gamma = float(rng.uniform(0.1, 8.0))
            got = objective.per_pair_hinges(ad.Tensor(s), gamma, 2.0, adaptive=False,
                                            clamp_scores=False).data
            _, want = triplet_oracle(s, gamma, 2.0, adaptive=False, clamp=False)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(hinge_grad(s, gamma),
                                          hinge_grad_oracle(s, gamma))


class TestTripletLoss:
    def test_matches_loop_oracle_on_random_matrices(self):
        for trial in range(40):
            rng = rng_for(703, trial)
            n = int(rng.integers(2, 8))
            s = rng.uniform(0.02, 0.98, size=(n, n))
            for adaptive in (True, False):
                got = objective.triplet_loss_from_scores(
                    ad.Tensor(s), 0.2, 2.0, adaptive=adaptive).item()
                want, _ = triplet_oracle(s, 0.2, 2.0, adaptive=adaptive)
                assert got == pytest.approx(want, rel=1e-12), (trial, adaptive)

    def test_clamping_applied_before_margins(self):
        s = np.array([[1.5, -0.2], [0.3, 2.0]])
        got = objective.triplet_loss_from_scores(ad.Tensor(s), 0.2, 2.0).item()
        want, _ = triplet_oracle(s, 0.2, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_when_positives_dominate(self):
        """Diagonal far above everything else: every hinge is inactive."""
        n = 4
        s = np.full((n, n), 0.05)
        np.fill_diagonal(s, 0.95)
        # margin(0.95) < 0.2 < 0.95 - 0.05, so gap + negative < 0
        got = objective.triplet_loss_from_scores(ad.Tensor(s), 0.2, 2.0).item()
        assert got == 0.0

    def test_positive_when_any_negative_wins(self):
        s = np.full((3, 3), 0.5)
        s[0, 1] = 0.9  # a negative scores above the true pair
        assert objective.triplet_loss_from_scores(ad.Tensor(s), 0.2, 2.0).item() > 0

    def test_batch_wrapper_equals_score_route(self):
        main, meta = tiny_nets(20)
        rng = rng_for(704)
        imgs = rng.normal(size=(5, 5))
        txts = rng.normal(size=(5, 4))
        via_batch = objective.triplet_loss(imgs, txts, main, meta, 0.2, 2.0).item()
        scores, _ = model.all_pairs_scores(imgs, txts, main, meta)
        via_scores = objective.triplet_loss_from_scores(scores, 0.2, 2.0).item()
        assert via_batch == via_scores

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            objective.triplet_loss_from_scores(ad.Tensor([[0.5]]), 0.2, 2.0)
        with pytest.raises(ad.ShapeMismatchError):
            objective.triplet_loss_from_scores(ad.Tensor(np.zeros((2, 3))), 0.2, 2.0)

    def test_fd_gradients_through_full_loss(self):
        found = 0
        for seed in range(60):
            rng = rng_for(705, seed)
            main, meta = tiny_nets(seed)
            imgs = rng.normal(size=(4, 5))
            txts = rng.normal(size=(4, 4))
            if triplet_kink_margin(imgs, txts, main, meta, 0.2, 2.0) < 1e-3:
                continue
            found += 1
            with ad.Tape() as tape:
                m_l = main.lift(tape)
                t_l = meta.lift(tape)
                loss = objective.triplet_loss(imgs, txts, m_l, t_l, 0.2, 2.0)
                grads = ad.backward(tape, loss)

            main_arrays, meta_arrays = main.arrays(), meta.arrays()

            def value(mas, tas):
                return objective.triplet_loss(
                    imgs, txts, main.with_arrays(mas), meta.with_arrays(tas),
                    0.2, 2.0).item()

            for k, (name, leaf) in enumerate(m_l.items()):
                def f(x, k=k):
                    per = [a.copy() for a in main_arrays]
                    per[k] = x
                    return value(per, meta_arrays)

                assert_close_grad(grads[leaf].data,
                                  central_difference(f, main_arrays[k]),
                                  rel=1e-5, label=f"triplet/main.{name}")
            for k, (name, leaf) in enumerate(t_l.items()):
                def f(x, k=k):
                    per = [a.copy() for a in meta_arrays]
                    per[k] = x
                    return value(main_arrays, per)

                assert_close_grad(grads[leaf].data,
                                  central_difference(f, meta_arrays[k]),
                                  rel=1e-5, label=f"triplet/meta.{name}")
            if found >= 3:
                break
        assert found >= 3


class TestMetaLoss:
    def test_matches_literal_bce(self):
        for trial in range(15):
            rng = rng_for(706, trial)
            main, meta = tiny_nets(trial + 40)
            m = int(rng.integers(2, 9))
            imgs = rng.normal(size=(m, 5))
            txts = rng.normal(size=(m, 4))
            labels = rng.integers(0, 2, size=m).astype(float)
            for negative_term in (True, False):
                got = objective.meta_loss(imgs, txts, labels, main, meta,
                                          negative_term=negative_term).item()
                scores = model.pair_score(
                    ad.Tensor(imgs), ad.Tensor(txts), main, meta).data
                want = bce_oracle(scores, labels, negative_term=negative_term)
                assert got == pytest.approx(want, rel=1e-12)

    def test_near_zero_on_confident_correct_scores(self):
        """If the scorer were perfect the loss is bounded by the clamp."""
        oracle = bce_oracle(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]))
        assert 0 < oracle < 1.1e-4

    def test_large_on_confident_wrong_scores(self):
        oracle = bce_oracle(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert oracle > 9.0  # -log(1e-4)

    def test_validation(self):
        main, meta = tiny_nets(41)
        rng = rng_for(707)
        imgs, txts = rng.normal(size=(3, 5)), rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match="0 or 1"):
            objective.meta_loss(imgs, txts, np.array([0.0, 0.5, 1.0]), main, meta)
        with pytest.raises(ad.ShapeMismatchError):
            objective.meta_loss(imgs, txts, np.ones(2), main, meta)
        with pytest.raises(ValueError, match="empty"):
            objective.meta_loss(np.zeros((0, 5)), np.zeros((0, 4)),
                                np.zeros(0), main, meta)

    def test_fd_gradients(self):
        found = 0
        for seed in range(60):
            rng = rng_for(708, seed)
            main, meta = tiny_nets(seed + 80)
            m = 5
            imgs = rng.normal(size=(m, 5))
            txts = rng.normal(size=(m, 4))
            labels = rng.integers(0, 2, size=m).astype(float)
            if meta_kink_margin(imgs, txts, main, meta) < 1e-3:
                continue
            found += 1
            with ad.Tape() as tape:
                m_l = main.lift(tape)
                t_l = meta.lift(tape)
                loss = objective.meta_loss(imgs, txts, labels, m_l, t_l)
                grads = ad.backward(tape, loss)

            main_arrays, meta_arrays = main.arrays(), meta.arrays()
            for k, (name, leaf) in enumerate(list(m_l.items()) + list(t_l.items())):
                is_main = k < len(main_arrays)
                kk = k if is_main else k - len(main_arrays)

                def f(x, kk=kk, is_main=is_main):
                    mas = [a.copy() for a in main_arrays]
                    tas = [a.copy() for a in meta_arrays]
                    (mas if is_main else tas)[kk] = x
                    return objective.meta_loss(
                        imgs, txts, labels, main.with_arrays(mas),
                        meta.with_arrays(tas)).item()

                ref = (main_arrays[kk] if is_main else meta_arrays[kk])
                assert_close_grad(grads[leaf].data, central_difference(f, ref),
                                  rel=1e-5, label=f"meta_loss/{name}")
            if found >= 3:
                break
        assert found >= 3


class TestCosineScores:
    def test_range_and_agreement_with_numpy(self):
        main, _ = tiny_nets(50)
        rng = rng_for(709)
        imgs = rng.normal(size=(4, 5))
        txts = rng.normal(size=(6, 4))
        scores, n_bad = model.cosine_scores(imgs, txts, main)
        assert n_bad == 0
        u = model.embed_image(imgs, main).data
        v = model.embed_text(txts, main).data
        want = (u / np.linalg.norm(u, axis=1, keepdims=True)) @ (
            v / np.linalg.norm(v, axis=1, keepdims=True)).T
        np.testing.assert_allclose(scores.data, want, rtol=1e-12)
        assert np.all(np.abs(scores.data) <= 1 + 1e-12)

    def test_fixed_margin_triplet_on_cosine(self):
        main, _ = tiny_nets(50)
        rng = rng_for(710)
        imgs = rng.normal(size=(4, 5))
        txts = rng.normal(size=(4, 4))
        scores, _ = model.cosine_scores(imgs, txts, main)
        got = objective.triplet_loss_from_scores(
            scores, 0.2, 2.0, adaptive=False, clamp_scores=False).item()
        want, _ = triplet_oracle(scores.data, 0.2, 2.0, adaptive=False, clamp=False)
        assert got == pytest.approx(want, rel=1e-12)
