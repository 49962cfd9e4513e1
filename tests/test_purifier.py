"""Beta-mixture checks: densities against an independent oracle, the
moment-matching identities, EM behavior (monotone likelihood, iteration
cap, collapse handling), posterior/purification semantics, and the
per-pair report round trip."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from mscn import purifier as pf
from conftest import rng_for


class TestClamp:
    def test_clips_to_rails(self):
        out = pf.clamp_score(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
        np.testing.assert_array_equal(
            out, [1e-4, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-4])

    def test_interior_untouched(self):
        s = np.array([0.001, 0.42, 0.999])
        np.testing.assert_array_equal(pf.clamp_score(s), s)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            pf.clamp_score(np.array([0.5, np.nan]))


class TestBetaLogPdf:
    def test_matches_scipy_stats(self):
        rng = rng_for(600)
        s = rng.uniform(0.001, 0.999, size=200)
        for a, b in [(2.0, 5.0), (0.5, 0.5), (7.3, 1.2), (1.0, 1.0), (30.0, 90.0)]:
            mine = pf.beta_log_pdf(s, a, b)
            oracle = stats.beta(a, b).logpdf(s)
            np.testing.assert_allclose(mine, oracle, rtol=1e-12)

    def test_uniform_special_case(self):
        np.testing.assert_allclose(
            pf.beta_log_pdf(np.array([0.1, 0.9]), 1.0, 1.0), 0.0, atol=1e-15)

    def test_nonpositive_shapes_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            pf.beta_log_pdf(np.array([0.5]), 0.0, 1.0)


class TestLogSumExp:
    """`_log_sum_exp` replaces scipy.special.logsumexp(lj, axis=0), which
    stays the reference here: every result must keep its bits."""

    @staticmethod
    def assert_same_bits(mine, ref):
        assert mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()

    def test_bitwise_against_scipy(self):
        rng = rng_for(620)
        inputs = []
        for scale in (1e-3, 1.0, 30.0, 700.0):
            lj = rng.normal(size=(2, 4000)) * scale
            lj[1, :200] = lj[0, :200]  # exact ties
            lj[0, 200:300] = -np.inf   # one row -inf, either row
            lj[1, 300:400] = -np.inf
            inputs.append(lj)
        mix = pf.BetaMixture(alpha=np.array([6.0, 1.5]),
                             beta=np.array([2.0, 4.0]),
                             weight=np.array([0.6, 0.4]))
        scores = pf.clamp_score(bimodal_scores(3000, 0.4, 621)[0])
        inputs.append(pf._component_log_joint(mix, scores))
        for lj in inputs:
            mine = pf._log_sum_exp(lj)
            self.assert_same_bits(mine, logsumexp(lj, axis=0))
            # em_fit's responsibilities, against scipy with keepdims
            self.assert_same_bits(
                np.exp(lj - mine),
                np.exp(lj - logsumexp(lj, axis=0, keepdims=True)))


class TestMomentMatch:
    def test_frozen_example(self):
        """mean 0.5, population variance 0.05 -> shapes (2, 2) exactly."""
        d = np.sqrt(0.05)
        a, b = pf.moment_match(np.array([0.5 - d, 0.5 + d]))
        assert a == pytest.approx(2.0, rel=1e-12)
        assert b == pytest.approx(2.0, rel=1e-12)

    def test_recovers_sampled_beta(self):
        for a_true, b_true, tag in [(8.0, 2.0, 0), (2.0, 8.0, 1), (5.0, 5.0, 2)]:
            rng = rng_for(601, tag)
            sample = rng.beta(a_true, b_true, size=10_000)
            a, b = pf.moment_match(sample)
            assert a == pytest.approx(a_true, rel=0.1)
            assert b == pytest.approx(b_true, rel=0.1)

    def test_weighted_mask_equals_subset(self):
        rng = rng_for(602)
        s = rng.uniform(0.05, 0.95, size=50)
        mask = (rng.uniform(size=50) < 0.5).astype(float)
        assert mask.sum() >= 2
        a_w, b_w = pf.moment_match(s, weights=mask)
        a_s, b_s = pf.moment_match(s[mask == 1.0])
        assert a_w == pytest.approx(a_s, rel=1e-12)
        assert b_w == pytest.approx(b_s, rel=1e-12)

    def test_constant_sample_floors_not_crashes(self):
        a, b = pf.moment_match(np.array([0.7, 0.7, 0.7]))
        assert a > 0 and b > 0 and np.isfinite([a, b]).all()
        assert a / (a + b) == pytest.approx(0.7, rel=1e-6)

    def test_too_few_scores(self):
        with pytest.raises(ValueError, match=">= 2"):
            pf.moment_match(np.array([0.5]))


class TestInit:
    def test_clean_slot_gets_higher_mean(self):
        rng = rng_for(603)
        hi = rng.beta(8, 2, size=100)
        lo = rng.beta(2, 8, size=100)
        for pos, neg in [(hi, lo), (lo, hi)]:
            mix = pf.moment_match_init(pos, neg)
            means = mix.means()
            assert means[0] > means[1]
            np.testing.assert_array_equal(mix.weight, [0.5, 0.5])


def bimodal_scores(n: int, noise_ratio: float, tag: int,
                   clean=(8.0, 2.0), noisy=(2.0, 8.0)):
    rng = rng_for(604, tag)
    n_noisy = int(round(n * noise_ratio))
    flags = np.ones(n, dtype=np.int64)
    flags[rng.permutation(n)[:n_noisy]] = 0
    s = np.where(flags == 1,
                 rng.beta(*clean, size=n),
                 rng.beta(*noisy, size=n))
    return s, flags


class TestEMFit:
    def test_likelihood_never_decreases(self):
        for tag in range(25):
            s, _ = bimodal_scores(300, 0.4, tag)
            rng = rng_for(605, tag)
            init = pf.moment_match_init(rng.beta(6, 3, size=40), rng.beta(3, 6, size=40))
            fit = pf.em_fit(s, init)
            diffs = np.diff(fit.trajectory)
            assert np.all(diffs >= -1e-12), fit.trajectory
            assert fit.iterations <= pf.EM_MAX_ITERS

    def test_fit_improves_over_init_and_separates(self):
        s, flags = bimodal_scores(500, 0.5, 99)
        init = pf.moment_match_init(np.array([0.55, 0.65, 0.75]),
                                    np.array([0.25, 0.35, 0.45]))
        fit = pf.em_fit(s, init)
        assert fit.mean_log_likelihood >= pf.mean_log_likelihood(init, s)
        means = fit.mixture.means()
        assert means[0] > 0.6 and means[1] < 0.4

    def test_stops_on_small_improvement(self, monkeypatch):
        s, _ = bimodal_scores(400, 0.5, 7)
        init = pf.moment_match_init(s[s > 0.5], s[s <= 0.5])
        monkeypatch.setattr(pf, "EM_TOL", 1e30)
        fit = pf.em_fit(s, init)
        assert fit.iterations <= 1  # any first step already clears the tol

    def test_role_order_after_fit(self):
        for tag in range(10):
            s, _ = bimodal_scores(200, 0.6, tag)
            init = pf.moment_match_init(s[s > 0.5], s[s <= 0.5])
            fit = pf.em_fit(s, init)
            means = fit.mixture.means()
            assert means[0] >= means[1]

    def test_unimodal_data_may_collapse_but_stays_valid(self):
        rng = rng_for(606)
        s = rng.beta(9, 1, size=300)
        init = pf.moment_match_init(rng.beta(9, 1, size=50), rng.beta(1, 9, size=50))
        fit = pf.em_fit(s, init)
        assert np.isfinite(fit.mean_log_likelihood)
        assert np.all(fit.mixture.alpha > 0) and np.all(fit.mixture.beta > 0)

    def test_each_mixture_log_joint_computed_once(self, monkeypatch):
        """One log-joint for the initial mixture and one per candidate,
        and the likelihoods are the bits of `mean_log_likelihood`."""
        calls = []
        real = pf._component_log_joint

        def counted(mixture, s):
            calls.append(mixture)
            return real(mixture, s)

        for tag in range(10):
            s, _ = bimodal_scores(300, 0.4, tag)
            rng = rng_for(607, tag)
            init = pf.moment_match_init(rng.beta(6, 3, size=40),
                                        rng.beta(3, 6, size=40))
            calls.clear()
            monkeypatch.setattr(pf, "_component_log_joint", counted)
            fit = pf.em_fit(s, init)
            monkeypatch.setattr(pf, "_component_log_joint", real)
            assert fit.iterations + 1 <= len(calls) <= fit.iterations + 2
            assert len({id(m) for m in calls}) == len(calls)
            assert fit.trajectory[0] == pf.mean_log_likelihood(init, s)
            assert fit.mean_log_likelihood == pf.mean_log_likelihood(
                fit.mixture, s)

    def test_scores_clamped_not_rejected(self):
        fit = pf.em_fit(np.array([0.0, 1.0, 0.3, 0.8, 0.9, 0.1]),
                        pf.moment_match_init(np.array([0.8, 0.9]),
                                             np.array([0.1, 0.2])))
        assert np.isfinite(fit.mean_log_likelihood)


class TestPosteriorAndPurify:
    def test_posterior_in_unit_interval_and_monotone(self):
        s, _ = bimodal_scores(300, 0.5, 3)
        init = pf.moment_match_init(s[s > 0.5], s[s <= 0.5])
        fit = pf.em_fit(s, init)
        grid = np.linspace(0.01, 0.99, 97)
        post = pf.posterior_clean(fit.mixture, grid)
        assert np.all((post >= 0) & (post <= 1))
        # clean has the higher mean, so posterior should rise with the score
        assert post[-1] > 0.9 and post[0] < 0.1

    def test_strict_threshold_excludes_ties(self):
        """A mirror-symmetric mixture puts score 0.5 at posterior <= 0.5;
        the strict inequality keeps it out of the purified set."""
        mix = pf.BetaMixture(alpha=np.array([2.0, 1.0]),
                             beta=np.array([1.0, 2.0]),
                             weight=np.array([0.5, 0.5]))
        post = pf.posterior_clean(mix, np.array([0.5]))
        assert post[0] <= 0.5
        assert pf.purify(mix, np.array([0.5])).size == 0
        assert pf.purify(mix, np.array([0.51])).size == 1

    def test_purify_indices_match_posterior(self):
        s, _ = bimodal_scores(250, 0.4, 4)
        init = pf.moment_match_init(s[s > 0.5], s[s <= 0.5])
        fit = pf.em_fit(s, init)
        idx = pf.purify(fit.mixture, s)
        post = pf.posterior_clean(fit.mixture, s)
        np.testing.assert_array_equal(idx, np.flatnonzero(post > 0.5))

    def test_separation_quality_on_easy_mixture(self):
        s, flags = bimodal_scores(1000, 0.5, 5, clean=(10, 2), noisy=(2, 10))
        init = pf.moment_match_init(s[s > 0.5][:50], s[s <= 0.5][:50])
        fit = pf.em_fit(s, init)
        admitted = np.zeros(1000, dtype=bool)
        admitted[pf.purify(fit.mixture, s)] = True
        tp = np.sum(admitted & (flags == 1))
        precision = tp / max(admitted.sum(), 1)
        recall = tp / (flags == 1).sum()
        f1 = 2 * precision * recall / (precision + recall)
        assert f1 > 0.95


class TestReportRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        s, flags = bimodal_scores(50, 0.3, 8)
        init = pf.moment_match_init(s[s > 0.5], s[s <= 0.5])
        fit = pf.em_fit(s, init)
        path = tmp_path / "purify.tsv"
        pf.write_report(path, fit, s, flags)
        back = pf.read_report(path)
        np.testing.assert_array_equal(back["mixture"].alpha, fit.mixture.alpha)
        np.testing.assert_array_equal(back["mixture"].beta, fit.mixture.beta)
        np.testing.assert_array_equal(back["mixture"].weight, fit.mixture.weight)
        assert back["iterations"] == fit.iterations
        assert back["mean_log_likelihood"] == fit.mean_log_likelihood
        clamped = pf.clamp_score(s)
        post = pf.posterior_clean(fit.mixture, clamped)
        for i, score, p, admitted, flag in back["rows"]:
            assert score == clamped[i]
            assert p == post[i]
            assert admitted == int(post[i] > 0.5)
            assert flag == flags[i]

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "junk.tsv"
        p.write_text("hello\nworld\n")
        with pytest.raises(ValueError, match="not a purify report"):
            pf.read_report(p)
