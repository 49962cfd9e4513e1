"""Two-component Beta mixture over match scores.

Scores of a noisy training set are modeled as a mixture of a "clean" and a
"noisy" Beta component.  Components are initialized by moment matching on
trusted positive / constructed negative score samples, refined by EM on
the full score set, and a pair is admitted to the purified set when the
posterior of the clean component strictly exceeds one half.

Component order is fixed: index 0 is clean, index 1 is noisy; the clean
component is the one with the larger mean, enforced at init and after
fitting.

scipy.special is imported inside the functions that use it: it takes
about 0.24 s to load, which commands that fit no mixture need not pay.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .fileio import write_atomic

log = logging.getLogger(__name__)

# Rails keep Beta log-densities finite; shared with the loss layer.
SCORE_CLAMP_LO = 1e-4
SCORE_CLAMP_HI = 1.0 - 1e-4

# Floors for degenerate moment fits (near-constant samples, overdispersion).
_MIN_VARIANCE = 1e-10
_MIN_SHAPE = 1e-2
_MIN_WEIGHT = 1e-6

EM_MAX_ITERS = 10
EM_TOL = 1e-2


def clamp_score(scores) -> np.ndarray:
    """Clip scores into [1e-4, 1-1e-4]; NaN is a caller bug, not data."""
    arr = np.asarray(scores, dtype=np.float64)
    if np.any(np.isnan(arr)):
        raise ValueError("clamp_score: NaN score")
    return np.clip(arr, SCORE_CLAMP_LO, SCORE_CLAMP_HI)


@dataclass
class BetaMixture:
    alpha: np.ndarray  # (2,), component shape a; [clean, noisy]
    beta: np.ndarray   # (2,), component shape b
    weight: np.ndarray  # (2,), mixing weights, sum to 1

    def means(self) -> np.ndarray:
        return self.alpha / (self.alpha + self.beta)


@dataclass
class MixtureFit:
    mixture: BetaMixture
    iterations: int
    mean_log_likelihood: float
    trajectory: list[float]
    collapsed: bool = False


def beta_log_pdf(scores: np.ndarray, a: float, b: float) -> np.ndarray:
    """Log density of Beta(a, b); scores must already sit inside (0, 1)."""
    if not (a > 0 and b > 0):
        raise ValueError(f"beta_log_pdf: shapes must be positive, got ({a}, {b})")
    from scipy.special import betaln
    s = np.asarray(scores, dtype=np.float64)
    return (a - 1.0) * np.log(s) + (b - 1.0) * np.log1p(-s) - betaln(a, b)


def moment_match(scores: np.ndarray, weights=None) -> tuple[float, float]:
    """Beta shapes whose mean/variance match the (weighted) sample.

    Population-variance convention.  Degenerate samples are floored rather
    than rejected: variance at 1e-10, shapes at 1e-2.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError(f"moment_match: need >= 2 scores, got shape {s.shape}")
    if weights is None:
        weights = np.ones_like(s)
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("moment_match: non-positive weight total")
    mean = float(w @ s / total)
    if not 0.0 < mean < 1.0:
        raise ValueError(f"moment_match: sample mean {mean} outside (0, 1)")
    var = float(w @ (s - mean) ** 2 / total)
    var = max(var, _MIN_VARIANCE)
    common = mean * (1.0 - mean) / var - 1.0
    a = mean * common
    b = (1.0 - mean) * common
    if a < _MIN_SHAPE or b < _MIN_SHAPE:
        log.warning("moment_match: overdispersed sample (mean=%.4g var=%.4g), "
                    "flooring shapes", mean, var)
        a, b = max(a, _MIN_SHAPE), max(b, _MIN_SHAPE)
    return a, b


def moment_match_init(positive_scores, negative_scores) -> BetaMixture:
    """Initial mixture: clean component fit on trusted positives, noisy on
    constructed negatives, equal weights; clean slot takes the higher mean."""
    pos = clamp_score(positive_scores)
    neg = clamp_score(negative_scores)
    a0, b0 = moment_match(pos)
    a1, b1 = moment_match(neg)
    if a0 / (a0 + b0) < a1 / (a1 + b1):
        (a0, b0), (a1, b1) = (a1, b1), (a0, b0)
    return BetaMixture(alpha=np.array([a0, a1]), beta=np.array([b0, b1]),
                       weight=np.array([0.5, 0.5]))


def _component_log_joint(mixture: BetaMixture, s: np.ndarray) -> np.ndarray:
    """log(weight_k) + log pdf_k(s), shape (2, n)."""
    return np.stack([
        np.log(mixture.weight[k]) + beta_log_pdf(s, mixture.alpha[k], mixture.beta[k])
        for k in range(2)
    ])


def mean_log_likelihood(mixture: BetaMixture, scores) -> float:
    from scipy.special import logsumexp
    s = clamp_score(scores)
    return float(np.mean(logsumexp(_component_log_joint(mixture, s), axis=0)))


def posterior_clean(mixture: BetaMixture, scores) -> np.ndarray:
    """P(clean component | score), computed in log space."""
    from scipy.special import logsumexp
    s = clamp_score(np.atleast_1d(scores))
    lj = _component_log_joint(mixture, s)
    return np.exp(lj[0] - logsumexp(lj, axis=0))


def em_fit(scores, init: BetaMixture, max_iters: int = EM_MAX_ITERS,
           tol: float = EM_TOL) -> MixtureFit:
    """EM with a moment-matching M-step and a likelihood guard.

    Moment matching is not a true maximizer, so each iteration is accepted
    only if the mean log-likelihood does not drop; a dropping update is
    reverted and fitting stops.  Stops early once the improvement falls
    below `tol` or a component weight collapses below 1e-6.
    """
    from scipy.special import logsumexp
    s = clamp_score(scores)
    if s.ndim != 1 or s.size < 2:
        raise ValueError(f"em_fit: need >= 2 scores, got shape {s.shape}")
    current = BetaMixture(init.alpha.copy(), init.beta.copy(), init.weight.copy())
    ll = mean_log_likelihood(current, s)
    trajectory = [ll]
    iterations = 0
    collapsed = False
    for _ in range(max_iters):
        lj = _component_log_joint(current, s)
        resp = np.exp(lj - logsumexp(lj, axis=0, keepdims=True))  # (2, n)
        new_weight = resp.mean(axis=1)
        if np.any(new_weight < _MIN_WEIGHT):
            collapsed = True
            log.warning("em_fit: component weight collapsed (%s); stopping",
                        new_weight)
            break
        shapes = [moment_match(s, weights=resp[k]) for k in range(2)]
        candidate = BetaMixture(
            alpha=np.array([shapes[0][0], shapes[1][0]]),
            beta=np.array([shapes[0][1], shapes[1][1]]),
            weight=new_weight,
        )
        new_ll = mean_log_likelihood(candidate, s)
        if new_ll < ll - 1e-12:
            break  # moment step would lower the likelihood; keep current
        current = candidate
        iterations += 1
        trajectory.append(new_ll)
        improvement = new_ll - ll
        ll = new_ll
        if improvement < tol:
            break
    if current.means()[0] < current.means()[1]:
        current = BetaMixture(current.alpha[::-1].copy(),
                              current.beta[::-1].copy(),
                              current.weight[::-1].copy())
    return MixtureFit(mixture=current, iterations=iterations,
                      mean_log_likelihood=ll, trajectory=trajectory,
                      collapsed=collapsed)


def purify(mixture: BetaMixture, scores) -> np.ndarray:
    """Indices admitted to the purified set: posterior(clean) > 1/2, strict."""
    return np.flatnonzero(posterior_clean(mixture, scores) > 0.5)


# ---------------------------------------------------------------------------
# per-pair report, written as TSV with '#'-prefixed header lines


def write_report(path, fit: MixtureFit, scores, clean_flags) -> None:
    s = clamp_score(scores)
    post = posterior_clean(fit.mixture, s)
    flags = np.asarray(clean_flags, dtype=np.int64)
    if flags.shape != s.shape:
        raise ValueError(f"write_report: {flags.shape} flags for {s.shape} scores")
    m = fit.mixture
    lines = [
        "# beta_mixture\tv1",
        f"# clean\t{m.alpha[0]:.17g}\t{m.beta[0]:.17g}\t{m.weight[0]:.17g}",
        f"# noisy\t{m.alpha[1]:.17g}\t{m.beta[1]:.17g}\t{m.weight[1]:.17g}",
        f"# iterations\t{fit.iterations}\tmean_log_likelihood\t{fit.mean_log_likelihood:.17g}",
        "index\tscore\tposterior_clean\tadmitted\tclean_flag",
    ]
    for i in range(s.size):
        lines.append(f"{i}\t{s[i]:.17g}\t{post[i]:.17g}"
                     f"\t{int(post[i] > 0.5)}\t{int(flags[i])}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_report(path) -> dict:
    """Parse a report back; floats round-trip exactly (written with %.17g)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 5 or lines[0] != "# beta_mixture\tv1":
        raise ValueError(f"{path}: not a purify report")
    clean = lines[1].split("\t")
    noisy = lines[2].split("\t")
    meta_line = lines[3].split("\t")
    if clean[0] != "# clean" or noisy[0] != "# noisy" or meta_line[0] != "# iterations":
        raise ValueError(f"{path}: malformed report header")
    mixture = BetaMixture(
        alpha=np.array([float(clean[1]), float(noisy[1])]),
        beta=np.array([float(clean[2]), float(noisy[2])]),
        weight=np.array([float(clean[3]), float(noisy[3])]),
    )
    rows = []
    for line in lines[5:]:
        idx, score, post, admitted, flag = line.split("\t")
        rows.append((int(idx), float(score), float(post), int(admitted), int(flag)))
    return {
        "mixture": mixture,
        "iterations": int(meta_line[1]),
        "mean_log_likelihood": float(meta_line[3]),
        "rows": rows,
    }
