"""Shared oracles for the test suite.

The central one is a central-difference gradient checker.  Analytic
gradients are compared against (f(x+h) - f(x-h)) / 2h per coordinate with
a relative tolerance; an absolute fallback handles coordinates where both
values are ~0.
"""

from __future__ import annotations

import builtins
import errno
import os

import numpy as np


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Numerical gradient of scalar-valued f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def assert_close_grad(analytic: np.ndarray, numeric: np.ndarray,
                      rel: float = 1e-5, abs_floor: float = 1e-8, label: str = ""):
    """Elementwise |a - n| <= rel * max(|a|, |n|), with an absolute floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape, (analytic.shape, numeric.shape)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    ok = err <= np.maximum(rel * scale, abs_floor)
    if not np.all(ok):
        worst = np.unravel_index(np.argmax(err - rel * scale), err.shape)
        raise AssertionError(
            f"gradient mismatch{' (' + label + ')' if label else ''} at {worst}: "
            f"analytic={analytic[worst]!r} numeric={numeric[worst]!r} "
            f"abs_err={err[worst]:.3e}"
        )


def fail_writes_halfway(monkeypatch, name_prefix: str):
    """Make each write to a file whose name starts with `name_prefix` put
    down half its bytes and then fail, as a full disk does."""
    real_open = builtins.open

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def __getattr__(self, name):
            return getattr(self.fh, name)

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(os.fspath(file)).startswith(name_prefix):
            return HalfWritten(fh)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)


def rng_for(*tags: int) -> np.random.Generator:
    """Deterministic generator keyed by integer tags."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(tags))))


# ---------------------------------------------------------------------------
# independent loss oracles (literal, loop-based, original formulas)


def margin_oracle(s, gamma: float, tau: float):
    """Adaptive margin via the odds-ratio form gamma / (1 + (s/(1-s))^-tau)."""
    s = np.asarray(s, dtype=np.float64)
    return gamma / (1.0 + (s / (1.0 - s)) ** (-tau))


def triplet_oracle(scores: np.ndarray, gamma: float, tau: float,
                   adaptive: bool = True, clamp: bool = True):
    """Per-pair two-sided hinge loss, written as explicit loops."""
    s = np.clip(scores, 1e-4, 1 - 1e-4) if clamp else np.array(scores, dtype=np.float64)
    n = s.shape[0]
    per = np.zeros(n)
    for i in range(n):
        sii = s[i, i]
        m = float(margin_oracle(sii, gamma, tau)) if adaptive else gamma
        t_neg = max(s[i, j] for j in range(n) if j != i)
        i_neg = max(s[j, i] for j in range(n) if j != i)
        per[i] = max(0.0, m - sii + t_neg) + max(0.0, m - sii + i_neg)
    return float(per.sum()), per


def bce_oracle(scores: np.ndarray, labels: np.ndarray,
               negative_term: bool = True) -> float:
    s = np.clip(scores, 1e-4, 1 - 1e-4)
    y = np.asarray(labels, dtype=np.float64)
    terms = y * np.log(s)
    if negative_term:
        terms = terms + (1.0 - y) * np.log(1.0 - s)
    return float(-np.mean(terms))


# ---------------------------------------------------------------------------
# kink-distance filter: FD checks only make sense when the case sits at a
# safe distance from every relu/argmax/clamp switching surface


def _unit_features(imgs, txts, main):
    from mscn import model

    u = model.embed_image(imgs, main).data
    v = model.embed_text(txts, main).data
    d2 = (u[:, None, :] - v[None, :, :]) ** 2
    proj = d2.reshape(-1, u.shape[1]) @ np.asarray(main.sim_w)
    norms = np.linalg.norm(proj, axis=-1)
    return proj / norms[:, None], norms


def _mlp_preact_margin(x, w1, b1):
    return float(np.abs(x @ np.asarray(w1) + np.asarray(b1)).min())


def triplet_kink_margin(imgs, txts, main, meta, gamma: float, tau: float) -> float:
    from mscn import model

    margins = [
        _mlp_preact_margin(imgs, main.img_w1, main.img_b1),
        _mlp_preact_margin(txts, main.txt_w1, main.txt_b1),
    ]
    feats, norms = _unit_features(imgs, txts, main)
    margins.append(float(norms.min()))
    margins.append(_mlp_preact_margin(feats, meta.w1, meta.b1))
    scores, _ = model.all_pairs_scores(imgs, txts, main, meta)
    s = scores.data
    margins.append(float(np.abs(s - 1e-4).min()))
    margins.append(float(np.abs(s - (1 - 1e-4)).min()))
    sc = np.clip(s, 1e-4, 1 - 1e-4)
    n = s.shape[0]
    diag = np.diag(sc)
    m = margin_oracle(diag, gamma, tau)
    off = sc + np.where(np.eye(n, dtype=bool), -2.0 - np.abs(sc).max(), 0.0)
    for mat in (off, off.T):
        top2 = np.sort(mat, axis=1)[:, -2:]
        margins.append(float((top2[:, 1] - top2[:, 0]).min()))
        margins.append(float(np.abs(m - diag + mat.max(axis=1)).min()))
    return min(margins)


def meta_kink_margin(imgs, txts, main, meta) -> float:
    from mscn import model

    margins = [
        _mlp_preact_margin(imgs, main.img_w1, main.img_b1),
        _mlp_preact_margin(txts, main.txt_w1, main.txt_b1),
    ]
    u = model.embed_image(imgs, main).data
    v = model.embed_text(txts, main).data
    d2 = (u - v) ** 2
    proj = d2 @ np.asarray(main.sim_w)
    norms = np.linalg.norm(proj, axis=-1)
    margins.append(float(norms.min()))
    feats = proj / norms[:, None]
    margins.append(_mlp_preact_margin(feats, meta.w1, meta.b1))
    s = model.mscn_score(feats, meta).data
    margins.append(float(np.abs(s - 1e-4).min()))
    margins.append(float(np.abs(s - (1 - 1e-4)).min()))
    return min(margins)
