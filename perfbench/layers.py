"""Per-layer metrics: their names, units and how each is read off traces.

A metric named ``<span>.s`` (or ``.self_s``) is the summed self time of
that span, ``<span>.calls`` its number of calls and ``<span>.bytes`` the
summed output bytes of an engine op.  Counters recorded by the probes in
traced_cli.py are summed over the traced processes (``tape_nodes_max`` is
a maximum).  A layer a workload never enters reads 0.
"""

from __future__ import annotations

import operator

import numpy as np

from tracer import self_times
from traced_cli import OPS

_L, _H = "lower", "higher"

PER_LAYER = [
    ("meta_loop.train.self_s", "s", _L),
    ("meta_loop.warmup_step.s", "s", _L),
    ("meta_loop.warmup_step.calls", "count", _L),
    ("meta_loop.construct_meta_batch.s", "s", _L),
    ("meta_loop.bilevel_step.s", "s", _L),
    ("meta_loop.bilevel_step.calls", "count", _L),
    ("meta_loop.virtual_update.s", "s", _L),
    ("meta_loop.meta_update.s", "s", _L),
    ("meta_loop.actual_update.s", "s", _L),
    ("meta_loop.baseline_step.s", "s", _L),
    ("meta_loop.baseline_step.calls", "count", _L),
    ("meta_loop.fit_purifier.s", "s", _L),
    ("meta_loop.fit_purifier.calls", "count", _L),
    ("autodiff.backward.s", "s", _L),
    ("autodiff.backward.calls", "count", _L),
    ("autodiff.backward_retaining.s", "s", _L),
    ("autodiff.backward_retaining.calls", "count", _L),
    ("autodiff.tape_nodes", "count", _L),
    ("autodiff.tape_nodes_max", "count", _L),
    ("autodiff.bytes_per_bilevel_step", "B", _L),
    ("autodiff.max_intermediate_bytes", "B", _L),
    *[(f"autodiff.op.{op}.{kind}", unit, _L) for op in OPS
      for kind, unit in (("s", "s"), ("calls", "count"), ("bytes", "B"))],
    ("model.all_pairs_scores.s", "s", _L),
    ("model.all_pairs_scores.calls", "count", _L),
    ("model.cosine_scores.s", "s", _L),
    ("model.cosine_scores.calls", "count", _L),
    ("model.pair_score.s", "s", _L),
    ("model.pair_score.calls", "count", _L),
    ("model.save_checkpoint.s", "s", _L),
    ("model.save_checkpoint.calls", "count", _L),
    ("model.load_checkpoint.s", "s", _L),
    ("objective.triplet_loss.s", "s", _L),
    ("objective.triplet_loss.calls", "count", _L),
    ("objective.meta_loss.s", "s", _L),
    ("objective.meta_loss.calls", "count", _L),
    ("purifier.em_fit.s", "s", _L),
    ("purifier.em_fit.calls", "count", _L),
    ("purifier.em_iterations", "count", _L),
    ("purifier.admitted_pairs", "count", _H),
    ("evalkit.evaluate.s", "s", _L),
    ("evalkit.evaluate.calls", "count", _L),
    ("evalkit.score_matrix.s", "s", _L),
    ("evalkit.recall_at_k.s", "s", _L),
    ("evalkit.scored_pairs", "count", _H),
    ("datagen.generate.s", "s", _L),
    ("datagen.inject_noise.s", "s", _L),
    ("datagen.write_dataset.s", "s", _L),
    ("datagen.read_dataset.s", "s", _L),
    ("datagen.dataset_bytes", "B", _L),
    ("trace.overhead_s", "s", _L),
]

_MAX_COUNTERS = {"autodiff.tape_nodes_max"}


def _span_sums(trace) -> dict:
    """Per span name: summed self seconds, calls and output bytes."""
    own = self_times(trace["start"], trace["end"], trace["parent"])
    ids = trace["name"]
    n = len(trace["names"])
    secs = np.bincount(ids, weights=own, minlength=n)
    calls = np.bincount(ids, minlength=n)
    nbytes = np.bincount(ids, weights=trace["nbytes"], minlength=n)
    return {name: (float(secs[i]), int(calls[i]), int(nbytes[i]))
            for i, name in enumerate(trace["names"])}


def _bilevel_bytes(trace) -> list:
    """Output bytes of all ops inside each bilevel_step span."""
    names = trace["names"]
    if "meta_loop.bilevel_step" not in names:
        return []
    step = names.index("meta_loop.bilevel_step")
    ids, parent, nbytes = (trace[k].tolist() for k in ("name", "parent", "nbytes"))
    owner = [-1] * len(ids)  # the enclosing bilevel_step span, if any
    totals = {}
    for i, (nid, p) in enumerate(zip(ids, parent)):
        owner[i] = i if nid == step else (owner[p] if p >= 0 else -1)
        if owner[i] >= 0:
            totals[owner[i]] = totals.get(owner[i], 0) + nbytes[i]
    return list(totals.values())


def layer_metrics(traces, overhead_s: float) -> dict:
    """{metric name: value} for every PER_LAYER metric, over `traces`."""
    spans, counters, per_step, biggest = {}, {}, [], 0
    for trace in traces:
        for name, (s, c, b) in _span_sums(trace).items():
            old = spans.get(name, (0.0, 0, 0))
            spans[name] = (old[0] + s, old[1] + c, old[2] + b)
        for key, value in trace["counters"].items():
            merge = max if key in _MAX_COUNTERS else operator.add
            counters[key] = merge(counters.get(key, 0), value)
        per_step += _bilevel_bytes(trace)
        # only engine ops record bytes
        biggest = max(biggest, int(trace["nbytes"].max(initial=0)))
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        column = {"s": 0, "self_s": 0, "calls": 1, "bytes": 2}.get(kind)
        out[name] = (counters.get(name, 0) if column is None
                     else spans.get(span, (0.0, 0, 0))[column])
    out["autodiff.bytes_per_bilevel_step"] = (
        float(np.mean(per_step)) if per_step else 0.0)
    out["autodiff.max_intermediate_bytes"] = biggest
    out["trace.overhead_s"] = float(overhead_s)
    return out
