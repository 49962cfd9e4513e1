"""Quick checks of the benchmark itself, run before every benchmark run.

- self-time arithmetic on hand-made nested spans, including children from
  two threads that overlap each other;
- a real Tracer over two nested functions and a worker thread;
- the reference scorer and recall against the program's own
  ``model.all_pairs_scores``, ``model.cosine_scores`` and
  ``evalkit.recall_at_k`` on a toy input with ties;
- the metric names in BENCHMARK.json against the ones the benchmark prints.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np

import layers
import reference
import tracer


def _span_arithmetic() -> list:
    # 0 root [0, 10]: children 1 [1, 4] and 2 [5, 9]
    # 1 has child 3 [2, 3]; 2 has overlapping thread children 4 [5, 8], 5 [6, 9.5]
    start = [0.0, 1.0, 5.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 3.0, 8.0, 9.5]
    parent = [-1, 0, 0, 1, 2, 2]
    want = [10 - 3 - 4, 3 - 1, 4 - 4, 1, 3, 3.5]  # child 5 is clipped at 9 for 2
    got = tracer.self_times(start, end, parent)
    return [] if np.allclose(got, want) else [f"self times {got.tolist()} != {want}"]


def _live_tracer() -> list:
    t = tracer.Tracer()

    def leaf():
        return 1

    def inner():
        worker = threading.Thread(target=wrapped_leaf)
        worker.start()
        worker.join()
        return wrapped_leaf()

    wrapped_leaf = t.wrap("leaf", leaf)
    wrapped_inner = t.wrap("inner", inner)
    wrapped_inner()
    cols = t.columns()
    spans = [tuple(map(int, s)) for s in zip(range(len(cols["name"])), cols["name"], cols["parent"])]
    want = [(0, 1, -1), (1, 0, 0), (2, 0, 0)]  # both leaves are children of inner
    return [] if spans == want else [
        f"live spans {spans} != {want}"]


def _reference_vs_program(root) -> list:
    sys.path.insert(0, str(root / "src"))
    from mscn import evalkit, model
    rng = np.random.default_rng(7)
    main = model.MainNetParams.init(5, 4, 8, 3, rng, hidden=6)
    meta = model.MetaNetParams.init(3, rng, hidden=5)
    params = {f"main.{n}": v for n, v in main.items()}
    params.update({f"meta.{n}": v for n, v in meta.items()})
    images, texts = rng.normal(size=(7, 5)), rng.normal(size=(7, 4))
    problems = []
    for fn, ref in ((lambda: model.all_pairs_scores(images, texts, main, meta)[0],
                     reference.mscn_scores),
                    (lambda: model.cosine_scores(images, texts, main)[0],
                     reference.cosine_scores)):
        err = np.max(np.abs(fn().data - ref(params, images, texts)))
        if err > 1e-12:
            problems.append(f"{ref.__name__} differs from the program by {err:.3g}")
    scores = rng.integers(0, 3, size=(7, 7)).astype(float)  # many ties
    split = {"id": np.arange(7), "partner": np.array([3, 1, 2, 0, 4, 6, 5])}
    got = reference.recall_report(scores, split, ks=(1, 2, 5))
    truth = np.empty(7, dtype=int)
    truth[split["partner"]] = np.arange(7)
    for k in (1, 2, 5):
        if got[f"i2t_r{k}"] != evalkit.recall_at_k(scores, truth, k):
            problems.append(f"reference i2t R@{k} differs from recall_at_k")
        if got[f"t2i_r{k}"] != evalkit.recall_at_k(scores.T, split["partner"], k):
            problems.append(f"reference t2i R@{k} differs from recall_at_k")
    return problems


def _metric_names(root, end_to_end) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    printed = {"end_to_end": [(n, u) for n, u in end_to_end],
               "per_layer": [(n, u, b) for n, u, b in layers.PER_LAYER]}
    listed = {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              "per_layer": [(m["name"], m["unit"], m["better"])
                            for m in spec["per_layer"]]}
    return [f"BENCHMARK.json {key} differs from the metrics the benchmark prints"
            for key in printed if printed[key] != listed[key]]


def run(root, end_to_end) -> list:
    return (_span_arithmetic() + _live_tracer() + _reference_vs_program(root)
            + _metric_names(root, end_to_end))
