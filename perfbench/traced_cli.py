"""Run one ``mscn`` CLI command with every layer boundary traced.

Usage: python3 perfbench/traced_cli.py TRACE.npz <mscn arguments...>

The program is imported unchanged from ``src`` (on PYTHONPATH); the
public functions listed in TARGETS are wrapped in place before the
command runs, and the spans and counters are written to TRACE.npz when it
returns.  The exit code is the command's own.
"""

from __future__ import annotations

import inspect
import os
import sys

from tracer import Tracer

OPS = ("matmul", "add", "sub", "mul", "div", "scalar_mul", "square", "relu",
       "sigmoid", "log", "clamp", "l2norm", "row_max", "reduce_sum",
       "broadcast_to", "reshape", "transpose")

LAYERS = {
    "meta_loop": ("train", "warmup_step", "construct_meta_batch", "bilevel_step",
                  "virtual_update", "meta_update", "actual_update",
                  "baseline_step", "fit_purifier"),
    "model": ("all_pairs_scores", "cosine_scores", "pair_score",
              "save_checkpoint", "load_checkpoint"),
    "objective": ("triplet_loss", "meta_loss"),
    "purifier": ("em_fit", "purify"),
    "evalkit": ("evaluate", "score_matrix", "recall_at_k"),
    "datagen": ("generate", "inject_noise", "write_dataset", "read_dataset"),
}


def _output_bytes(out) -> int:
    # row_max returns (values, indices); the indices are not a recorded value
    return (out[0] if isinstance(out, tuple) else out).data.nbytes


def targets(mscn, tracer: Tracer) -> list:
    """(module, function, span name, hooks) for every traced boundary."""
    ad = mscn.autodiff
    out = [(ad, op, f"autodiff.op.{op}", {"size": _output_bytes}) for op in OPS]

    def tape_nodes(args, kwargs):
        n = len(args[0].nodes)
        tracer.count("autodiff.tape_nodes", n)
        tracer.peak("autodiff.tape_nodes_max", n)

    for fn in ("backward", "backward_retaining"):
        out.append((ad, fn, f"autodiff.{fn}", {"before": tape_nodes}))

    fit_args = inspect.signature(mscn.meta_loop.fit_purifier)

    def admitted(a, k, res):
        bound = fit_args.bind(*a, **k).arguments
        tracer.record("fit_purifier",
                      [bound["epoch"], bound["net_idx"], res[0].tolist()])

    probes = {
        "fit_purifier": admitted,
        "save_checkpoint": lambda a, k, res: tracer.record(
            "save_checkpoint", os.path.basename(str(a[0]))),
        "em_fit": lambda a, k, res: tracer.count(
            "purifier.em_iterations", res.iterations),
        "purify": lambda a, k, res: tracer.count(
            "purifier.admitted_pairs", res.size),
        "score_matrix": lambda a, k, res: tracer.count(
            "evalkit.scored_pairs", res[0].size * len(a[0])),
        "write_dataset": lambda a, k, res: tracer.count(
            "datagen.dataset_bytes", os.path.getsize(a[0])),
    }
    for layer, names in LAYERS.items():
        home = getattr(mscn, layer)
        for fn in names:
            hooks = {"probe": probes[fn]} if fn in probes else {}
            out.append((home, fn, f"{layer}.{fn}", hooks))
    return out


def main(argv) -> int:
    trace_path, args = argv[0], argv[1:]
    import mscn
    import mscn.cli

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "mscn" or name.startswith("mscn.")]
    tracer.install(modules, targets(mscn, tracer))
    try:
        return mscn.cli.main(args)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
