"""Command line front end.

Four subcommands cover the pipeline: gen-data builds a synthetic benchmark
file, train runs the full schedule on it, eval scores checkpoints on a
split, purify-report fits the score mixture for a checkpoint and writes
the report.  Exit codes: 0 success, 1 bad usage or config, 2 runtime
failure (malformed files, numeric aborts).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import sys
import typing
from pathlib import Path

import numpy as np

from . import datagen, evalkit, model, purifier
from .fileio import write_atomic
from .meta_loop import SCORER_OF_MODE, TrainConfig, fit_purifier, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

# every config section and the dataclass that declares its keys and types
_SECTIONS = {"data": datagen.GenConfig, "noise": datagen.NoiseConfig,
             "train": TrainConfig}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the JSON values each declared field type takes; bools are not numbers
_TYPE_CHECKS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
    typing.Optional[int]: ("an integer or null", lambda v: v is None or _is_int(v)),
    tuple: ("a list of integers",
            lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


class ConfigError(ValueError):
    """Config file or command line arguments are unusable."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through
    # ConfigError so bad usage lands on exit code 1 like other config trouble
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cutoffs(text: str) -> tuple:
    """argparse type: comma-separated positive cutoffs, distinct and
    ascending (as TrainConfig requires of eval_ks)."""
    ks = tuple(_positive_int(k) for k in text.split(","))
    if list(ks) != sorted(set(ks)):
        raise argparse.ArgumentTypeError(
            f"expected distinct ascending cutoffs, got {text!r}")
    return ks


def _keep_freed_memory():
    """Let glibc malloc keep freed step arrays for reuse.

    A training step allocates and frees arrays of 1-2 MB.  By default glibc
    maps each one fresh and unmaps it on free, or trims the heap, so every
    step faults its pages in again.  Serving up to 4 MiB from the heap and
    trimming only above 64 MiB of free top space removes that churn.  Two
    arenas, one per training thread, keep the memory held that way from
    growing with every evaluation worker that gets an arena of its own.  A
    C library without mallopt is left as it is.  Returns whether the
    settings were made."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 2)
    return True


def load_config(path) -> dict:
    """Strict loader: unknown sections or keys, and values of the wrong
    JSON type, are errors, not surprises."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {path}: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)} "
                          f"(expected subset of {list(_SECTIONS)})")
    for section, cls in _SECTIONS.items():
        types = typing.get_type_hints(cls)
        body = raw.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(body) - set(types)
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: "
                              f"{sorted(bad)}")
        for key, value in body.items():
            expected, accepts = _TYPE_CHECKS[types[key]]
            if not accepts(value):
                raise ConfigError(f"config value {section}.{key} must be "
                                  f"{expected}, got {json.dumps(value)}")
    return raw


def build_config(raw: dict, section: str, **overrides):
    """The validated config of `section` from a loaded config: its keys,
    then every override that is not None."""
    cls = _SECTIONS[section]
    types = typing.get_type_hints(cls)
    body = dict(raw.get(section, {}))
    body.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        # JSON has no tuples; a tuple field arrives as a list
        cfg = cls(**{k: tuple(v) if types.get(k) is tuple else v
                     for k, v in body.items()})
        cfg.validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {section} config: {e}")
    return cfg


def _load_maybe_config(args) -> dict:
    return load_config(args.config) if args.config else {}


def cmd_gen_data(args) -> int:
    cfg = _load_maybe_config(args)
    gc = build_config(cfg, "data", seed=args.seed)
    noise = build_config(cfg, "noise", ratio=args.noise_ratio,
                         seed=args.noise_seed)
    ds = datagen.generate(gc)
    if noise.ratio > 0:
        ds = datagen.inject_noise(ds, noise.ratio, noise.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dataset.mscd"
    datagen.write_dataset(path, ds)
    corrupted = int(np.sum(~ds.train.clean))
    print(f"wrote {path}")
    for name, split in ds.splits():
        print(f"  {name}: {len(split)} pairs")
    print(f"  corrupted train pairs: {corrupted} (ratio {float(noise.ratio)})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_maybe_config(args)
    tc = build_config(cfg, "train", seed=args.seed, mode=args.mode)
    ds = datagen.read_dataset(args.data)
    if len(ds.test) < max(tc.eval_ks):
        raise ValueError(f"test split ({len(ds.test)}) too small for "
                         f"R@{max(tc.eval_ks)}")
    out = Path(args.out)
    result = train(ds, tc, out_dir=out, threads=args.threads)
    print(f"trained {tc.warmup_epochs + tc.epochs} epochs "
          f"({tc.mode}); best val rsum {result.best_rsum:.17g} "
          f"at epoch {result.best_epoch}")
    # test numbers come from the best-validation checkpoint, not the last epoch
    report = evalkit.evaluate(result.best_nets, ds.test, ks=tc.eval_ks,
                              scorer=SCORER_OF_MODE[tc.mode],
                              threads=args.threads)
    write_atomic(out / "test_report.tsv", report.format_kv().encode("utf-8"))
    print(report.format_text())
    print(f"outputs in {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = datagen.read_dataset(args.data)
    split = dict(ds.splits())[args.split]
    models = [model.load_checkpoint(p) for p in args.checkpoint]
    report = evalkit.evaluate(models, split, ks=args.ks, scorer=args.scorer,
                              threads=args.threads)
    print(report.format_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "report.tsv", report.format_kv().encode("utf-8"))
        print(f"wrote {out / 'report.tsv'}")
    return EXIT_OK


def cmd_purify_report(args) -> int:
    ds = datagen.read_dataset(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, path in enumerate(args.checkpoint, start=1):
        main_p, meta_p = model.load_checkpoint(path)
        admitted, fit, scores = fit_purifier(main_p, meta_p, ds.train, ds.meta,
                                             seed=args.seed, epoch=0,
                                             net_idx=idx - 1)
        report_path = out / f"purifier_net{idx}.tsv"
        purifier.write_report(report_path, fit, scores, ds.train.clean)
        clean, noisy = fit.mixture.means()
        print(f"net {idx}: admitted {admitted.size}/{scores.size} pairs; "
              f"component means clean {clean:.4f} noisy {noisy:.4f}; "
              f"{fit.iterations} EM iterations")
        print(f"wrote {report_path}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="mscn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic benchmark file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the generation seed")
    p.add_argument("--noise-ratio", type=float,
                   help="fraction of train pairs to corrupt")
    p.add_argument("--noise-seed", type=int, help="corruption seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a benchmark file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", required=True, help="dataset file (.mscd)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--mode", choices=list(SCORER_OF_MODE),
                   help="override the training mode")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker threads for evaluation; with more than one, "
                        "mscn mode also trains its two network pairs on two "
                        "threads (outputs do not depend on it)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on a split")
    p.add_argument("--data", required=True, help="dataset file (.mscd)")
    p.add_argument("--checkpoint", required=True, action="append",
                   help="checkpoint file; repeat to average networks")
    p.add_argument("--split", default="test", choices=list(datagen.SPLIT_NAMES))
    p.add_argument("--scorer", default="mscn", choices=["mscn", "cosine"])
    p.add_argument("--ks", type=_cutoffs, default="1,5,10",
                   help="comma-separated cutoffs")
    p.add_argument("--threads", type=_positive_int, default=None)
    p.add_argument("--out", help="directory for report.tsv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("purify-report",
                       help="fit the score mixture for checkpoints")
    p.add_argument("--data", required=True, help="dataset file (.mscd)")
    p.add_argument("--checkpoint", required=True, action="append",
                   help="checkpoint file; repeat for several networks")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed for constructed negative pairs")
    p.set_defaults(func=cmd_purify_report)
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # config problems (bad JSON, unknown keys, invalid values) exit 1;
        # anything that breaks after a valid config exits 2
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError, OSError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
