"""Exit codes, file outputs, and option handling of the command line."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fail_writes_halfway, scipy_has_ufuncs_file
from mscn import datagen, evalkit, model, purifier
from mscn.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, ConfigError,
                      build_config, load_config, main)
from mscn.meta_loop import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMOKE = str(CONFIGS / "smoke.json")


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def smoke_with(tmp_path, section, key, value) -> str:
    """The smoke config with one value changed, written under `tmp_path`."""
    cfg = json.loads(Path(SMOKE).read_text(encoding="utf-8"))
    cfg[section][key] = value
    return write_json(tmp_path / f"{section}_{key}.json", cfg)


def gen_small(tmp_path, config=SMOKE):
    out = tmp_path / "data"
    rc = main(["gen-data", "--config", config, "--out", str(out)])
    assert rc == EXIT_OK
    return out / "dataset.mscd"


# ---------------------------------------------------------------------------
# config loading


def test_load_config_strict(tmp_path, capsys):
    ok = write_json(tmp_path / "ok.json",
                    {"data": {"seed": 1}, "train": {"epochs": 2}})
    cfg = load_config(ok)
    assert build_config(cfg, "data").seed == 1
    assert build_config(cfg, "train").epochs == 2
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path / "a.json", {"nope": {}}))
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path / "b.json", {"data": {"qty": 3}}))
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path / "c.json", {"train": {"lr": 0.1}}))
    with pytest.raises(ConfigError):
        load_config(write_json(tmp_path / "d.json", [1, 2]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    # keys of removed options: a config still carrying one exits 1
    for key, value in (("optimizer", "adam"), ("adam_beta1", 0.9),
                       ("warmup_meta", True), ("meta_bce_negative_term", True),
                       ("branch_hidden", 8)):
        config = write_json(tmp_path / f"{key}.json", {"train": {key: value}})
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(config)
        rc = main(["train", "--config", config, "--data",
                   str(tmp_path / "absent.mscd"), "--out", str(tmp_path / key)])
        assert rc == EXIT_CONFIG
        assert "unknown keys" in capsys.readouterr().err
        assert not (tmp_path / key).exists()
    # flags that repeated a config key: a command line still carrying one
    # exits 1 before the config is read
    for argv in (["gen-data", "--seed", "3"], ["gen-data", "--noise-ratio", "0"],
                 ["gen-data", "--noise-seed", "4"],
                 ["train", "--data", str(tmp_path / "absent.mscd"), "--seed", "1"]):
        out = tmp_path / "flag"
        assert main([*argv, "--config", SMOKE, "--out", str(out)]) == EXIT_CONFIG
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()


def test_default_config_file_states_the_defaults():
    raw = load_config(CONFIGS / "default.json")
    assert raw["data"] == dataclasses.asdict(datagen.GenConfig())
    assert raw["train"] == dict(dataclasses.asdict(TrainConfig()),
                                eval_ks=list(TrainConfig().eval_ks))
    # the reference run's corruption, not NoiseConfig's clean default
    assert raw["noise"] == {"ratio": 0.5, "seed": 20240602}


def test_config_value_types_checked_at_load(tmp_path, capsys):
    """A value of the wrong JSON type exits 1 before any work starts."""
    absent = str(tmp_path / "absent.mscd")
    for section, key, value, command in (
            ("train", "use_purification", "false", "train"),
            ("train", "batch_size", 16.5, "train"),
            ("data", "pairs_per_cluster", 20.5, "gen-data")):
        config = smoke_with(tmp_path, section, key, value)
        out = tmp_path / key
        args = ["--data", absent] if command == "train" else []
        rc = main([command, "--config", config, *args, "--out", str(out)])
        assert rc == EXIT_CONFIG, key
        assert f"{section}.{key} must be" in capsys.readouterr().err
        assert not out.exists()
    ok = {"data": {"within_cluster_std": 1}, "noise": {"ratio": 0},
          "train": {"eval_ks": [1, 5]}}
    load_config(write_json(tmp_path / "ok.json", ok))
    for section, key, value in (("train", "epochs", True),
                                ("train", "lr_main", False),
                                ("train", "mode", 1),
                                ("train", "eval_ks", [1.0, 5]),
                                ("noise", "seed", "1")):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(write_json(tmp_path / "bad.json", {section: {key: value}}))


def test_build_train_config_overrides():
    cfg = {"train": {"epochs": 3, "eval_ks": [1, 2]}}
    tc = build_config(cfg, "train", seed=99, mode="fixed_margin_baseline")
    assert tc.seed == 99
    assert tc.mode == "fixed_margin_baseline"
    assert tc.eval_ks == (1, 2)
    assert build_config(cfg, "train", seed=None).seed == TrainConfig().seed
    noise = build_config({"noise": {"ratio": 0.5}}, "noise", seed=4)
    assert (noise.ratio, noise.seed) == (0.5, 4)
    assert build_config({}, "noise") == datagen.NoiseConfig()
    with pytest.raises(ConfigError, match="bad train config"):
        build_config({"train": {"batch_size": 1}}, "train")
    with pytest.raises(ConfigError, match="bad noise config"):
        build_config({}, "noise", ratio=1.0)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_dataset(tmp_path, capsys):
    path = gen_small(tmp_path)
    assert path.exists()
    ds = datagen.read_dataset(path)
    assert len(ds.train) + len(ds.meta) + len(ds.val) + len(ds.test) == 120
    corrupted = int(np.sum(~ds.train.clean))
    assert corrupted == int(0.5 * len(ds.train))
    out = capsys.readouterr().out
    assert "corrupted train pairs" in out


def test_gen_data_noise_override(tmp_path):
    path = gen_small(tmp_path, smoke_with(tmp_path, "noise", "ratio", 0))
    ds = datagen.read_dataset(path)
    assert np.all(ds.train.clean)


def test_gen_data_seed_override_changes_bytes(tmp_path):
    a = gen_small(tmp_path / "a")
    b = gen_small(tmp_path / "b", smoke_with(tmp_path, "data", "seed", 777))
    assert a.read_bytes() != b.read_bytes()


def test_gen_data_defaults_without_config(tmp_path):
    """Without a config, gen-data writes the dataset of the declared
    defaults: GenConfig's, with NoiseConfig's ratio of 0."""
    out = tmp_path / "plain"
    assert main(["gen-data", "--out", str(out)]) == EXIT_OK
    assert datagen.NoiseConfig().ratio == 0
    datagen.write_dataset(tmp_path / "expected.mscd",
                          datagen.generate(datagen.GenConfig()))
    assert ((out / "dataset.mscd").read_bytes()
            == (tmp_path / "expected.mscd").read_bytes())


def test_gen_data_bad_ratio_exits_config(tmp_path, capsys):
    out = tmp_path / "x"
    rc = main(["gen-data", "--config", smoke_with(tmp_path, "noise", "ratio", 1.5),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "bad noise config: noise ratio must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seeds_exit_config(tmp_path, capsys):
    """A negative seed is rejected by name before any file is read or
    written (the data file does not exist, which would otherwise exit 2)."""
    out, absent = tmp_path / "out", str(tmp_path / "absent.mscd")
    for argv, message in (
            (["gen-data", "--config", smoke_with(tmp_path, "data", "seed", -3)],
             "bad data config: seed must be"),
            (["gen-data", "--config", smoke_with(tmp_path, "noise", "seed", -1)],
             "bad noise config: seed must be"),
            (["train", "--data", absent,
              "--config", smoke_with(tmp_path, "train", "seed", -1)],
             "bad train config: seed must be"),
            (["purify-report", "--data", absent, "--checkpoint", "y",
              "--seed", "-1"], "--seed: expected a non-negative integer")):
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG, argv
        assert message in capsys.readouterr().err, argv
    assert not out.exists()


def test_network_sizes_exit_config(tmp_path, capsys):
    """A layer width or a recall cutoff below 1 is rejected by name before
    the data file is read (it does not exist, which would otherwise exit
    2), rather than failing inside parameter init or after an epoch of
    training."""
    absent, out = str(tmp_path / "absent.mscd"), tmp_path / "out"
    for key, value, message in (
            ("mscn_hidden", 0, "mscn_hidden must be at least 1"),
            ("mscn_hidden", -1, "mscn_hidden must be at least 1"),
            ("d_sim", 0, "d_sim and mscn_hidden must be at least 1"),
            ("d_emb", 0, "d_emb, d_sim and mscn_hidden must be at least 1"),
            ("eval_ks", [0, 1], "eval_ks must be distinct, ascending and at least 1"),
            ("eval_ks", [-2, 5], "eval_ks must be distinct, ascending and at least 1")):
        path = smoke_with(tmp_path, "train", key, value)
        assert main(["train", "--config", path, "--data", absent,
                     "--out", str(out)]) == EXIT_CONFIG, (key, value)
        err = capsys.readouterr().err
        assert "bad train config:" in err and message in err, (key, value)
    assert not out.exists()


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors_exit_config(tmp_path, capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["train"]) == EXIT_CONFIG        # missing --data/--out
    assert main(["no-such-command"]) == EXIT_CONFIG
    assert main(["eval", "--data", "x", "--checkpoint", "y",
                 "--split", "bogus"]) == EXIT_CONFIG
    assert capsys.readouterr().err  # messages went to stderr
    # bad --threads / --ks are usage errors, caught before any file is read
    # (the data file does not exist, which would otherwise exit 2)
    absent = str(tmp_path / "absent.mscd")
    out = tmp_path / "out"
    assert main(["train", "--config", SMOKE, "--data", absent,
                 "--out", str(out), "--threads", "0"]) == EXIT_CONFIG
    for extra in (["--threads", "0"], ["--ks", "0"], ["--ks", "1,x"]):
        assert main(["eval", "--data", absent, "--checkpoint", "y",
                     "--out", str(out), *extra]) == EXIT_CONFIG, extra
        assert "positive integer" in capsys.readouterr().err
    # cutoffs are distinct and ascending, as eval_ks must be in a config
    for ks in ("5,1,1", "1,1", "5,1"):
        assert main(["eval", "--data", absent, "--checkpoint", "y",
                     "--out", str(out), "--ks", ks]) == EXIT_CONFIG, ks
        assert "distinct ascending" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / eval / purify-report pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    rc = main(["gen-data", "--config", SMOKE, "--out", str(data)])
    assert rc == EXIT_OK
    run = root / "run"
    rc = main(["train", "--config", SMOKE, "--data",
               str(data / "dataset.mscd"), "--out", str(run)])
    assert rc == EXIT_OK
    return data / "dataset.mscd", run


def test_train_outputs(pipeline):
    _, run = pipeline
    for name in ("metrics.tsv", "test_report.tsv", "net1_best.mscp",
                 "net2_best.mscp", "net1_final.mscp", "net2_final.mscp"):
        assert (run / name).exists(), name
    kv = evalkit.parse_kv((run / "test_report.tsv").read_text())
    assert kv["scorer"] == "mscn"
    assert 0.0 <= float(kv["rsum"]) <= 600.0


def test_eval_command(pipeline, tmp_path, capsys):
    data, run = pipeline
    rc = main(["eval", "--data", str(data),
               "--checkpoint", str(run / "net1_best.mscp"),
               "--checkpoint", str(run / "net2_best.mscp"),
               "--split", "test", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "retrieval report" in out
    kv = evalkit.parse_kv((tmp_path / "report.tsv").read_text())
    assert kv["n_images"] == "12"


def test_eval_cosine_scorer(pipeline, capsys):
    data, run = pipeline
    rc = main(["eval", "--data", str(data),
               "--checkpoint", str(run / "net1_best.mscp"),
               "--scorer", "cosine", "--ks", "1,5"])
    assert rc == EXIT_OK
    assert "cosine" in capsys.readouterr().out


def test_eval_cutoff_above_split_fails_before_scoring(pipeline, monkeypatch,
                                                      capsys):
    data, run = pipeline
    scored = []
    real_block_feature = model.block_feature

    def spy(*args, **kwargs):
        scored.append(1)
        return real_block_feature(*args, **kwargs)

    monkeypatch.setattr(model, "block_feature", spy)
    rc = main(["eval", "--data", str(data),
               "--checkpoint", str(run / "net1_best.mscp"), "--ks", "1,13"])
    assert rc == EXIT_RUNTIME
    assert "recall_at_k: k=13 outside [1, 12]" in capsys.readouterr().err
    assert scored == []


def test_purify_report_command(pipeline, tmp_path, capsys):
    data, run = pipeline
    rc = main(["purify-report", "--data", str(data),
               "--checkpoint", str(run / "net1_best.mscp"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = purifier.read_report(tmp_path / "purifier_net1.tsv")
    ds = datagen.read_dataset(data)
    assert len(report["rows"]) == len(ds.train)
    post = purifier.posterior_clean(report["mixture"],
                                    np.array([r[1] for r in report["rows"]]))
    stored = np.array([r[2] for r in report["rows"]])
    np.testing.assert_allclose(post, stored, rtol=1e-12)
    assert "admitted" in capsys.readouterr().out


def test_train_baseline_mode(pipeline, tmp_path):
    data, _ = pipeline
    out = tmp_path / "base"
    rc = main(["train", "--config", SMOKE, "--data", str(data),
               "--out", str(out), "--mode", "fixed_margin_baseline"])
    assert rc == EXIT_OK
    kv = evalkit.parse_kv((out / "test_report.tsv").read_text())
    assert kv["scorer"] == "cosine"


def test_train_threads_reach_every_eval(pipeline, tmp_path, monkeypatch):
    """--threads sets the worker count of every validation eval as well as
    of the final test eval."""
    data, _ = pipeline
    seen = []
    real_worker_count = evalkit.worker_count

    def spy(threads=None):
        seen.append(threads)
        return real_worker_count(threads)

    monkeypatch.setattr(evalkit, "worker_count", spy)
    rc = main(["train", "--config", SMOKE, "--data", str(data),
               "--out", str(tmp_path / "t"), "--threads", "1"])
    assert rc == EXIT_OK
    train_cfg = load_config(SMOKE)["train"]
    assert seen == [1] * (train_cfg["warmup_epochs"] + train_cfg["epochs"] + 1)


@pytest.mark.parametrize("command, target", [
    ("train", "test_report.tsv"), ("eval", "report.tsv"),
    ("purify-report", "purifier_net1.tsv")])
def test_failed_report_write_leaves_previous_report_intact(
        pipeline, tmp_path, monkeypatch, command, target):
    """A report write that dies halfway leaves the previous report as it
    was and no temporary file."""
    data, run = pipeline
    args = {
        "train": ["--config", SMOKE],
        "eval": ["--checkpoint", str(run / "net1_best.mscp")],
        "purify-report": ["--checkpoint", str(run / "net1_best.mscp")],
    }[command]
    out = tmp_path / "out"
    out.mkdir()
    previous = b"previous report\n"
    (out / target).write_bytes(previous)
    fail_writes_halfway(monkeypatch, target)
    rc = main([command, "--data", str(data), *args, "--out", str(out)])
    monkeypatch.undo()
    assert rc == EXIT_RUNTIME
    assert (out / target).read_bytes() == previous
    assert [p.name for p in out.iterdir() if p.name.startswith(target)] == [target]


# ---------------------------------------------------------------------------
# runtime failures exit 2


def test_missing_data_file_exits_runtime(tmp_path, capsys):
    rc = main(["train", "--config", SMOKE, "--data",
               str(tmp_path / "absent.mscd"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_empty_test_split_fails_before_training(pipeline, tmp_path, capsys):
    """With test_fraction 0, train stops before its first epoch and eval
    of the empty split exits 2 with a message, not a traceback."""
    _, run = pipeline
    cfg = json.loads(Path(SMOKE).read_text(encoding="utf-8"))
    cfg["data"]["test_fraction"] = 0
    config = write_json(tmp_path / "no_test.json", cfg)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", config, "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(["train", "--config", config, "--data", str(data / "dataset.mscd"),
               "--out", str(out)])
    assert rc == EXIT_RUNTIME
    assert not (out / "metrics.tsv").exists()
    assert "test split (0) too small for R@5" in capsys.readouterr().err
    rc = main(["eval", "--data", str(data / "dataset.mscd"),
               "--checkpoint", str(run / "net1_best.mscp"), "--split", "test"])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError") and "Traceback" not in err


def test_corrupt_data_file_exits_runtime(tmp_path):
    bad = tmp_path / "bad.mscd"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["eval", "--data", str(bad), "--checkpoint", "whatever"])
    assert rc == EXIT_RUNTIME


def test_manifest_array_exits_runtime(pipeline, tmp_path, capsys):
    data, run = pipeline
    ds = datagen.read_dataset(data)
    ds.manifest = [1, 2]
    bad = tmp_path / "bad.mscd"
    datagen.write_dataset(bad, ds)
    rc = main(["eval", "--data", str(bad),
               "--checkpoint", str(run / "net1_best.mscp")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: DatasetFormatError") and "Traceback" not in err


def test_corrupt_checkpoint_exits_runtime(pipeline, tmp_path):
    data, _ = pipeline
    bad = tmp_path / "bad.mscp"
    bad.write_bytes(b"\x00" * 32)
    rc = main(["eval", "--data", str(data), "--checkpoint", str(bad)])
    assert rc == EXIT_RUNTIME


def test_non_finite_inputs_exit_runtime(pipeline, tmp_path, capsys):
    """A NaN in a checkpoint or a dataset exits 2 instead of reporting the
    recall that NaN scores would give."""
    data, run = pipeline
    main_p, meta_p = model.load_checkpoint(run / "net1_best.mscp")
    meta_p.b2[0] = np.nan
    model.save_checkpoint(tmp_path / "nan.mscp", main_p, meta_p)
    ds = datagen.read_dataset(data)
    ds.test.images[0, 0] = np.nan
    datagen.write_dataset(tmp_path / "nan.mscd", ds)
    for data_path, ckpt in ((data, tmp_path / "nan.mscp"),
                            (tmp_path / "nan.mscd", run / "net1_best.mscp")):
        rc = main(["eval", "--data", str(data_path), "--checkpoint", str(ckpt)])
        assert rc == EXIT_RUNTIME
        assert "non-finite" in capsys.readouterr().err


def test_nan_scores_exit_runtime(pipeline, tmp_path, capsys):
    """Finite weights whose embeddings overflow score NaN; eval exits 2
    instead of ranking them."""
    data, run = pipeline
    main_p, meta_p = model.load_checkpoint(run / "net1_best.mscp")
    main_p.img_w2 *= 1e308
    main_p.txt_w2 *= 1e308
    model.save_checkpoint(tmp_path / "overflow.mscp", main_p, meta_p)
    with np.errstate(all="ignore"):
        rc = main(["eval", "--data", str(data), "--checkpoint",
                   str(tmp_path / "overflow.mscp")])
    assert rc == EXIT_RUNTIME
    assert "NaN score" in capsys.readouterr().err


def _env_without_blas_threads(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(extra)
    return env


def test_import_sets_blas_threads_unless_preset():
    """`import mscn` sets the BLAS thread default and loads no numpy."""
    probe = ("import os, sys, mscn\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)")
    for env, want in ((_env_without_blas_threads(), "1"),
                      (_env_without_blas_threads(OPENBLAS_NUM_THREADS="2"), "2")):
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [want, "False"]


def test_commands_load_no_openssl(tmp_path):
    """`gen-data`, `train` and `purify-report` draw random numbers without
    loading OpenSSL: no `_hashlib` module and no libcrypto mapping is left
    in the process, and a later `import hashlib` still gets OpenSSL."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to read the mappings from")
    data, run = tmp_path / "data", tmp_path / "run"
    probe = ("import json, sys\nfrom mscn.cli import main\n"
             "rcs = [main(a.split('|')) for a in sys.argv[1:]]\n"
             "def crypto():\n"
             "    with open('/proc/self/maps') as maps:\n"
             "        return 'libcrypto' in maps.read()\n"
             "seen = [rcs, '_hashlib' in sys.modules, crypto()]\n"
             "import hashlib\n"
             "seen += ['_hashlib' in sys.modules, hasattr(hashlib, 'scrypt')]\n"
             "print(json.dumps(seen))")
    argv = [["gen-data", "--config", SMOKE, "--out", data],
            ["train", "--config", SMOKE, "--data", data / "dataset.mscd",
             "--out", run],
            ["purify-report", "--data", data / "dataset.mscd",
             "--checkpoint", run / "net1_best.mscp", "--out", tmp_path / "pure"]]
    proc = subprocess.run([sys.executable, "-c", probe,
                           *("|".join(map(str, a)) for a in argv)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rcs, hashlib_loaded, crypto_mapped, *later = json.loads(
        proc.stdout.splitlines()[-1])
    assert rcs == [EXIT_OK] * 3
    assert (hashlib_loaded, crypto_mapped) == (False, False)
    assert later == [True, True]


@pytest.mark.skipif(not scipy_has_ufuncs_file(),
                    reason="this scipy falls back to the scipy.special package")
def test_import_loads_no_scipy():
    """The scipy.special package (about 0.23 s to import) never loads:
    not with the CLI, not at the first sigmoid, not in a mixture fit."""
    probe = ("import sys, numpy as np, mscn.cli\n"
             "from mscn import autodiff, purifier\n"
             "print('scipy.special' in sys.modules)\n"
             "autodiff.sigmoid([0.0])\n"
             "print('scipy.special' in sys.modules)\n"
             "s = np.linspace(0.05, 0.95, 40)\n"
             "purifier.em_fit(s, purifier.moment_match_init(s[20:], s[:20]))\n"
             "print('scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_data_and_baseline_commands_load_no_scipy(tmp_path):
    """`gen-data` and a fixed-margin baseline `train` take no sigmoid and fit
    no mixture, so they load no scipy module at all."""
    probe = ("import sys\nfrom mscn.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    data = tmp_path / "data"
    for argv in (["gen-data", "--config", SMOKE, "--out", str(data)],
                 ["train", "--config", SMOKE, "--mode", "fixed_margin_baseline",
                  "--data", str(data / "dataset.mscd"),
                  "--out", str(tmp_path / "run")]):
        proc = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} []", argv[0]


def test_data_and_small_eval_load_no_pool_or_masked_arrays(pipeline, tmp_path):
    """`gen-data` (smoke config, with noise) and a 12-pair `eval` at two
    workers import neither numpy.ma (np.unique would) nor a pool module
    (multiprocessing, or concurrent.futures), and neither does
    `import mscn.cli`."""
    data, run = pipeline
    probe = ("import json, sys\nfrom mscn.cli import main\n"
             "watched = ('numpy.ma', 'multiprocessing', 'concurrent.futures')\n"
             "loaded = lambda: [m for m in watched if m in sys.modules]\n"
             "seen = {'import': loaded()}\n"
             "seen['gen-data'] = (main(['gen-data', '--config', sys.argv[1],"
             " '--out', sys.argv[2]]), loaded())\n"
             "seen['eval'] = (main(['eval', '--data', sys.argv[3], '--checkpoint',"
             " sys.argv[4], '--threads', '2']), loaded())\n"
             "print(json.dumps(seen))")
    proc = subprocess.run([sys.executable, "-c", probe, SMOKE,
                           str(tmp_path / "data"), str(data),
                           str(run / "net1_best.mscp")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [], "gen-data": [EXIT_OK, []], "eval": [EXIT_OK, []]}


def test_train_outputs_do_not_depend_on_blas_threads(pipeline, tmp_path):
    """The BLAS thread default cannot change results: a train with one BLAS
    thread writes the same bytes as one with two."""
    data, _ = pipeline
    outputs = {}
    for n in ("1", "2"):
        out = tmp_path / f"blas{n}"
        proc = subprocess.run(
            [sys.executable, "-m", "mscn.cli", "train", "--config", SMOKE,
             "--data", str(data), "--out", str(out)],
            env=_env_without_blas_threads(OPENBLAS_NUM_THREADS=n),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs[n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["1"]) == 6
    assert outputs["1"] == outputs["2"]


def test_train_outputs_do_not_depend_on_threads(pipeline, tmp_path):
    """Training with two evaluation workers writes the same bytes as
    training with one."""
    data, _ = pipeline
    outputs = {}
    for n in ("1", "2"):
        out = tmp_path / f"threads{n}"
        assert main(["train", "--config", SMOKE, "--data", str(data),
                     "--out", str(out), "--threads", n]) == EXIT_OK
        outputs[n] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["1"]) == 6
    assert outputs["1"] == outputs["2"]


def test_module_entry_point(tmp_path):
    out = tmp_path / "m"
    proc = subprocess.run(
        [sys.executable, "-m", "mscn.cli", "gen-data", "--config", SMOKE,
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (out / "dataset.mscd").exists()
