"""The output-hash harness's files and comparison.

`benchmarks/output_hashes.py` is a script, not part of the package; it is
imported from its directory, with `output_hashes` stubbed, so no command
runs.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def output_hashes():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        yield importlib.import_module("output_hashes")
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


@pytest.fixture
def pinned(tmp_path, monkeypatch):
    """A copy of the pinned hashes in an empty working directory."""
    path = tmp_path / "BENCH_output_hashes.json"
    path.write_bytes((ROOT / "BENCH_output_hashes.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    return path


def _stub(output_hashes, monkeypatch, pinned, moved=False) -> dict:
    """Make this run's hashes the pinned ones, with the first file's
    changed if `moved`; returns them."""
    hashes = json.loads(pinned.read_text(encoding="utf-8"))["sha256"]
    if moved:
        hashes[sorted(hashes)[0]] = "0" * 64
    monkeypatch.setattr(output_hashes, "output_hashes",
                        lambda config, env: dict(hashes))
    return hashes


def test_against_without_out_leaves_the_pinned_file(output_hashes, pinned,
                                                    monkeypatch):
    """A comparison run with no --out leaves the file it compares against,
    and every other file, as they were, also when its outputs differ."""
    _stub(output_hashes, monkeypatch, pinned, moved=True)
    before = pinned.read_bytes()
    assert output_hashes.main(["--against", pinned.name]) == 1
    assert pinned.read_bytes() == before
    assert [p.name for p in pinned.parent.iterdir()] == [pinned.name]


def test_out_writes_the_hashes(output_hashes, pinned, monkeypatch):
    """--out writes this run's hashes, and a run equal to the file it
    compares against exits 0."""
    hashes = _stub(output_hashes, monkeypatch, pinned)
    assert output_hashes.main(["--out", "now.json",
                               "--against", pinned.name]) == 0
    now = json.loads((pinned.parent / "now.json").read_text(encoding="utf-8"))
    assert now == {"config": "default.json", "sha256": hashes}


def test_a_differing_hash_is_named_and_fails(output_hashes, pinned,
                                             monkeypatch, capsys):
    """One file whose hash moved makes the run exit 1, and is the one file
    named."""
    hashes = _stub(output_hashes, monkeypatch, pinned, moved=True)
    assert output_hashes.main(["--against", pinned.name]) == 1
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines()
            if line.startswith("differs:")] == [sorted(hashes)[0]]
    assert f"1 of {len(hashes)} files differ" in out
