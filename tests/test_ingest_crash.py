"""SIGKILL crash/resume for ``repro ingest`` — the satellite-3 contract.

A real subprocess ingesting into a durable store is killed with
SIGKILL mid-ingest (no atexit, no flushing — the genuine article), then
restarted with ``--resume``. The recovered index must be
**bit-identical** (canonical snapshot bytes) to an uninterrupted run
over the same source + seed, regardless of where the kill landed
relative to the WAL / publish / frontier transitions.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.storage.snapshot import canonical_snapshot_bytes
from repro.storage.wal import DurableIndexStore

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SOURCE = "deep-tree:120"
SEED = "31"


def ingest_argv(store, *extra):
    return [
        "ingest", "--source", SOURCE, "--store", str(store),
        "--seed", SEED, "--batch-docs", "4",
        "--checkpoint-interval", "8", *extra,
    ]


def spawn_ingest(store):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *ingest_argv(store)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def recovered_bytes(store):
    durable = DurableIndexStore(str(store))
    index = durable.recover()
    durable.close()
    return canonical_snapshot_bytes(index.cover), index


def test_sigkill_mid_ingest_then_resume_is_bit_identical(tmp_path):
    straight_store = tmp_path / "straight"
    assert main(ingest_argv(straight_store)) == 0
    reference, reference_index = recovered_bytes(straight_store)

    crashed_store = tmp_path / "crashed"
    proc = spawn_ingest(crashed_store)
    wal = crashed_store / "updates.wal"
    try:
        # wait for durable progress, then SIGKILL — no cleanup handlers
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if wal.exists() and wal.stat().st_size > 16:
                break
            time.sleep(0.002)
        killed_mid_run = proc.poll() is None
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - safety net
            proc.kill()
            proc.wait()

    if not killed_mid_run:
        pytest.skip("ingest finished before the kill landed")

    # the store must already be recoverable (torn tails truncated)
    partial, partial_index = recovered_bytes(crashed_store)
    assert partial_index.collection.num_documents <= 120

    assert main(ingest_argv(crashed_store, "--resume")) == 0
    resumed, resumed_index = recovered_bytes(crashed_store)
    assert resumed_index.collection.num_documents == 120
    assert resumed_index.epoch == reference_index.epoch
    assert resumed == reference


def test_resume_requires_matching_source(tmp_path):
    store = tmp_path / "store"
    assert main(ingest_argv(store)[:7] + ["--batch-docs", "4",
                                          "--max-docs", "8"]) == 0
    with pytest.raises(SystemExit, match="refusing to mix"):
        main([
            "ingest", "--source", "scale-free:120", "--store", str(store),
            "--seed", SEED, "--resume",
        ])
    with pytest.raises(SystemExit, match="refusing to mix"):
        main(ingest_argv(store, "--resume")[:7] + ["--seed", "99",
                                                   "--resume"])


def test_directory_ingest_resumes_with_default_flags(tmp_path):
    """A ``dir:`` source has no seed: its frontier records 0, and a
    resume with the default ``--seed`` must compare that same value
    instead of refusing the store it wrote itself."""
    corpus = tmp_path / "corpus"
    assert main(["generate", "dblp", "-n", "6", "-o", str(corpus),
                 "--seed", "7"]) == 0
    names = sorted(p.stem for p in corpus.glob("*.xml"))
    assert len(names) == 6
    store = tmp_path / "store"
    ingest = ["ingest", "--source", f"dir:{corpus}", "--store", str(store)]
    assert main(ingest + ["--max-docs", "3"]) == 0
    _, partial = recovered_bytes(store)
    assert partial.collection.num_documents == 3
    assert main(ingest + ["--resume"]) == 0
    _, index = recovered_bytes(store)
    assert sorted(index.collection.documents) == names


def test_rerun_without_resume_is_rejected(tmp_path):
    store = tmp_path / "store"
    assert main(ingest_argv(store, "--max-docs", "8")) == 0
    with pytest.raises(SystemExit, match="pass --resume"):
        main(ingest_argv(store))


def test_resume_without_store_is_rejected(tmp_path):
    with pytest.raises(SystemExit, match="nothing to resume"):
        main(ingest_argv(tmp_path / "missing", "--resume"))


def test_resume_to_completion_is_idempotent(tmp_path):
    store = tmp_path / "store"
    assert main(ingest_argv(store, "--max-docs", "50")) == 0
    assert main(ingest_argv(store, "--resume")) == 0
    first, first_index = recovered_bytes(store)
    # resuming a finished ingest changes nothing
    assert main(ingest_argv(store, "--resume")) == 0
    again, again_index = recovered_bytes(store)
    assert again == first
    assert again_index.epoch == first_index.epoch
