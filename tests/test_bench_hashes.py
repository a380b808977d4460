"""Seed 101 of every benchmark workload must index to the snapshot hashes in
`bench/baseline.json`, which the benchmark checks every run against. A change
to indexing or to the snapshot format must fail here, not only in a benchmark
run."""

import importlib
import json
from pathlib import Path

import pytest

from ordlite import chain
from ordlite.indexer import IndexState

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 101
BASELINE = json.loads((BENCH / "baseline.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_seed_chains_reproduce_baseline_hashes(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    expected = BASELINE[workload]["indexed_snapshot_hashes"][str(SEED)]
    assert len(expected) == session.CHAINS[workload]
    for k, want in enumerate(expected):
        inputs = session.setup_chain(workload, SEED, k, tmp_path / f"chain{k}")
        state = IndexState()
        with open(inputs.blocks_path) as fp:
            state.index_blocks(chain.read_blocks_jsonl(fp))
        assert state.snapshot_hash() == want, (workload, k)
        if inputs.expected_hash is not None:
            assert inputs.expected_hash == want, (workload, k)
