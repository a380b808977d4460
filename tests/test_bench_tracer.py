"""The benchmark's tracer (`bench/run.py --trace 1`) wraps ordlite's layers
by module and attribute name. A traced function that is renamed, deleted or
called around its module attribute must fail here, not only in a traced run."""

import importlib
from pathlib import Path

from ordlite import chain, ordinals
from ordlite.indexer import IndexState

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("chain.validate_block", "ordinals.assign_ordinals", "indexer.apply_block")


def test_tracer_wraps_and_restores_every_layer(monkeypatch, genesis):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    originals = (chain.validate_block, ordinals.assign_ordinals,
                 IndexState.__dict__["apply_block"])
    tracer = spans.Tracer()
    run.install(tracer)
    try:
        IndexState().apply_block(genesis)
    finally:
        tracer.restore()
    totals = tracer.totals()
    for name in LAYERS:
        assert totals[name]["calls"] == 1, name
    assert (chain.validate_block, ordinals.assign_ordinals,
            IndexState.__dict__["apply_block"]) == originals
