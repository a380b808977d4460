"""ordlite benchmark: one command per workload run.

Run from the repository root (ordlite is imported from ./src):

    python3 bench/run.py --workload transfer_web --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): transfer_web, range_shred,
cli_mix. A run sets up SETUPS times from the seed, spread over the run, and
reports their median as `setup_s`. It repeats rounds of "index job + CLI
session" (session.py) for `--seconds`, extended until every reported
percentile has at least ten samples above it. Every output is checked;
mismatches and non-zero exits count as failed, and a run that still lacks
those ten samples after MAX_MEASURE_S is not correct either. Every time
metric is scaled to the machine speed at which the benchmark's reference task
takes session.REF_S (session.SpeedScale), so it reads "ms at that speed".

With `--trace 0` the last line is the JSON result with the end-to-end metrics.
With `--trace 1` the run instead alternates untraced rounds (about half of
`--seconds` of them) with the same rounds with every layer wrapped by
spans.Tracer, writes the spans to .bench_out/ and reports the per-layer
metrics: per round, except `scenario.*` and `compile_actions_per_s`, which
are for one compile of the first chain's script, and the state gauges and
`indexer.apply_growth`, which are means over the chains.
`trace.overhead_ratio` compares the program's own time (index jobs and CLI
commands, not the benchmark's checks) in traced and untraced rounds. Exit
code 1 means a correctness check failed; 2 means ordlite could not be
imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
WORKLOADS = ("transfer_web", "range_shred", "cli_mix")
SETUPS = 5
# Ten samples beyond p99 of block apply (distinct blocks), p95 of reads and
# p90 of writes.
MIN_SAMPLES = {"apply_s": 1000, "read_s": 200, "write_s": 100}
MAX_MEASURE_S = 100  # give up extending for samples after this long


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import session
        import spans as tracing
    except ImportError as exc:
        print(f"bench: cannot import ordlite from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(session, tracing, args, workdir)
        else:
            result = measured_run(session, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def set_up(session, args, workdir, tag: int, speed, sink: list):
    """One fresh set-up from the seed; appends its scaled time to sink.

    The reference is timed between chains, so that each chain's share is
    scaled by the machine speed while it was set up.
    """
    gc.collect()
    speed.calibrate()
    chains, parts = [], []
    for k in range(session.CHAINS[args.workload]):
        start = perf_counter()
        chains.append(session.setup_chain(args.workload, args.seed, k,
                                          workdir / f"inputs{tag}" / f"chain{k}"))
        speed.add(perf_counter() - start, parts)
        speed.calibrate()
    sink.append(sum(parts))
    return chains


def run_rounds(sess, until, between=lambda elapsed: None) -> float:
    """Run rounds until `until(elapsed)` holds, calling `between(elapsed)`
    after each round; returns the summed time of the rounds alone."""
    total = 0.0
    while True:
        gc.collect()
        start = perf_counter()
        sess.round()
        total += perf_counter() - start
        if until(total):
            return total
        between(total)


def outcome(sess, metrics: dict) -> dict:
    """The result line; also prints the correctness summary for people."""
    print(f"workload={sess.inputs.workload} seed={sess.inputs.seed} rounds={sess.rounds} "
          f"chains={len(sess.chains)}")
    hashes = ",".join(sess.indexed_hash[k] for k in sorted(sess.indexed_hash))
    print(f"indexed_snapshot_hashes={hashes} first_round_final_hash={sess.first_round_hash}")
    print(f"attempted={sess.attempted} failed={sess.failed} "
          f"failed_ratio={sess.failed / max(sess.attempted, 1):.4f}")
    for line in sess.failures:
        print(f"FAILED {line}")
    return {"correct": sess.failed == 0, "attempted": sess.attempted,
            "failed": sess.failed, "metrics": metrics}


def measured_run(session, args, workdir) -> dict:
    speed = session.SpeedScale()
    setup_times = []
    chains = set_up(session, args, workdir, 0, speed, setup_times)
    sess = session.Session(chains, workdir, speed=speed)

    def done(elapsed):
        enough = all(len(getattr(sess, k)) >= n for k, n in MIN_SAMPLES.items())
        return ((elapsed >= args.seconds and enough and len(setup_times) == SETUPS)
                or elapsed >= MAX_MEASURE_S)

    def more_setups(elapsed):
        # Spread the set-ups over the run, so that their median does not
        # hinge on how fast the machine was during the first seconds.
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * args.seconds / SETUPS:
            set_up(session, args, workdir, len(setup_times), speed, setup_times)
    run_rounds(sess, done, more_setups)

    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}  {note}".rstrip())

    put("setup_s", statistics.median(setup_times), "s",
        f"(median of {len(setup_times)} set-ups spread over the run)")
    put("index_blocks_per_s", statistics.median(sess.best_index_rates), "blocks/s",
        f"(median over {len(chains)} chains of {'/'.join(str(c.blocks) for c in chains)} "
        f"blocks of each one's fastest index job; {sess.rounds} jobs)")
    short = []
    for name, attr, pct in (("block_apply_p50_ms", "apply_s", 50),
                            ("block_apply_p99_ms", "apply_s", 99),
                            ("query_p50_ms", "read_s", 50),
                            ("query_p95_ms", "read_s", 95),
                            ("write_p50_ms", "write_s", 50),
                            ("write_p90_ms", "write_s", 90)):
        samples = getattr(sess, attr)
        value, beyond = session.percentile(samples, pct)
        what = "blocks, each its median application" if attr == "apply_s" else \
            "ops, each its fastest repeat"
        put(name, value * 1e3, "ms", f"(n={len(samples)} {what}, {beyond} above p{pct})")
        if beyond < 10:
            short.append(f"{name}: {beyond} samples above p{pct}, fewer than 10")
    put("snapshot_bytes", statistics.mean(sess.snapshot_bytes.values()), "bytes",
        "(mean over the chains, after the index job)")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    result = outcome(sess, metrics)
    for line in short:
        print(f"UNDER-SAMPLED after {MAX_MEASURE_S} s: {line}")
    result["correct"] = result["correct"] and not short
    return result


def install(tracer) -> None:
    """Wrap the public functions of every layer (restored by tracer.restore)."""
    from ordlite import brc20, chain, cli, envelope, metrics, ordinals, scenario, trade
    from ordlite.indexer import IndexState

    def envelope_hits(counts, args, result):
        if result is not None:
            counts["envelope.hits"] += 1

    def block_shape(counts, args, result):
        block = args[1]
        counts["chain.txs"] += len(block.txs)
        counts["chain.inputs"] += sum(len(tx.inputs) for tx in block.txs)
        counts["chain.outputs"] += sum(len(tx.outputs) for tx in block.txs)

    for owner, attr, name, observe in (
            (scenario.ScenarioCompiler, "compile", "scenario.compile", None),
            (chain, "block_from_json", "chain.block_from_json", None),
            (chain, "validate_block", "chain.validate_block", None),
            (ordinals, "assign_ordinals", "ordinals.assign_ordinals", None),
            (ordinals, "locate_sat", "ordinals.locate_sat", None),
            (envelope, "parse_envelope", "envelope.parse_envelope", envelope_hits),
            (brc20, "parse_brc20", "brc20.parse_brc20", None),
            (brc20.Brc20Ledger, "check_invariants", "brc20.check_invariants", None),
            (IndexState, "apply_block", "indexer.apply_block", block_shape),
            (IndexState, "to_json", "indexer.to_json", None),
            (IndexState, "from_json", "indexer.from_json", None),
            (IndexState, "snapshot_hash", "indexer.snapshot_hash", None),
            (trade, "create_offer", "trade.create_offer", None),
            (trade, "accept_offer", "trade.accept_offer", None),
            (trade, "select_funding", "trade.select_funding", None),
            (trade, "broadcast_and_settle", "trade.broadcast_and_settle", None),
            (metrics, "report", "metrics.report", None),
            (cli, "load_state", "cli.load_state", None),
            (cli, "save_state", "cli.save_state", None)):
        tracer.patch(owner, attr, name, observe=observe)
    # Called once per holder x pending per block, or once per signature:
    # a span each would swamp them, so only calls are counted.
    tracer.patch(brc20.Brc20Ledger, "pending_outgoing", "brc20.pending_outgoing",
                 count_only=True)
    tracer.patch(trade, "verify_signatures", "trade.verify_signatures", count_only=True)


SELF_S = ("chain.block_from_json", "chain.validate_block", "ordinals.assign_ordinals",
          "ordinals.locate_sat", "envelope.parse_envelope", "brc20.parse_brc20",
          "brc20.check_invariants", "indexer.apply_block", "indexer.to_json",
          "indexer.from_json", "indexer.snapshot_hash", "trade.create_offer",
          "trade.accept_offer", "trade.select_funding", "trade.broadcast_and_settle",
          "metrics.report", "cli.load_state", "cli.save_state", "cli.command")
CALLS = ("ordinals.locate_sat", "envelope.parse_envelope", "brc20.check_invariants",
         "indexer.apply_block")
COUNTED = ("brc20.pending_outgoing", "trade.verify_signatures", "chain.txs",
           "chain.inputs", "chain.outputs")


def traced_run(session, tracing, args, workdir) -> dict:
    chains = session.setup(args.workload, args.seed, workdir / "inputs0")
    first = chains[0]
    tracer = tracing.Tracer()
    install(tracer)
    try:
        tracer.op = "compile"
        if first.script:
            from ordlite import scenario
            scenario.ScenarioCompiler(first.tag).compile(first.script)
    finally:
        tracer.restore()
    tracer.counts.clear()  # the counts below are for the rounds only

    # Untraced and traced rounds alternate (same chain, same CLI arguments),
    # so that a change in machine speed during the run hits both alike.
    plain = session.Session(chains, workdir)
    traced = session.Session(chains, workdir, tracer)
    plain_s = 0.0
    while plain_s < args.seconds / 2:
        plain_s += run_rounds(plain, lambda _: True)
        install(tracer)
        try:
            run_rounds(traced, lambda _: True)
        finally:
            tracer.restore()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    totals = tracer.totals(lambda op: op != "compile")
    rounds = traced.rounds
    compile_totals = tracer.totals(lambda op: op == "compile").get(
        "scenario.compile", {"self_s": 0.0})
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")

    put("scenario.compile.self_s", compile_totals["self_s"], "s")
    put("scenario.actions", len(first.script), "count")
    put("scenario.blocks", first.blocks if first.script else 0, "count")
    put("compile_actions_per_s",
        len(first.script) / first.compile_s if first.script else 0.0, "actions/s")
    for name in SELF_S:
        put(f"{name}.self_s", totals.get(name, {}).get("self_s", 0.0) / rounds, "s")
    for name in CALLS:
        put(f"{name}.calls", totals.get(name, {}).get("calls", 0) / rounds, "count")
    for name in COUNTED:
        put(name if name.startswith("chain.") else f"{name}.calls",
            tracer.counts[name] / rounds, "count")
    calls = totals.get("envelope.parse_envelope", {}).get("calls", 0)
    put("envelope.hit_ratio", tracer.counts["envelope.hits"] / calls if calls else 0.0,
        "ratio")
    for name in plain.gauges[0]:
        put(name, statistics.mean(g[name] for g in plain.gauges.values()), "count")
    put("indexer.apply_growth",
        statistics.mean(session.growth(t) for t in plain.first_apply_s.values()), "ratio")
    put("trade.settled", traced.settled / rounds, "count")
    put("trace.overhead_ratio", sum(traced.program_s) / sum(plain.program_s), "ratio")

    merged = outcome(traced, metrics)
    merged["attempted"] += plain.attempted
    merged["failed"] += plain.failed
    merged["correct"] = merged["failed"] == 0
    for line in plain.failures:
        print(f"FAILED (untraced pass) {line}")
    return merged


if __name__ == "__main__":
    sys.exit(main())
