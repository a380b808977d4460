"""Set-up and rounds of one benchmark run.

A set-up generates CHAINS[workload] independent chains from the run's seed
(for script workloads it compiles one script per chain) and writes their block
JSONL. The run then repeats rounds, taking the chains in turn. Several chains
per run keep a percentile from hinging on the few heaviest blocks of one
seed's chain. Every round is:

1. an index job: read the chain's JSONL, apply each block to a fresh
   `IndexState` (each `apply_block` timed from outside), save the snapshot;
2. a closed-loop CLI session with one client: the workload's fixed sequence
   of reads and writes, each an in-process `ordlite` command through
   `CliRunner`, so interpreter start-up stays out of the numbers. The
   arguments come from the seed, the chain and one of VARIANTS[workload]
   variants, taken in turn, so every op of a run recurs exactly, on the same
   state, every len(chains) x VARIANTS rounds.

The in-memory state from the index job is the mirror. After each command the
same query or write is made on the mirror through the Python API, outside the
timed region, and the command's output must equal it byte for byte.

Every end-to-end time is scaled to a fixed machine speed (see SpeedScale).
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from click.testing import CliRunner

import workloads as wl
from ordlite import chain, cli, metrics, ordinals, scenario, trade
from ordlite.indexer import IndexState

# The CLI ops of one round, per workload. Each kind has a fixed share, so the
# latency distribution keeps its shape from seed to seed; the seed picks only
# the arguments. Where two kinds differ in cost, one kind has a clear
# majority, so that no reported percentile sits on the edge between two
# modes. Every round starts with `hash`, which loads the snapshot the index
# job saved: that is the save -> load round-trip check.
OPS = {
    "transfer_web": ("hash", "balance", "sat", "offer", "balance", "tick", "accept",
                     "sat", "balance", "settle", "sat", "inscriptions", "offer",
                     "balance", "sat", "accept", "tick", "balance", "settle", "save"),
    "range_shred": ("hash", "sat", "inscriptions", "sat", "index", "sat", "sat",
                    "index", "inscriptions", "sat", "save", "index", "sat", "hash",
                    "index", "sat", "inscriptions", "index", "sat", "sat", "index",
                    "sat", "inscriptions", "sat", "save", "index", "sat", "hash",
                    "inscriptions", "index", "sat", "sat", "inscriptions", "sat"),
    "cli_mix": ("hash", "sat", "balance", "offer", "tick", "accept",
                "inscriptions", "settle", "metrics", "sat", "balance", "save",
                "sat", "offer", "balance", "accept", "inscriptions", "settle",
                "tick", "metrics", "sat", "save"),
}
READS = {"hash", "sat", "balance", "tick", "inscriptions", "metrics"}
EXTENSIONS = OPS["range_shred"].count("index")
# Argument variants of each chain's CLI session: enough distinct ops that the
# p95 of reads has ten ops above it and the p90 of writes ten, each op counted
# once (chains x variants x ops: 3 x 6 x 13 reads, 7 x 2 x 10 writes,
# 4 x 4 x 8 writes).
VARIANTS = {"transfer_web": 6, "range_shred": 2, "cli_mix": 4}
# At least 1000 distinct blocks per workload, so that p99 of block apply has
# ten blocks above it.
CHAINS = {"transfer_web": 3, "range_shred": 7, "cli_mix": 4}
# On a shared host the same work takes up to ~1.6x as long from one second to
# the next, and whole runs land in slow or fast minutes. A fixed pure-Python
# task from the benchmark's own code (no ordlite) is timed between every
# stretch of program work, and each stretch is reported at the speed at which
# that task takes REF_S. A program change moves the stretch, not the task.
REFERENCE = {"holders": 16, "mints": 32, "rounds": 160}  # wl.transfer_script sizes
REF_S = 1e-3
REF_GAP_S = 0.01  # program time between reference timings in an index job
ASK_RANGE = (10_000, 5_000_000)  # sats
RISK_FREE = "0.0001"
PRICE_SERIES = 3
PRICE_DAYS = 240
SAT_NOTATIONS = (str, ordinals.render_decimal, ordinals.render_degree,
                 ordinals.render_percentile, ordinals.render_name)


def emit_text(obj) -> str:
    """What `ordlite` prints for obj (see cli.emit)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class Inputs:
    """One chain of a workload, with what the checks expect of it."""

    workload: str
    seed: int
    chain: int
    blocks_path: Path
    blocks: int
    script: list  # scenario actions; empty when blocks come from the generator
    compile_s: float
    expected_hash: str | None  # compiler's final hash, when compiled
    check: object  # IndexState -> list of mismatch strings
    extensions: list  # (path, Block) pairs for CLI `index` writes
    csvs: list

    @property
    def tag(self) -> str:
        """Seeds this chain's generator and, for scripts, the compiler's txids."""
        return f"{self.workload}:{self.seed}:{self.chain}"


def setup(workload: str, seed: int, workdir: Path) -> list[Inputs]:
    """Generate the workload's chains from the seed and write them to workdir."""
    return [setup_chain(workload, seed, k, workdir / f"chain{k}")
            for k in range(CHAINS[workload])]


def setup_chain(workload: str, seed: int, k: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}:{seed}:{k}"
    rng = random.Random(tag)
    extensions, csvs = [], []
    script, expected_hash, compile_s = [], None, 0.0
    if workload == "range_shred":
        blocks, gen = wl.shred_blocks(rng, tag, **wl.RANGE_SHRED)
        expected = dict(gen.utxos)
        check = lambda state: wl.utxo_mismatches(expected, state.utxos)  # noqa: E731
        for e in range(EXTENSIONS):
            block = gen.block(len(blocks) + e, wl.RANGE_SHRED["txs"])
            path = workdir / f"extension{e}.jsonl"
            with open(path, "w") as fp:
                chain.write_blocks_jsonl([block], fp)
            extensions.append((path, block))
    else:
        sizes = wl.TRANSFER_WEB if workload == "transfer_web" else wl.CLI_MIX
        script, model = wl.transfer_script(rng, **sizes)
        start = perf_counter()
        compiler = scenario.ScenarioCompiler(tag)
        blocks = compiler.compile(script)
        compile_s = perf_counter() - start
        expected_hash = compiler.state.snapshot_hash()
        check = lambda state: model.mismatches(state.ledger)  # noqa: E731
    if workload == "cli_mix":
        for p in range(PRICE_SERIES):
            path = workdir / f"price{p}.csv"
            path.write_text(wl.price_csv_text(rng, PRICE_DAYS, start_day=10 * p))
            csvs.append(path)
    blocks_path = workdir / "blocks.jsonl"
    with open(blocks_path, "w") as fp:
        chain.write_blocks_jsonl(blocks, fp)
    return Inputs(workload, seed, k, blocks_path, len(blocks),
                  script, compile_s, expected_hash, check,
                  extensions, csvs)


def reference_s() -> float:
    """Time one run of the fixed reference task."""
    start = perf_counter()
    wl.transfer_script(random.Random(0), **REFERENCE)
    return perf_counter() - start


class SpeedScale:
    """Scales program times to the speed at which the reference takes REF_S.

    `add` holds a raw time; `calibrate` times the reference and appends each
    held time, scaled by REF_S over the mean of this reference timing and the
    one before, to its sinks. Every held time thus lies between the two
    reference timings that scale it.
    """

    def __init__(self):
        self.last = reference_s()
        self.held: list = []

    def add(self, seconds: float, *sinks: list) -> None:
        self.held.append((seconds, sinks))

    def calibrate(self) -> None:
        now = reference_s()
        factor = 2 * REF_S / (self.last + now)
        self.last = now
        for seconds, sinks in self.held:
            for sink in sinks:
                sink.append(seconds * factor)
        self.held.clear()


def percentile(samples, pct: int):
    """Nearest-rank pct-th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, (len(ordered) * pct + 99) // 100)
    return ordered[rank - 1], len(ordered) - rank


def growth(times) -> float:
    """Median of the last tenth of per-block times over the first tenth."""
    tenth = max(1, len(times) // 10)
    return statistics.median(times[-tenth:]) / statistics.median(times[:tenth])


def state_gauges(state: IndexState) -> dict:
    ranges = [len(e.sat_ranges) for e in state.utxos.entries.values()]
    ledger = state.ledger
    return {
        "chain.utxo_count": len(state.utxos),
        "ordinals.ranges_per_utxo_mean": sum(ranges) / len(ranges),
        "ordinals.ranges_per_utxo_max": max(ranges),
        "brc20.ops_rejected": sum(1 for d in ledger.diagnostics
                                  if not d.startswith("pending ")),
        "brc20.pending_open": sum(1 for p in ledger.pendings.values() if not p.used),
        "brc20.holders": len({a for bal in ledger.balances.values() for a in bal}),
        "indexer.live_inscriptions": len(state.location),
    }


class Session:
    """Runs rounds for one workload and keeps samples and failures."""

    def __init__(self, chains: list[Inputs], workdir: Path, tracer=None, speed=None):
        self.chains = chains
        self.workdir = workdir
        self.data_dir = workdir / "data"
        self.tracer = tracer
        self.speed = speed or SpeedScale()
        self.runner = CliRunner()
        self.rounds = 0
        self.block_s: dict = {}  # (chain, height) -> apply times, one per index job
        self.first_apply_s: dict = {}  # chain -> per-block times of its first job
        self.index_rates: dict = {}  # chain -> blocks/s of each of its index jobs
        self.read_times: dict = {}  # (chain, variant, op index) -> times
        self.write_times: dict = {}
        self.program_s: list[float] = []  # index jobs and CLI commands, not checks
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.snapshot_bytes: dict = {}  # chain -> bytes after the index job
        self.gauges: dict = {}  # chain -> state_gauges after the index job
        self.settled = 0
        self.indexed_hash: dict = {}  # chain -> hash after the index job
        self.first_round_hash = ""  # after round 0's CLI session

    # A chain's index job and each CLI op repeat identical work. A CLI op
    # recurs only 2-5 times in a run, too few for a median to drop a stall, so
    # its fastest repeat is taken, as is each chain's fastest index job. A
    # block recurs in every job of its chain; its times are a fraction of a
    # millisecond, so the scaling's own jitter is what varies between repeats,
    # and the median repeat is steadier than the fastest.
    @property
    def apply_s(self) -> list[float]:
        """Each distinct block's median apply time over its index jobs."""
        return [statistics.median(times) for times in self.block_s.values()]

    @property
    def read_s(self) -> list[float]:
        """Each distinct read op's fastest time."""
        return [min(times) for times in self.read_times.values()]

    @property
    def write_s(self) -> list[float]:
        """Each distinct write op's fastest time."""
        return [min(times) for times in self.write_times.values()]

    @property
    def best_index_rates(self) -> list[float]:
        """Each chain's fastest index job, in blocks/s."""
        return [max(rates) for rates in self.index_rates.values()]

    @property
    def inputs(self) -> Inputs:
        """The chain of the current round."""
        return self.chains[self.rounds % len(self.chains)]

    @property
    def variant(self) -> int:
        """The CLI argument variant of the current round."""
        return self.rounds // len(self.chains) % VARIANTS[self.inputs.workload]

    # --- bookkeeping ---

    def _untraced(self, fn, *args):
        """Run checks and mirror updates with the tracer switched off."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.enabled = False
        try:
            return fn(*args)
        finally:
            self.tracer.enabled = True

    def _record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"round {self.rounds} {what}: {problems[0]}")

    def _set_op(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    # --- one round ---

    def round(self) -> None:
        mirror = self._index_job()
        rng = random.Random(f"{self.inputs.tag}:{self.variant}")
        ctx = {"extension": 0, "sat": 0}
        for i, kind in enumerate(OPS[self.inputs.workload]):
            self._cli_op(i, kind, mirror, rng, ctx)
        if self.rounds == 0:
            self.first_round_hash = self._untraced(mirror.snapshot_hash)
        self.rounds += 1

    def _index_job(self) -> IndexState:
        self.data_dir.mkdir(parents=True, exist_ok=True)
        speed = self.speed
        times, walls = [], []
        self._set_op(0)  # ops are block heights; blocks parse before apply
        start = perf_counter()
        state = IndexState()
        with open(self.inputs.blocks_path) as fp:
            for block in chain.read_blocks_jsonl(fp):
                t0 = perf_counter()
                state.apply_block(block)
                t1 = perf_counter()
                speed.add(t1 - t0, times)
                self._set_op(block.height + 1)
                if t1 - start >= REF_GAP_S:
                    speed.add(t1 - start, walls, self.program_s)
                    speed.calibrate()
                    start = perf_counter()
        state.save(cli.snapshot_path(self.data_dir))
        speed.add(perf_counter() - start, walls, self.program_s)
        speed.calibrate()
        k = self.inputs.chain
        for height, seconds in enumerate(times):
            self.block_s.setdefault((k, height), []).append(seconds)
        self.index_rates.setdefault(k, []).append(len(times) / sum(walls))
        if k not in self.first_apply_s:
            self.first_apply_s[k] = times
            self.snapshot_bytes[k] = cli.snapshot_path(self.data_dir).stat().st_size
            self.gauges[k] = self._untraced(state_gauges, state)
        self._record("index job", self._untraced(self._check_index, state, len(times)))
        return state

    def _check_index(self, state: IndexState, n_blocks: int) -> list[str]:
        problems = []
        if n_blocks != self.inputs.blocks:
            problems.append(f"indexed {n_blocks} of {self.inputs.blocks} blocks")
        got = state.snapshot_hash()
        k = self.inputs.chain
        expected = self.inputs.expected_hash or self.indexed_hash.get(k, got)
        if got != expected:
            problems.append(f"indexed hash {got} differs from {expected}")
        self.indexed_hash.setdefault(k, got)
        problems.extend(self.inputs.check(state))
        return problems

    def _cli_op(self, i: int, kind: str, mirror: IndexState, rng, ctx) -> None:
        try:
            args, expect = self._untraced(self._prepare, kind, mirror, rng, ctx)
        except LookupError as exc:  # no candidate for the op: count it failed
            self._record(kind, [f"cannot prepare: {exc}"])
            return
        self._set_op(f"cli:{self.rounds}:{i}")
        argv = ["--data-dir", str(self.data_dir), *args]
        t0 = perf_counter()
        if self.tracer is None:
            result = self.runner.invoke(cli.cli, argv)
        else:
            result = self.tracer.call("cli.command", self.runner.invoke, cli.cli, argv)
        times = self.read_times if kind in READS else self.write_times
        self.speed.add(perf_counter() - t0,
                       times.setdefault((self.inputs.chain, self.variant, i), []),
                       self.program_s)
        self.speed.calibrate()
        problems = []
        if result.exit_code != 0:
            problems.append(f"exit {result.exit_code}: {result.exception!r}")
        try:
            expected = self._untraced(expect, mirror)
        except Exception as exc:  # the mirror must not fail where the CLI ran
            problems.append(f"mirror raised {exc!r}")
        else:
            if not problems and result.output != expected:
                problems.append(f"output {result.output[:120]!r} != {expected[:120]!r}")
        if kind == "settle" and not problems:
            self.settled += 1
        self._record(" ".join(args[:2]), problems)

    def _prepare(self, kind: str, mirror: IndexState, rng, ctx):
        """Pick the op's arguments from the mirror; return (argv, expect).

        `expect(mirror)` applies the op to the mirror when it writes and
        returns the exact text the command must print.
        """
        if kind == "hash":
            return ["snapshot", "hash"], lambda m: emit_text(
                {"hash": m.snapshot_hash(), "tip_height": m.tip_height})
        if kind == "sat":
            ins_id = rng.choice(sorted(mirror.location))
            n = mirror.inscriptions[ins_id].genesis_sat
            render = SAT_NOTATIONS[ctx["sat"] % len(SAT_NOTATIONS)]
            ctx["sat"] += 1
            return ["sat", render(n)], lambda m: emit_text(m.sat_report(n))
        if kind == "balance":
            holder = rng.choice(sorted(mirror.ledger.balances[wl.TICK]))
            return (["brc20", "balance", wl.TICK, holder],
                    lambda m: emit_text(m.ledger.query_balance(wl.TICK, holder)))
        if kind == "tick":
            return (["brc20", "tick", wl.TICK],
                    lambda m: emit_text(m.ledger.query_tick(wl.TICK)))
        if kind == "inscriptions":
            height = rng.choice(sorted({i.height for i in mirror.inscriptions.values()}))
            return ["inscriptions", "--height", str(height)], \
                lambda m: emit_text(inscriptions_at(m, height))
        if kind == "metrics":
            files = [str(p) for p in self.inputs.csvs]
            return (["metrics", "--risk-free", RISK_FREE, *files],
                    lambda m: emit_text(metrics.report(
                        [metrics.load_price_csv(f) for f in files], float(RISK_FREE))))
        if kind == "save":
            path = str(self.workdir / "saved.json")
            return ["snapshot", "save", path], lambda m: emit_text(
                {"saved": path, "hash": m.snapshot_hash()})
        if kind == "index":
            path, block = self.inputs.extensions[ctx["extension"]]
            ctx["extension"] += 1
            return ["index", str(path)], lambda m: emit_text(index_block(m, block))
        if kind == "offer":
            return self._prepare_offer(mirror, rng, ctx)
        if kind == "accept":
            return self._prepare_accept(mirror, rng, ctx)
        if kind == "settle":
            offer_id = ctx["offer"]

            def settle(m):
                offer = m.offers[offer_id]
                block = trade.broadcast_and_settle(m, offer, offer.psbt.outputs[0].recipient)
                return emit_text({"offer_id": offer.id, "status": offer.status,
                                  "tx": chain.tx_to_json(block.txs[1]),
                                  "height": block.height,
                                  "btc_deltas": dict(sorted(m.btc_deltas.items()))})
            return ["trade", "settle", offer_id], settle
        raise ValueError(f"unknown op kind {kind!r}")

    def _prepare_offer(self, mirror, rng, ctx):
        open_ids = sorted(p.inscription_id for p in mirror.ledger.pendings.values()
                          if not p.used and p.inscription_id in mirror.location)
        if not open_ids:
            raise LookupError("no open pending transfer")
        ins_id = rng.choice(open_ids)
        seller = mirror.ledger.pendings[ins_id].owner
        ask = rng.randint(*ASK_RANGE)
        ctx["seller"] = seller

        def offer(m):
            made = trade.create_offer(m, seller, ins_id, ask)
            ctx["offer"] = made.id
            return emit_text({"offer_id": made.id, "status": made.status,
                              "psbt": made.psbt.to_json()})
        return ["trade", "offer", seller, ins_id, str(ask)], offer

    def _prepare_accept(self, mirror, rng, ctx):
        offer_id = ctx["offer"]
        need = mirror.offers[offer_id].ask + trade.DEFAULT_FEE
        funds: dict = {}
        for entry in mirror.utxos.entries.values():
            out = entry.txout
            if out.script_kind == "plain":
                funds[out.recipient] = funds.get(out.recipient, 0) + out.value
        buyers = sorted(a for a, v in funds.items()
                        if v >= need and a != ctx["seller"] and a.startswith("h"))
        if not buyers:
            raise LookupError(f"no buyer holds {need} sats")
        buyer = rng.choice(buyers)

        def accept(m):
            offer = m.offers[offer_id]
            funding = trade.select_funding(m, buyer, need)
            psbt = trade.accept_offer(m, offer, buyer, funding, trade.DEFAULT_FEE)
            return emit_text({"offer_id": offer.id, "status": offer.status,
                              "psbt": psbt.to_json()})
        return ["trade", "accept", offer_id, buyer], accept


def inscriptions_at(state: IndexState, height: int) -> list:
    """`ordlite inscriptions --height` computed on the in-memory state."""
    return [{"id": ins.id, "number": ins.number, "kind": ins.kind,
             "content_type": ins.content_type, "height": ins.height,
             "genesis_sat": ins.genesis_sat,
             "satpoint": str(state.location[ins.id]) if ins.id in state.location else None}
            for ins in sorted(state.inscriptions.values(), key=lambda i: i.number)
            if ins.height == height]


def index_block(state: IndexState, block) -> dict:
    """`ordlite index` of one block, applied to the in-memory state. A loaded
    snapshot carries no diagnostics, so only the new ones are printed."""
    seen, seen_ledger = len(state.diagnostics), len(state.ledger.diagnostics)
    state.apply_block(block)
    return {"tip_height": state.tip_height, "hash": state.snapshot_hash(),
            "diagnostics": state.diagnostics[seen:] + state.ledger.diagnostics[seen_ledger:]}
