"""A stateful model test of the CLI: hypothesis drives random sequences of
`index`, `trade offer`, `trade accept`, `trade settle`, `snapshot save` with
`snapshot load`, and the reads through one data dir with click's CliRunner,
against a mirror `IndexState` that makes the same calls through the API.
After every step the data dir holds the mirror's `snapshot_bytes()`; a
refused command changes neither, and is refused by the API with the same
error. Every read prints what the mirror gives, and no command exits with
code 2 (an invariant violation) or ends in an exception that is not an
`OrdliteError`. Blocks are built from the mirror's state: reveals of BRC-20
and text inscriptions, sends, spends to fee, burns, and a txid reused once
the outputs it made are spent."""

import hashlib
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import txid
from ordlite import chain, cli, envelope, errors, trade
from ordlite.chain import Block, OutPoint, Transaction, TxIn, TxOut
from ordlite.indexer import IndexState
from test_sectioned_reads import emitted, listing

HOLDERS = ("alice", "bob", 'h001","sat_ranges":[[0,1]],"script_kind":"plain')
TICK = "wide"
BODIES = {
    "deploy": '{"lim":"1000","max":"3000","op":"deploy","p":"brc-20","tick":"wide"}',
    "mint": '{"amt":"%s","op":"mint","p":"brc-20","tick":"wide"}',
    "transfer": '{"amt":"%s","op":"transfer","p":"brc-20","tick":"wide"}',
    "text": "hello %s",
}
POSTAGE, REVEAL_FEE = 546, 1_000
picks = st.integers(min_value=0, max_value=1_000)  # an index into a sorted list


class CliModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.data_dir = Path(self.tmp.name) / "data"
        self.mirror = IndexState()
        self.runner = CliRunner()
        self.txs = 0

    def teardown(self):
        self.tmp.cleanup()

    # --- running commands ---

    def invoke(self, *args):
        result = self.runner.invoke(cli.cli, ["--data-dir", str(self.data_dir), *args])
        exc = result.exception
        assert exc is None or isinstance(exc, errors.OrdliteError) and not isinstance(
            exc, errors.InvariantViolation), (args, result.output, exc)
        assert result.exit_code in (0, 1), (args, result.output)
        return result

    def snapshot(self) -> bytes:
        return cli.read_snapshot(self.data_dir)

    def write(self, args, api):
        """Run the write args and api on the mirror: both succeed, or both
        refuse with the same error and the data dir keeps its bytes."""
        before = self.snapshot()
        result = self.invoke(*args)
        try:
            api(self.mirror)
        except errors.OrdliteError as exc:
            assert type(result.exception) is type(exc), (args, result.exception, exc)
            assert self.snapshot() == before, args
        else:
            assert result.exit_code == 0, (args, result.output, result.exception)

    def read(self, args, expected):
        assert self.invoke(*args).output == emitted(expected), args

    # --- blocks built from the mirror's state ---

    def new_txid(self) -> str:
        self.txs += 1
        return txid(f"model tx {self.txs}")

    def index(self, txs, claim_fees=True, miner="miner"):
        """`ordlite index` of the next block, which holds txs."""
        height = self.mirror.tip_height + 1
        fees = sum(chain.tx_fee(tx, self.mirror.utxos.require) for tx in txs)
        claim = chain.block_subsidy(height) + (fees if claim_fees else 0)
        block = Block(height, (Transaction(txid(f"model cb {height}"), (),
                                           (TxOut(claim, miner),), True), *txs))
        path = Path(self.tmp.name) / "block.jsonl"
        with open(path, "w") as fp:
            chain.write_blocks_jsonl([block], fp)
        self.write(["index", str(path)], lambda m: m.apply_block(block))

    def funding(self, actor: str):
        """actor's plain output that pays for a reveal, or None."""
        ok = [op for op, v in trade.funding_outputs(self.mirror, actor)
              if v >= POSTAGE + REVEAL_FEE]
        return min(ok, default=None)

    @initialize()
    def fund(self):
        """A subsidy for each holder, the tick's deploy, and a mint to each
        holder and a transfer of part of it."""
        for who in HOLDERS:
            self.index([], miner=who)
        self.inscribe(HOLDERS[0], "deploy", "1")
        for who in HOLDERS:
            self.inscribe(who, "mint", "1000")
            self.inscribe(who, "transfer", "400")

    @rule(actor=st.sampled_from(HOLDERS),
          kind=st.sampled_from(["deploy", "mint", "text", "transfer", "transfer"]),
          amt=st.sampled_from(["1", "400", "1000", "2000"]))
    def inscribe(self, actor, kind, amt):
        funding = self.funding(actor)
        if funding is None:
            return self.index([], miner=actor)
        value = self.mirror.utxos.require(funding).txout.value
        body = BODIES[kind].replace("%s", amt).encode()
        witness = tuple(envelope.build_envelope("text/plain", body))
        self.index([Transaction(self.new_txid(), (TxIn(funding, witness),), (
            TxOut(POSTAGE, actor, "p2tr_inscription"),
            TxOut(value - POSTAGE - REVEAL_FEE, actor)))])

    @rule(pick=picks, to=st.sampled_from(HOLDERS),
          how=st.sampled_from(["send", "spend to fee", "burn"]))
    def move(self, pick, to, how):
        """Spend the output an inscription is on: to `to`, or wholly as fee,
        which the coinbase claims or, for a burn, does not."""
        located = sorted(self.mirror.location)
        if not located:
            return
        op = self.mirror.location[located[pick % len(located)]].outpoint
        value = self.mirror.utxos.require(op).txout.value
        outputs = (TxOut(value, to, "p2tr_inscription"),) if how == "send" else ()
        self.index([Transaction(self.new_txid(), (TxIn(op),), outputs)],
                   claim_fees=how != "burn")

    @rule(pick=picks, actor=st.sampled_from(HOLDERS))
    def reuse_txid(self, pick, actor):
        """A tx with the txid of a reveal whose output 0 is spent."""
        reused = sorted({ins_id.rpartition("i")[0] for ins_id in self.mirror.inscriptions
                         if OutPoint(ins_id.rpartition("i")[0], 0) not in self.mirror.utxos})
        funding = self.funding(actor)
        if not reused or funding is None:
            return
        value = self.mirror.utxos.require(funding).txout.value
        self.index([Transaction(reused[pick % len(reused)], (TxIn(funding),),
                                (TxOut(value, actor),))])

    # --- trades ---

    def choose(self, pick, items, usable):
        """One of items by pick: among the usable ones, when pick is even and
        there are any."""
        usable = [item for item in items if usable(item)]
        items = usable if usable and pick % 2 == 0 else sorted(items)
        return items[pick // 2 % len(items)] if items else None

    @rule(pick=picks, ask=st.sampled_from([0, 1_000, 50_000]))
    def offer(self, pick, ask):
        m = self.mirror
        ins_id = self.choose(pick, sorted(m.inscriptions), lambda i: i in m.location
                             and not getattr(m.ledger.pendings.get(i), "used", True))
        if ins_id is None:
            return
        pending = m.ledger.pendings.get(ins_id)
        seller = pending.owner if pending and pick % 3 != 2 else HOLDERS[pick % len(HOLDERS)]
        self.write(["trade", "offer", seller, ins_id, str(ask)],
                   lambda m: trade.create_offer(m, seller, ins_id, ask))

    def offer_id(self, pick, status) -> str | None:
        offers = self.mirror.offers
        return self.choose(pick, sorted(offers), lambda o: offers[o].status == status)

    @rule(pick=picks, buyer=st.sampled_from(HOLDERS))
    def accept(self, pick, buyer):
        oid, fee = self.offer_id(pick, "open"), trade.DEFAULT_FEE
        if oid is None:
            return

        def api(m):
            offer = trade.get_offer(m, oid)
            trade.check_acceptable(m, offer, fee)
            trade.accept_offer(m, offer, buyer,
                               trade.select_funding(m, buyer, offer.ask + fee), fee)
        self.write(["trade", "accept", oid, buyer], api)

    @rule(pick=picks)
    def settle(self, pick):
        oid = self.offer_id(pick, "accepted")
        if oid is None:
            return

        def api(m):
            offer = trade.get_offer(m, oid)
            trade.broadcast_and_settle(m, offer, offer.psbt.outputs[0].recipient)
        self.write(["trade", "settle", oid], api)

    # --- the byte copy and the reads ---

    @rule()
    def save_and_load(self):
        saved = Path(self.tmp.name) / "saved.json"
        before = self.snapshot()
        assert self.invoke("snapshot", "save", str(saved)).exit_code == 0
        assert self.invoke("snapshot", "load", str(saved)).exit_code == 0
        assert saved.read_bytes() == self.snapshot() == before

    @rule(who=st.sampled_from(HOLDERS), pick=picks)
    def reads(self, who, pick):
        m = self.mirror
        self.read(["brc20", "balance", TICK, who], m.ledger.query_balance(TICK, who))
        if TICK in m.ledger.ticks:
            self.read(["brc20", "tick", TICK], m.ledger.query_tick(TICK))
        self.read(["inscriptions"], listing(m))
        sats = sorted(m.inscriptions[i].genesis_sat for i in m.location) or [0]
        n = sats[pick % len(sats)]
        self.read(["sat", str(n)], m.sat_report(n))
        self.read(["snapshot", "hash"], {"hash": hashlib.sha256(m.snapshot_bytes()).hexdigest(),
                                         "tip_height": m.tip_height})

    @invariant()
    def data_dir_holds_the_mirror(self):
        assert self.snapshot() == self.mirror.snapshot_bytes()


CliModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=50, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
test_cli_model = CliModel.TestCase


def test_model_reaches_every_rule():
    """The model's rules do what their names say on a fixed run: a transfer
    is inscribed, offered, accepted and settled, and an inscription burned."""
    model = CliModel()
    try:
        model.fund()
        model.offer(0, 1_000)
        model.accept(0, "bob")
        model.settle(0)
        model.data_dir_holds_the_mirror()
        assert [o.status for o in model.mirror.offers.values()] == ["settled"]
        assert model.mirror.ledger.query_balance(TICK, "bob") == {"available": "1000",
                                                                 "pending": "400"}
        model.move(0, "bob", "burn")
        model.reuse_txid(0, "alice")
        model.save_and_load()
        model.reads("bob", 0)
        model.data_dir_holds_the_mirror()
        assert len(model.mirror.location) < len(model.mirror.inscriptions)  # one was lost
    finally:
        model.teardown()
