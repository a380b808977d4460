"""`index`, `trade settle`, `trade offer` and `trade accept` decode only the
records they read (`IndexState.decode`) and write the bytes they read with
only what they changed spliced in (`IndexState.spliced_bytes`). Before every
block of each benchmark workload's first seed-101 chain, a decoded state
must answer every lookup the block makes as the whole decode does, and
after it its spliced bytes must equal the full encoding. On those chains,
on a hand-built one that gathers the splice's edge cases, and on one whose
names hold the byte patterns lookups search for, every write made through
the CLI must leave the data dir holding the full encoding of a mirror state
that made the same calls through the API, and bytes that pass the checks
`snapshot load` makes; no such write may decode or encode the whole
snapshot."""

import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import coinbase, send_then_recreate, spend, txid
from ordlite import chain, cli, envelope, errors, indexer, trade
from ordlite.brc20 import Brc20Ledger
from ordlite.chain import Block, OutPoint, Transaction, TxIn, TxOut
from ordlite.indexer import IndexState
from ordlite.scenario import ScenarioCompiler

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 101
ASK = 10_000
# Canonical bytes escape a name that is not ASCII, so this buyer's name pins
# that offsets in the decoded text are offsets in the bytes.
WIDE_BUYER = "bücher-☃"


def write(data_dir: Path, mirror: IndexState, args, api) -> dict:
    """Run the write command args on data_dir, which must neither decode the
    whole snapshot or ledger (`from_json`) nor build either (`to_json`), nor,
    for a `trade` command, which prints none, hash the snapshot, and api on
    the mirror; check the bytes written and return what the command
    printed."""
    with pytest.MonkeyPatch.context() as patch:
        for owner in (IndexState, Brc20Ledger):
            patch.setattr(owner, "to_json", refuse_whole)
            patch.setattr(owner, "from_json", refuse_whole)
        if args[0] == "trade":
            for module in (cli, indexer):
                patch.setattr(module, "hashlib", None)
        result = CliRunner().invoke(cli.cli, ["--data-dir", str(data_dir), *args])
    assert result.exit_code == 0, (args, result.output, result.exception)
    api(mirror)
    data = cli.snapshot_path(data_dir).read_bytes()
    assert data == mirror.snapshot_bytes(), args
    IndexState.from_untrusted(data)
    return json.loads(result.output)


def refuse_whole(*args):
    raise AssertionError("a CLI write decoded or encoded the whole snapshot")


def offer(data_dir, mirror, ins_id, ask) -> str:
    seller = mirror.ledger.pendings[ins_id].owner
    return write(data_dir, mirror, ["trade", "offer", seller, ins_id, str(ask)],
                 lambda m: trade.create_offer(m, seller, ins_id, ask))["offer_id"]


def accept(data_dir, mirror, oid, buyer) -> None:
    def api(m):
        made = m.offers[oid]
        funding = trade.select_funding(m, buyer, made.ask + trade.DEFAULT_FEE)
        trade.accept_offer(m, made, buyer, funding, trade.DEFAULT_FEE)
    write(data_dir, mirror, ["trade", "accept", oid, buyer], api)
    assert mirror.offers[oid].status == "accepted"


def index(data_dir, mirror, path: Path, block) -> None:
    with open(path, "w") as fp:
        chain.write_blocks_jsonl([block], fp)
    write(data_dir, mirror, ["index", str(path)], lambda m: m.apply_block(block))


def buyer_for(mirror: IndexState, seller: str, need: int) -> str:
    """The first address, in sorted order, other than seller that can pay need."""
    return next(addr for addr in sorted(mirror.plain_outpoints) if addr != seller
                and sum(v for _, v in trade.funding_outputs(mirror, addr)) >= need)


@pytest.mark.parametrize("workload", ["cli_mix", "transfer_web"])
def test_trade_writes_equal_the_full_encoding(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    for k in range(session.CHAINS[workload]):
        inputs = session.setup_chain(workload, SEED, k, tmp_path / f"chain{k}")
        data_dir = tmp_path / f"data{k}"
        mirror = IndexState()
        with open(inputs.blocks_path) as fp:
            blocks = list(chain.read_blocks_jsonl(fp))
        write(data_dir, mirror, ["index", str(inputs.blocks_path)],
              lambda m: m.index_blocks(blocks))
        first, second = sorted(p.inscription_id for p in mirror.ledger.pendings.values()
                               if not p.used and p.inscription_id in mirror.location)[:2]

        cancelled = offer(data_dir, mirror, first, ASK)
        listed = offer(data_dir, mirror, first, ASK + 1)  # cancels the open one
        assert mirror.offers[cancelled].status == "cancelled"
        seller = mirror.offers[listed].seller
        accept(data_dir, mirror, listed, buyer_for(mirror, seller, ASK + 1 + trade.DEFAULT_FEE))
        write(data_dir, mirror, ["trade", "settle", listed],
              lambda m: trade.broadcast_and_settle(m, m.offers[listed],
                                                   m.offers[listed].psbt.outputs[0].recipient))

        height = mirror.tip_height + 1
        index(data_dir, mirror, tmp_path / f"wide{k}.jsonl", chain.mine_block(
            height, (), mirror.utxos, txid(f"wide {height}"), WIDE_BUYER))
        before = cli.snapshot_path(data_dir).read_bytes()
        refused = CliRunner().invoke(cli.cli, ["--data-dir", str(data_dir), "trade",
                                               "accept", cancelled, WIDE_BUYER])
        assert isinstance(refused.exception, errors.OfferNotOpen)  # and saves nothing
        assert cli.snapshot_path(data_dir).read_bytes() == before
        accept(data_dir, mirror, offer(data_dir, mirror, second, ASK), WIDE_BUYER)
        assert json.dumps(WIDE_BUYER).encode() in cli.snapshot_path(data_dir).read_bytes()


def lookup_keys(state: IndexState, block) -> dict:
    """The keys of every lookup applying block makes of state's maps: the
    outpoints the block spends and creates, the recipients of both, the
    inscriptions on the spent outpoints and those the block may reveal, and
    each (tick, holder) whose balance or pendings the block may change: a
    recipient or a moved pending's owner, with a tick deployed or one of
    those pendings'."""
    spent = [tin.prevout for tx in block.txs for tin in tx.inputs]
    made = [OutPoint(tx.txid, k) for tx in block.txs for k in range(len(tx.outputs))]
    utxos = state.utxos
    ids = {f"{tx.txid}i{k}" for tx in block.txs for k in range(len(tx.inputs))}
    ids.update(i for op in spent for i in state.by_outpoint.get(op, ()))
    recipients = ({utxos[op].txout.recipient for op in spent if op in utxos}
                  | {out.recipient for tx in block.txs for out in tx.outputs})
    moved = [p for p in map(state.ledger.pendings.get, ids) if p is not None]
    ticks = set(state.ledger.ticks) | {p.tick for p in moved}
    return {"outpoints": spent + made, "spent": spent, "ids": sorted(ids),
            "recipients": sorted(recipients),
            "holders": sorted((tick, holder) for tick in ticks
                              for holder in recipients | {p.owner for p in moved})}


def answers(state: IndexState, keys: dict) -> dict:
    """What state's maps answer to the lookups keys name."""
    ledger = state.ledger
    return {
        "utxos": [(op in state.utxos, state.utxos.get(op)) for op in keys["outpoints"]],
        "plain": [set(state.plain_outpoints.get(r, ())) for r in keys["recipients"]],
        "by_outpoint": [state.by_outpoint.get(op) for op in keys["spent"]],
        "inscriptions": [(i in state.inscriptions, state.inscriptions.get(i))
                         for i in keys["ids"]],
        "location": [state.location.get(i) for i in keys["ids"]],
        "pendings": [ledger.pendings.get(i) for i in keys["ids"]],
        "holders": [(ledger.pending_outgoing(*key), ledger.raw_balance(*key))
                    for key in keys["holders"]],
    }


@pytest.mark.parametrize("workload", ["cli_mix", "range_shred", "transfer_web"])
def test_spliced_bytes_equal_the_full_encoding_after_every_block(workload, monkeypatch,
                                                                  tmp_path):
    """Before every block, a state `decode` makes of the previous block's
    bytes answers every lookup the block's application makes as the whole
    decode of those bytes does. Both then apply the block: the decoded state
    still answers as the whole one does, and its spliced bytes equal the
    whole one's full encoding. Only each workload's first chain is walked,
    as this is most of this test's time."""
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    inputs = session.setup_chain(workload, SEED, 0, tmp_path)
    data = IndexState().snapshot_bytes()
    with open(inputs.blocks_path) as fp:
        for block in chain.read_blocks_jsonl(fp):
            state = IndexState.decode(data)
            whole = IndexState.from_json(indexer.Snapshot(data))
            keys = lookup_keys(whole, block)
            assert answers(state, keys) == answers(whole, keys), block.height
            state.apply_block(block)
            whole.apply_block(block)
            assert answers(state, keys) == answers(whole, keys), block.height
            data = whole.snapshot_bytes()
            assert state.spliced_bytes() == data, block.height
    assert len(state.inscriptions) == len(whole.inscriptions)
    IndexState.from_untrusted(data)


# A recipient named like a UTXO record head, a BRC-20 holder named like a UTXO
# key (the ledger's keys are names, so `"<key>":` occurs there unescaped), one
# named like the `utxos` section head, and one whose name is not ASCII.
FAN = txid("hand fan")
HEAD_NAME, KEY_NAME = f'"{FAN}:0":', f"{FAN}:0"
NAMES = (HEAD_NAME, ',"utxos":', "bücher-☃")


def hand_block(builder: IndexState, txs, label: str, claim_fees=True) -> Block:
    """The next block holding txs, whose coinbase claims the subsidy plus, if
    claim_fees, the txs' fees (a tx may spend an output made earlier in the
    block); applied to builder."""
    made = {OutPoint(tx.txid, k): out for tx in txs for k, out in enumerate(tx.outputs)}
    fees = sum((made[tin.prevout] if tin.prevout in made
                else chain.require(builder.utxos, tin.prevout).txout).value
               for tx in txs for tin in tx.inputs) - sum(tx.output_total() for tx in txs)
    height = builder.tip_height + 1
    claim = chain.block_subsidy(height) + (fees if claim_fees else 0)
    block = Block(height, (coinbase(height, claim, label=label), *txs))
    builder.apply_block(block)
    return block


def witness(body: str) -> tuple:
    return tuple(envelope.build_envelope("text/plain;charset=utf-8", body.encode()))


def hand_built_index_files(builder: IndexState) -> list[list[Block]]:
    """The blocks of a chain that gathers the splice's edge cases, grouped as
    successive `ordlite index` files."""
    genesis = Block(0, (coinbase(0, chain.block_subsidy(0), "alice", "hand cb0"),))
    builder.apply_block(genesis)
    # 14 outputs: in string order `<FAN>:10` comes before `<FAN>:2`
    fan = spend("hand fan", [OutPoint(coinbase(0, 0, label="hand cb0").txid, 0)],
                [TxOut(10_000, NAMES[k % 3]) for k in range(14)])
    files = [[genesis, hand_block(builder, [fan], "hand cb1")]]

    # 11 envelopes in one tx, spending outputs 3-13: ids `i0`..`i10`, whose
    # string order is not their number order; its mints credit KEY_NAME
    bodies = ['{"lim":"1000","max":"100000","op":"deploy","p":"brc-20","tick":"wide"}']
    bodies += ['{"amt":"1000","op":"mint","p":"brc-20","tick":"wide"}'] * 10
    reveals = Transaction(txid("hand reveals"), tuple(
        TxIn(OutPoint(FAN, 3 + k), witness(body)) for k, body in enumerate(bodies)),
        (TxOut(546, KEY_NAME, "p2tr_inscription"), TxOut(50_000, "alice")))
    files.append([hand_block(builder, [reveals], "hand cb2")])

    # a move and a reveal in one block; a tx spends an output made earlier in
    # the block, and the next block, in the same file, spends what it made
    move = spend("hand move", [OutPoint(reveals.txid, 0)],
                 [TxOut(546, HEAD_NAME, "p2tr_inscription")])
    text = Transaction(txid("hand text"), (TxIn(OutPoint(reveals.txid, 1), witness("hi")),),
                       (TxOut(546, "carol", "p2tr_inscription"), TxOut(40_000, "carol")))
    chained = spend("hand chained", [OutPoint(text.txid, 1)], [TxOut(30_000, NAMES[2])])
    files.append([hand_block(builder, [move, text, chained], "hand cb3"),
                  hand_block(builder, [spend("hand respend", [OutPoint(chained.txid, 0)],
                                             [TxOut(20_000, "dave")])], "hand cb4")])

    # the reveals' txid again: it re-creates both its outputs, spent above
    reused = Transaction(reveals.txid, (TxIn(OutPoint(FAN, 0)),),
                         (TxOut(4_000, NAMES[1]), TxOut(5_000, NAMES[2])))
    files.append([hand_block(builder, [reused], "hand cb5")])

    # the moved inscriptions' sat spent as fee that the coinbase does not
    # claim: all eleven are lost
    burn = spend("hand burn", [OutPoint(move.txid, 0)], [])
    files.append([hand_block(builder, [burn], "hand cb6", claim_fees=False)])
    return files


def test_hand_built_chain_writes_equal_the_full_encoding(tmp_path):
    builder = IndexState()
    files = hand_built_index_files(builder)
    data_dir, mirror = tmp_path / "data", IndexState()
    texts = []
    for n, blocks in enumerate(files):
        path = tmp_path / f"blocks{n}.jsonl"
        with open(path, "w") as fp:
            chain.write_blocks_jsonl(blocks, fp)
        write(data_dir, mirror, ["index", str(path)], lambda m: m.index_blocks(blocks))
        texts.append(cli.snapshot_path(data_dir).read_text())
    # outputs 0-13 of FAN, in string order, read by the second index
    assert texts[0].index(f'"{FAN}:10":') < texts[0].index(f'"{FAN}:2":')
    # FAN's output 0, which the fourth index deletes, pays HEAD_NAME
    assert f'"{FAN}:0":{{"recipient":{json.dumps(HEAD_NAME)}' in texts[2]
    for name in NAMES + (KEY_NAME,):
        assert all(json.dumps(name) in text for text in texts[:3]), name
    assert f'"{KEY_NAME}":' in texts[-1]  # unescaped, in the brc20 section
    assert mirror.snapshot_bytes() == builder.snapshot_bytes()
    ids = sorted(builder.inscriptions, key=lambda i: builder.inscriptions[i].number)
    assert len(ids) == 12 and sorted(ids[:11]) != ids[:11]
    assert set(builder.location) == {ids[11]}  # the eleven were lost
    assert builder.utxos.get(OutPoint(txid("hand reveals"), 1)).txout.recipient == NAMES[2]
    assert builder.ledger.query_balance("wide", KEY_NAME) == {"available": "10000",
                                                              "pending": "0"}


def test_in_memory_indexing_keeps_no_change_log(tmp_path):
    """The index job and `scenario` compile index into an `IndexState()`,
    whose maps are dicts with no overlay of writes, so what they keep does
    not grow with the chain. A CLI write's state logs its writes, and its
    maps are only looked up by key: none can be iterated, and only the
    inscriptions, counted by `next_number`, have a length."""
    builder = IndexState()
    hand_built_index_files(builder)
    compiler = ScenarioCompiler(SEED)
    compiler.compile([{"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
                       "deployer": "alice"},
                      {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "alice"}])
    for state in (builder, compiler.state):
        assert state.source is None
        assert type(state.utxos) is chain.UtxoSet
        assert all(type(m) is dict for m in (state.inscriptions, state.location,
                                              state.by_outpoint))
    cli.snapshot_path(tmp_path).write_bytes(compiler.state.snapshot_bytes())
    loaded = cli.load_state(tmp_path)
    assert loaded.source is not None and loaded.location.written == {}
    ledger = loaded.ledger
    for decoded in (loaded.utxos, loaded.plain_outpoints, loaded.inscriptions,
                    loaded.location, loaded.by_outpoint, ledger.pendings, ledger.unused):
        with pytest.raises(TypeError):
            list(decoded)
    assert len(loaded.inscriptions) == loaded.source.value("next_number") == 2


# Byte patterns a CLI write's state finds records by, each inside a string:
# a recipient named like the rest of a plain UTXO record of "h001", a PSBT
# signer (and so a BRC-20 holder and a `btc_deltas` address) named like the
# `next_number` section's head, and a content type holding a record's `":{`
# and a location's pattern for the first output of the fan below.
ADVERSARIAL = 'h001","sat_ranges":[[0,1]],"script_kind":"plain'
SIGNER = "next_number"
ADV_FAN = txid("adversarial fan")
ADV_TYPE = f'text/x":{{"satpoint":"{ADV_FAN}:0:'
# Owners of pendings, which are found by the end of their elements in
# `pendings` (`,"owner":<owner>,"tick":<tick>,"used":false}`): a name that
# is a prefix of another, names holding that end for another owner, the end
# of the `pendings` list, and a pending's id field.
HOLDERS = ("h00", "h001", 'h00","tick":"wide","used":false}', '],"ticks":{',
           f'"id":"{txid("adv brc20 2")}i0"')


def reveal(builder: IndexState, blocks: list, label: str, funding: OutPoint,
           content_type: str, body: str, owner: str = "alice") -> str:
    """Inscribe body from alice's output funding, to owner, in a block that
    builder applies and blocks gets, whose change goes to alice at output 1;
    return the inscription's id."""
    value = chain.require(builder.utxos, funding).txout.value
    witness = tuple(envelope.build_envelope(content_type, body.encode()))
    tx = Transaction(txid(label), (TxIn(funding, witness),),
                     (TxOut(546, owner, "p2tr_inscription"), TxOut(value - 1_546, "alice")))
    blocks.append(hand_block(builder, [tx], f"{label} cb"))
    return f"{tx.txid}i0"


def test_lazy_lookups_are_not_misled_by_patterns_in_names(tmp_path):
    """A CLI write's state finds a recipient's plain outpoints, the end of
    `inscriptions`, the inscriptions on an outpoint, the end of `pendings`
    and an owner's unused pendings by byte patterns (see `indexer.Snapshot`).
    Here each pattern also occurs inside a string, where its quotes are
    escaped, and no write or read may take it for the real one."""
    builder = IndexState()
    genesis = Block(0, (coinbase(0, chain.block_subsidy(0), "alice", "adv cb0"),))
    builder.apply_block(genesis)
    # h001's outputs 0 and 2 fund its purchase; a search that took ADVERSARIAL's
    # output 1 for one of h001's would fund it with outputs 0 and 1
    fan = Transaction(ADV_FAN, (TxIn(OutPoint(genesis.txs[0].txid, 0)),), (
        TxOut(40_000, "h001"), TxOut(100_000, ADVERSARIAL), TxOut(40_000, "h001"),
        TxOut(1_000_000, SIGNER), *(TxOut(1_000_000, "alice") for _ in range(6))))
    blocks = [genesis, hand_block(builder, [fan], "adv cb1")]
    bodies = ['{"lim":"1000","max":"21000","op":"deploy","p":"brc-20","tick":"wide"}',
              '{"amt":"1000","op":"mint","p":"brc-20","tick":"wide"}',
              '{"amt":"100","op":"transfer","p":"brc-20","tick":"wide"}',
              '{"amt":"100","op":"transfer","p":"brc-20","tick":"wide"}']
    ids = [reveal(builder, blocks, f"adv brc20 {k}", OutPoint(ADV_FAN, 4 + k), "text/plain",
                  body) for k, body in enumerate(bodies)]
    text = reveal(builder, blocks, "adv text", OutPoint(ADV_FAN, 8), ADV_TYPE, "hi")
    # the text's reveal output 0 goes to bob, and a tx reusing the reveal's
    # txid re-creates it: the text's `genesis_satpoint` names that outpoint,
    # which the next block spends
    blocks += send_then_recreate(builder, text)
    recreated = OutPoint(text.rpartition("i")[0], 0)
    blocks.append(hand_block(builder, [spend("adv respend", [recreated],
                                             [TxOut(400, "carol")])], "adv respend cb"))
    # bob sends the text on: the write finds it among the inscriptions on his output
    sent = OutPoint(txid(f"send {text}"), 0)
    blocks.append(hand_block(builder, [spend("adv resend", [sent],
                                             [TxOut(546, "carol", "p2tr_inscription")])],
                             "adv resend cb"))
    # each holder mints 1000 and earmarks 100, then 900: the second transfer
    # is valid only if no other holder's pending is counted as the holder's,
    # and a third, of 1, would be valid only if one of the holder's own
    # pendings were missed
    funding = OutPoint(ADV_FAN, 9)
    for amt in ("mint 1000", "transfer 100", "transfer 900", "transfer 1"):
        op, amount = amt.split()
        for holder in HOLDERS:
            label = f"adv {holder} {amt}"
            reveal(builder, blocks, label, funding, "text/plain",
                   f'{{"amt":"{amount}","op":"{op}","p":"brc-20","tick":"wide"}}', holder)
            funding = OutPoint(txid(label), 1)

    data_dir, mirror = tmp_path / "data", IndexState()
    for n, block in enumerate(blocks):
        index(data_dir, mirror, tmp_path / f"adv{n}.jsonl", block)
    assert mirror.snapshot_bytes() == builder.snapshot_bytes()
    for holder in HOLDERS:
        assert mirror.ledger.query_balance("wide", holder) == {"available": "0",
                                                               "pending": "1000"}
        read = CliRunner().invoke(cli.cli, ["--data-dir", str(data_dir), "brc20", "balance",
                                            "wide", holder])
        assert json.loads(read.output) == mirror.ledger.query_balance("wide", holder), holder
    for ins_id, buyer in ((ids[2], "h001"), (ids[3], SIGNER)):
        oid = offer(data_dir, mirror, ins_id, 50_000)
        if buyer == "h001":
            assert trade.select_funding(mirror, buyer, 50_000 + trade.DEFAULT_FEE) == \
                [OutPoint(ADV_FAN, 0), OutPoint(ADV_FAN, 2)]
        accept(data_dir, mirror, oid, buyer)
        write(data_dir, mirror, ["trade", "settle", oid],
              lambda m: trade.broadcast_and_settle(m, m.offers[oid], buyer))
    obj = json.loads(cli.snapshot_path(data_dir).read_bytes())
    assert obj["utxos"][f"{ADV_FAN}:1"]["recipient"] == ADVERSARIAL
    assert obj["inscriptions"][text]["content_type"] == ADV_TYPE
    assert obj["inscriptions"][text]["satpoint"] is not None
    for section in ("brc20", "btc_deltas", "offers"):  # the head's pattern, before and after it
        assert f',"{SIGNER}":' in chain.canonical_dumps(obj[section]), section
    state = IndexState.decode(cli.snapshot_path(data_dir).read_bytes())
    for name in ("h001", ADVERSARIAL, SIGNER, "alice", "bob", "carol"):
        assert sorted(trade.funding_outputs(state, name)) == \
            sorted(trade.funding_outputs(mirror, name)), name
