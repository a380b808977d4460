"""`index`, `trade settle`, `trade offer` and `trade accept` write the bytes
they read with only what they changed spliced in (`IndexState.spliced_bytes`).
After every block of each benchmark workload's first seed-101 chain, spliced
bytes must equal the full encoding. On those chains, and on a hand-built one
that gathers the splice's edge cases, every write made through the CLI must
leave the data dir holding the full encoding of a mirror state that made the
same calls through the API, and bytes that pass the checks `snapshot load`
makes; no such write may encode the whole snapshot."""

import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import coinbase, spend, txid
from ordlite import chain, cli, envelope, errors, indexer, trade
from ordlite.chain import Block, OutPoint, Transaction, TxIn, TxOut
from ordlite.indexer import ChangeLog, IndexState
from ordlite.scenario import ScenarioCompiler

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 101
ASK = 10_000
# Canonical bytes escape a name that is not ASCII, so this buyer's name pins
# that offsets in the decoded text are offsets in the bytes.
WIDE_BUYER = "bücher-☃"


def write(data_dir: Path, mirror: IndexState, args, api) -> dict:
    """Run the write command args on data_dir, which must not build the whole
    snapshot (`to_json`), and api on the mirror; check the bytes written and
    return what the command printed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IndexState, "to_json", refuse_to_json)
        result = CliRunner().invoke(cli.cli, ["--data-dir", str(data_dir), *args])
    assert result.exit_code == 0, (args, result.output, result.exception)
    api(mirror)
    data = cli.snapshot_path(data_dir).read_bytes()
    assert data == mirror.snapshot_bytes(), args
    IndexState.from_untrusted(data)
    return json.loads(result.output)


def refuse_to_json(state):
    raise AssertionError("a CLI write encoded the whole snapshot")


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


def encoded(state: IndexState) -> tuple[bytes, dict]:
    """state's snapshot bytes, section by section, with each section's span
    in them, as `read_sections` reports it, without decoding them again."""
    obj = state.to_json()
    pieces, spans, pos = [], {}, 0
    for key in indexer.SECTIONS:
        head = ("{" if key == indexer.SECTIONS[0] else ",") + f'"{key}":'
        value = chain.canonical_dumps(obj[key])
        spans[key] = (pos + len(head), pos + len(head) + len(value))
        pieces += (head, value)
        pos = spans[key][1]
    return ("".join(pieces) + "}").encode(), spans


@pytest.mark.parametrize("workload", ["cli_mix", "range_shred", "transfer_web"])
def test_spliced_bytes_equal_the_full_encoding_after_every_block(workload, monkeypatch,
                                                                  tmp_path):
    """Each block is applied to a state that logs its changes against the
    previous block's bytes, as a CLI write's state does. The full encoding
    after every block is most of this test's time, so only each workload's
    first chain is walked."""
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    inputs = session.setup_chain(workload, SEED, 0, tmp_path)
    state = IndexState()
    data, spans = encoded(state)
    with open(inputs.blocks_path) as fp:
        for block in chain.read_blocks_jsonl(fp):
            state.changes = ChangeLog(data, spans)
            state.apply_block(block)
            spliced = state.spliced_bytes()
            data, spans = encoded(state)
            assert spliced == data, block.height
    assert data == state.snapshot_bytes()
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
                else builder.utxos.require(tin.prevout).txout).value
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
    which logs nothing, so what they keep does not grow with the chain."""
    builder = IndexState()
    hand_built_index_files(builder)
    assert builder.changes is None
    compiler = ScenarioCompiler(SEED)
    compiler.compile([{"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
                       "deployer": "alice"},
                      {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "alice"}])
    assert compiler.state.changes is None
    cli.snapshot_path(tmp_path).write_bytes(compiler.state.snapshot_bytes())
    assert cli.load_state(tmp_path).changes is not None  # a CLI write's state logs
