import collections
import gc
import importlib
import json
import random
from pathlib import Path

import pytest

from conftest import BAD_FIELD_SCRIPTS, coinbase, spend, txid
from ordlite import brc20, chain, envelope, errors, ordinals, scenario
from ordlite.chain import Block, OutPoint, TxOut
from ordlite.indexer import IndexState, classify_envelope
from ordlite.ordinals import SatPoint

LISTINGS_SCRIPT = [
    {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
     "deployer": "alice"},
    {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "alice"},
    {"action": "transfer_inscribe", "tick": "ordi", "amt": "100",
     "owner": "alice", "id": "t1"},
    {"action": "transfer_send", "inscription": "t1", "to": "bob"},
]


def compile_blocks(script=LISTINGS_SCRIPT, seed=0):
    return scenario.compile_scenario(script, seed)


def test_classify_kinds():
    deploy = envelope.Envelope("text/plain;charset=utf-8",
                               b'{"p":"brc-20","op":"deploy","tick":"ordi",'
                               b'"max":"21000000","lim":"1000"}')
    kind, op = classify_envelope(deploy)
    assert kind == "brc20_deploy"
    assert op == brc20.parse_brc20(deploy.body)
    for content_type, body, kind in (
            ("text/plain;charset=utf-8", b"Hello, world!", "text"),
            ("text/plain", b'{"p":"brc-20","op":"burn"}', "text"),
            ("image/png", b"\x89PNG", "file"),
            ("", b"", "other")):
        assert classify_envelope(envelope.Envelope(content_type, body)) == (kind, None)


def test_listing_fixture_balances():
    state = IndexState()
    state.index_blocks(compile_blocks())
    assert state.ledger.query_balance("ordi", "alice") == \
        {"available": "900", "pending": "0"}
    assert state.ledger.query_balance("ordi", "bob") == \
        {"available": "100", "pending": "0"}
    assert state.ledger.ticks["ordi"].minted == 1000 * 10**18


def test_mint_with_non_ascii_digit_amount_is_plain_text():
    for amt in ("²", " 10 ", "10\n"):
        script = LISTINGS_SCRIPT[:2] + [
            {"action": "mint", "tick": "ordi", "amt": amt, "minter": "alice"}]
        blocks = compile_blocks(script)
        state = IndexState()
        state.index_blocks(blocks)
        last = max(state.inscriptions.values(), key=lambda i: i.number)
        assert last.kind == "text", amt
        assert state.tip_height == blocks[-1].height
        assert state.ledger.query_balance("ordi", "alice") == \
            {"available": "1000", "pending": "0"}
        assert state.ledger.ticks["ordi"].minted == 1000 * 10**18


@pytest.mark.parametrize("action, message", [
    ({"action": "nope"}, "unknown action 'nope'"),
    ({"action": "transfer_send", "inscription": "t9", "to": "bob"}, "unknown inscription t9"),
    ({"action": "trade_accept", "inscription": "t1", "buyer": "bob"},
     "no offer was made for inscription t1"),
], ids=["unknown_action", "unknown_inscription", "accept_without_offer"])
def test_scenario_error_names_its_action_once(action, message):
    idx = len(LISTINGS_SCRIPT)
    with pytest.raises(errors.ActionInvalid) as exc:
        compile_blocks(LISTINGS_SCRIPT + [action])
    assert exc.value.index == idx
    assert str(exc.value) == f"action {idx}: {message}"


@pytest.mark.parametrize("case", sorted(BAD_FIELD_SCRIPTS))
def test_scenario_int_fields_are_checked_not_coerced(case):
    """count, ask and fee must be exact ints (count at least 1), and max, lim
    and amt strings: a value of another type is ActionInvalid naming the
    field, not rounded or cast."""
    script, field = BAD_FIELD_SCRIPTS[case]
    with pytest.raises(errors.ActionInvalid) as exc:
        compile_blocks(script)
    assert exc.value.index == len(script) - 1
    assert str(exc.value).startswith(f"action {len(script) - 1}: ValueError: field {field!r} ")


def test_inscription_numbering_and_binding():
    state = IndexState()
    state.index_blocks(compile_blocks())
    numbers = [i.number for i in sorted(state.inscriptions.values(),
                                        key=lambda i: i.number)]
    assert numbers == list(range(len(numbers)))
    snapshot = state.to_json()
    assert snapshot["next_number"] == len(numbers)
    for ins_id, ins in snapshot["inscriptions"].items():
        assert ins["genesis_satpoint"] == f"{ins_id.partition('i')[0]}:0:0"


def test_extraction_is_deterministic():
    a, b = IndexState(), IndexState()
    blocks = compile_blocks()
    a.index_blocks(blocks)
    b.index_blocks(blocks)
    assert a.snapshot_hash() == b.snapshot_hash()
    assert [i.id for i in a.inscriptions.values()] == \
        [i.id for i in b.inscriptions.values()]


def test_prefix_incremental_equality():
    blocks = compile_blocks()
    full = IndexState()
    full.index_blocks(blocks)
    split = len(blocks) // 2
    partial = IndexState()
    partial.index_blocks(blocks[:split])
    reloaded = IndexState.from_json(json.loads(partial.snapshot_bytes()))
    reloaded.index_blocks(blocks[split:])
    assert reloaded.snapshot_hash() == full.snapshot_hash()


def test_height_gap_aborts():
    blocks = compile_blocks()
    state = IndexState()
    with pytest.raises(errors.NonMonotonicHeight):
        state.index_blocks([blocks[0], blocks[2]])


def test_empty_chain_stable_hash():
    assert IndexState().snapshot_hash() == IndexState().snapshot_hash()


def test_failed_save_keeps_the_old_snapshot(genesis, tmp_path, monkeypatch):
    state = IndexState()
    state.apply_block(genesis)
    path = tmp_path / "snapshot.json"
    state.save(path)
    before = path.read_bytes()

    def fail(self):
        raise RuntimeError("serialization failed")
    monkeypatch.setattr(IndexState, "to_json", fail)
    with pytest.raises(RuntimeError):
        state.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_garbage_collector_as_it_found_it(genesis, enabled):
    """`from_untrusted` takes back the bytes a state wrote, refuses bytes
    that are not JSON or fail `validate`, and leaves the collector enabled
    or disabled as it found it either way."""
    state = IndexState()
    state.apply_block(genesis)
    good = state.snapshot_bytes()
    spaced = good.replace(b'"sat_ranges":[', b'"sat_ranges": [', 1)  # decodes, not canonical
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert IndexState.from_untrusted(good).snapshot_bytes() == good
        assert gc.isenabled() == enabled
        for bad, message in ((b"{not json", "expected"), (spaced, "not in canonical form")):
            with pytest.raises(errors.CorruptSnapshot, match=message):
                IndexState.from_untrusted(bad)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_malformed_envelopes_skip_without_state_change(genesis):
    # same block with the bad witness blanked must give the same ledger state
    def make_state(witness):
        state = IndexState()
        state.apply_block(genesis)
        prev = OutPoint(genesis.txs[0].txid, 0)
        tx = spend("reveal", [prev], [TxOut(546, "alice", "p2tr_inscription"),
                                      TxOut(4_999_999_454 - 1000, "alice")],
                   witness=witness)
        block = Block(1, (coinbase(1, chain.block_subsidy(1) + 1000,
                                   label="cb1"), tx))
        state.apply_block(block)
        return state

    malformed = tuple(envelope.build_envelope("text/plain", b"x")[:-1])  # no ENDIF
    with_bad = make_state(malformed)
    blanked = make_state(())
    assert with_bad.ledger.to_json() == blanked.ledger.to_json()
    assert with_bad.inscriptions == blanked.inscriptions == {}
    assert any("malformed" in d for d in with_bad.diagnostics)


def test_transfer_before_deploy_is_runtime_diagnostic():
    script = [
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "5",
         "owner": "alice", "id": "t1"},
    ]
    blocks = compile_blocks(script)
    state = IndexState()
    state.index_blocks(blocks)
    assert state.ledger.ticks == {}
    assert any("UnknownTick" in d for d in state.ledger.diagnostics)


def test_scenario_round_trip_matches_abstract_interpreter():
    import random

    from test_brc20 import NaiveBrc20

    rng = random.Random(5)
    addrs = ["alice", "bob", "carol"]
    script = [{"action": "deploy", "tick": "ordi", "max": "100000",
               "lim": "1000", "deployer": "alice"}]
    naive_events = [("deploy", "ordi", "100000", "1000", None, None)]
    handles = []
    for i in range(20):
        who = rng.choice(addrs)
        roll = rng.random()
        if roll < 0.5:
            amt = str(rng.choice([10, 100, 1000]))
            script.append({"action": "mint", "tick": "ordi", "amt": amt,
                           "minter": who})
            naive_events.append(("mint", "ordi", amt, who))
        elif roll < 0.8:
            amt = str(rng.choice([1, 5, 50]))
            handle = f"t{i}"
            script.append({"action": "transfer_inscribe", "tick": "ordi",
                           "amt": amt, "owner": who, "id": handle})
            naive_events.append(("inscribe", "ordi", amt, who, handle))
            handles.append(handle)
        elif handles:
            handle = rng.choice(sorted(handles))
            handles.remove(handle)
            to = rng.choice(addrs)
            script.append({"action": "transfer_send", "inscription": handle,
                           "to": to})
            naive_events.append(("settle", handle, to))

    state = IndexState()
    state.index_blocks(compile_blocks(script, seed=17))

    naive = NaiveBrc20()
    for ev in naive_events:
        if ev[0] == "deploy":
            naive.apply(("deploy", ev[1], ev[2], ev[3], "d", 0))
        else:
            naive.apply(ev)
    got = naive.snapshot()["balances"].get("ordi", {})
    want = state.ledger.to_json()["balances"].get("ordi", {})
    assert got == want


def test_sat_report_includes_location(genesis):
    state = IndexState()
    state.apply_block(genesis)
    report = state.sat_report(0)
    assert report["rarity"] == "mythic"
    assert report["satpoint"].startswith(genesis.txs[0].txid)
    beyond = state.sat_report(chain.block_subsidy(0))
    assert "satpoint" not in beyond


# --- inscription tracking: per-tx moves, fee and burn rules, oracle ---

PENDING_SCRIPT = LISTINGS_SCRIPT[:3]  # deploy, mint 1000, inscribe a 100 transfer


def pending_state():
    """State holding alice's unsent 100-ordi transfer inscription, and its id."""
    compiler = scenario.ScenarioCompiler()
    compiler.compile(PENDING_SCRIPT)
    return compiler.state, compiler.handles["t1"]


def next_block(state, txs, claimed_fees, label):
    """The next block: txs after a coinbase claiming subsidy + claimed_fees."""
    height = state.tip_height + 1
    claim = chain.block_subsidy(height) + claimed_fees
    return Block(height, (coinbase(height, claim, label=label),) + tuple(txs))


def _corrupt_ranges_then_move(state, inscribed):
    entry = chain.require(state.utxos, inscribed)
    start = entry.sat_ranges[0][0]
    entry.sat_ranges = [(start, start + 1)]  # ranges no longer cover the value
    return next_block(state, [spend("move", [inscribed], [TxOut(546, "bob")])],
                      0, "cb move")


def _coinbase_spends(state, inscribed):
    height = state.tip_height + 1
    cb = chain.Transaction(txid("cb spends"), (chain.TxIn(inscribed),),
                           (TxOut(chain.block_subsidy(height), "miner"),),
                           is_coinbase=True)
    return Block(height, (cb,))


def _repeats_coinbase_txid(state, inscribed):
    block = next_block(state, [], 0, "cb repeated")
    again = chain.Transaction(block.txs[0].txid, (chain.TxIn(inscribed),),
                              (TxOut(546, "bob"),))
    return block._replace(txs=block.txs + (again,))


def _reuses_unspent_txid(state, inscribed):
    """A coinbase with the txid of the tx that made `inscribed`, still unspent."""
    height = state.tip_height + 1
    cb = chain.Transaction(inscribed.txid, (),
                           (TxOut(chain.block_subsidy(height), "miner"),),
                           is_coinbase=True)
    return Block(height, (cb,))


BAD_BLOCKS = {  # test id -> (the error apply_block raises, a block that raises it)
    "ChainError": (errors.ChainError, _coinbase_spends),
    "ChainError-txid_repeated_in_block": (errors.ChainError, _repeats_coinbase_txid),
    "ChainError-txid_of_unspent_output": (errors.ChainError, _reuses_unspent_txid),
    "NonMonotonicHeight": (errors.NonMonotonicHeight, lambda state, inscribed: Block(
        state.tip_height + 2, (coinbase(state.tip_height + 2, 0),))),
    "MissingPrevout": (errors.MissingPrevout, lambda state, inscribed: next_block(
        state, [spend("ghost", [OutPoint(txid("ghost"), 0)], [])], 0, "cb ghost")),
    "DoubleSpend": (errors.DoubleSpend, lambda state, inscribed: next_block(
        state, [spend("to bob", [inscribed], [TxOut(546, "bob")]),
                spend("to carol", [inscribed], [TxOut(546, "carol")])], 0, "cb twice")),
    "NegativeFee": (errors.NegativeFee, lambda state, inscribed: next_block(
        state, [spend("overdraw", [inscribed], [TxOut(547, "bob")])], 0, "cb over")),
    "CoinbaseOverpay": (errors.CoinbaseOverpay, lambda state, inscribed: next_block(
        state, [], 1, "cb overpay")),
    "RangeValueMismatch": (errors.RangeValueMismatch, _corrupt_ranges_then_move),
}


@pytest.mark.parametrize("error, make_block", list(BAD_BLOCKS.values()), ids=list(BAD_BLOCKS))
def test_chain_error_leaves_state_untouched(error, make_block):
    state, ins_id = pending_state()
    block = make_block(state, state.location[ins_id].outpoint)
    by_outpoint = {op: list(ids) for op, ids in state.by_outpoint.items()}
    before = (state.snapshot_hash(), by_outpoint, state.tip_height)
    with pytest.raises(error) as info:
        state.apply_block(block)
    assert info.type is error
    assert (state.snapshot_hash(), state.by_outpoint, state.tip_height) == before


def test_coinbase_may_claim_its_block_fees_and_not_one_sat_more():
    state, ins_id = pending_state()
    pay = spend("pay", [state.location[ins_id].outpoint], [TxOut(500, "bob")])
    fee = 546 - 500
    with pytest.raises(errors.CoinbaseOverpay):
        state.apply_block(next_block(state, [pay], fee + 1, "cb fee + 1"))
    state.apply_block(next_block(state, [pay], fee, "cb fee"))


def test_chained_input_counts_its_value_once():
    state, ins_id = pending_state()
    to_bob = spend("to bob", [state.location[ins_id].outpoint], [TxOut(546, "bob")])
    overdraw = spend("overdraw", [OutPoint(to_bob.txid, 0)], [TxOut(547, "carol")])
    with pytest.raises(errors.NegativeFee):
        state.apply_block(next_block(state, [to_bob, overdraw], 0, "cb chained"))


def test_structural_errors_come_before_value_errors():
    state, ins_id = pending_state()
    inscribed = state.location[ins_id].outpoint
    overdraw = spend("overdraw", [inscribed], [TxOut(547, "bob")])
    again = spend("again", [inscribed], [TxOut(546, "carol")])
    with pytest.raises(errors.DoubleSpend):
        state.apply_block(next_block(state, [overdraw, again], 0, "cb both"))


def test_reveal_in_output_less_tx_is_skipped_with_a_diagnostic():
    state, ins_id = pending_state()
    reveal = spend("no outputs", [state.location[ins_id].outpoint], [],
                   witness=tuple(envelope.build_envelope("text/plain", b"hi")))
    before = set(state.inscriptions)
    state.apply_block(next_block(state, [reveal], 546, "cb no outputs"))
    assert set(state.inscriptions) == before
    assert f"inscription {reveal.txid}i0 has no sat to bind to (no first output, " \
        "or a zero-sat one); skipped" in state.diagnostics


CRAFTED_BODIES = (
    b"[" * 100_000,
    b'{"p":"brc-20","op":"mint","tick":"\\ud800abc","amt":"1"}',
    b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"' + b"1" * 5000 + b'"}',
)


def test_reveals_of_crafted_brc20_bodies_are_text_and_their_block_commits(genesis):
    """Bodies that once made parsing raise past `classify_envelope`: nested
    past the recursion limit, a lone-surrogate tick, a 5000-digit amount."""
    state = IndexState()
    state.apply_block(genesis)
    prev = OutPoint(genesis.txs[0].txid, 0)
    change = chain.require(state.utxos, prev).txout.value
    reveals = []
    for k, body in enumerate(CRAFTED_BODIES):
        change -= 546
        reveals.append(spend(f"crafted {k}", [prev], [TxOut(546, "alice", "p2tr_inscription"),
                                                      TxOut(change, "alice")],
                             witness=tuple(envelope.build_envelope("text/plain", body))))
        prev = OutPoint(reveals[-1].txid, 1)
    block = next_block(state, reveals, 0, "cb crafted")
    state.apply_block(block)
    assert state.tip_height == block.height
    assert [(ins.number, ins.kind, ins.body) for ins in state.inscriptions.values()] == \
        [(k, "text", body) for k, body in enumerate(CRAFTED_BODIES)]
    assert {state.location[f"{tx.txid}i0"] for tx in reveals} == \
        {SatPoint(OutPoint(tx.txid, 0), 0) for tx in reveals}
    assert state.ledger.to_json() == brc20.Brc20Ledger().to_json()


def test_reveal_reusing_a_spent_txid_keeps_the_earlier_inscription(genesis):
    """BIP30 lets a tx reuse the txid of one whose outputs are all spent; a
    reveal under it would get the id of the earlier inscription."""
    state = IndexState()
    state.apply_block(genesis)

    def reveal(prevout, body, owner):
        return spend("reveal", [prevout], [TxOut(546, owner, "p2tr_inscription"),
                                           TxOut(chain.require(state.utxos, prevout).txout.value
                                                 - 546, owner)],
                     witness=tuple(envelope.build_envelope("text/plain", body)))
    first = reveal(OutPoint(genesis.txs[0].txid, 0), b"first", "alice")
    state.apply_block(next_block(state, [first], 0, "cb reveal"))
    ins_id = f"{first.txid}i0"
    both = [OutPoint(first.txid, 0), OutPoint(first.txid, 1)]
    state.apply_block(next_block(state, [spend("to bob", both, [
        TxOut(546, "bob", "p2tr_inscription"),
        TxOut(sum(chain.require(state.utxos, op).txout.value for op in both) - 546, "bob")])],
        0, "cb to bob"))
    again = reveal(OutPoint(txid("cb reveal"), 0), b"second", "carol")
    assert again.txid == first.txid
    state.apply_block(next_block(state, [again], 0, "cb reuse"))
    assert list(state.inscriptions) == [ins_id]
    assert state.inscriptions[ins_id].body == b"first"
    assert state.inscriptions[ins_id].height == 1
    assert state.to_json()["next_number"] == 1
    assert [i for ids in state.by_outpoint.values() for i in ids] == [ins_id]
    assert f"inscription {ins_id} reuses the id of an earlier inscription; skipped" \
        in state.diagnostics


def test_transfer_moved_twice_in_one_block_credits_first_receiver():
    state, ins_id = pending_state()
    inscribed = state.location[ins_id].outpoint
    to_bob = spend("to bob", [inscribed], [TxOut(546, "bob", "p2tr_inscription")])
    to_carol = spend("to carol", [OutPoint(to_bob.txid, 0)],
                     [TxOut(546, "carol", "p2tr_inscription")])
    state.apply_block(next_block(state, [to_bob, to_carol], 0, "cb twice"))
    assert state.ledger.query_balance("ordi", "bob") == \
        {"available": "100", "pending": "0"}
    assert state.ledger.query_balance("ordi", "carol") == \
        {"available": "0", "pending": "0"}
    assert state.location[ins_id] == SatPoint(OutPoint(to_carol.txid, 0), 0)


def test_pending_transfer_spent_to_fee_settles_to_coinbase_recipient():
    state, ins_id = pending_state()
    inscribed = state.location[ins_id].outpoint
    all_to_fee = spend("all to fee", [inscribed], [])
    block = next_block(state, [all_to_fee], 546, "cb fee")
    state.apply_block(block)
    assert state.ledger.query_balance("ordi", "miner") == \
        {"available": "100", "pending": "0"}
    assert state.ledger.query_balance("ordi", "alice") == \
        {"available": "900", "pending": "0"}
    assert state.location[ins_id] == SatPoint(
        OutPoint(block.txs[0].txid, 0), chain.block_subsidy(block.height))
    assert f"pending {ins_id} spent to fee; settled to sat holder miner" in \
        state.diagnostics


def test_transfer_sent_then_spent_to_fee_in_one_block_credits_its_receiver():
    """tx1 sends the transfer to bob and tx2 spends bob's output wholly as fee,
    so the sat is in tx1's outputs and in the coinbase's: tx1's are searched first."""
    compiler = scenario.ScenarioCompiler()
    compiler.compile(LISTINGS_SCRIPT[:2] + [
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "40",
         "owner": "alice", "id": "t1"}])
    state, ins_id = compiler.state, compiler.handles["t1"]
    to_bob = spend("to bob", [state.location[ins_id].outpoint],
                   [TxOut(546, "bob", "p2tr_inscription")])
    to_fee = spend("bob to fee", [OutPoint(to_bob.txid, 0)], [])
    block = next_block(state, [to_bob, to_fee], 546, "cb bob's fee")
    state.apply_block(block)
    assert state.ledger.query_balance("ordi", "bob") == \
        {"available": "40", "pending": "0"}
    assert state.ledger.query_balance("ordi", "miner") == \
        {"available": "0", "pending": "0"}
    assert state.location[ins_id] == SatPoint(
        OutPoint(block.txs[0].txid, 0), chain.block_subsidy(block.height))


def test_pending_transfer_whose_sat_is_burned_is_voided():
    state, ins_id = pending_state()
    inscribed = state.location[ins_id].outpoint
    all_to_fee = spend("all to fee", [inscribed], [])
    state.apply_block(next_block(state, [all_to_fee], 0, "cb underclaim"))
    assert ins_id not in state.location
    assert state.ledger.pendings[ins_id].used
    assert state.ledger.query_balance("ordi", "alice") == \
        {"available": "1000", "pending": "0"}
    assert f"inscription {ins_id} lost (sat burned)" in state.diagnostics
    assert any("voided: inscribed sat burned" in d for d in state.ledger.diagnostics)


ADDRS = ("alice", "bob", "carol")


def split_value(rng, total, n):
    """n non-negative values summing to total."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_outputs(rng, total):
    outs = [TxOut(v, rng.choice(ADDRS)) for v in split_value(rng, total, rng.randint(1, 3))]
    if rng.random() < 0.2:
        outs.insert(rng.randint(0, len(outs)), TxOut(0, rng.choice(ADDRS)))
    return outs


def random_block(rng, state, seen, seed):
    """A valid block over state's UTXO set, drawn to hit every tracking case."""
    height = state.tip_height + 1
    spendable = {op: e.txout.value for op, e in state.utxos.items()}
    inscribed = {sp.outpoint for sp in state.location.values()}
    created, txs, fees = set(), [], 0
    for t in range(rng.randint(0, 4)):
        prevouts = []
        for _ in range(rng.randint(1, 3)):
            free = [op for op in spendable if op not in prevouts]
            roll = rng.random()
            pools = ([op for op in free if op in inscribed] if roll < 0.5 else [],
                     [op for op in free if op in created] if roll < 0.8 else [],
                     free)
            pool = next((p for p in pools if p), None)
            if pool is None:
                break
            prevouts.append(rng.choice(sorted(pool)))
        if not prevouts:
            break
        seen["chained"] += sum(op in created for op in prevouts)
        in_total = sum(spendable.pop(op) for op in prevouts)
        if rng.random() < 0.15:
            out_total, outputs = 0, [TxOut(0, "alice")] * rng.randint(0, 1)
            seen["inscribed_to_fee"] += any(op in inscribed for op in prevouts)
        else:
            out_total = rng.choice([in_total, rng.randint(0, in_total)])
            outputs = random_outputs(rng, out_total)
        seen["zero_value"] += sum(o.value == 0 for o in outputs)
        witnesses = [tuple(envelope.build_envelope("text/plain", f"{height}.{t}.{i}".encode()))
                     if rng.random() < 0.4 else () for i in range(len(prevouts))]
        seen["multi_envelope"] += sum(map(bool, witnesses)) > 1
        tx = chain.Transaction(txid(f"{seed}|{height}|{t}"),
                               tuple(chain.TxIn(op, w) for op, w in zip(prevouts, witnesses)),
                               tuple(outputs))
        txs.append(tx)
        fees += in_total - out_total
        for i, out in enumerate(outputs):
            spendable[OutPoint(tx.txid, i)] = out.value
            created.add(OutPoint(tx.txid, i))
    budget = chain.block_subsidy(height) + fees
    claim = budget if rng.random() < 0.7 else rng.randint(0, budget)
    seen["underclaim"] += claim < budget
    cb = chain.Transaction(txid(f"{seed}|{height}|cb"), (),
                           tuple(random_outputs(rng, claim)), is_coinbase=True)
    return Block(height, (cb,) + tuple(txs))


@pytest.mark.parametrize("seed", range(12))
def test_inscription_locations_match_naive_oracle(seed):
    """After every block, each inscription sits where locate_sat, a scan of
    every range in the UTXO set, finds its genesis sat, or is gone with it."""
    rng = random.Random(seed)
    state = IndexState()
    seen, coinbases = collections.Counter(), set()
    for _ in range(40):
        block = random_block(rng, state, seen, seed)
        coinbases.add(block.txs[0].txid)
        state.apply_block(block)
        for ins_id, ins in state.inscriptions.items():
            try:
                want = ordinals.locate_sat(ins.genesis_sat, state.utxos)
            except errors.SatNotInUtxoSet:
                want = None
            assert state.location.get(ins_id) == want, ins_id
            seen["lost" if want is None else
                 "in_coinbase" if want.outpoint.txid in coinbases else "in_tx"] += 1
            if want is not None:
                start, end = state.utxos[want.outpoint].sat_ranges[0]
                seen["past_first_range"] += want.offset >= end - start
    reloaded = IndexState.from_json(json.loads(state.snapshot_bytes()))
    assert {op: sorted(ids) for op, ids in reloaded.by_outpoint.items()} == \
        {op: sorted(ids) for op, ids in state.by_outpoint.items()}
    # every case the tracker distinguishes occurs in each generated chain
    for case in ("chained", "inscribed_to_fee", "zero_value", "multi_envelope",
                 "underclaim", "lost", "in_coinbase", "in_tx", "past_first_range"):
        assert seen[case] > 0, case


@pytest.mark.parametrize("workload", ["transfer_web", "range_shred"])
def test_block_application_never_walks_ranges_for_a_sat(workload, monkeypatch, tmp_path):
    """Tracking finds a moved inscription's sat by its offset, so applying
    every block of a benchmark seed-101 chain never calls `ordinals.find_sat`,
    though inscriptions move from their genesis outputs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    session = importlib.import_module("session")
    inputs = session.setup_chain(workload, 101, 0, tmp_path)
    calls = []
    monkeypatch.setattr(ordinals, "find_sat", lambda *args: calls.append(args))
    state = IndexState()
    with open(inputs.blocks_path) as fp:
        state.index_blocks(chain.read_blocks_jsonl(fp))
    assert calls == []
    moved = [ins_id for ins_id, point in state.location.items()
             if point != SatPoint(OutPoint(ins_id.rpartition("i")[0], 0), 0)]
    assert len(moved) > 10
