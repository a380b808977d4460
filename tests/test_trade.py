import hashlib
import importlib
import json
from pathlib import Path

import pytest

from conftest import SELLER_SCRIPT, coinbase, send_then_recreate, spend, txid
from ordlite import chain, errors, trade
from ordlite.chain import Block, OutPoint, Transaction, TxOut
from ordlite.indexer import IndexState
from ordlite.scenario import ScenarioCompiler
from ordlite.trade import sign, verify_signatures

ASK = 20_000_000  # 0.2 BTC
FEE = trade.DEFAULT_FEE


def seller_state():
    comp = ScenarioCompiler(seed=11)
    comp.compile(SELLER_SCRIPT)
    return comp.state, comp.handles["t1"]


def test_create_offer():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    assert offer.status == "open"
    assert offer.psbt.outputs == [TxOut(ASK, "seller")]
    assert offer.psbt.inputs[0].inscription_id == ins_id
    assert verify_signatures(offer.psbt, state.utxos)


def test_create_offer_errors():
    state, ins_id = seller_state()
    with pytest.raises(errors.NotPendingTransfer):
        trade.create_offer(state, "seller", "missing", ASK)
    with pytest.raises(errors.NotOwner):
        trade.create_offer(state, "mallory", ins_id, ASK)
    with pytest.raises(errors.TradeError):
        trade.create_offer(state, "seller", ins_id, 0)


def test_second_offer_cancels_first():
    state, ins_id = seller_state()
    first = trade.create_offer(state, "seller", ins_id, ASK)
    second = trade.create_offer(state, "seller", ins_id, ASK * 2)
    assert first.status == "cancelled"
    assert second.status == "open"


def test_offer_on_settled_pending_rejected():
    comp = ScenarioCompiler(seed=12)
    comp.compile([
        {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
         "deployer": "seller"},
        {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "seller"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "100",
         "owner": "seller", "id": "t1"},
        {"action": "transfer_send", "inscription": "t1", "to": "bob"},
    ])
    with pytest.raises(errors.AlreadyUsed):
        trade.create_offer(comp.state, "seller", comp.handles["t1"], ASK)


def test_tamper_invalidates_signature():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    funding = trade.select_funding(state, "buyer", ASK + FEE)
    psbt = trade.accept_offer(state, offer, "buyer", funding, FEE)
    assert verify_signatures(psbt, state.utxos)
    psbt.outputs[1] = TxOut(1, "mallory")  # redirect the ask
    assert not verify_signatures(psbt, state.utxos)
    with pytest.raises(errors.BadSignature):
        trade.broadcast_and_settle(state, offer, "buyer")


def test_accept_insufficient_funds():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    with pytest.raises(errors.InsufficientFunds):
        trade.accept_offer(state, offer, "pauper", [], FEE)


def test_accept_non_open_offer():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    offer.status = "cancelled"
    with pytest.raises(errors.OfferNotOpen):
        trade.accept_offer(state, offer, "buyer", [], FEE)


def accepted_offer(state, ins_id, ask=ASK, fee=FEE):
    offer = trade.create_offer(state, "seller", ins_id, ask)
    funding = trade.select_funding(state, "buyer", ask + fee)
    trade.accept_offer(state, offer, "buyer", funding, fee)
    return offer


def full_trade(fee=FEE):
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id, fee=fee)
    block = trade.broadcast_and_settle(state, offer, "buyer")
    return state, offer, block, ins_id


def test_trade_settlement_balances():
    state, offer, block, ins_id = full_trade()
    assert offer.status == "settled"
    assert state.ledger.query_balance("ordi", "seller") == \
        {"available": "0", "pending": "0"}
    assert state.ledger.query_balance("ordi", "buyer") == \
        {"available": "1000", "pending": "0"}
    assert state.btc_deltas["seller"] == ASK
    assert state.btc_deltas["buyer"] == -(ASK + FEE)
    assert state.btc_deltas["miner"] == FEE
    assert sum(state.btc_deltas.values()) == 0


def test_trade_inscribed_sat_moves_to_buyer():
    state, offer, block, ins_id = full_trade()
    point = state.location[ins_id]
    assert chain.require(state.utxos, point.outpoint).txout.recipient == "buyer"


def test_two_inscription_touching_txs():
    state, offer, block, ins_id = full_trade()
    sat = state.inscriptions[ins_id].genesis_sat
    reveal_txid = ins_id.split("i")[0]
    settle_txid = block.txs[1].txid
    # the reveal created the sat binding; the settlement moved it; nothing else
    assert state.to_json()["inscriptions"][ins_id]["genesis_satpoint"] == f"{reveal_txid}:0:0"
    assert state.location[ins_id].outpoint.txid == settle_txid


def _assert_settle_refused(state, offer):
    before = state.snapshot_bytes()
    assert not verify_signatures(offer.psbt, state.utxos)
    with pytest.raises(errors.BadSignature):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert offer.status == "accepted"
    assert state.snapshot_bytes() == before


def test_settle_rejects_input_without_owner_signature():
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    for pin in offer.psbt.inputs:
        del pin.signatures["seller"]
    _assert_settle_refused(state, offer)


def test_settle_rejects_inputs_signed_by_non_owner():
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    for pin in offer.psbt.inputs:
        pin.signatures.clear()
    sign(offer.psbt, "mallory")
    _assert_settle_refused(state, offer)


def test_offers_survive_snapshot_round_trip():
    comp = ScenarioCompiler(seed=13)
    comp.compile([
        {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
         "deployer": "seller"},
        {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "seller"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "400",
         "owner": "seller", "id": "t1"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "600",
         "owner": "seller", "id": "t2"},
        {"action": "mine", "miner": "buyer"},
    ])
    state, t1, t2 = comp.state, comp.handles["t1"], comp.handles["t2"]
    settled = accepted_offer(state, t2)
    trade.broadcast_and_settle(state, settled, "buyer")
    cancelled = trade.create_offer(state, "seller", t1, ASK)
    accepted = accepted_offer(state, t1, ask=2 * ASK)
    opened = trade.create_offer(state, "seller", t1, 3 * ASK)
    assert [o.status for o in (settled, cancelled, accepted, opened)] == \
        ["settled", "cancelled", "accepted", "open"]

    reloaded = IndexState.from_json(json.loads(state.snapshot_bytes()))
    assert reloaded.snapshot_bytes() == state.snapshot_bytes()
    offer = reloaded.offers[accepted.id]
    trade.broadcast_and_settle(reloaded, offer, "buyer")
    assert offer.status == "settled"
    assert reloaded.ledger.query_balance("ordi", "buyer") == \
        {"available": "1000", "pending": "0"}


def test_stale_offer_leaves_state_unchanged():
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    # the seller races: spends the inscribed satpoint before broadcast
    point = state.location[ins_id]
    value = chain.require(state.utxos, point.outpoint).txout.value
    race = chain.Transaction(
        hashlib.sha256(b"race").hexdigest(),
        (chain.TxIn(point.outpoint),),
        (TxOut(value, "elsewhere", "p2tr_inscription"),))
    cb = chain.Transaction(hashlib.sha256(b"racecb").hexdigest(), (),
                           (TxOut(chain.block_subsidy(state.tip_height + 1), "m"),),
                           is_coinbase=True)
    state.apply_block(chain.Block(state.tip_height + 1, (cb, race)))
    before = state.snapshot_bytes()
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert offer.status == "accepted"
    assert not trade.settleable(state, offer)
    assert state.snapshot_bytes() == before


def test_settle_refuses_a_re_created_listed_outpoint():
    # the inscription leaves the listed outpoint, which a tx reusing the
    # reveal's txid re-creates for the seller: every input is unspent and
    # signed by its owner, but the inscription is not on input 0
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    send_then_recreate(state, ins_id)
    assert verify_signatures(offer.psbt, state.utxos)
    before = state.snapshot_bytes()
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert offer.status == "accepted"
    assert not trade.settleable(state, offer)
    assert state.snapshot_bytes() == before
    assert state.ledger.query_balance("ordi", "bob")["available"] == "1000"


def test_accept_refuses_a_re_created_listed_outpoint():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    send_then_recreate(state, ins_id)
    funding = trade.select_funding(state, "buyer", ASK + FEE)
    before = state.snapshot_bytes()
    with pytest.raises(errors.OfferNotOpen):
        trade.accept_offer(state, offer, "buyer", funding, FEE)
    assert offer.status == "open"
    assert not trade.settleable(state, offer)
    assert state.snapshot_bytes() == before


def test_re_listing_at_the_same_ask_keeps_an_accepted_offer():
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    before = state.snapshot_bytes()
    with pytest.raises(errors.TradeError, match=offer.id):
        trade.create_offer(state, "seller", ins_id, ASK)
    assert state.snapshot_bytes() == before
    other = trade.create_offer(state, "seller", ins_id, ASK * 2)  # another ask, another id
    assert (offer.status, other.status) == ("accepted", "open")
    trade.broadcast_and_settle(state, offer, "buyer")
    assert offer.status == "settled"


def test_re_listing_at_the_same_ask_replaces_a_dead_accepted_offer():
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    funding = offer.psbt.inputs[-1].outpoint  # the buyer spends it elsewhere
    value = chain.require(state.utxos, funding).txout.value
    height = state.tip_height + 1
    state.apply_block(chain.mine_block(
        height, (spend("spent elsewhere", [funding], [TxOut(value, "elsewhere")]),),
        state.utxos, txid(f"cb{height}"), "miner"))
    assert not trade.settleable(state, offer)
    relisted = trade.create_offer(state, "seller", ins_id, ASK)
    assert (relisted.id, relisted.status) == (offer.id, "open")
    assert state.offers[offer.id] is relisted


@pytest.mark.parametrize("fault", ["funding_input_spent", "inscription_not_on_input_0",
                                   "pending_used"])
def test_settleable_needs_every_condition(fault):
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    assert trade.settleable(state, offer)
    if fault == "funding_input_spent":
        del state.utxos[offer.psbt.inputs[-1].outpoint]
    elif fault == "inscription_not_on_input_0":
        del state.location[ins_id]
    else:
        state.ledger.pendings[ins_id].used = True
    assert not trade.settleable(state, offer)


def test_settlement_atomicity_on_injected_failure(monkeypatch):
    # if the block cannot settle the pending, no balance may change
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    before = state.snapshot_bytes()

    def boom(*a, **k):
        raise errors.DoubleSpend("injected")

    monkeypatch.setattr(IndexState, "apply_block", boom)
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert state.snapshot_bytes() == before


# --- funding checks ---

def _spend_mint_inscription_to_fee(state, miner):
    """Mine a block that spends the seller's mint inscription wholly as fee,
    so the inscribed sat lands in `miner`'s plain coinbase output."""
    mint = next(ins for ins in state.inscriptions.values() if ins.kind == "brc20_mint")
    point = state.location[mint.id]
    postage = chain.require(state.utxos, point.outpoint).txout.value
    height = state.tip_height + 1
    cb = coinbase(height, chain.block_subsidy(height) + postage, miner,
                  label=f"fee cb {miner}")
    to_fee = spend(f"to fee {miner}", [point.outpoint], [])
    state.apply_block(chain.Block(height, (cb, to_fee)))
    out = OutPoint(cb.txid, 0)
    assert state.by_outpoint[out] == [mint.id]
    return out


def _assert_funding_rejected(state, offer, funding):
    before = offer.psbt.to_json()
    with pytest.raises(errors.BadFunding):
        trade.accept_offer(state, offer, "buyer", funding, FEE)
    assert offer.status == "open"
    assert offer.psbt.to_json() == before


def test_accept_rejects_duplicated_funding():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    funding = trade.select_funding(state, "buyer", ASK + FEE)
    _assert_funding_rejected(state, offer, funding + funding)


def test_accept_rejects_foreign_funding():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    theirs = trade.select_funding(state, "seller", ASK + FEE)
    _assert_funding_rejected(state, offer, theirs)


def test_accept_rejects_inscribed_funding():
    state, ins_id = seller_state()
    inscribed = _spend_mint_inscription_to_fee(state, "buyer")
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    _assert_funding_rejected(state, offer, [inscribed])


def test_select_funding_skips_inscribed_outpoints():
    state, _ = seller_state()
    _spend_mint_inscription_to_fee(state, "bob")
    with pytest.raises(errors.InsufficientFunds):
        trade.select_funding(state, "bob", 1)
    height = state.tip_height + 1
    cb = coinbase(height, chain.block_subsidy(height), "bob", label="clean cb bob")
    state.apply_block(chain.Block(height, (cb,)))
    assert trade.select_funding(state, "bob", ASK + FEE) == [OutPoint(cb.txid, 0)]


# --- the recipient -> plain outpoints index behind funding_outputs ---

def scanned_funding(state) -> dict:
    """recipient -> {(outpoint, value)} of its funding outputs, for every
    recipient in the UTXO set, by the rule applied to a scan of the whole set:
    plain, paying the recipient and carrying no inscription."""
    funds = {}
    for op, entry in state.utxos.items():
        out = entry.txout
        mine = funds.setdefault(out.recipient, set())
        if out.script_kind == "plain" and op not in state.by_outpoint:
            mine.add((op, out.value))
    return funds


def assert_funding_matches_scan(state, whole=None):
    """state's funding outputs are those a scan finds: of state, or of
    whole, the in-memory state that state was decoded from, as a decoded
    state's UTXO set is only looked up by key."""
    for addr, funds in scanned_funding(whole or state).items():
        assert sorted(trade.funding_outputs(state, addr)) == sorted(funds), addr


@pytest.mark.parametrize("workload", ["cli_mix", "range_shred", "transfer_web"])
def test_funding_index_matches_a_scan_after_every_block(workload, monkeypatch, tmp_path):
    """On the seed-101 chains of every benchmark workload, after every block
    and after a snapshot round trip."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    session = importlib.import_module("session")
    for k in range(session.CHAINS[workload]):
        inputs = session.setup_chain(workload, 101, k, tmp_path / f"chain{k}")
        state = IndexState()
        with open(inputs.blocks_path) as fp:
            for block in chain.read_blocks_jsonl(fp):
                state.apply_block(block)
                assert_funding_matches_scan(state)
        assert_funding_matches_scan(IndexState.decode(state.snapshot_bytes()), state)


def test_plain_output_spent_in_its_own_block_is_not_funding(genesis):
    state = IndexState()
    state.apply_block(genesis)
    value = genesis.txs[0].outputs[0].value
    pay = spend("pay buyer", [OutPoint(genesis.txs[0].txid, 0)],
                [TxOut(1_000, "buyer"), TxOut(value - 1_000, "miner")])
    pay_on = spend("buyer pays on", [OutPoint(pay.txid, 0)], [TxOut(1_000, "seller")])
    state.apply_block(Block(1, (coinbase(1, chain.block_subsidy(1)), pay, pay_on)))
    assert trade.funding_outputs(state, "buyer") == []
    assert trade.funding_outputs(state, "seller") == [(OutPoint(pay_on.txid, 0), 1_000)]
    assert_funding_matches_scan(state)
    assert_funding_matches_scan(IndexState.decode(state.snapshot_bytes()), state)


def test_inscription_on_a_plain_output_keeps_it_from_funding():
    """The index lists every plain output; by_outpoint still filters out one
    an inscription landed on."""
    state, _ = seller_state()
    inscribed = _spend_mint_inscription_to_fee(state, "buyer")
    assert inscribed in state.plain_outpoints["buyer"]
    for loaded in (state, IndexState.decode(state.snapshot_bytes())):
        assert inscribed not in dict(trade.funding_outputs(loaded, "buyer"))
        assert_funding_matches_scan(loaded, state)


def test_tx_reusing_a_spent_txid_funds_from_its_new_output():
    """The re-created outpoint is funding, the spent change output is not."""
    state, ins_id = seller_state()
    listed = state.location[ins_id].outpoint
    send_then_recreate(state, ins_id)
    for loaded in (state, IndexState.decode(state.snapshot_bytes())):
        funds = dict(trade.funding_outputs(loaded, "seller"))
        assert listed in funds and OutPoint(listed.txid, 1) not in funds
        assert_funding_matches_scan(loaded, state)


def test_funding_outputs_read_only_the_payers_entries():
    """With 5,000 outputs paying other recipients, finding the buyer's
    funding reads the buyer's UTXO entries and no other."""
    mine = [TxOut(1_000, "buyer"), TxOut(2_000, "buyer"),
            TxOut(546, "buyer", "p2tr_inscription")]  # uninscribed, but not plain
    cb = Transaction(txid("many recipients"), (),
                     tuple(TxOut(1, f"other{i}") for i in range(5_000)) + tuple(mine),
                     is_coinbase=True)
    state = IndexState()
    state.apply_block(Block(0, (cb,)))
    read_recipients = set()

    class CountedEntry(chain.UtxoEntry):
        def __getattribute__(self, name):
            read_recipients.add(object.__getattribute__(self, "txout").recipient)
            return object.__getattribute__(self, name)

    for entry in state.utxos.values():
        entry.__class__ = CountedEntry
    assert sorted(trade.funding_outputs(state, "buyer")) == [
        (OutPoint(cb.txid, 5_000), 1_000), (OutPoint(cb.txid, 5_001), 2_000)]
    assert read_recipients == {"buyer"}
