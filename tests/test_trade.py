import hashlib
import json

import pytest

from conftest import SELLER_SCRIPT, coinbase, send_then_recreate, spend
from ordlite import chain, errors, trade
from ordlite.chain import OutPoint, TxOut
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
    assert state.utxos.require(point.outpoint).txout.recipient == "buyer"


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


def _hash_sans_offers(state):
    obj = {k: v for k, v in state.to_json().items() if k != "offers"}
    return hashlib.sha256(chain.canonical_dumps(obj).encode()).hexdigest()


def test_stale_offer_leaves_state_unchanged():
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    # the seller races: spends the inscribed satpoint before broadcast
    point = state.location[ins_id]
    value = state.utxos.require(point.outpoint).txout.value
    race = chain.Transaction(
        hashlib.sha256(b"race").hexdigest(),
        (chain.TxIn(point.outpoint),),
        (TxOut(value, "elsewhere", "p2tr_inscription"),))
    cb = chain.Transaction(hashlib.sha256(b"racecb").hexdigest(), (),
                           (TxOut(chain.block_subsidy(state.tip_height + 1), "m"),),
                           is_coinbase=True)
    state.apply_block(chain.Block(state.tip_height + 1, (cb, race)))
    before = _hash_sans_offers(state)
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert offer.status == "stale"
    assert _hash_sans_offers(state) == before


def test_settle_refuses_a_re_created_listed_outpoint():
    # the inscription leaves the listed outpoint, which a tx reusing the
    # reveal's txid re-creates for the seller: every input is unspent and
    # signed by its owner, but the inscription is not on input 0
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    send_then_recreate(state, ins_id)
    assert verify_signatures(offer.psbt, state.utxos)
    tip, before, deltas = state.tip_height, _hash_sans_offers(state), dict(state.btc_deltas)
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert offer.status == "stale"
    assert (state.tip_height, _hash_sans_offers(state), state.btc_deltas) == \
        (tip, before, deltas)
    assert state.ledger.query_balance("ordi", "bob")["available"] == "1000"


def test_accept_refuses_a_re_created_listed_outpoint():
    state, ins_id = seller_state()
    offer = trade.create_offer(state, "seller", ins_id, ASK)
    send_then_recreate(state, ins_id)
    funding = trade.select_funding(state, "buyer", ASK + FEE)
    with pytest.raises(errors.OfferNotOpen):
        trade.accept_offer(state, offer, "buyer", funding, FEE)
    assert offer.status == "stale"


@pytest.mark.parametrize("fault", ["funding_input_spent", "inscription_not_on_input_0",
                                   "pending_used"])
def test_settleable_needs_every_condition(fault):
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    assert trade.settleable(state, offer)
    if fault == "funding_input_spent":
        del state.utxos.entries[offer.psbt.inputs[-1].outpoint]
    elif fault == "inscription_not_on_input_0":
        del state.location[ins_id]
    else:
        state.ledger.pendings[ins_id].used = True
    assert not trade.settleable(state, offer)


def test_settlement_atomicity_on_injected_failure(monkeypatch):
    # if the block cannot settle the pending, no balance may change
    state, ins_id = seller_state()
    offer = accepted_offer(state, ins_id)
    before = _hash_sans_offers(state)
    bad_deltas = dict(state.btc_deltas)

    def boom(*a, **k):
        raise errors.DoubleSpend("injected")

    monkeypatch.setattr(IndexState, "apply_block", boom)
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(state, offer, "buyer")
    assert _hash_sans_offers(state) == before
    assert state.btc_deltas == bad_deltas


# --- funding checks ---

def _spend_mint_inscription_to_fee(state, miner):
    """Mine a block that spends the seller's mint inscription wholly as fee,
    so the inscribed sat lands in `miner`'s plain coinbase output."""
    mint = next(ins for ins in state.inscriptions.values() if ins.kind == "brc20_mint")
    point = state.location[mint.id]
    postage = state.utxos.require(point.outpoint).txout.value
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
