import hashlib

import pytest

from ordlite import chain
from ordlite.chain import Block, OutPoint, Transaction, TxIn, TxOut


def txid(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()


def coinbase(height, value, recipient="miner", label=None):
    return Transaction(txid(label or f"cb{height}"), (),
                       (TxOut(value, recipient),), is_coinbase=True)


def spend(label, prevouts, outputs, witness=()):
    inputs = tuple(TxIn(op, witness if i == 0 else ())
                   for i, op in enumerate(prevouts))
    return Transaction(txid(label), inputs, tuple(outputs))


# a seller holding a 1000-ordi pending transfer "t1", and a buyer with funds
SELLER_SCRIPT = [
    {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
     "deployer": "seller"},
    {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "seller"},
    {"action": "transfer_inscribe", "tick": "ordi", "amt": "1000",
     "owner": "seller", "id": "t1"},
    {"action": "mine", "miner": "buyer"},
]

OFFER = {"action": "trade_offer", "inscription": "t1", "seller": "seller", "ask": 20_000_000}
ACCEPT = {"action": "trade_accept", "inscription": "t1", "buyer": "buyer"}
# a script whose last action has a field of the wrong type (an int field that
# is not an exact int, or a count below 1; an amount that is not a string),
# and the name of that field
BAD_FIELD_SCRIPTS = {
    "count_float": ([{"action": "mine", "count": 2.7}], "count"),
    "count_negative": ([{"action": "mine", "count": -3}], "count"),
    "count_zero": ([{"action": "mine", "count": 0}], "count"),
    "count_bool": ([{"action": "mine", "count": True}], "count"),
    "count_string": ([{"action": "mine", "count": "2"}], "count"),
    "ask_float": (SELLER_SCRIPT + [{**OFFER, "ask": 20_000_000.9}], "ask"),
    "ask_bool": (SELLER_SCRIPT + [{**OFFER, "ask": True}], "ask"),
    "ask_string": (SELLER_SCRIPT + [{**OFFER, "ask": "20000000"}], "ask"),
    "fee_float": (SELLER_SCRIPT + [OFFER, {**ACCEPT, "fee": 10_000.5}], "fee"),
    "fee_bool": (SELLER_SCRIPT + [OFFER, {**ACCEPT, "fee": False}], "fee"),
    "amt_bool": (SELLER_SCRIPT[:1] + [{**SELLER_SCRIPT[1], "amt": True}], "amt"),
    "amt_float": (SELLER_SCRIPT[:1] + [{**SELLER_SCRIPT[1], "amt": 1e3}], "amt"),
    "amt_int": (SELLER_SCRIPT[:1] + [{**SELLER_SCRIPT[1], "amt": 1000}], "amt"),
    "max_int": ([{**SELLER_SCRIPT[0], "max": 2100000}], "max"),
}


def send_then_recreate(state, ins_id, to="bob"):
    """Mine a block that sends inscription ins_id from its reveal's output 0
    to `to`, then one whose tx reuses the reveal's txid (allowed, as that
    output is spent) to re-create output 0 for the inscriber from the
    reveal's change output. Apply both to state and return them."""
    listed = state.location[ins_id].outpoint
    assert listed.vout == 0
    postage = chain.require(state.utxos, listed).txout
    change = OutPoint(listed.txid, 1)
    value = chain.require(state.utxos, change).txout.value
    send = Transaction(txid(f"send {ins_id}"), (TxIn(listed),),
                       (TxOut(postage.value, to, "p2tr_inscription"),))
    recreate = Transaction(listed.txid, (TxIn(change),),
                           (TxOut(value, postage.recipient),))
    blocks = []
    for tx in (send, recreate):
        height = state.tip_height + 1
        blocks.append(chain.mine_block(height, (tx,), state.utxos,
                                       txid(f"cb{height} {tx.txid}"), "miner"))
        state.apply_block(blocks[-1])
    return blocks


@pytest.fixture
def genesis():
    return Block(0, (coinbase(0, chain.block_subsidy(0)),))
