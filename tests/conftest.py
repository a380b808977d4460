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


def send_then_recreate(state, ins_id, to="bob"):
    """Mine a block that sends inscription ins_id from its reveal's output 0
    to `to`, then one whose tx reuses the reveal's txid (allowed, as that
    output is spent) to re-create output 0 for the inscriber from the
    reveal's change output. Apply both to state and return them."""
    listed = state.location[ins_id].outpoint
    assert listed.vout == 0
    postage = state.utxos.require(listed).txout
    change = OutPoint(listed.txid, 1)
    value = state.utxos.require(change).txout.value
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
