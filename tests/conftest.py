import hashlib

import pytest

from ordlite import chain
from ordlite.chain import Block, Transaction, TxIn, TxOut


def txid(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()


def coinbase(height, value, recipient="miner", label=None):
    return Transaction(txid(label or f"cb{height}"), (),
                       (TxOut(value, recipient),), is_coinbase=True)


def spend(label, prevouts, outputs, witness=()):
    inputs = tuple(TxIn(op, witness if i == 0 else ())
                   for i, op in enumerate(prevouts))
    return Transaction(txid(label), inputs, tuple(outputs))


@pytest.fixture
def genesis():
    return Block(0, (coinbase(0, chain.block_subsidy(0)),))
