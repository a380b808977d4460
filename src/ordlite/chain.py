"""Blocks, transactions, the UTXO set, fees and the supply schedule.

The ledger is a linear chain of JSONL-encoded blocks applied to a UTXO set.
`validate_block` checks a block's structure only; :mod:`ordlite.ordinals`
checks its values as it assigns the sat ranges each entry here carries.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass, field

from . import errors

COIN = 100_000_000
INITIAL_SUBSIDY = 50 * COIN
HALVING_INTERVAL = 210_000
DIFFICULTY_PERIOD = 2_016
# Halving epochs and difficulty periods realign every lcm(2016, 210000) blocks.
CYCLE_BLOCKS = 1_260_000
SUBSIDY_EPOCHS = 33  # 50e8 >> 33 == 0

SCRIPT_KINDS = ("plain", "p2tr_inscription")
TXID_RE = re.compile(r"[0-9a-f]{64}")


# The value types are tuples, so that hashing, equality and ordering (UTXO
# keys, spent/created sets, assigned ranges) run in C.

class OutPoint(namedtuple("OutPoint", "txid vout")):
    __slots__ = ()

    def __new__(cls, txid: str, vout: int):
        if not TXID_RE.fullmatch(txid):
            raise ValueError(f"bad txid {txid!r}")
        if type(vout) is not int or vout < 0:  # exactly int: true and 1.0 are not output 1
            raise ValueError(f"vout {vout!r} is not a non-negative integer")
        return tuple.__new__(cls, (txid, vout))

    def __str__(self):
        return f"{self.txid}:{self.vout}"

    @classmethod
    def parse(cls, s: str) -> "OutPoint":
        txid, _, vout = s.rpartition(":")
        return cls(txid, int(vout))


class TxOut(namedtuple("TxOut", "value recipient script_kind")):
    __slots__ = ()

    def __new__(cls, value: int, recipient: str, script_kind: str = "plain"):
        if type(value) is not int:  # exactly int: a bool is an int too
            raise ValueError(f"output value {value!r} is not an integer")
        if value < 0:
            raise ValueError("negative output value")
        if script_kind not in SCRIPT_KINDS:
            raise ValueError(f"unknown script kind {script_kind!r}")
        if not isinstance(recipient, str):
            raise ValueError(f"recipient {recipient!r} is not a string")
        return tuple.__new__(cls, (value, recipient, script_kind))


class TxIn(namedtuple("TxIn", "prevout witness", defaults=((),))):
    __slots__ = ()  # witness is a tuple of bytes


class Transaction(namedtuple("Transaction", "txid inputs outputs is_coinbase",
                             defaults=(False,))):
    __slots__ = ()

    def __new__(cls, txid: str, inputs, outputs, is_coinbase: bool = False):
        if not TXID_RE.fullmatch(txid):  # so its outpoints need no check of it
            raise ValueError(f"bad txid {txid!r}")
        return tuple.__new__(cls, (txid, inputs, outputs, is_coinbase))

    def output_total(self) -> int:
        return sum(o.value for o in self.outputs)


class Block(namedtuple("Block", "height txs")):
    __slots__ = ()


@dataclass
class UtxoEntry:
    txout: TxOut
    sat_ranges: list = field(default_factory=list)  # list of (start, end) half-open


class UtxoSet(dict):
    """Map OutPoint -> UtxoEntry. Written only by IndexState.apply_block
    and IndexState.from_json (snapshot loading), which keep the state's
    recipient -> plain outpoints index with it; tests/test_imports.py checks
    that no other function writes it. A state `IndexState.decode` made holds
    a map backed by the snapshot bytes instead; code reads and writes either
    through mapping operations only."""

    __slots__ = ()

    @property
    def entries(self) -> "UtxoSet":
        """The set itself: the benchmark still reads it as `utxos.entries`."""
        return self


def require(utxos, outpoint) -> UtxoEntry:
    """The entry utxos holds for outpoint; MissingPrevout if it holds none."""
    entry = utxos.get(outpoint)
    if entry is None:
        raise errors.MissingPrevout(str(outpoint))
    return entry


def block_subsidy(height: int) -> int:
    if height < 0:
        raise ValueError("negative height")
    epoch = height // HALVING_INTERVAL
    if epoch >= SUBSIDY_EPOCHS:
        return 0
    return INITIAL_SUBSIDY >> epoch


def tx_fee(tx: Transaction, utxos) -> int:
    """Input value minus output value of a non-coinbase tx, the one fee rule:
    a negative fee raises NegativeFee here and nowhere else. utxos maps each
    outpoint an input spends to its UtxoEntry; one it lacks raises
    MissingPrevout (`require`). Builders pass the UTXO set; a tx that spends
    an output made earlier in its block needs a mapping that holds that
    block's outputs too, and `ordinals.assign_ordinals` passes the entries
    it so resolved."""
    if tx.is_coinbase:
        raise ValueError("coinbase has no fee")
    fee = sum(require(utxos, tin.prevout).txout.value for tin in tx.inputs) - tx.output_total()
    if fee < 0:
        raise errors.NegativeFee(f"{tx.txid}: inputs short by {-fee} sats")
    return fee


def validate_block(block: Block, next_height: int) -> None:
    """Check a block's structure, reading no UTXO entry: it is at next_height,
    its first tx and only that one is a coinbase, the coinbase spends nothing,
    no txid occurs twice and no outpoint is spent twice.
    `ordinals.assign_ordinals` checks values and that no output overwrites an
    unspent one (BIP30).
    """
    if block.height != next_height:
        raise errors.NonMonotonicHeight(
            f"got height {block.height}, expected {next_height}")
    if not block.txs or not block.txs[0].is_coinbase:
        raise errors.ChainError("block must start with a coinbase")
    if block.txs[0].inputs:
        raise errors.ChainError("coinbase may not spend inputs")
    if any(tx.is_coinbase for tx in block.txs[1:]):
        raise errors.ChainError("only the first tx may be coinbase")
    txids: set[str] = set()
    spent: set[OutPoint] = set()
    for tx in block.txs:
        if tx.txid in txids:
            raise errors.ChainError(f"txid {tx.txid} repeated in block")
        txids.add(tx.txid)
        for tin in tx.inputs:
            if tin.prevout in spent:
                raise errors.DoubleSpend(str(tin.prevout))
            spent.add(tin.prevout)


def mine_block(height: int, txs, utxos, coinbase_txid: str,
               miner: str) -> Block:
    """The block at `height` holding txs, whose coinbase pays the subsidy
    plus the txs' fees to miner. The txs spend only outputs in utxos."""
    fees = sum(tx_fee(tx, utxos) for tx in txs)
    coinbase = Transaction(coinbase_txid, (),
                           (TxOut(block_subsidy(height) + fees, miner),),
                           is_coinbase=True)
    return Block(height, (coinbase, *txs))


# --- JSONL codec ---

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_dumps(obj) -> str:
    """obj as canonical JSON: sorted keys, no spaces, everything but ASCII
    escaped. One encoder serves every call and skips the cycle check: each
    obj is a tree built fresh for the call, by a `to_json` or the like, so
    it holds no cycle (one would raise RecursionError, not ValueError). The
    result of a `to_json` may share lists with the state, so it must be
    treated as read-only."""
    return _CANONICAL.encode(obj)


def txout_to_json(o: TxOut) -> dict:
    """An output's JSON shape, in blocks, PSBTs and the snapshot's UTXOs alike."""
    return {"value": o.value, "recipient": o.recipient, "script_kind": o.script_kind}


def txout_from_json(obj: dict) -> TxOut:
    """The output of `txout_to_json`'s shape; a block's may omit the script kind."""
    return TxOut(obj["value"], obj["recipient"], obj.get("script_kind", "plain"))


def tx_to_json(tx: Transaction) -> dict:
    return {
        "txid": tx.txid,
        "coinbase": tx.is_coinbase,
        "inputs": [
            {"txid": tin.prevout.txid, "vout": tin.prevout.vout,
             "witness": [item.hex() for item in tin.witness]}
            for tin in tx.inputs
        ],
        "outputs": [txout_to_json(o) for o in tx.outputs],
    }


def tx_from_json(obj: dict) -> Transaction:
    is_coinbase = obj.get("coinbase", False)
    if type(is_coinbase) is not bool:
        raise ValueError(f"coinbase {is_coinbase!r} is not a boolean")
    inputs = tuple(
        TxIn(OutPoint(i["txid"], i["vout"]),
             tuple(bytes.fromhex(w) for w in i.get("witness", [])))
        for i in obj.get("inputs", [])
    )
    outputs = tuple(txout_from_json(o) for o in obj["outputs"])
    return Transaction(obj["txid"], inputs, outputs, is_coinbase)


def block_to_json(block: Block) -> dict:
    return {"height": block.height, "txs": [tx_to_json(tx) for tx in block.txs]}


def block_from_json(obj: dict) -> Block:
    if type(obj["height"]) is not int:
        raise ValueError(f"height {obj['height']!r} is not an integer")
    return Block(obj["height"], tuple(tx_from_json(t) for t in obj["txs"]))


def write_blocks_jsonl(blocks, fp) -> None:
    for block in blocks:
        fp.write(canonical_dumps(block_to_json(block)) + "\n")


def read_blocks_jsonl(fp):
    """The blocks of a JSONL file, one per non-blank line; a line that is not a
    well-formed block raises ChainError naming its line number."""
    for n, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            block = block_from_json(json.loads(line))
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise errors.ChainError(f"line {n}: {type(exc).__name__}: {exc}") from exc
        yield block
