"""Blocks, transactions, the UTXO set, fees and the supply schedule.

The ledger is a linear chain of JSONL-encoded blocks applied to a UTXO set.
Sat-range bookkeeping lives in :mod:`ordlite.ordinals`; entries here just
carry the ranges alongside each unspent output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

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


@dataclass(frozen=True, order=True)
class OutPoint:
    txid: str
    vout: int

    def __post_init__(self):
        if not TXID_RE.fullmatch(self.txid):
            raise ValueError(f"bad txid {self.txid!r}")

    def __str__(self):
        return f"{self.txid}:{self.vout}"

    @classmethod
    def parse(cls, s: str) -> "OutPoint":
        txid, _, vout = s.rpartition(":")
        return cls(txid, int(vout))


@dataclass(frozen=True)
class TxOut:
    value: int
    recipient: str
    script_kind: str = "plain"

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative output value")
        if self.script_kind not in SCRIPT_KINDS:
            raise ValueError(f"unknown script kind {self.script_kind!r}")


@dataclass(frozen=True)
class TxIn:
    prevout: OutPoint
    witness: tuple = ()  # tuple of bytes


@dataclass(frozen=True)
class Transaction:
    txid: str
    inputs: tuple
    outputs: tuple
    is_coinbase: bool = False

    def output_total(self) -> int:
        return sum(o.value for o in self.outputs)


@dataclass(frozen=True)
class Block:
    height: int
    txs: tuple


@dataclass
class UtxoEntry:
    txout: TxOut
    sat_ranges: list = field(default_factory=list)  # list of (start, end) half-open


class UtxoSet:
    """Map OutPoint -> UtxoEntry. Written only by IndexState.apply_block
    and by snapshot loading."""

    def __init__(self):
        self.entries: dict[OutPoint, UtxoEntry] = {}

    def __contains__(self, outpoint):
        return outpoint in self.entries

    def __len__(self):
        return len(self.entries)

    def get(self, outpoint) -> UtxoEntry | None:
        return self.entries.get(outpoint)

    def require(self, outpoint) -> UtxoEntry:
        entry = self.entries.get(outpoint)
        if entry is None:
            raise errors.MissingPrevout(str(outpoint))
        return entry

    def total_value(self) -> int:
        return sum(e.txout.value for e in self.entries.values())


def block_subsidy(height: int) -> int:
    if height < 0:
        raise ValueError("negative height")
    epoch = height // HALVING_INTERVAL
    if epoch >= SUBSIDY_EPOCHS:
        return 0
    return INITIAL_SUBSIDY >> epoch


def tx_fee(tx: Transaction, utxos: UtxoSet, created=None) -> int:
    """Input value minus output value of a non-coinbase tx. An input may spend
    an output in `created` (OutPoint -> TxOut): those made earlier in its block."""
    if tx.is_coinbase:
        raise ValueError("coinbase has no fee")
    created = created or {}
    fee = sum((created.get(tin.prevout) or utxos.require(tin.prevout).txout).value
              for tin in tx.inputs) - tx.output_total()
    if fee < 0:
        raise errors.NegativeFee(f"{tx.txid}: inputs short by {-fee} sats")
    return fee


def tx_body_size(tx: Transaction) -> int:
    """Byte length of the canonical JSON serialization, witness arrays excluded."""
    return len(canonical_dumps(tx_to_json(tx, include_witness=False)).encode())


def tx_witness_size(tx: Transaction) -> int:
    return sum(len(item) for tin in tx.inputs for item in tin.witness)


def tx_vsize(tx: Transaction) -> int:
    wsize = tx_witness_size(tx)
    return tx_body_size(tx) + (wsize + 3) // 4


def fee_rate(tx: Transaction, utxos: UtxoSet) -> Fraction:
    return Fraction(tx_fee(tx, utxos), tx_vsize(tx))


def validate_block(block: Block, utxos: UtxoSet, next_height: int) -> dict:
    """Check a block against the UTXO set without mutating anything; return
    the fee of each non-coinbase tx (txid -> sats).

    Within-block chaining is allowed: a tx may spend outputs created earlier
    in the same block.
    """
    if block.height != next_height:
        raise errors.NonMonotonicHeight(
            f"got height {block.height}, expected {next_height}")
    if not block.txs or not block.txs[0].is_coinbase:
        raise errors.ChainError("block must start with a coinbase")
    if any(tx.is_coinbase for tx in block.txs[1:]):
        raise errors.ChainError("only the first tx may be coinbase")

    spent: set[OutPoint] = set()
    created: dict[OutPoint, TxOut] = {}
    fees = {}
    for tx in block.txs[1:]:
        for tin in tx.inputs:
            if tin.prevout in spent:
                raise errors.DoubleSpend(str(tin.prevout))
            spent.add(tin.prevout)
        fees[tx.txid] = tx_fee(tx, utxos, created)
        for i, txout in enumerate(tx.outputs):
            created[OutPoint(tx.txid, i)] = txout

    coinbase = block.txs[0]
    budget = block_subsidy(block.height) + sum(fees.values())
    if coinbase.output_total() > budget:
        raise errors.CoinbaseOverpay(
            f"coinbase claims {coinbase.output_total()}, budget {budget}")
    return fees


# --- JSONL codec ---

def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def tx_to_json(tx: Transaction, include_witness=True) -> dict:
    obj = {
        "txid": tx.txid,
        "coinbase": tx.is_coinbase,
        "inputs": [
            {"txid": tin.prevout.txid, "vout": tin.prevout.vout}
            for tin in tx.inputs
        ],
        "outputs": [
            {"value": o.value, "recipient": o.recipient, "script_kind": o.script_kind}
            for o in tx.outputs
        ],
    }
    if include_witness:
        for tin, entry in zip(tx.inputs, obj["inputs"]):
            entry["witness"] = [item.hex() for item in tin.witness]
    return obj


def tx_from_json(obj: dict) -> Transaction:
    inputs = tuple(
        TxIn(OutPoint(i["txid"], i["vout"]),
             tuple(bytes.fromhex(w) for w in i.get("witness", [])))
        for i in obj.get("inputs", [])
    )
    outputs = tuple(
        TxOut(o["value"], o["recipient"], o.get("script_kind", "plain"))
        for o in obj["outputs"]
    )
    return Transaction(obj["txid"], inputs, outputs, bool(obj.get("coinbase")))


def block_to_json(block: Block) -> dict:
    return {"height": block.height, "txs": [tx_to_json(tx) for tx in block.txs]}


def block_from_json(obj: dict) -> Block:
    return Block(obj["height"], tuple(tx_from_json(t) for t in obj["txs"]))


def write_blocks_jsonl(blocks, fp) -> None:
    for block in blocks:
        fp.write(canonical_dumps(block_to_json(block)) + "\n")


def read_blocks_jsonl(fp):
    for line in fp:
        line = line.strip()
        if line:
            yield block_from_json(json.loads(line))
