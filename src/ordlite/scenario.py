"""Declarative scenario scripts compiled into block JSONL fixtures.

A script is a JSON list of actions:

    {"action": "mine", "miner": "alice", "count": 2}
    {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
     "deployer": "alice"}
    {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "alice"}
    {"action": "transfer_inscribe", "tick": "ordi", "amt": "100",
     "owner": "alice", "id": "t1"}
    {"action": "transfer_send", "inscription": "t1", "to": "bob"}
    {"action": "trade_offer", "inscription": "t1", "seller": "alice",
     "ask": 20000000}
    {"action": "trade_accept", "inscription": "t1", "buyer": "bob"}

The compiler runs the real indexing pipeline incrementally, so funding,
satpoints and fees are always consistent; protocol-level BRC-20 errors are
deliberately left for index time (they are runtime, not compile-time).
"""

from __future__ import annotations

import hashlib
import json

from . import brc20, chain, envelope, errors, trade
from .chain import Block, OutPoint, Transaction, TxIn, TxOut
from .indexer import IndexState

POSTAGE = 546
REVEAL_FEE = 1_000


class ScenarioCompiler:
    def __init__(self, seed: int = 0):
        self.seed = seed
        self.state = IndexState()
        self.blocks: list[Block] = []
        self.handles: dict[str, str] = {}  # script handle -> inscription id
        self.offer_by_handle: dict[str, str] = {}
        self._counter = 0

    def _txid(self, purpose: str) -> str:
        self._counter += 1
        return hashlib.sha256(
            f"{self.seed}|{self._counter}|{purpose}".encode()).hexdigest()

    def _emit(self, txs_after_coinbase, miner="miner") -> Block:
        height = self.state.tip_height + 1
        fees = sum(chain.tx_fee(tx, self.state.utxos) for tx in txs_after_coinbase)
        coinbase = Transaction(
            self._txid(f"coinbase@{height}"), (),
            (TxOut(chain.block_subsidy(height) + fees, miner),),
            is_coinbase=True)
        block = Block(height, (coinbase,) + tuple(txs_after_coinbase))
        self.state.apply_block(block)
        self.blocks.append(block)
        return block

    def _funding_outpoint(self, addr: str, amount: int) -> OutPoint:
        """A single plain UTXO of addr covering amount; auto-mines if needed."""
        eligible = [op for op, entry in self.state.utxos.entries.items()
                    if entry.txout.recipient == addr and entry.txout.script_kind == "plain"
                    and entry.txout.value >= amount and op not in self.state.by_outpoint]
        if eligible:
            return min(eligible)
        if chain.block_subsidy(self.state.tip_height + 1) < amount:
            raise errors.InsufficientFunds(
                f"cannot fund {amount} sats for {addr} from one subsidy")
        self._emit([], miner=addr)  # grant a subsidy
        return self._funding_outpoint(addr, amount)

    def _reveal(self, actor: str, body: bytes, purpose: str) -> str:
        funding = self._funding_outpoint(actor, POSTAGE + REVEAL_FEE)
        value = self.state.utxos.require(funding).txout.value
        witness = tuple(envelope.build_envelope("text/plain;charset=utf-8", body))
        outputs = [TxOut(POSTAGE, actor, "p2tr_inscription")]
        change = value - POSTAGE - REVEAL_FEE
        if change > 0:
            outputs.append(TxOut(change, actor))
        tx = Transaction(self._txid(purpose), (TxIn(funding, witness),),
                         tuple(outputs))
        self._emit([tx])
        return f"{tx.txid}i0"

    def compile(self, script: list[dict]) -> list[Block]:
        for idx, action in enumerate(script):
            try:
                self._compile_one(action)
            except errors.OrdliteError as exc:
                raise errors.ActionInvalid(idx, str(exc))
            except KeyError as exc:
                raise errors.ActionInvalid(idx, f"missing field {exc}")
        return self.blocks

    def _compile_one(self, action: dict) -> None:
        kind = action["action"]
        if kind == "mine":
            for _ in range(int(action.get("count", 1))):
                self._emit([], miner=action.get("miner", "miner"))
        elif kind == "deploy":
            body = chain.canonical_dumps({
                "p": "brc-20", "op": "deploy", "tick": action["tick"],
                "max": str(action["max"]), "lim": str(action["lim"])}).encode()
            self._reveal(action["deployer"], body, f"deploy {action['tick']}")
        elif kind == "mint":
            body = chain.canonical_dumps({
                "p": "brc-20", "op": "mint", "tick": action["tick"],
                "amt": str(action["amt"])}).encode()
            self._reveal(action["minter"], body, f"mint {action['tick']}")
        elif kind == "transfer_inscribe":
            body = chain.canonical_dumps({
                "p": "brc-20", "op": "transfer", "tick": action["tick"],
                "amt": str(action["amt"])}).encode()
            ins_id = self._reveal(action["owner"], body,
                                  f"transfer {action['tick']}")
            if "id" in action:
                self.handles[action["id"]] = ins_id
        elif kind == "transfer_send":
            ins_id = self.handles.get(action["inscription"], action["inscription"])
            satpoint = self.state.location.get(ins_id)
            if satpoint is None:
                raise errors.ActionInvalid(-1, f"unknown inscription {action['inscription']}")
            value = self.state.utxos.require(satpoint.outpoint).txout.value
            tx = Transaction(
                self._txid(f"send {ins_id}"),
                (TxIn(satpoint.outpoint),),
                (TxOut(value, action["to"], "p2tr_inscription"),))
            self._emit([tx])
        elif kind == "trade_offer":
            ins_id = self.handles.get(action["inscription"], action["inscription"])
            offer = trade.create_offer(self.state, action["seller"], ins_id,
                                       int(action["ask"]))
            self.offer_by_handle[action["inscription"]] = offer.id
        elif kind == "trade_accept":
            offer = trade.get_offer(self.state, self.offer_by_handle[action["inscription"]])
            buyer = action["buyer"]
            fee = int(action.get("fee", trade.DEFAULT_FEE))
            funding = [self._funding_outpoint(buyer, offer.ask + fee)]
            trade.accept_offer(self.state, offer, buyer, funding, fee)
            block = trade.broadcast_and_settle(self.state, offer, buyer)
            self.blocks.append(block)
        else:
            raise errors.ActionInvalid(-1, f"unknown action {kind!r}")


def compile_scenario(script: list[dict], seed: int = 0) -> list[Block]:
    return ScenarioCompiler(seed).compile(script)


def load_script(path) -> list[dict]:
    with open(path) as fp:
        script = json.load(fp)
    if not isinstance(script, list):
        raise errors.ActionInvalid(0, "script must be a JSON list")
    return script
