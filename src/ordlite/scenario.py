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

Any inscribing action may name its inscription with "id" for later actions.

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

# script action -> (BRC-20 op, field naming the actor, amount fields)
BRC20_ACTIONS = {
    "deploy": (brc20.DEPLOY, "deployer", ("max", "lim")),
    "mint": (brc20.MINT, "minter", ("amt",)),
    "transfer_inscribe": (brc20.TRANSFER, "owner", ("amt",)),
}


def _exact_int(value, name: str) -> int:
    """value, an action's field `name`, if it is an exact int; a float, a bool
    or a string raises ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer, not {value!r}")
    return value


def _exact_str(value, name: str) -> str:
    """value, an action's field `name`, if it is a string; a number or a bool
    raises ValueError naming the field, so `true` is not cast to "True"."""
    if type(value) is not str:
        raise ValueError(f"field {name!r} must be a string, not {value!r}")
    return value


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
        block = chain.mine_block(height, txs_after_coinbase, self.state.utxos,
                                 self._txid(f"coinbase@{height}"), miner)
        self.state.apply_block(block)
        self.blocks.append(block)
        return block

    def _funding_outpoint(self, addr: str, amount: int) -> OutPoint:
        """A single plain UTXO of addr covering amount; auto-mines if needed."""
        eligible = [op for op, v in trade.funding_outputs(self.state, addr) if v >= amount]
        if eligible:
            return min(eligible)
        if chain.block_subsidy(self.state.tip_height + 1) < amount:
            raise errors.InsufficientFunds(
                f"cannot fund {amount} sats for {addr} from one subsidy")
        self._emit([], miner=addr)  # grant a subsidy
        return self._funding_outpoint(addr, amount)

    def _reveal(self, actor: str, body: bytes, purpose: str) -> str:
        funding = self._funding_outpoint(actor, POSTAGE + REVEAL_FEE)
        value = chain.require(self.state.utxos, funding).txout.value
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
            except (ValueError, TypeError) as exc:  # a field of the wrong type or value
                raise errors.ActionInvalid(idx, f"{type(exc).__name__}: {exc}")
        return self.blocks

    def _compile_one(self, action: dict) -> None:
        kind = action["action"]
        if kind == "mine":
            count = _exact_int(action.get("count", 1), "count")
            if count < 1:
                raise ValueError(f"field 'count' must be at least 1, not {count}")
            for _ in range(count):
                self._emit([], miner=action.get("miner", "miner"))
        elif kind in BRC20_ACTIONS:
            op, actor, amount_fields = BRC20_ACTIONS[kind]
            fields = {"p": "brc-20", "op": op, "tick": action["tick"]}
            fields.update((f, _exact_str(action[f], f)) for f in amount_fields)
            body = chain.canonical_dumps(fields).encode()
            ins_id = self._reveal(action[actor], body, f"{op} {action['tick']}")
            if "id" in action:
                self.handles[action["id"]] = ins_id
        elif kind == "transfer_send":
            ins_id = self.handles.get(action["inscription"], action["inscription"])
            satpoint = self.state.location.get(ins_id)
            if satpoint is None:
                raise errors.OrdliteError(f"unknown inscription {action['inscription']}")
            value = chain.require(self.state.utxos, satpoint.outpoint).txout.value
            tx = Transaction(
                self._txid(f"send {ins_id}"),
                (TxIn(satpoint.outpoint),),
                (TxOut(value, action["to"], "p2tr_inscription"),))
            self._emit([tx])
        elif kind == "trade_offer":
            ins_id = self.handles.get(action["inscription"], action["inscription"])
            offer = trade.create_offer(self.state, action["seller"], ins_id,
                                       _exact_int(action["ask"], "ask"))
            self.offer_by_handle[action["inscription"]] = offer.id
        elif kind == "trade_accept":
            handle = action["inscription"]
            if handle not in self.offer_by_handle:
                raise errors.OrdliteError(f"no offer was made for inscription {handle}")
            offer = trade.get_offer(self.state, self.offer_by_handle[handle])
            buyer = action["buyer"]
            fee = _exact_int(action.get("fee", trade.DEFAULT_FEE), "fee")
            funding = [self._funding_outpoint(buyer, offer.ask + fee)]
            trade.accept_offer(self.state, offer, buyer, funding, fee)
            block = trade.broadcast_and_settle(self.state, offer, buyer)
            self.blocks.append(block)
        else:
            raise errors.OrdliteError(f"unknown action {kind!r}")


def compile_scenario(script: list[dict], seed: int = 0) -> list[Block]:
    return ScenarioCompiler(seed).compile(script)


def load_script(path) -> list[dict]:
    with open(path) as fp:
        try:
            script = json.load(fp)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise errors.ActionInvalid(0, f"not a JSON script: {exc}") from exc
    if not isinstance(script, list):
        raise errors.ActionInvalid(0, "script must be a JSON list")
    return script
