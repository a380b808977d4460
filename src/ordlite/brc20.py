"""BRC-20 operation parsing and the off-chain balance ledger.

Amounts are exact decimal fixed-point: stored as integers scaled by 10**18.
The ledger keeps raw per-address balances; the *available* balance subtracts
amounts earmarked by unused pending transfer inscriptions, so that per tick

    sum(available) + sum(unused pending) == minted <= max

holds after every event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import errors

AMOUNT_SCALE = 18
AMOUNT_UNIT = 10 ** AMOUNT_SCALE
MAX_MANTISSA = 2 ** 128

DEPLOY, MINT, TRANSFER = "deploy", "mint", "transfer"


def parse_amount(s) -> int:
    """Decimal string -> integer units at scale 18. Rejects zero/negative."""
    if not isinstance(s, str):
        raise errors.BadAmount(f"amount must be a string, got {type(s).__name__}")
    text = s.strip()
    intpart, dot, fracpart = text.partition(".")
    if not intpart.isdigit() or (dot and not fracpart.isdigit()):
        raise errors.BadAmount(repr(s))
    if len(fracpart) > AMOUNT_SCALE:
        raise errors.BadAmount(f"more than {AMOUNT_SCALE} decimals: {s!r}")
    mantissa = int(intpart + fracpart)
    if mantissa >= MAX_MANTISSA:
        raise errors.BadAmount(f"amount too large: {s!r}")
    units = mantissa * 10 ** (AMOUNT_SCALE - len(fracpart))
    if units <= 0:
        raise errors.BadAmount(f"amount must be positive: {s!r}")
    return units


def format_amount(units: int) -> str:
    intpart, frac = divmod(units, AMOUNT_UNIT)
    if frac == 0:
        return str(intpart)
    return f"{intpart}.{frac:0{AMOUNT_SCALE}d}".rstrip("0")


def normalize_tick(tick) -> str:
    if not isinstance(tick, str):
        raise errors.BadTick(repr(tick))
    t = tick.lower()
    if len(t.encode()) != 4:
        raise errors.BadTick(f"tick must be 4 bytes: {tick!r}")
    return t


@dataclass(frozen=True)
class Brc20Op:
    op: str  # deploy | mint | transfer
    tick: str
    max: int | None = None  # deploy only
    lim: int | None = None  # deploy only
    amt: int | None = None  # mint / transfer


def parse_brc20(body: bytes) -> Brc20Op:
    try:
        obj = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        raise errors.NotJson("body is not JSON")
    if not isinstance(obj, dict):
        raise errors.NotJson("body is not a JSON object")
    if "p" not in obj:
        raise errors.MissingField("p")
    if obj["p"] != "brc-20":
        raise errors.WrongProtocol(repr(obj["p"]))
    if "op" not in obj:
        raise errors.MissingField("op")
    op = obj["op"]
    if op not in (DEPLOY, MINT, TRANSFER):
        raise errors.UnknownOp(repr(op))
    if "tick" not in obj:
        raise errors.MissingField("tick")
    tick = normalize_tick(obj["tick"])
    if op == DEPLOY:
        for f in ("max", "lim"):
            if f not in obj:
                raise errors.MissingField(f)
        max_ = parse_amount(obj["max"])
        lim = parse_amount(obj["lim"])
        if lim > max_:
            raise errors.LimExceedsMax(f"lim {obj['lim']} > max {obj['max']}")
        return Brc20Op(DEPLOY, tick, max=max_, lim=lim)
    if "amt" not in obj:
        raise errors.MissingField("amt")
    return Brc20Op(op, tick, amt=parse_amount(obj["amt"]))


@dataclass
class TickState:
    tick: str
    max: int
    lim: int
    minted: int = 0
    deploy_inscription_id: str = ""
    deploy_height: int = -1


@dataclass
class PendingTransfer:
    inscription_id: str
    tick: str
    amt: int
    owner: str
    used: bool = False


class Brc20Ledger:
    """Off-chain state: tick registry, raw balances, pending transfers."""

    def __init__(self):
        self.ticks: dict[str, TickState] = {}
        self.balances: dict[str, dict[str, int]] = {}  # tick -> addr -> raw units
        self.pendings: dict[str, PendingTransfer] = {}
        self.diagnostics: list[str] = []

    # --- queries ---

    def raw_balance(self, tick: str, addr: str) -> int:
        return self.balances.get(tick, {}).get(addr, 0)

    def pending_outgoing(self, tick: str, addr: str) -> int:
        return sum(p.amt for p in self.pendings.values()
                   if not p.used and p.tick == tick and p.owner == addr)

    def query_balance(self, tick: str, addr: str) -> dict:
        pending = self.pending_outgoing(tick, addr)
        return {"available": format_amount(self.raw_balance(tick, addr) - pending),
                "pending": format_amount(pending)}

    def query_tick(self, tick: str) -> dict:
        state = self.ticks.get(tick)
        if state is None:
            raise errors.UnknownTick(tick)
        return {
            "tick": state.tick,
            "max": format_amount(state.max),
            "lim": format_amount(state.lim),
            "minted": format_amount(state.minted),
            "deploy_id": state.deploy_inscription_id,
            "height": state.deploy_height,
        }

    # --- state transitions (raise Brc20Error on protocol violations) ---

    def apply_deploy(self, op: Brc20Op, inscription_id: str, height: int) -> None:
        if op.tick in self.ticks:
            raise errors.TickExists(op.tick)
        self.ticks[op.tick] = TickState(op.tick, op.max, op.lim,
                                        deploy_inscription_id=inscription_id,
                                        deploy_height=height)
        self.balances.setdefault(op.tick, {})

    def apply_mint(self, op: Brc20Op, minter: str) -> None:
        state = self.ticks.get(op.tick)
        if state is None:
            raise errors.UnknownTick(op.tick)
        if op.amt > state.lim:
            raise errors.ExceedsLim(f"{format_amount(op.amt)} > lim {format_amount(state.lim)}")
        if state.minted + op.amt > state.max:
            raise errors.ExceedsMax(
                f"minted {format_amount(state.minted + op.amt)} > max {format_amount(state.max)}")
        state.minted += op.amt
        bal = self.balances.setdefault(op.tick, {})
        bal[minter] = bal.get(minter, 0) + op.amt

    def inscribe_transfer(self, op: Brc20Op, inscription_id: str, owner: str) -> None:
        if op.tick not in self.ticks:
            raise errors.UnknownTick(op.tick)
        available = self.raw_balance(op.tick, owner) - self.pending_outgoing(op.tick, owner)
        if available < op.amt:
            raise errors.InsufficientBalance(
                f"{owner} has {format_amount(available)} "
                f"{op.tick} available, needs {format_amount(op.amt)}")
        self.pendings[inscription_id] = PendingTransfer(
            inscription_id, op.tick, op.amt, owner)

    def settle_transfer(self, inscription_id: str, sender: str, receiver: str) -> None:
        pending = self.pendings.get(inscription_id)
        if pending is None:
            raise errors.UnknownPending(inscription_id)
        if pending.used:
            raise errors.AlreadyUsed(inscription_id)
        if pending.owner != sender:
            raise errors.NotOwner(f"{sender} does not own {inscription_id}")
        # earmarking guarantees this, but settlement re-verifies funds
        if self.raw_balance(pending.tick, sender) < pending.amt:
            raise errors.InsufficientBalance(inscription_id)
        pending.used = True
        bal = self.balances[pending.tick]
        bal[sender] -= pending.amt
        if bal[sender] == 0:
            del bal[sender]
        bal[receiver] = bal.get(receiver, 0) + pending.amt

    def cancel_pending(self, inscription_id: str, reason: str) -> None:
        pending = self.pendings.get(inscription_id)
        if pending is not None and not pending.used:
            pending.used = True
            self.diagnostics.append(f"pending {inscription_id} voided: {reason}")

    # --- invariants / serialization ---

    def check_invariants(self) -> None:
        """Raise InvariantViolation unless every tick's supply and every
        holder's earmarks are consistent. Recomputes the unused-pending totals
        from `pendings` in one pass rather than trusting any running total."""
        earmarked: dict[tuple[str, str], int] = {}
        for pending in self.pendings.values():
            if not pending.used:
                key = (pending.tick, pending.owner)
                earmarked[key] = earmarked.get(key, 0) + pending.amt
                if self.raw_balance(pending.tick, pending.owner) < pending.amt:
                    raise errors.InvariantViolation(
                        f"pending {pending.inscription_id} exceeds its owner's balance")
        for tick, state in self.ticks.items():
            if state.minted > state.max:
                raise errors.InvariantViolation(f"{tick}: minted > max")
            if state.lim > state.max:
                raise errors.InvariantViolation(f"{tick}: lim > max")
            bal = self.balances.get(tick, {})
            if not all(v > 0 for v in bal.values()):
                raise errors.InvariantViolation(f"{tick}: non-positive balance")
            total = sum(bal.values())
            if total != state.minted:
                raise errors.InvariantViolation(
                    f"{tick}: balances sum to {total}, minted {state.minted}")
            for addr, raw in bal.items():
                if raw < earmarked.get((tick, addr), 0):
                    raise errors.InvariantViolation(
                        f"{tick}: {addr} has a negative available balance")

    def to_json(self) -> dict:
        return {
            "ticks": {
                tick: {
                    "max": format_amount(s.max),
                    "lim": format_amount(s.lim),
                    "minted": format_amount(s.minted),
                    "deploy_id": s.deploy_inscription_id,
                    "height": s.deploy_height,
                }
                for tick, s in self.ticks.items()
            },
            "balances": {
                tick: {addr: format_amount(v) for addr, v in bal.items() if v}
                for tick, bal in self.balances.items()
            },
            "pendings": sorted(
                ({"id": p.inscription_id, "tick": p.tick,
                  "amt": format_amount(p.amt), "owner": p.owner, "used": p.used}
                 for p in self.pendings.values()),
                key=lambda p: p["id"]),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Brc20Ledger":
        ledger = cls()
        for tick, s in obj.get("ticks", {}).items():
            ledger.ticks[tick] = TickState(
                tick, parse_amount(s["max"]), parse_amount(s["lim"]),
                parse_amount(s["minted"]) if s["minted"] != "0" else 0,
                s["deploy_id"], s["height"])
        for tick, bal in obj.get("balances", {}).items():
            ledger.balances[tick] = {a: parse_amount(v) for a, v in bal.items()}
        for p in obj.get("pendings", []):
            ledger.pendings[p["id"]] = PendingTransfer(
                p["id"], p["tick"], parse_amount(p["amt"]), p["owner"], p["used"])
        return ledger
