"""BRC-20 operation parsing and the off-chain balance ledger.

Indexing changes BRC-20 state only through `Brc20Ledger`: `apply` applies an
op and records a rejected one in `diagnostics`, `settle` settles a transfer and
`cancel_pending` voids one; `_credit` alone writes a raw balance.

Amounts are exact decimal fixed-point: stored as integers scaled by 10**18.
An amount string is ASCII digits 0-9, optionally followed by one `.` and more
such digits, and nothing else: no sign, exponent or surrounding whitespace.
Whether the unisat and OKX indexers accept a padded amount such as " 10 "
could not be checked offline; this ledger treats it as invalid.

The ledger keeps raw per-address balances; the *available* balance subtracts
amounts earmarked by unused pending transfer inscriptions, so that per tick

    sum(available) + sum(unused pending) == minted <= max

holds after every event.

Two structures are derived from that state and never serialized: `unused`,
the unused pendings grouped by (tick, owner), which `pending_outgoing` sums,
and `touched`, the ticks and holders changed since the last check. Indexing
runs `check_touched` after each block, which checks only what the block
changed; `check_invariants` checks the whole ledger, `unused` included, and
runs when a snapshot is loaded from outside the data dir. Both apply the same
rules, one function per rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import errors

AMOUNT_SCALE = 18
AMOUNT_UNIT = 10 ** AMOUNT_SCALE
MAX_MANTISSA = 2 ** 128
_MANTISSA_DIGITS = len(str(MAX_MANTISSA))

DEPLOY, MINT, TRANSFER = "deploy", "mint", "transfer"


def parse_amount(s) -> int:
    """Decimal string -> integer units at scale 18. Rejects zero/negative."""
    if not isinstance(s, str):
        raise errors.BadAmount(f"amount must be a string, got {type(s).__name__}")
    intpart, dot, fracpart = s.partition(".")
    # ASCII only: isdigit alone takes any script's digits, and superscripts
    if not (s.isascii() and intpart.isdigit() and (fracpart.isdigit() or not dot)):
        raise errors.BadAmount(repr(s))
    if len(fracpart) > AMOUNT_SCALE:
        raise errors.BadAmount(f"more than {AMOUNT_SCALE} decimals: {s!r}")
    # by value: leading zeros do not count, and int() refuses over 4300 digits
    digits = (intpart + fracpart).lstrip("0") or "0"
    mantissa = int(digits) if len(digits) <= _MANTISSA_DIGITS else MAX_MANTISSA
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
    try:
        if len(t.encode()) == 4:
            return t
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 bytes
        pass
    raise errors.BadTick(f"tick must be 4 UTF-8 bytes: {tick!r}")


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
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
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
class TickState:  # keyed by its tick in `Brc20Ledger.ticks`
    max: int
    lim: int
    minted: int
    deploy_inscription_id: str
    deploy_height: int

    def to_json(self) -> dict:
        return {
            "max": format_amount(self.max),
            "lim": format_amount(self.lim),
            "minted": format_amount(self.minted),
            "deploy_id": self.deploy_inscription_id,
            "height": self.deploy_height,
        }


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
        # derived from `pendings`, never serialized: (tick, owner) -> the
        # owner's unused pendings of tick, by inscription id
        self.unused: dict[tuple[str, str], dict[str, PendingTransfer]] = {}
        # tick -> holders changed since the last `check_touched`
        self.touched: dict[str, set[str]] = {}

    # --- queries ---

    def raw_balance(self, tick: str, addr: str) -> int:
        return self.balances.get(tick, {}).get(addr, 0)

    def pending_outgoing(self, tick: str, addr: str) -> int:
        return sum(p.amt for p in self.unused.get((tick, addr), {}).values())

    def query_balance(self, tick: str, addr: str) -> dict:
        pending = self.pending_outgoing(tick, addr)
        return {"available": format_amount(self.raw_balance(tick, addr) - pending),
                "pending": format_amount(pending)}

    def query_tick(self, tick: str) -> dict:
        state = self.ticks.get(tick)
        if state is None:
            raise errors.UnknownTick(tick)
        return {"tick": tick, **state.to_json()}

    # --- state transitions ---

    def apply(self, op: Brc20Op, inscription_id: str, height: int, actor: str) -> None:
        """Apply the op of inscription_id, revealed at height to actor, who
        owns the inscribed sat; record a rejected op, which changes nothing."""
        try:
            if op.op == DEPLOY:
                self.apply_deploy(op, inscription_id, height)
            elif op.op == MINT:
                self.apply_mint(op, actor)
            else:
                self.inscribe_transfer(op, inscription_id, actor)
        except errors.Brc20Error as exc:
            self.diagnostics.append(
                f"{inscription_id} {op.op} {op.tick}: {type(exc).__name__}: {exc}")

    def apply_deploy(self, op: Brc20Op, inscription_id: str, height: int) -> None:
        if op.tick in self.ticks:
            raise errors.TickExists(op.tick)
        self.ticks[op.tick] = TickState(op.max, op.lim, 0, inscription_id, height)
        self.balances.setdefault(op.tick, {})
        self._touch(op.tick)

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
        self._credit(op.tick, minter, op.amt)

    def inscribe_transfer(self, op: Brc20Op, inscription_id: str, owner: str) -> None:
        if op.tick not in self.ticks:
            raise errors.UnknownTick(op.tick)
        available = self.raw_balance(op.tick, owner) - self.pending_outgoing(op.tick, owner)
        if available < op.amt:
            raise errors.InsufficientBalance(
                f"{owner} has {format_amount(available)} "
                f"{op.tick} available, needs {format_amount(op.amt)}")
        pending = self.pendings[inscription_id] = PendingTransfer(
            inscription_id, op.tick, op.amt, owner)
        self.unused.setdefault((op.tick, owner), {})[inscription_id] = pending
        self._touch(op.tick, owner)

    def settle(self, inscription_id: str, receiver: str) -> bool:
        """Move the amount of inscription_id's unused pending from its owner to
        receiver and return True; return False, changing nothing, if it has
        none. The earmarks that cover the owner's funds are `check_touched`'s."""
        pending = self.pendings.get(inscription_id)
        if pending is None or pending.used:
            return False
        self._use(pending)
        self._credit(pending.tick, pending.owner, -pending.amt)
        self._credit(pending.tick, receiver, pending.amt)
        return True

    def cancel_pending(self, inscription_id: str) -> None:
        """Void the unused pending transfer of inscription_id, whose inscribed
        sat was burned."""
        pending = self.pendings.get(inscription_id)
        if pending is not None and not pending.used:
            self._use(pending)
            self.diagnostics.append(f"pending {inscription_id} voided: inscribed sat burned")

    def _use(self, pending: PendingTransfer) -> None:
        """Mark an unused pending used and drop it from `unused`."""
        pending.used = True
        key = (pending.tick, pending.owner)
        records = self.unused[key]
        del records[pending.inscription_id]
        if not records:
            del self.unused[key]
        self._touch(*key)

    def _credit(self, tick: str, addr: str, amt: int) -> None:
        """Add amt (negative to debit) to addr's raw balance of tick, and drop
        a balance that reaches zero."""
        bal = self.balances.setdefault(tick, {})
        bal[addr] = bal.get(addr, 0) + amt
        if not bal[addr]:
            del bal[addr]
        self._touch(tick, addr)

    def _touch(self, tick: str, *addrs: str) -> None:
        self.touched.setdefault(tick, set()).update(addrs)

    # --- invariants / serialization ---

    def check_invariants(self) -> None:
        """Raise InvariantViolation unless every tick's supply and every
        holder's earmarks are consistent, every balance is of a deployed tick,
        and `unused` holds exactly the unused pendings. Regroups the unused pendings from `pendings` rather
        than trusting `unused` or any running total."""
        grouped: dict[tuple[str, str], dict[str, PendingTransfer]] = {}
        for pending in self.pendings.values():
            if not pending.used:
                grouped.setdefault((pending.tick, pending.owner), {})[
                    pending.inscription_id] = pending
        for tick in self.ticks:
            self._check_tick(tick)
        undeployed = sorted(self.balances.keys() - self.ticks.keys())
        if undeployed:
            raise errors.InvariantViolation(f"{undeployed[0]}: balances of a tick no deploy made")
        for (tick, addr), records in grouped.items():
            self._check_holder(tick, addr, records)
        if grouped != self.unused:
            raise errors.InvariantViolation("unused pendings differ from their index")

    def check_touched(self) -> None:
        """Check, as `check_invariants` does, only the ticks and holders
        changed since the last call, then forget them. A holder's earmarks are
        re-summed from its records in `unused`, not from any running total."""
        touched, self.touched = self.touched, {}
        for tick, addrs in touched.items():
            self._check_tick(tick)
            for addr in addrs:
                self._check_holder(tick, addr, self.unused.get((tick, addr), {}))

    def _check_tick(self, tick: str) -> None:
        """Supply: minted and lim within max, and the holders' positive
        balances sum to minted."""
        state = self.ticks[tick]
        if state.minted > state.max:
            raise errors.InvariantViolation(f"{tick}: minted > max")
        if state.lim > state.max:
            raise errors.InvariantViolation(f"{tick}: lim > max")
        bal = self.balances.get(tick, {}).values()
        if min(bal, default=1) <= 0:
            raise errors.InvariantViolation(f"{tick}: non-positive balance")
        total = sum(bal)
        if total != state.minted:
            raise errors.InvariantViolation(
                f"{tick}: balances sum to {total}, minted {state.minted}")

    def _check_holder(self, tick: str, addr: str, records: dict) -> None:
        """Earmarks: each of addr's unused pendings of tick, and their sum,
        within its raw balance."""
        raw = self.raw_balance(tick, addr)
        for pending in records.values():
            if raw < pending.amt:
                raise errors.InvariantViolation(
                    f"pending {pending.inscription_id} exceeds its owner's balance")
        if raw < sum(p.amt for p in records.values()):
            raise errors.InvariantViolation(
                f"{tick}: {addr} has a negative available balance")

    def check_pendings(self, transfers: dict[str, Brc20Op]) -> None:
        """Raise CorruptSnapshot unless every pending, used or not, has the
        tick and amount of the op transfers holds for its inscription id. Its
        owner, the recipient of a reveal output that may be spent, is not
        checked."""
        for ins_id, pending in self.pendings.items():
            op = transfers.get(ins_id)
            if op is None or (op.tick, op.amt) != (pending.tick, pending.amt):
                raise errors.CorruptSnapshot(
                    f"pending {ins_id} is not the transfer its inscription inscribes")

    def check_located(self, located) -> None:
        """Raise CorruptSnapshot unless the inscription of every unused pending
        is in located: indexing voids the pending of an inscription whose sat
        is burned (`cancel_pending`), as none can ever settle it."""
        for ins_id, pending in self.pendings.items():
            if not pending.used and ins_id not in located:
                raise errors.CorruptSnapshot(f"unused pending {ins_id} is not located")

    def check_deploys(self, deploys: dict) -> None:
        """Raise CorruptSnapshot unless every tick's deploy_id names an
        inscription in deploys (id -> (its deploy op, its height)) whose body
        gives that tick, max and lim, revealed at the tick's height."""
        for tick, state in self.ticks.items():
            op = Brc20Op(DEPLOY, tick, max=state.max, lim=state.lim)
            if deploys.get(state.deploy_inscription_id) != (op, state.deploy_height):
                raise errors.CorruptSnapshot(
                    f"tick {tick} is not what its deploy {state.deploy_inscription_id} "
                    f"inscribes")

    def to_json(self) -> dict:
        return {
            "ticks": {tick: s.to_json() for tick, s in self.ticks.items()},
            "balances": {
                tick: {addr: format_amount(v) for addr, v in bal.items()}
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
        for tick, s in obj["ticks"].items():
            ledger.ticks[tick] = TickState(
                parse_amount(s["max"]), parse_amount(s["lim"]),
                parse_amount(s["minted"]) if s["minted"] != "0" else 0,
                s["deploy_id"], s["height"])
        for tick, bal in obj["balances"].items():
            ledger.balances[tick] = {a: parse_amount(v) for a, v in bal.items()}
        for p in obj["pendings"]:
            pending = ledger.pendings[p["id"]] = PendingTransfer(
                p["id"], p["tick"], parse_amount(p["amt"]), p["owner"], p["used"])
            if not pending.used:
                ledger.unused.setdefault((pending.tick, pending.owner), {})[p["id"]] = pending
        return ledger
