import copy
import importlib
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from ordlite import brc20, chain, errors
from ordlite.brc20 import Brc20Ledger, format_amount, parse_amount, parse_brc20
from ordlite.indexer import IndexState

LISTING_DEPLOY = b'{"p":"brc-20","op":"deploy","tick":"ordi","max":"2100000","lim":"1000"}'


def test_parse_amount_exact_decimals():
    assert parse_amount("1") == 10**18
    assert parse_amount("0.5") == 5 * 10**17
    assert parse_amount("2100000") == 2_100_000 * 10**18
    assert format_amount(parse_amount("1.50")) == "1.5"
    # an amount's size is its value's: leading zeros never make it too large
    assert parse_amount("0001") == parse_amount("0" * 5000 + "1") == 10**18
    for bad in ("0", "-1", "1e3", "", ".", "1.", "0." + "0" * 19 + "1", "abc"):
        with pytest.raises(errors.BadAmount):
            parse_amount(bad)
    with pytest.raises(errors.BadAmount):
        parse_amount(str(2**128))
    with pytest.raises(errors.BadAmount):
        parse_amount(1000)  # must be a string


@pytest.mark.parametrize("text", ["²", "١٠٠٠", "1.²", "1.٥", "１０", " 10 ", "10\n"])
def test_parse_amount_rejects_non_ascii_digits(text):
    # str.isdigit accepts the first five, int() the padded ones; only 0-9 is valid
    with pytest.raises(errors.BadAmount):
        parse_amount(text)


def test_parse_deploy_listing():
    op = parse_brc20(LISTING_DEPLOY)
    assert op.op == "deploy"
    assert op.tick == "ordi"
    assert op.max == parse_amount("2100000")
    assert op.lim == parse_amount("1000")


def test_parse_errors():
    with pytest.raises(errors.NotJson):
        parse_brc20(b"hello")
    with pytest.raises(errors.NotJson):
        parse_brc20(b"[1,2]")
    with pytest.raises(errors.MissingField):
        parse_brc20(b'{"op":"mint","tick":"ordi","amt":"1"}')
    with pytest.raises(errors.WrongProtocol):
        parse_brc20(b'{"p":"orc-20","op":"mint","tick":"ordi","amt":"1"}')
    with pytest.raises(errors.UnknownOp):
        parse_brc20(b'{"p":"brc-20","op":"burn","tick":"ordi"}')
    with pytest.raises(errors.BadAmount):
        parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"0"}')
    with pytest.raises(errors.BadTick):
        parse_brc20(b'{"p":"brc-20","op":"mint","tick":"toolong","amt":"1"}')
    with pytest.raises(errors.LimExceedsMax):
        parse_brc20(b'{"p":"brc-20","op":"deploy","tick":"ordi","max":"10","lim":"11"}')
    with pytest.raises(errors.NotJson):  # nested past the recursion limit
        parse_brc20(b"[" * 100_000)
    with pytest.raises(errors.BadTick):  # a lone surrogate has no UTF-8 encoding
        parse_brc20(b'{"p":"brc-20","op":"mint","tick":"\\ud800abc","amt":"1"}')
    with pytest.raises(errors.BadAmount):  # more digits than int() converts
        parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"' + b"1" * 5000 + b'"}')


def test_tick_normalization():
    op = parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ORDI","amt":"1"}')
    assert op.tick == "ordi"


def _deployed():
    ledger = Brc20Ledger()
    ledger.apply_deploy(parse_brc20(LISTING_DEPLOY), "deployi0", 1)
    return ledger


def test_deploy_first_wins():
    ledger = _deployed()
    assert ledger.ticks["ordi"].minted == 0
    with pytest.raises(errors.TickExists):
        ledger.apply_deploy(parse_brc20(LISTING_DEPLOY), "otheri0", 2)


def test_mint_listing():
    ledger = _deployed()
    mint = parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"1000"}')
    ledger.apply_mint(mint, "alice")
    assert ledger.query_balance("ordi", "alice") == {"available": "1000", "pending": "0"}
    assert ledger.ticks["ordi"].minted == parse_amount("1000")


def test_mint_exceeds_lim():
    ledger = _deployed()
    mint = parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"1001"}')
    with pytest.raises(errors.ExceedsLim):
        ledger.apply_mint(mint, "alice")


def test_mint_exceeds_max_at_2101():
    ledger = _deployed()
    mint = parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"1000"}')
    for _ in range(2100):
        ledger.apply_mint(mint, "alice")
    assert ledger.ticks["ordi"].minted == ledger.ticks["ordi"].max
    with pytest.raises(errors.ExceedsMax):
        ledger.apply_mint(mint, "alice")


def test_mint_unknown_tick():
    ledger = Brc20Ledger()
    mint = parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"1"}')
    with pytest.raises(errors.UnknownTick):
        ledger.apply_mint(mint, "alice")


# Each corruption breaks one rule at (tick, addr) and returns the ledger.

def _overmint(ledger, tick, addr):
    state = ledger.ticks[tick]
    excess = state.max + 1 - state.minted
    state.minted += excess
    ledger.balances[tick][addr] = ledger.raw_balance(tick, addr) + excess
    return ledger


def _earmark(ledger, ins_id, tick, amt, owner):
    """Record an unused pending, skipping the availability check."""
    pending = ledger.pendings[ins_id] = brc20.PendingTransfer(ins_id, tick, amt, owner)
    ledger.unused.setdefault((tick, owner), {})[ins_id] = pending


def _overearmark(ledger, tick, addr):
    # each pending fits addr's balance on its own; together they exceed it
    for ins_id in ("t1", "t2"):
        _earmark(ledger, ins_id, tick, ledger.raw_balance(tick, addr), addr)
    return ledger


def _overpend(ledger, tick, addr):
    _earmark(ledger, "t1", tick, ledger.raw_balance(tick, addr) + 1, addr)
    return ledger


def _unbalance(ledger, tick, addr):
    ledger.balances[tick][addr] = ledger.raw_balance(tick, addr) + 1
    return ledger


def _overminted():
    return _overmint(_funded(), "ordi", "alice")


def _overearmarked():
    return _overearmark(_funded(), "ordi", "alice")


def _overpending():
    return _overpend(_funded(), "ordi", "alice")


def _unbalanced():
    return _unbalance(_funded(), "ordi", "bob")


@pytest.mark.parametrize("corrupt, message", [
    (_overminted, "minted > max"),
    (_overearmarked, "negative available balance"),
    (_overpending, "exceeds its owner's balance"),
    (_unbalanced, "balances sum to"),
])
def test_check_invariants_raises_typed_violation(corrupt, message):
    _funded().check_invariants()
    with pytest.raises(errors.InvariantViolation, match=message):
        corrupt().check_invariants()


def test_check_invariants_holds_under_optimize(tmp_path):
    """The check raises, not asserts, so `python -O` cannot strip it."""
    code = (
        "import sys, test_brc20\n"
        "from ordlite import errors\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "try:\n"
        "    test_brc20._overminted().check_invariants()\n"
        "except errors.InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = Path(brc20.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_per_block_check_holds_under_optimize(tmp_path):
    """`check_touched` raises, not asserts, so `python -O` cannot strip it."""
    code = (
        "import sys, test_brc20\n"
        "from ordlite import errors\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "try:\n"
        "    test_brc20._overminted().check_touched()\n"
        "except errors.InvariantViolation:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    src = Path(brc20.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _drop_from_index(ledger):
    del ledger.unused[("ordi", "alice")]["t1"]


def _used_left_in_index(ledger):
    ledger.pendings["t1"].used = True


def _missing_from_index(ledger):
    ledger.pendings["t2"] = brc20.PendingTransfer("t2", "ordi", parse_amount("1"), "alice")


@pytest.mark.parametrize("drift", [_drop_from_index, _used_left_in_index,
                                   _missing_from_index])
def test_check_invariants_rejects_a_drifted_pending_index(drift):
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")
    ledger.check_invariants()
    drift(ledger)
    with pytest.raises(errors.InvariantViolation, match="differ from their index"):
        ledger.check_invariants()


def _funded(amount="1000"):
    ledger = _deployed()
    mint = parse_brc20(
        json.dumps({"p": "brc-20", "op": "mint", "tick": "ordi",
                    "amt": amount}).encode())
    ledger.apply_mint(mint, "alice")
    return ledger


def _transfer_op(amt):
    return parse_brc20(
        json.dumps({"p": "brc-20", "op": "transfer", "tick": "ordi",
                    "amt": amt}).encode())


def test_transfer_lifecycle():
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")
    assert ledger.query_balance("ordi", "alice") == {"available": "900", "pending": "100"}
    assert ledger.settle("t1", "bob")
    assert ledger.query_balance("ordi", "alice") == {"available": "900", "pending": "0"}
    assert ledger.query_balance("ordi", "bob") == {"available": "100", "pending": "0"}


def test_transfer_insufficient():
    ledger = _funded("50")
    with pytest.raises(errors.InsufficientBalance):
        ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")


def test_pending_earmarking():
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("600"), "t1", "alice")
    with pytest.raises(errors.InsufficientBalance):
        ledger.inscribe_transfer(_transfer_op("600"), "t2", "alice")


def test_settle_of_a_used_or_unknown_id_changes_nothing():
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")
    assert ledger.settle("t1", "bob")
    ledger.check_touched()
    settled = ledger.to_json()
    assert not ledger.settle("t1", "carol")
    assert not ledger.settle("missing", "carol")
    assert ledger.to_json() == settled and ledger.touched == {}


def test_per_block_check_catches_a_settlement_past_the_owners_balance():
    """`settle` does not re-check the owner's funds: the earmark invariant
    covers them, and the per-block check finds a ledger that broke it."""
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")
    ledger.check_touched()
    # supply still balances; only alice's earmark of 100 is broken
    ledger.balances["ordi"].update(alice=parse_amount("50"), bob=parse_amount("950"))
    assert ledger.settle("t1", "bob")
    with pytest.raises(errors.InvariantViolation, match="non-positive balance"):
        ledger.check_touched()


def test_transfer_to_self_is_noop_on_net_balance():
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")
    assert ledger.settle("t1", "alice")
    assert ledger.query_balance("ordi", "alice") == {"available": "1000", "pending": "0"}


def test_query_unknowns():
    ledger = _funded()
    assert ledger.query_balance("ordi", "nobody") == {"available": "0", "pending": "0"}
    with pytest.raises(errors.UnknownTick):
        ledger.query_tick("none")


def test_snapshot_round_trip_and_determinism():
    ledger = _funded()
    ledger.inscribe_transfer(_transfer_op("100"), "t1", "alice")
    one = json.dumps(ledger.to_json(), sort_keys=True)
    again = json.dumps(Brc20Ledger.from_json(json.loads(one)).to_json(),
                       sort_keys=True)
    assert one == again


# --- independent naive interpreter (oracle) ---

class NaiveBrc20:
    """Single-event interpreter written independently of Brc20Ledger.

    Uses Decimal arithmetic and plain dicts; emits the same canonical
    snapshot schema.
    """

    def __init__(self):
        self.state = {}  # tick -> {"max","lim","minted","bal":{},"meta":(id,h)}
        self.pend = {}   # id -> [tick, amt, owner, used]

    def _fmt(self, d: Decimal) -> str:
        s = format(d.normalize(), "f")
        return s

    def apply(self, ev):
        kind = ev[0]
        if kind == "deploy":
            _, tick, mx, lim, ins_id, height = ev
            if tick in self.state:
                return False
            if Decimal(lim) > Decimal(mx):
                return False
            self.state[tick] = {"max": Decimal(mx), "lim": Decimal(lim),
                                "minted": Decimal(0), "bal": {},
                                "meta": (ins_id, height)}
            return True
        if kind == "mint":
            _, tick, amt, minter = ev
            s = self.state.get(tick)
            a = Decimal(amt)
            if s is None or a > s["lim"] or s["minted"] + a > s["max"]:
                return False
            s["minted"] += a
            s["bal"][minter] = s["bal"].get(minter, Decimal(0)) + a
            return True
        if kind == "inscribe":
            _, tick, amt, owner, ins_id = ev
            s = self.state.get(tick)
            if s is None:
                return False
            a = Decimal(amt)
            held = s["bal"].get(owner, Decimal(0))
            earmarked = sum((p[1] for p in self.pend.values()
                             if p[0] == tick and p[2] == owner and not p[3]),
                            Decimal(0))
            if held - earmarked < a:
                return False
            self.pend[ins_id] = [tick, a, owner, False]
            return True
        if kind == "settle":
            _, ins_id, receiver = ev
            p = self.pend.get(ins_id)
            if p is None or p[3]:
                return False
            tick, a, sender = p[0], p[1], p[2]
            p[3] = True
            bal = self.state[tick]["bal"]
            bal[sender] -= a
            if bal[sender] == 0:
                del bal[sender]
            bal[receiver] = bal.get(receiver, Decimal(0)) + a
            return True
        raise ValueError(kind)

    def snapshot(self):
        return {
            "ticks": {t: {"max": self._fmt(s["max"]), "lim": self._fmt(s["lim"]),
                          "minted": self._fmt(s["minted"]),
                          "deploy_id": s["meta"][0], "height": s["meta"][1]}
                      for t, s in self.state.items()},
            "balances": {t: {a: self._fmt(v) for a, v in s["bal"].items() if v}
                         for t, s in self.state.items()},
            "pendings": sorted(({"id": i, "tick": p[0], "amt": self._fmt(p[1]),
                                 "owner": p[2], "used": p[3]}
                                for i, p in self.pend.items()),
                               key=lambda p: p["id"]),
        }


def random_events(rng, n_events=80, n_ticks=3, n_addrs=5):
    ticks = [f"tk{i:02d}" for i in range(n_ticks)]
    addrs = [f"addr{i}" for i in range(n_addrs)]
    events = []
    ins_counter = 0
    open_pendings = []
    for _ in range(n_events):
        roll = rng.random()
        if roll < 0.15:
            events.append(("deploy", rng.choice(ticks),
                           str(rng.choice([100, 1000, 5000])),
                           str(rng.choice([10, 100, 2000])),
                           f"deploy{ins_counter}", rng.randint(0, 9)))
            ins_counter += 1
        elif roll < 0.5:
            events.append(("mint", rng.choice(ticks),
                           str(rng.choice([1, 10, 100, 150])),
                           rng.choice(addrs)))
        elif roll < 0.8 or not open_pendings:
            ins_id = f"xfer{ins_counter}"
            ins_counter += 1
            events.append(("inscribe", rng.choice(ticks),
                           str(rng.choice([1, 5, 50, 120])),
                           rng.choice(addrs), ins_id))
            open_pendings.append(ins_id)
        else:
            ins_id = open_pendings.pop(rng.randrange(len(open_pendings)))
            events.append(("settle", ins_id, rng.choice(addrs)))
    return events


def apply_to_ledger(ledger, ev):
    try:
        if ev[0] == "deploy":
            op = parse_brc20(json.dumps(
                {"p": "brc-20", "op": "deploy", "tick": ev[1],
                 "max": ev[2], "lim": ev[3]}).encode())
            ledger.apply_deploy(op, ev[4], ev[5])
        elif ev[0] == "mint":
            op = parse_brc20(json.dumps(
                {"p": "brc-20", "op": "mint", "tick": ev[1],
                 "amt": ev[2]}).encode())
            ledger.apply_mint(op, ev[3])
        elif ev[0] == "inscribe":
            op = parse_brc20(json.dumps(
                {"p": "brc-20", "op": "transfer", "tick": ev[1],
                 "amt": ev[2]}).encode())
            ledger.inscribe_transfer(op, ev[4], ev[3])
        elif ev[0] == "settle":
            return ledger.settle(ev[1], ev[2])
    except errors.Brc20Error:
        return False
    return True


def run_oracle_comparison(seed, n_events=80):
    rng = random.Random(seed)
    events = random_events(rng, n_events)
    ledger = Brc20Ledger()
    naive = NaiveBrc20()
    for ev in events:
        ok_ledger = apply_to_ledger(ledger, ev)
        ok_naive = naive.apply(ev)
        assert ok_ledger == ok_naive, (ev, ok_ledger, ok_naive)
        ledger.check_invariants()
    a = json.dumps(ledger.to_json(), sort_keys=True, separators=(",", ":"))
    b = json.dumps(naive.snapshot(), sort_keys=True, separators=(",", ":"))
    assert a == b


@pytest.mark.parametrize("seed", range(25))
def test_oracle_equivalence_sample(seed):
    run_oracle_comparison(seed)


def test_prefix_property():
    rng = random.Random(99)
    events = random_events(rng, 120)
    full = Brc20Ledger()
    for k, ev in enumerate(events, start=1):
        apply_to_ledger(full, ev)
        prefix = Brc20Ledger()
        if k % 30 == 0:
            for e in events[:k]:
                apply_to_ledger(prefix, e)
            assert json.dumps(prefix.to_json(), sort_keys=True) == \
                json.dumps(full.to_json(), sort_keys=True)


TICK_FAULTS = [(_overmint, "minted > max"), (_unbalance, "balances sum to")]
HOLDER_FAULTS = [(_overearmark, "negative available balance"),
                 (_overpend, "exceeds its owner's balance")]


def _holders(ledger) -> dict:
    """(tick, addr) -> its raw balance and unused pending ids, for every key
    that has either."""
    keys = {(t, a) for t, bal in ledger.balances.items() for a in bal}
    return {k: (ledger.raw_balance(*k), sorted(ledger.unused.get(k, ())))
            for k in keys | ledger.unused.keys()}


@pytest.mark.parametrize("seed", range(10))
def test_per_block_check_agrees_with_full_check(seed):
    """Each event touches every tick and holder it changes. After it both
    checks pass, and each corruption of a tick or holder it touched makes both
    raise. A tick fault goes to a holder the event did not touch: the supply
    check covers all of a touched tick."""
    ledger = Brc20Ledger()
    injected = set()
    for ev in random_events(random.Random(seed), 80):
        ticks, holders = copy.deepcopy(ledger.ticks), _holders(ledger)
        apply_to_ledger(ledger, ev)
        after = _holders(ledger)
        touched = {(t, a) for t, addrs in ledger.touched.items() for a in addrs}
        assert {k for k in holders.keys() | after.keys()
                if holders.get(k) != after.get(k)} <= touched
        assert {t for t in ledger.ticks if ticks.get(t) != ledger.ticks[t]} \
            <= ledger.touched.keys()
        for tick, addrs in ledger.touched.items():
            faults = [(corrupt, message, "untouched") for corrupt, message in TICK_FAULTS]
            faults += [(corrupt, message, addr) for addr in sorted(addrs)
                       for corrupt, message in HOLDER_FAULTS
                       if corrupt is _overpend or ledger.raw_balance(tick, addr)]
            for corrupt, message, addr in faults:
                for check in (Brc20Ledger.check_touched, Brc20Ledger.check_invariants):
                    with pytest.raises(errors.InvariantViolation, match=message):
                        check(corrupt(copy.deepcopy(ledger), tick, addr))
                injected.add(corrupt)
        ledger.check_touched()
        assert ledger.touched == {}
        ledger.check_invariants()
    assert injected == {corrupt for corrupt, _ in TICK_FAULTS + HOLDER_FAULTS}


def test_per_block_check_reads_only_the_touched_holder():
    """With hundreds of used and unused pendings of other holders, one mint's
    check and the minter's pending total read only the minter's records."""
    ledger = _deployed()
    mint = parse_brc20(b'{"p":"brc-20","op":"mint","tick":"ordi","amt":"1000"}')
    for h in range(40):
        holder = f"holder{h}"
        ledger.apply_mint(mint, holder)
        for t in range(10):
            ledger.inscribe_transfer(_transfer_op("10"), f"{holder}t{t}", holder)
        for t in range(5):
            ledger.settle(f"{holder}t{t}", "sink")
    ledger.apply_mint(mint, "alice")
    ledger.inscribe_transfer(_transfer_op("10"), "alicet0", "alice")
    ledger.check_touched()
    read_owners = set()

    class CountedPending(brc20.PendingTransfer):
        def __getattribute__(self, name):
            read_owners.add(object.__getattribute__(self, "owner"))
            return object.__getattribute__(self, name)

    for pending in ledger.pendings.values():
        pending.__class__ = CountedPending
    assert len(ledger.pendings) == 401 and len(ledger.unused) == 41
    ledger.apply_mint(mint, "alice")
    ledger.check_touched()
    assert ledger.pending_outgoing("ordi", "alice") == parse_amount("10")
    assert read_owners == {"alice"}


@pytest.mark.parametrize("workload", ["cli_mix", "transfer_web"])
def test_ledger_round_trip_rebuilds_the_pending_index(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    session = importlib.import_module("session")
    for k in range(session.CHAINS[workload]):
        inputs = session.setup_chain(workload, 101, k, tmp_path / f"chain{k}")
        state = IndexState()
        with open(inputs.blocks_path) as fp:
            state.index_blocks(chain.read_blocks_jsonl(fp))
        ledger = state.ledger
        rebuilt = Brc20Ledger.from_json(ledger.to_json())
        assert ledger.unused and rebuilt.unused == ledger.unused
        rebuilt.check_invariants()
        for tick, bal in ledger.balances.items():
            for addr in bal.keys() | {owner for _, owner in ledger.unused}:
                assert rebuilt.query_balance(tick, addr) == ledger.query_balance(tick, addr)
