"""Acceptance criteria, one test per criterion, each printing a PASS line."""

import json
import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from ordlite import chain, envelope, errors, metrics, ordinals, scenario, trade
from ordlite.cli import cli
from ordlite.indexer import IndexState

from test_brc20 import run_oracle_comparison
from test_ordinals import _merge


def ok(num, text):
    print(f"[ACCEPTANCE] criterion {num}: PASS — {text}")


# 1. Notation fidelity ------------------------------------------------------

def test_criterion_1_notation_fidelity(tmp_path):
    start = time.time()
    result = CliRunner().invoke(
        cli, ["--data-dir", str(tmp_path), "sat", "2099994106992659"],
        catch_exceptions=False)
    elapsed = time.time() - start
    out = json.loads(result.output)
    assert out["decimal"] == "3891094.16797"
    assert out["degree"] == "3°111094′214″16797‴"
    assert out["percentile"] == "99.99971949060254%"
    assert out["n"] == 2099994106992659
    assert elapsed < 1.0
    ok(1, f"all notations string-equal in {elapsed:.3f}s")


# 2. FIFO listings ----------------------------------------------------------

def test_criterion_2_fifo_listings():
    def expand(ranges):
        return [s for a, b in ranges for s in range(a, b)]

    # [a b c] [d e f] --> [a b c d] [e f]
    outs, fee = ordinals.slice_ranges([(0, 3), (3, 6)], [4, 2])
    assert [expand(r) for r in outs] == [[0, 1, 2, 3], [4, 5]]
    assert fee == []
    # [a b] [c d] --> [a b c] [d]
    outs, fee = ordinals.slice_ranges([(0, 2), (2, 4)], [3])
    assert [expand(r) for r in outs] == [[0, 1, 2]]
    assert expand(fee) == [3]
    # Coinbase tx: [SUBSIDY] [d] --> [SUBSIDY d]
    state = IndexState()
    cb0 = chain.Transaction("0" * 64, (), (chain.TxOut(4, "m"),), is_coinbase=True)
    state.apply_block(chain.Block(0, (cb0,)))
    pay = chain.Transaction(
        "1" * 64, (chain.TxIn(chain.OutPoint("0" * 64, 0)),),
        (chain.TxOut(3, "b"),))
    subsidy1 = chain.block_subsidy(1)
    cb1 = chain.Transaction("2" * 64, (), (chain.TxOut(subsidy1 + 1, "m"),),
                            is_coinbase=True)
    # genesis coinbase claimed 4 sats (sats 0..3); tx spends them into 3 + fee d
    state.apply_block(chain.Block(1, (cb1, pay)))
    cb_ranges = state.utxos.require(chain.OutPoint("2" * 64, 0)).sat_ranges
    start1 = ordinals.start_sat_of_block(1)
    assert cb_ranges == [(start1, start1 + subsidy1), (3, 4)]  # [SUBSIDY d]
    ok(2, "all three FIFO listing cases exact, coinbase fee tail ordered")


# 3. Envelope codec ---------------------------------------------------------

def test_criterion_3_envelope_codec():
    env = envelope.parse_envelope(
        envelope.build_envelope("text/plain;charset=utf-8", b"Hello, world!"))
    assert env == envelope.Envelope("text/plain;charset=utf-8", b"Hello, world!")
    rng = random.Random(3)
    for _ in range(1000):
        ct = "".join(chr(rng.randint(0x20, 0x7E)) for _ in range(rng.randint(0, 40)))
        body = bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 1500)))
        assert envelope.parse_envelope(envelope.build_envelope(ct, body)) == \
            envelope.Envelope(ct, body)
    ok(3, "listing stream and 1000 random round-trips exact")


# 4. BRC-20 listing semantics -----------------------------------------------

LISTINGS_SCRIPT = [
    {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
     "deployer": "sender"},
    {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "sender"},
    {"action": "transfer_inscribe", "tick": "ordi", "amt": "100",
     "owner": "sender", "id": "t1"},
    {"action": "transfer_send", "inscription": "t1", "to": "receiver"},
]


def test_criterion_4_brc20_listing_semantics():
    blocks = scenario.compile_scenario(
        LISTINGS_SCRIPT
        + [{"action": "mint", "tick": "ordi", "amt": "1001", "minter": "sender"}],
        seed=4)
    state = IndexState()
    state.index_blocks(blocks)
    assert state.ledger.query_balance("ordi", "sender") == \
        {"available": "900", "pending": "0"}
    assert state.ledger.query_balance("ordi", "receiver") == \
        {"available": "100", "pending": "0"}
    assert state.ledger.query_tick("ordi")["minted"] == "1000"
    assert any("ExceedsLim" in d for d in state.ledger.diagnostics)

    # 2100 mints of 1000 exactly fill max; the 2101st must be rejected
    bulk = [{"action": "deploy", "tick": "ordi", "max": "2100000",
             "lim": "1000", "deployer": "m"}]
    bulk += [{"action": "mint", "tick": "ordi", "amt": "1000", "minter": "m"}
             for _ in range(2101)]
    state2 = IndexState()
    state2.index_blocks(scenario.compile_scenario(bulk, seed=5))
    assert state2.ledger.query_tick("ordi")["minted"] == "2100000"
    assert state2.ledger.query_balance("ordi", "m")["available"] == "2100000"
    rejections = [d for d in state2.ledger.diagnostics if "ExceedsMax" in d]
    assert len(rejections) == 1
    ok(4, "listing fixture balances exact; lim and max overflows rejected")


# 5. Oracle equivalence -----------------------------------------------------

def test_criterion_5_oracle_equivalence():
    start = time.time()
    for seed in range(500):
        run_oracle_comparison(seed, n_events=200)
    elapsed = time.time() - start
    assert elapsed < 60
    ok(5, f"500 random sequences byte-identical to naive oracle in {elapsed:.1f}s")


# 6. Conservation suites ----------------------------------------------------

def replay_with_sat_conservation(blocks):
    state = IndexState()
    for block in blocks:
        # pre-state: ranges entering the block from the UTXO set
        incoming = []
        for tx in block.txs:
            for tin in tx.inputs:
                entry = state.utxos.get(tin.prevout)
                if entry is not None:
                    incoming.extend(entry.sat_ranges)
        assigned, burned = ordinals.assign_ordinals(block, state.utxos)
        spent_within = {tin.prevout for tx in block.txs for tin in tx.inputs}
        outgoing = [r for op, entry in assigned.items()
                    if op not in spent_within for r in entry.sat_ranges]
        subsidy = chain.block_subsidy(block.height)
        start = ordinals.start_sat_of_block(block.height)
        minted = [(start, start + subsidy)] if subsidy else []
        assert _merge(outgoing + list(burned)) == _merge(incoming + minted), \
            f"sat conservation violated at height {block.height}"
        state.apply_block(block)
        state.ledger.check_invariants()  # per-tick supply conservation
    return state


def test_criterion_6_conservation_suites():
    fixtures = [
        scenario.compile_scenario(LISTINGS_SCRIPT, seed=6),
        scenario.compile_scenario(
            LISTINGS_SCRIPT[:3]
            + [{"action": "trade_offer", "inscription": "t1", "seller": "sender",
                "ask": 20_000_000},
               {"action": "trade_accept", "inscription": "t1", "buyer": "buyer"}],
            seed=7),
    ]
    for blocks in fixtures:
        replay_with_sat_conservation(blocks)

    # BTC zero-sum per settled trade
    comp = scenario.ScenarioCompiler(seed=8)
    comp.compile(LISTINGS_SCRIPT[:3]
                 + [{"action": "trade_offer", "inscription": "t1",
                     "seller": "sender", "ask": 20_000_000},
                    {"action": "trade_accept", "inscription": "t1",
                     "buyer": "buyer"}])
    assert sum(comp.state.btc_deltas.values()) == 0
    ok(6, "sat, per-tick and BTC conservation hold after every event")


# 7. Trade cycle ------------------------------------------------------------

def test_criterion_7_trade_cycle():
    comp = scenario.ScenarioCompiler(seed=9)
    comp.compile([
        {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
         "deployer": "seller"},
        {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "seller"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "1000",
         "owner": "seller", "id": "t1"},
        {"action": "mine", "miner": "buyer"},
    ])
    state = comp.state
    ins_id = comp.handles["t1"]
    fee = trade.DEFAULT_FEE
    offer = trade.create_offer(state, "seller", ins_id, 20_000_000)
    funding = trade.select_funding(state, "buyer", 20_000_000 + fee)
    trade.accept_offer(state, offer, "buyer", funding, fee)
    block = trade.broadcast_and_settle(state, offer, "buyer")

    assert state.btc_deltas["seller"] == 20_000_000
    assert state.btc_deltas["buyer"] == -(20_000_000 + fee)
    assert state.ledger.query_balance("ordi", "seller")["available"] == "0"
    assert state.ledger.query_balance("ordi", "buyer")["available"] == "1000"

    # exactly two on-chain txs touch the inscription: reveal and settlement
    sat = state.inscriptions[ins_id].genesis_sat
    reveal_txid = ins_id.split("i")[0]
    touching = []
    for blk in list(comp.blocks) + [block]:
        for tx in blk.txs:
            if tx.txid == reveal_txid or tx.txid == block.txs[1].txid:
                touching.append(tx.txid)
    assert len(touching) == 2
    assert state.location[ins_id].outpoint.txid == block.txs[1].txid

    # pre-spent satpoint: broadcast fails, state hash unchanged
    comp2 = scenario.ScenarioCompiler(seed=10)
    comp2.compile([
        {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
         "deployer": "seller"},
        {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "seller"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "1000",
         "owner": "seller", "id": "t1"},
        {"action": "mine", "miner": "buyer"},
    ])
    st2 = comp2.state
    ins2 = comp2.handles["t1"]
    offer2 = trade.create_offer(st2, "seller", ins2, 20_000_000)
    funding2 = trade.select_funding(st2, "buyer", 20_000_000 + fee)
    trade.accept_offer(st2, offer2, "buyer", funding2, fee)
    comp2._compile_one({"action": "transfer_send", "inscription": "t1",
                        "to": "elsewhere"})  # races the satpoint
    before = st2.snapshot_bytes()
    with pytest.raises(errors.DoubleSpend):
        trade.broadcast_and_settle(st2, offer2, "buyer")
    assert offer2.status == "accepted"
    assert not trade.settleable(st2, offer2)
    assert st2.snapshot_bytes() == before
    ok(7, "trade settles symmetrically; raced satpoint leaves state unchanged")


# 8. Metrics properties -----------------------------------------------------

def test_criterion_8_metrics_properties():
    assert metrics.sharpe_ratio(0.01, 0, 0.02) == 0.5

    avg, rf, s = Fraction("0.013"), Fraction("0.004"), Fraction("0.07")
    for c in (Fraction("0.001"), Fraction("-0.5"), Fraction(3)):
        assert metrics.sharpe_ratio(avg + c, rf + c, s) == \
            metrics.sharpe_ratio(avg, rf, s)

    rng = random.Random(8)
    for trial in range(100):
        n_series = rng.randint(2, 5)
        n_points = rng.randint(5, 30)
        dates = tuple(f"d{i:03d}" for i in range(n_points))
        series_set = []
        for k in range(n_series):
            prices = tuple(rng.uniform(0.5, 500) for _ in range(n_points))
            series_set.append(metrics.PriceSeries(f"s{k}", dates, prices))
        # scale invariance
        k = rng.uniform(1e-3, 1e4)
        for ps in series_set:
            a = metrics.daily_returns(ps)
            b = metrics.daily_returns(metrics.PriceSeries(
                ps.symbol, ps.dates, tuple(p * k for p in ps.prices)))
            assert abs(metrics.average_return(a) - metrics.average_return(b)) \
                <= 1e-12 * max(1e-9, abs(metrics.average_return(a)))
            va, vb = metrics.volatility(a), metrics.volatility(b)
            assert abs(va - vb) <= 1e-12 * max(1e-9, va)
        # matrix symmetry and unit diagonal
        returns = [metrics.daily_returns(ps) for ps in series_set]
        m = metrics.correlation_matrix(returns)
        for a in returns:
            assert m[(a.symbol, a.symbol)] == 1.0
            for b in returns:
                va, vb = m[(a.symbol, b.symbol)], m[(b.symbol, a.symbol)]
                assert va == vb
                if va is not None:
                    assert -1.0 <= va <= 1.0
    ok(8, "scale invariance, Sharpe shift covariance, matrix properties hold")


# 9. Determinism ------------------------------------------------------------

def test_criterion_9_determinism():
    blocks = scenario.compile_scenario(LISTINGS_SCRIPT, seed=9)
    one = IndexState()
    one.index_blocks(blocks)
    two = IndexState()
    two.index_blocks(blocks)
    assert one.snapshot_hash() == two.snapshot_hash()

    split = len(blocks) // 2
    partial = IndexState()
    partial.index_blocks(blocks[:split])
    resumed = IndexState.from_json(json.loads(partial.snapshot_bytes()))
    resumed.index_blocks(blocks[split:])
    assert resumed.snapshot_hash() == one.snapshot_hash()
    ok(9, "repeat and prefix-then-rest snapshot hashes identical")
