import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coinbase, spend, txid
from ordlite import chain, envelope, errors, ordinals
from ordlite.chain import Block, OutPoint, TxOut, UtxoSet
from ordlite.indexer import IndexState
from ordlite.ordinals import SatPoint


def test_supply_constants():
    assert ordinals.TOTAL_SUPPLY == 2_099_999_997_690_000
    assert ordinals.LAST_SAT == 2_099_999_997_689_999


def test_start_sat_of_block():
    assert ordinals.start_sat_of_block(0) == 0
    assert ordinals.start_sat_of_block(1) == 5_000_000_000
    assert ordinals.start_sat_of_block(210_000) == 210_000 * 5_000_000_000
    assert ordinals.start_sat_of_block(ordinals.FINAL_SUPPLY_HEIGHT) == ordinals.TOTAL_SUPPLY
    with pytest.raises(errors.HeightBeyondSupply):
        ordinals.start_sat_of_block(ordinals.FINAL_SUPPLY_HEIGHT + 1)


def test_decimal_known_value():
    n = 2099994106992659
    assert ordinals.sat_to_decimal(n) == (3891094, 16797)
    assert ordinals.render_decimal(n) == "3891094.16797"
    assert ordinals.sat_from_decimal(3891094, 16797) == n
    assert ordinals.sat_from_decimal(0, 0) == 0


def test_decimal_offset_bounds():
    with pytest.raises(errors.OffsetOutOfBlock):
        ordinals.sat_from_decimal(0, 5_000_000_000)


def test_degree_known_value():
    assert ordinals.render_degree(0) == "0°0′0″0‴"
    assert ordinals.render_degree(2099994106992659) == "3°111094′214″16797‴"
    start = ordinals.start_sat_of_block(1_260_000)
    assert ordinals.render_degree(start) == "1°0′0″0‴"


def test_percentile_examples():
    assert ordinals.render_percentile(0) == "0%"
    assert ordinals.render_percentile(ordinals.LAST_SAT) == "100%"
    assert ordinals.render_percentile(2099994106992659) == "99.99971949060254%"


def test_name_boundaries_by_enumeration():
    # oracle: walk bijective names in order from the final sat backwards
    def names():
        import itertools
        for length in itertools.count(1):
            for combo in itertools.product(ordinals.ALPHABET, repeat=length):
                yield "".join(combo)

    gen = names()
    for i in range(30):
        expected = next(gen)
        assert ordinals.render_name(ordinals.LAST_SAT - i) == expected
    assert ordinals.render_name(ordinals.LAST_SAT) == "a"
    assert ordinals.render_name(ordinals.LAST_SAT - 25) == "z"
    assert ordinals.render_name(ordinals.LAST_SAT - 26) == "aa"


def test_name_errors():
    with pytest.raises(errors.InvalidNameChar):
        ordinals.parse_name("Satoshi1")
    with pytest.raises(errors.InvalidNameChar):
        ordinals.parse_name("")
    # longest valid name is for sat 0; one step beyond is out of range
    over = ordinals.render_name(0)
    m = over[:-1] + chr(ord(over[-1]) + 1)
    with pytest.raises(errors.NameOutOfRange):
        ordinals.parse_name(m)


@pytest.mark.parametrize("query", ["²", "١٠٠٠", "1.١", "١°0′0″0‴", "١%", "²%",
                                   "abc%", "1/3%", "1e3%", "0.0\n", "0°0′0″0‴\n"])
def test_sat_query_rejects_non_ascii_digits_and_bad_percentiles(query):
    # parse_sat_query strips its input; the notation parsers take it as given
    if query == query.strip():
        with pytest.raises(errors.BadSatQuery):
            ordinals.parse_sat_query(query)
    if query.endswith("%"):
        with pytest.raises(errors.BadSatQuery):
            ordinals.parse_percentile(query)
    elif "°" in query:
        with pytest.raises(errors.OrdinalError):
            ordinals.parse_degree(query)
    elif "." in query:
        with pytest.raises(errors.OrdinalError):
            ordinals.parse_decimal(query)


def test_rarity_examples():
    assert ordinals.rarity(0) == "mythic"
    assert ordinals.rarity(ordinals.start_sat_of_block(2016)) == "rare"
    assert ordinals.rarity(ordinals.start_sat_of_block(210_000)) == "epic"
    assert ordinals.rarity(ordinals.start_sat_of_block(1_260_000)) == "legendary"
    assert ordinals.rarity(ordinals.start_sat_of_block(5)) == "uncommon"
    assert ordinals.rarity(1) == "common"


def test_rarity_census_4032_blocks():
    counts = {r: 0 for r in ordinals.RARITIES}
    for height in range(4032):
        counts[ordinals.rarity(ordinals.start_sat_of_block(height))] += 1
    assert counts["mythic"] == 1
    assert counts["legendary"] == 0
    assert counts["epic"] == 0  # height 0 is shadowed by mythic
    assert counts["rare"] == 1  # height 2016
    assert counts["uncommon"] == 4032 - 2
    assert counts["common"] == 0
    # non-first sats are common
    for height in (0, 1, 2016, 4031):
        assert ordinals.rarity(ordinals.start_sat_of_block(height) + 1) == "common"


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=ordinals.LAST_SAT))
def test_all_notations_round_trip(n):
    assert ordinals.parse_decimal(ordinals.render_decimal(n)) == n
    assert ordinals.parse_degree(ordinals.render_degree(n)) == n
    assert ordinals.parse_percentile(ordinals.render_percentile(n)) == n
    assert ordinals.parse_name(ordinals.render_name(n)) == n
    assert ordinals.parse_sat_query(str(n)) == n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=ordinals.LAST_SAT))
def test_degree_consistency(n):
    height, offset = ordinals.sat_to_decimal(n)
    import re
    a, b, c, d = map(int, re.match(
        r"(\d+)°(\d+)′(\d+)″(\d+)‴", ordinals.render_degree(n)).groups())
    assert a == height // 1_260_000
    assert b == height % 210_000
    assert c == height % 2_016
    assert d == offset


# --- FIFO ---

def _ranges(*sats):
    """Single-sat ranges for individually labelled sats."""
    return [(s, s + 1) for s in sats]


def _expand(ranges):
    return [s for start, end in ranges for s in range(start, end)]


def test_fifo_listing_line_one():
    # [a b c] [d e f] --> [a b c d] [e f]
    a, b, c, d, e, f = range(6)
    outs, fee = ordinals.slice_ranges(_ranges(a, b, c) + _ranges(d, e, f), [4, 2])
    assert [_expand(r) for r in outs] == [[a, b, c, d], [e, f]]
    assert fee == []


def test_fifo_listing_line_two():
    # [a b] [c d] --> [a b c] [d]
    a, b, c, d = range(4)
    outs, fee = ordinals.slice_ranges(_ranges(a, b) + _ranges(c, d), [3])
    assert [_expand(r) for r in outs] == [[a, b, c]]
    assert _expand(fee) == [d]


def indexed(*blocks):
    """UtxoSet (with sat ranges) after indexing the given blocks."""
    state = IndexState()
    state.index_blocks(blocks)
    return state.utxos


def test_fifo_coinbase_fee_tail(genesis):
    # Coinbase tx: [SUBSIDY] [d] --> [SUBSIDY d]
    utxos = indexed(genesis)
    prev = OutPoint(genesis.txs[0].txid, 0)
    subsidy1 = chain.block_subsidy(1)
    pay = spend("pay", [prev], [TxOut(5_000_000_000 - 1, "bob")])  # 1 sat fee
    block = Block(1, (coinbase(1, subsidy1 + 1, label="cb1"), pay))
    assigned, burned = ordinals.assign_ordinals(block, utxos)
    cb_ranges = assigned[OutPoint(block.txs[0].txid, 0)].sat_ranges
    start1 = ordinals.start_sat_of_block(1)
    fee_sat = 5_000_000_000 - 1  # the last genesis sat pays the fee
    assert cb_ranges == [(start1, start1 + subsidy1), (fee_sat, fee_sat + 1)]
    assert burned == []


def test_locate_sat(genesis):
    utxos = indexed(genesis)
    point = ordinals.locate_sat(0, utxos)
    assert point.outpoint == OutPoint(genesis.txs[0].txid, 0)
    assert point.offset == 0
    with pytest.raises(errors.SatNotInUtxoSet):
        ordinals.locate_sat(ordinals.start_sat_of_block(1), utxos)


def test_fee_sat_located_in_coinbase(genesis):
    prev = OutPoint(genesis.txs[0].txid, 0)
    pay = spend("pay", [prev], [TxOut(5_000_000_000 - 1, "bob")])
    block = Block(1, (coinbase(1, chain.block_subsidy(1) + 1, label="cb1"), pay))
    utxos = indexed(genesis, block)
    fee_sat = 5_000_000_000 - 1
    point = ordinals.locate_sat(fee_sat, utxos)
    assert point.outpoint == OutPoint(block.txs[0].txid, 0)
    assert point.offset == chain.block_subsidy(1)  # after the subsidy range


def test_fifo_random_vs_per_sat_oracle():
    rng = random.Random(42)
    for _ in range(200):
        # up to 8 sats split into input ranges, sliced into random outputs
        total = rng.randint(1, 8)
        sats = list(range(100, 100 + total))
        ranges = []
        i = 0
        while i < total:
            j = rng.randint(i + 1, total)
            ranges.append((sats[i], sats[j - 1] + 1))
            i = j
        spendable = total
        outputs = []
        while spendable > 0 and rng.random() < 0.8:
            v = rng.randint(1, spendable)
            outputs.append(v)
            spendable -= v
        outs, fee = ordinals.slice_ranges(ranges, outputs)
        # oracle: track each sat individually
        flat = _expand(ranges)
        pos = 0
        for v, got in zip(outputs, outs):
            assert _expand(got) == flat[pos:pos + v]
            pos += v
        assert _expand(fee) == flat[pos:]


# A height whose subsidy is 1 sat, so that every sat of a block can be listed.
ONE_SAT_HEIGHT = 6_720_000


def seed_utxos(pick):
    """1-4 outputs of 0-3 ranges each, with gaps between the ranges, drawn with
    pick(lo, hi): the UtxoSet, and the oracle's state, outpoint -> its sats in order."""
    utxos, sats_of, next_sat = UtxoSet(), {}, 0
    for k in range(pick(1, 4)):
        ranges = []
        for _ in range(pick(0, 3)):
            next_sat += pick(0, 2)  # gap to the previous range
            size = pick(1, 4)
            ranges.append((next_sat, next_sat + size))
            next_sat += size
        op = OutPoint(txid(f"utxo{k}"), 0)
        utxos.entries[op] = chain.UtxoEntry(
            TxOut(ordinals.range_total(ranges), "alice"), ranges)
        sats_of[op] = _expand(ranges)
    return utxos, sats_of


def oracle_block(pick, height, sats_of, unspent, label, envelopes=False):
    """A valid block at height, whose subsidy is 1 sat, spending from the
    outpoints in unspent, drawn with pick(lo, hi): in-block chaining,
    zero-value outputs, fee tails from several txs and a coinbase that may
    underclaim. It moves each sat as a naive indexer would: sats_of gains every
    created output's sats and unspent is updated in place. With envelopes,
    each input carries an inscription envelope half the time. Returns the
    block and its burned sats."""
    txs, fee_sats = [], []
    for t in range(pick(0, 4)):
        if not unspent:
            break
        free = list(unspent)
        inputs = [free.pop(pick(0, len(free) - 1)) for _ in range(min(pick(1, 3), len(free)))]
        pool = [sat for op in inputs for sat in sats_of[op]]
        values = []
        for _ in range(pick(0, 3)):
            values.append(pick(0, len(pool) - sum(values)))
        witnesses = [tuple(envelope.build_envelope("text/plain", f"{label}.{t}.{i}".encode()))
                     if envelopes and pick(0, 1) else () for i in range(len(inputs))]
        tx = chain.Transaction(txid(f"{label}tx{t}"),
                               tuple(chain.TxIn(op, w) for op, w in zip(inputs, witnesses)),
                               tuple(TxOut(v, "bob") for v in values))
        for i, v in enumerate(values):
            sats_of[OutPoint(tx.txid, i)], pool = pool[:v], pool[v:]
        fee_sats += pool
        unspent[:] = [op for op in unspent if op not in inputs]
        unspent += [OutPoint(tx.txid, i) for i in range(len(values))]
        txs.append(tx)

    pool = [ordinals.start_sat_of_block(height)] + fee_sats
    values = []
    for _ in range(pick(1, 2)):
        values.append(pick(0, len(pool) - sum(values)))
    cb = chain.Transaction(txid(f"{label}cb"), (), tuple(TxOut(v, "miner") for v in values),
                           is_coinbase=True)
    for i, v in enumerate(values):
        sats_of[OutPoint(cb.txid, i)], pool = pool[:v], pool[v:]
    unspent += [OutPoint(cb.txid, i) for i in range(len(values))]
    return Block(height, (cb, *txs)), pool


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_assign_ordinals_matches_per_sat_oracle(data):
    """assign_ordinals against a naive indexer that moves each sat
    individually: in-block chaining, zero-value outputs, fee tails from
    several txs and a coinbase that may underclaim (burn)."""
    assert chain.block_subsidy(ONE_SAT_HEIGHT) == 1

    def pick(lo, hi):
        return data.draw(st.integers(lo, hi))

    utxos, sats_of = seed_utxos(pick)
    block, burned_sats = oracle_block(pick, ONE_SAT_HEIGHT, sats_of, list(sats_of), "")
    chain.validate_block(block, ONE_SAT_HEIGHT)

    assigned, burned = ordinals.assign_ordinals(block, utxos)
    txids = {tx.txid for tx in block.txs}
    created = {op for op in sats_of if op.txid in txids}
    assert set(assigned) == created
    for op in created:
        assert _expand(assigned[op].sat_ranges) == sats_of[op], op
    assert _expand(burned) == burned_sats
    assert all(start < end for ranges in (*(e.sat_ranges for e in assigned.values()), burned)
               for start, end in ranges)


def test_inscription_locations_match_per_sat_oracle():
    """Reveals and moves over chains of 1-sat-subsidy blocks. After every
    block, each inscription sits where the oracle's per-sat lists put its
    genesis sat, or is gone with it; neither locate_sat nor find_sat is asked."""
    seen = collections.Counter()
    for seed in range(150):
        rng = random.Random(seed)
        seeded = IndexState()
        seeded.utxos, sats_of = seed_utxos(rng.randint)
        seeded.tip_height = ONE_SAT_HEIGHT - 1
        # loaded as a snapshot is, which also indexes the outputs' recipients
        state = IndexState.from_json(seeded.to_json())
        unspent = list(sats_of)
        genesis = {}  # the oracle's inscriptions: id -> genesis sat
        for height in range(ONE_SAT_HEIGHT, ONE_SAT_HEIGHT + 6):
            block, burned = oracle_block(rng.randint, height, sats_of, unspent,
                                         f"{seed}|{height}", envelopes=True)
            live_before = {genesis[i] for i in state.location}
            for tx in block.txs[1:]:
                first = sats_of.get(OutPoint(tx.txid, 0))
                revealed = sum(bool(tin.witness) for tin in tx.inputs) if first else 0
                genesis.update((f"{tx.txid}i{k}", first[0]) for k in range(revealed))
                seen["multi_envelope"] += revealed > 1
            state.apply_block(block)

            where = {sat: SatPoint(op, i) for op in unspent
                     for i, sat in enumerate(sats_of[op])}
            assert state.inscriptions.keys() == genesis.keys()
            for ins_id, sat in genesis.items():
                assert state.inscriptions[ins_id].genesis_sat == sat, ins_id
                assert state.location.get(ins_id) == where.get(sat), ins_id
            passed_on = {sat for tx in block.txs[1:] for i in range(len(tx.outputs))
                         for sat in sats_of[OutPoint(tx.txid, i)]}
            to_fee = set(burned).union(*(sats_of[OutPoint(block.txs[0].txid, i)]
                                         for i in range(len(block.txs[0].outputs))))
            seen["moved_then_spent_to_fee"] += len(live_before & passed_on & to_fee)
            seen["lost_to_underclaim"] += len(live_before & set(burned))
            for point in state.location.values():
                start, end = state.utxos.entries[point.outpoint].sat_ranges[0]
                seen["past_first_range"] += point.offset >= end - start
    for case in ("multi_envelope", "moved_then_spent_to_fee", "lost_to_underclaim",
                 "past_first_range"):
        assert seen[case] > 0, case


def test_range_value_mismatch():
    utxos = UtxoSet()
    utxos.entries[OutPoint(txid("f"), 0)] = chain.UtxoEntry(
        TxOut(10, "alice"), [(0, 5)])  # ranges sum 5, value 10
    tx = spend("t", [OutPoint(txid("f"), 0)], [TxOut(10, "bob")])
    block = Block(1, (coinbase(1, chain.block_subsidy(1)), tx))
    with pytest.raises(errors.RangeValueMismatch):
        ordinals.assign_ordinals(block, utxos)


def test_range_value_mismatch_comes_before_a_negative_fee():
    utxos = UtxoSet()
    utxos.entries[OutPoint(txid("f"), 0)] = chain.UtxoEntry(
        TxOut(10, "alice"), [(0, 5)])  # ranges sum 5, value 10
    tx = spend("t", [OutPoint(txid("f"), 0)], [TxOut(11, "bob")])  # inputs short by 1
    block = Block(1, (coinbase(1, chain.block_subsidy(1)), tx))
    with pytest.raises(errors.RangeValueMismatch):
        ordinals.assign_ordinals(block, utxos)


def test_sat_conservation_per_block(genesis):
    utxos = indexed(genesis)
    prev = OutPoint(genesis.txs[0].txid, 0)
    pay = spend("pay", [prev], [TxOut(3_000_000_000, "bob"),
                                TxOut(1_999_999_000, "carol")])  # fee 1000
    block = Block(1, (coinbase(1, chain.block_subsidy(1) + 1000, label="cb1"), pay))
    input_ranges = list(utxos.entries[prev].sat_ranges)
    assigned, burned = ordinals.assign_ordinals(block, utxos)
    start1 = ordinals.start_sat_of_block(1)
    subsidy_range = [(start1, start1 + chain.block_subsidy(1))]
    got = [r for entry in assigned.values() for r in entry.sat_ranges] + list(burned)
    expected = input_ranges + subsidy_range
    assert _merge(got) == _merge(expected)


def _merge(ranges):
    """Sorted, coalesced coverage; equality means same sat multiset for
    disjoint inputs."""
    merged = []
    for start, end in sorted(ranges):
        if merged and merged[-1][1] == start:
            merged[-1] = (merged[-1][0], end)
        else:
            assert not merged or start >= merged[-1][1], "overlapping ranges"
            merged.append((start, end))
    return merged
