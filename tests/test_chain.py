import pytest

from conftest import coinbase, spend, txid
from ordlite import chain, errors
from ordlite.chain import Block, OutPoint, Transaction, TxOut, UtxoSet
from ordlite.indexer import IndexState


def test_subsidy_schedule():
    assert chain.block_subsidy(0) == 5_000_000_000
    assert chain.block_subsidy(209_999) == 5_000_000_000
    assert chain.block_subsidy(210_000) == 2_500_000_000
    assert chain.block_subsidy(6_929_999) == 1
    assert chain.block_subsidy(6_930_000) == 0
    assert chain.block_subsidy(10_000_000) == 0


@pytest.mark.parametrize("bad", [
    "A" * 64,  # uppercase
    "g" * 64,  # not hex
    "a" * 63,
    "a" * 65,
    "a" * 64 + "\n",
    "",
])
def test_outpoint_rejects_malformed_txid(bad):
    with pytest.raises(ValueError):
        OutPoint(bad, 0)
    with pytest.raises(ValueError):
        OutPoint.parse(f"{bad}:0")


@pytest.mark.parametrize("bad", ["A" * 64, "g" * 64, "a" * 63, "a" * 64 + "\n"])
def test_transaction_rejects_malformed_txid(bad):
    """A Transaction checks its txid, so the outpoints of its outputs need not."""
    with pytest.raises(ValueError, match="bad txid"):
        Transaction(bad, (), (TxOut(1, "m"),), True)
    with pytest.raises(ValueError, match="bad txid"):
        chain.tx_from_json({"txid": bad, "outputs": [{"value": 1, "recipient": "m"}]})


@pytest.mark.parametrize("vout", [True, 1.0, -1, "1"])
def test_outpoint_rejects_a_vout_that_is_not_a_non_negative_int(vout):
    with pytest.raises(ValueError, match=f"vout {vout!r} is not"):
        OutPoint(txid("t"), vout)


@pytest.mark.parametrize("value, kind, message, recipient", [
    (-1, "plain", "negative output value", "alice"),
    (1, "p2pkh", "unknown script kind", "alice"),
    (1.5, "plain", "is not an integer", "alice"),
    (True, "plain", "is not an integer", "alice"),
    (1, "plain", "recipient 5 is not a string", 5),
    (1, "plain", "recipient None is not a string", None),
], ids=["-1-plain-negative output value", "1-p2pkh-unknown script kind",
        "1.5-plain-is not an integer", "True-plain-is not an integer",
        "recipient-5", "recipient-None"])
def test_txout_rejects_bad_values(value, kind, message, recipient):
    with pytest.raises(ValueError, match=message):
        TxOut(value, recipient, kind)
    obj = {"txid": txid("bad"), "inputs": [],
           "outputs": [{"value": value, "recipient": recipient, "script_kind": kind}]}
    with pytest.raises(ValueError, match=message):
        chain.tx_from_json(obj)


@pytest.mark.parametrize("vout, coinbase, message", [
    (True, False, "vout True is not"), (1.0, False, "vout 1.0 is not"),
    (-1, False, "vout -1 is not"), ("1", False, "vout '1' is not"),
    (1, "false", "coinbase 'false' is not a boolean"),
    (1, 1, "coinbase 1 is not a boolean"), (1, None, "coinbase None is not a boolean"),
], ids=["bool_vout", "float_vout", "negative_vout", "string_vout", "string_coinbase",
        "int_coinbase", "null_coinbase"])
def test_tx_from_json_takes_only_exact_types(vout, coinbase, message):
    obj = {"txid": txid("t"), "inputs": [{"txid": txid("f"), "vout": vout}],
           "outputs": [], "coinbase": coinbase}
    with pytest.raises(ValueError, match=message):
        chain.tx_from_json(obj)
    obj.update(inputs=[{"txid": txid("f"), "vout": 1}], coinbase=False)
    assert chain.tx_from_json(obj).inputs[0].prevout == OutPoint(txid("f"), 1)
    del obj["coinbase"]
    assert not chain.tx_from_json(obj).is_coinbase


def test_outpoint_accepts_lowercase_hex_txid():
    op = OutPoint.parse(f"{'0123456789abcdef' * 4}:7")
    assert op == OutPoint("0123456789abcdef" * 4, 7)


def _chain_with(utxo_values, owner="alice"):
    """UtxoSet holding the given values as outputs of one fake tx."""
    utxos = UtxoSet()
    t = txid("funding")
    for i, v in enumerate(utxo_values):
        utxos[OutPoint(t, i)] = chain.UtxoEntry(TxOut(v, owner))
    return utxos, [OutPoint(t, i) for i in range(len(utxo_values))]


def test_tx_fee_balanced():
    utxos, ops = _chain_with([3, 3])
    tx = spend("t", ops, [TxOut(4, "bob"), TxOut(2, "bob")])
    assert chain.tx_fee(tx, utxos) == 0


def test_tx_fee_one_sat():
    # two 2-sat inputs, one 3-sat output: one satoshi goes to the miner
    utxos, ops = _chain_with([2, 2])
    tx = spend("t", ops, [TxOut(3, "bob")])
    assert chain.tx_fee(tx, utxos) == 1


def test_tx_fee_overdraw():
    utxos, ops = _chain_with([5])
    tx = spend("t", ops, [TxOut(6, "bob")])
    with pytest.raises(errors.NegativeFee):
        chain.tx_fee(tx, utxos)


def test_tx_fee_missing_prevout():
    utxos = UtxoSet()
    tx = spend("t", [OutPoint(txid("nope"), 0)], [TxOut(1, "bob")])
    with pytest.raises(errors.MissingPrevout):
        chain.tx_fee(tx, utxos)


def test_tx_fee_prices_a_spend_of_an_output_made_earlier_in_its_block():
    utxos, ops = _chain_with([10])
    first = spend("first", ops, [TxOut(6, "bob"), TxOut(3, "alice")])  # fee 1
    second = spend("second", [OutPoint(first.txid, 0)], [TxOut(4, "carol")])  # fee 2
    created = {OutPoint(first.txid, i): chain.UtxoEntry(o) for i, o in enumerate(first.outputs)}
    with pytest.raises(errors.MissingPrevout):
        chain.tx_fee(second, utxos)
    assert chain.tx_fee(second, {**utxos, **created}) == 2


def utxo_total(state):
    return sum(e.txout.value for e in state.utxos.values())


def test_genesis_apply(genesis):
    assert chain.validate_block(genesis, 0) is None
    state = IndexState()
    state.apply_block(genesis)
    assert len(state.utxos) == 1
    assert utxo_total(state) == 5_000_000_000


def test_double_spend_rejected(genesis):
    state = IndexState()
    state.apply_block(genesis)
    cb = genesis.txs[0]
    prev = OutPoint(cb.txid, 0)
    t1 = spend("t1", [prev], [TxOut(1, "a")])
    t2 = spend("t2", [prev], [TxOut(1, "b")])
    block = Block(1, (coinbase(1, chain.block_subsidy(1), label="cb1x"), t1, t2))
    before = state.snapshot_hash()
    with pytest.raises(errors.DoubleSpend):
        state.apply_block(block)
    assert state.snapshot_hash() == before  # atomic


def test_height_gap_rejected(genesis):
    state = IndexState()
    state.apply_block(genesis)
    block = Block(2, (coinbase(2, chain.block_subsidy(2)),))
    with pytest.raises(errors.NonMonotonicHeight):
        state.apply_block(block)


def test_coinbase_overpay_rejected():
    state = IndexState()
    block = Block(0, (coinbase(0, chain.block_subsidy(0) + 1),))
    with pytest.raises(errors.CoinbaseOverpay):
        state.apply_block(block)


def test_coinbase_may_underclaim():
    state = IndexState()
    block = Block(0, (coinbase(0, 42),))
    state.apply_block(block)
    assert utxo_total(state) == 42


def test_value_conservation_over_chain(genesis):
    state = IndexState()
    state.apply_block(genesis)
    prev = OutPoint(genesis.txs[0].txid, 0)
    fee_tx = spend("pay", [prev], [TxOut(4_999_999_000, "bob")])  # fee 1000
    block = Block(1, (coinbase(1, chain.block_subsidy(1) + 1000, label="cb1"),
                      fee_tx))
    state.apply_block(block)
    assert utxo_total(state) == chain.block_subsidy(0) + chain.block_subsidy(1)


def test_jsonl_round_trip(genesis):
    import io

    prev = OutPoint(genesis.txs[0].txid, 0)
    tx = spend("t", [prev], [TxOut(1, "bob", "p2tr_inscription")],
               witness=(b"\x00", b"\x63"))
    block = Block(1, (coinbase(1, chain.block_subsidy(1)), tx))
    buf = io.StringIO()
    chain.write_blocks_jsonl([genesis, block], buf)
    buf.seek(0)
    back = list(chain.read_blocks_jsonl(buf))
    assert back == [genesis, block]
