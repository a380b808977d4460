"""Read commands decode only the snapshot sections they need. On the seed-101
chains of every benchmark workload, and on an empty data dir, each read
command must print what the Python API prints on the fully loaded state."""

import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ordlite import chain, cli, errors, indexer, ordinals, scenario
from ordlite.indexer import IndexState

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 101
WORKLOADS = sorted(json.loads((BENCH / "baseline.json").read_text())["workloads"])


def emitted(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def listing(state: IndexState, height=None) -> list:
    """`ordlite inscriptions` computed on the loaded state."""
    return [{"id": ins.id, "number": ins.number, "kind": ins.kind,
             "content_type": ins.content_type, "height": ins.height,
             "genesis_sat": ins.genesis_sat,
             "satpoint": str(state.location[ins.id]) if ins.id in state.location else None}
            for ins in sorted(state.inscriptions.values(), key=lambda i: i.number)
            if height is None or ins.height == height]


def assert_reads_match(data_dir: Path, state: IndexState) -> None:
    """Every read command on data_dir prints what the API prints on state."""
    runner = CliRunner()

    def read(*args):
        return runner.invoke(cli.cli, ["--data-dir", str(data_dir), *args])

    def check(args, expected):
        assert read(*args).output == emitted(expected), args
    for tick in state.ledger.ticks:
        check(["brc20", "tick", tick], state.ledger.query_tick(tick))
        for holder in state.ledger.balances[tick]:
            check(["brc20", "balance", tick, holder],
                  state.ledger.query_balance(tick, holder))
    check(["brc20", "balance", "zzzz", "nobody"], state.ledger.query_balance("zzzz", "nobody"))
    assert isinstance(read("brc20", "tick", "zzzz").exception, errors.UnknownTick)
    check(["inscriptions"], listing(state))
    for height in sorted({ins.height for ins in state.inscriptions.values()}):
        check(["inscriptions", "--height", str(height)], listing(state, height))
    unmined = ordinals.start_sat_of_block(state.tip_height + 1)
    sats = [state.inscriptions[i].genesis_sat for i in sorted(state.location)] + [unmined]
    for n in sats:
        check(["sat", str(n)], state.sat_report(n))
    assert "satpoint" not in json.loads(read("sat", str(unmined)).output)
    check(["snapshot", "hash"], {"hash": state.snapshot_hash(), "tip_height": state.tip_height})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sectioned_reads_equal_full_loads(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    for k in range(session.CHAINS[workload]):
        inputs = session.setup_chain(workload, SEED, k, tmp_path / f"chain{k}")
        indexed = IndexState()
        with open(inputs.blocks_path) as fp:
            indexed.index_blocks(chain.read_blocks_jsonl(fp))
        data_dir = tmp_path / f"data{k}"
        data_dir.mkdir()
        path = cli.snapshot_path(data_dir)
        indexed.save(path)
        state = IndexState.decode(path.read_bytes())
        assert state.inscriptions, (workload, k)
        assert_reads_match(data_dir, state)
        # what indexing writes passes the checks `snapshot load` makes
        IndexState.from_untrusted(path.read_bytes())


def test_reads_of_an_empty_data_dir_equal_an_empty_index(tmp_path):
    assert_reads_match(tmp_path / "absent", IndexState())


def test_reader_section_order_is_the_snapshot_key_order():
    assert indexer.SECTIONS == tuple(sorted(IndexState().to_json()))


def test_tail_reads_are_not_misled_by_section_heads_in_names(tmp_path):
    """`sat` and `snapshot hash` find the tail from the end. Here a UTXO
    recipient, BRC-20 holders, `btc_deltas` addresses and offer signers are
    named after the tail's sections, so the bytes before `tip_height` hold
    `,"utxos":` and `,"tip_height":` heads too."""
    names = ("utxos", "tip_height", ',"utxos":')
    script = [{"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
               "deployer": "tip_height"}]
    script += [{"action": "mint", "tick": "ordi", "amt": "1000", "minter": n} for n in names]
    script += [
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "100", "owner": "utxos",
         "id": "t1"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "100", "owner": "tip_height",
         "id": "t2"},
        {"action": "trade_offer", "inscription": "t1", "seller": "utxos", "ask": 20_000},
        {"action": "trade_accept", "inscription": "t1", "buyer": ',"utxos":'},
        {"action": "trade_offer", "inscription": "t2", "seller": "tip_height", "ask": 30_000},
        {"action": "mine", "miner": ',"utxos":'},
    ]
    compiler = scenario.ScenarioCompiler(SEED)
    compiler.compile(script)
    state = compiler.state
    assert set(names) <= set(state.btc_deltas) | set(state.ledger.balances["ordi"])
    assert {o.status for o in state.offers.values()} == {"settled", "open"}
    path = cli.snapshot_path(tmp_path)
    state.save(path)
    text = path.read_text()
    assert text.count(',"utxos":') > 1 and text.count(',"tip_height":') > 1
    assert_reads_match(tmp_path, IndexState.from_untrusted(path.read_bytes()))
