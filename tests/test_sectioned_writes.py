"""`trade offer` and `trade accept` change only the snapshot's offer book, so
they write the bytes they read with only the `offers` section re-encoded. On
the seed-101 chains of the workloads whose scripts trade, every write made
through the CLI must leave the data dir holding the full encoding of a mirror
state that made the same calls through the API, and bytes that pass the
checks `snapshot load` makes."""

import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import txid
from ordlite import chain, cli, errors, trade
from ordlite.indexer import IndexState

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 101
ASK = 10_000
# Canonical bytes escape a name that is not ASCII, so this buyer's name pins
# that offsets in the decoded text are offsets in the bytes.
WIDE_BUYER = "bücher-☃"


def write(data_dir: Path, mirror: IndexState, args, api) -> dict:
    """Run the write command args on data_dir and api on the mirror; check the
    bytes written and return what the command printed."""
    result = CliRunner().invoke(cli.cli, ["--data-dir", str(data_dir), *args])
    assert result.exit_code == 0, (args, result.output, result.exception)
    api(mirror)
    data = cli.snapshot_path(data_dir).read_bytes()
    assert data == mirror.snapshot_bytes(), args
    IndexState.from_untrusted(data)
    return json.loads(result.output)


def offer(data_dir, mirror, ins_id, ask) -> str:
    seller = mirror.ledger.pendings[ins_id].owner
    return write(data_dir, mirror, ["trade", "offer", seller, ins_id, str(ask)],
                 lambda m: trade.create_offer(m, seller, ins_id, ask))["offer_id"]


def accept(data_dir, mirror, oid, buyer) -> None:
    def api(m):
        made = m.offers[oid]
        funding = trade.select_funding(m, buyer, made.ask + trade.DEFAULT_FEE)
        trade.accept_offer(m, made, buyer, funding, trade.DEFAULT_FEE)
    write(data_dir, mirror, ["trade", "accept", oid, buyer], api)
    assert mirror.offers[oid].status == "accepted"


def index(data_dir, mirror, path: Path, block) -> None:
    with open(path, "w") as fp:
        chain.write_blocks_jsonl([block], fp)
    write(data_dir, mirror, ["index", str(path)], lambda m: m.apply_block(block))


def buyer_for(mirror: IndexState, seller: str, need: int) -> str:
    """The first address, in sorted order, other than seller that can pay need."""
    return next(addr for addr in sorted(mirror.plain_outpoints) if addr != seller
                and sum(v for _, v in trade.funding_outputs(mirror, addr)) >= need)


@pytest.mark.parametrize("workload", ["cli_mix", "transfer_web"])
def test_trade_writes_equal_the_full_encoding(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    for k in range(session.CHAINS[workload]):
        inputs = session.setup_chain(workload, SEED, k, tmp_path / f"chain{k}")
        data_dir = tmp_path / f"data{k}"
        mirror = IndexState()
        with open(inputs.blocks_path) as fp:
            blocks = list(chain.read_blocks_jsonl(fp))
        write(data_dir, mirror, ["index", str(inputs.blocks_path)],
              lambda m: m.index_blocks(blocks))
        first, second = sorted(p.inscription_id for p in mirror.ledger.pendings.values()
                               if not p.used and p.inscription_id in mirror.location)[:2]

        cancelled = offer(data_dir, mirror, first, ASK)
        listed = offer(data_dir, mirror, first, ASK + 1)  # cancels the open one
        assert mirror.offers[cancelled].status == "cancelled"
        seller = mirror.offers[listed].seller
        accept(data_dir, mirror, listed, buyer_for(mirror, seller, ASK + 1 + trade.DEFAULT_FEE))
        write(data_dir, mirror, ["trade", "settle", listed],
              lambda m: trade.broadcast_and_settle(m, m.offers[listed],
                                                   m.offers[listed].psbt.outputs[0].recipient))

        height = mirror.tip_height + 1
        index(data_dir, mirror, tmp_path / f"wide{k}.jsonl", chain.mine_block(
            height, (), mirror.utxos, txid(f"wide {height}"), WIDE_BUYER))
        before = cli.snapshot_path(data_dir).read_bytes()
        refused = CliRunner().invoke(cli.cli, ["--data-dir", str(data_dir), "trade",
                                               "accept", cancelled, WIDE_BUYER])
        assert isinstance(refused.exception, errors.OfferNotOpen)  # and saves nothing
        assert cli.snapshot_path(data_dir).read_bytes() == before
        accept(data_dir, mirror, offer(data_dir, mirror, second, ASK), WIDE_BUYER)
        assert json.dumps(WIDE_BUYER).encode() in cli.snapshot_path(data_dir).read_bytes()
