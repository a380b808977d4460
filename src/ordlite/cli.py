"""Command line interface.

All commands print JSON on stdout with sorted keys so identical inputs give
byte-identical output. Exit codes: 0 success, 1 user/protocol error,
2 internal invariant violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import chain, errors, metrics, ordinals, scenario, trade
from .indexer import IndexState

SNAPSHOT_FILE = "snapshot.json"


def emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def snapshot_path(data_dir) -> Path:
    return Path(data_dir) / SNAPSHOT_FILE


def load_state(data_dir) -> IndexState:
    path = snapshot_path(data_dir)
    if path.exists():
        return IndexState.load(path)
    return IndexState()


def save_state(data_dir, state: IndexState) -> None:
    Path(data_dir).mkdir(parents=True, exist_ok=True)
    state.save(snapshot_path(data_dir))


@click.group()
@click.option("--data-dir", default=".ordlite", show_default=True,
              help="Directory holding the index snapshot.")
@click.pass_context
def cli(ctx, data_dir):
    ctx.obj = {"data_dir": data_dir}


@cli.command()
@click.argument("blocks", type=click.Path(exists=True))
@click.pass_obj
def index(obj, blocks):
    """Ingest a JSONL block file and extend the snapshot."""
    state = load_state(obj["data_dir"])
    with open(blocks) as fp:
        state.index_blocks(chain.read_blocks_jsonl(fp))
    save_state(obj["data_dir"], state)
    emit({"tip_height": state.tip_height, "hash": state.snapshot_hash(),
          "diagnostics": state.diagnostics + state.ledger.diagnostics})


@cli.command()
@click.argument("query")
@click.pass_obj
def sat(obj, query):
    """Describe a sat given any notation (integer, name, decimal, degree)."""
    state = load_state(obj["data_dir"])
    n = ordinals.parse_sat_query(query)
    emit(state.sat_report(n))


@cli.command()
@click.option("--height", type=int, default=None)
@click.pass_obj
def inscriptions(obj, height):
    """List inscriptions, optionally filtered by reveal height."""
    state = load_state(obj["data_dir"])
    out = []
    for ins in sorted(state.inscriptions.values(), key=lambda i: i.number):
        if height is not None and ins.height != height:
            continue
        out.append({"id": ins.id, "number": ins.number, "kind": ins.kind,
                    "content_type": ins.content_type, "height": ins.height,
                    "genesis_sat": ins.genesis_sat,
                    "satpoint": str(state.location[ins.id])
                    if ins.id in state.location else None})
    emit(out)


@cli.group()
def brc20():
    """BRC-20 ledger queries."""


@brc20.command("tick")
@click.argument("tick")
@click.pass_obj
def brc20_tick(obj, tick):
    state = load_state(obj["data_dir"])
    emit(state.ledger.query_tick(tick.lower()))


@brc20.command("balance")
@click.argument("tick")
@click.argument("address")
@click.pass_obj
def brc20_balance(obj, tick, address):
    state = load_state(obj["data_dir"])
    emit(state.ledger.query_balance(tick.lower(), address))


@cli.group(name="trade")
def trade_group():
    """PSBT trade simulation."""


@trade_group.command("offer")
@click.argument("seller")
@click.argument("inscription_id")
@click.argument("ask", type=int)
@click.pass_obj
def trade_offer(obj, seller, inscription_id, ask):
    state = load_state(obj["data_dir"])
    offer = trade.create_offer(state, seller, inscription_id, ask)
    save_state(obj["data_dir"], state)
    emit({"offer_id": offer.id, "status": offer.status,
          "psbt": offer.psbt.to_json()})


@trade_group.command("accept")
@click.argument("offer_id")
@click.argument("buyer")
@click.option("--fee", type=int, default=trade.DEFAULT_FEE, show_default=True)
@click.pass_obj
def trade_accept(obj, offer_id, buyer, fee):
    state = load_state(obj["data_dir"])
    offer = trade.get_offer(state, offer_id)
    funding = trade.select_funding(state, buyer, offer.ask + fee)
    psbt = trade.accept_offer(state, offer, buyer, funding, fee)
    save_state(obj["data_dir"], state)
    emit({"offer_id": offer.id, "status": offer.status, "psbt": psbt.to_json()})


@trade_group.command("settle")
@click.argument("offer_id")
@click.pass_obj
def trade_settle(obj, offer_id):
    state = load_state(obj["data_dir"])
    offer = trade.get_offer(state, offer_id)
    buyer = offer.psbt.outputs[0].recipient
    block = trade.broadcast_and_settle(state, offer, buyer)
    save_state(obj["data_dir"], state)
    emit({"offer_id": offer.id, "status": offer.status,
          "tx": chain.tx_to_json(block.txs[1]), "height": block.height,
          "btc_deltas": dict(sorted(state.btc_deltas.items()))})


@cli.command(name="metrics")
@click.option("--risk-free", type=float, default=0.0, show_default=True)
@click.argument("files", nargs=-1, required=True,
                type=click.Path(exists=True))
def metrics_cmd(risk_free, files):
    """Compute returns, volatility, Sharpe and correlations from price CSVs."""
    series = [metrics.load_price_csv(f) for f in files]
    emit(metrics.report(series, risk_free))


@cli.group()
def snapshot():
    """Snapshot persistence."""


@snapshot.command("hash")
@click.pass_obj
def snapshot_hash(obj):
    state = load_state(obj["data_dir"])
    emit({"hash": state.snapshot_hash(), "tip_height": state.tip_height})


@snapshot.command("save")
@click.argument("path", type=click.Path())
@click.pass_obj
def snapshot_save(obj, path):
    state = load_state(obj["data_dir"])
    state.save(path)
    emit({"saved": str(path), "hash": state.snapshot_hash()})


@snapshot.command("load")
@click.argument("path", type=click.Path(exists=True))
@click.pass_obj
def snapshot_load(obj, path):
    state = IndexState.load(path)
    save_state(obj["data_dir"], state)
    emit({"loaded": str(path), "hash": state.snapshot_hash(),
          "tip_height": state.tip_height})


@cli.command(name="scenario")
@click.argument("script", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), required=True,
              help="Destination JSONL block file.")
@click.option("--seed", type=int, default=0, show_default=True)
def scenario_cmd(script, output, seed):
    """Compile a scenario script into a JSONL block fixture."""
    blocks = scenario.compile_scenario(scenario.load_script(script), seed)
    with open(output, "w") as fp:
        chain.write_blocks_jsonl(blocks, fp)
    emit({"blocks": len(blocks), "output": str(output)})


def main():
    try:
        cli(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except (errors.InvariantViolation, AssertionError) as exc:
        # before OrdliteError: a broken invariant is a bug, not a user error
        click.echo(json.dumps({"error": "InvariantViolation", "message": str(exc)}),
                   err=True)
        sys.exit(2)
    except errors.OrdliteError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                   err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
