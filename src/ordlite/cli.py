"""Command line interface.

All commands print canonical JSON (`chain.canonical_dumps`) on stdout, so
identical inputs give byte-identical output. Exit codes: 0 success, 1
user/protocol error, a file that cannot be read or written included, 2
internal invariant violation. Each error is one JSON line on stderr, click's
usage errors (a missing input file, an argument of the wrong type, an unknown
command) included; a bare `ordlite` prints its help.

Only ordlite writes the data dir's snapshot: `index`, `trade` and
`snapshot load`, which validates the file it takes in. Every snapshot, the
data dir's and `snapshot load`'s alike, is decoded by `indexer.read_sections`,
which raises CorruptSnapshot (exit 1) on any other layout. `snapshot save`
copies the bytes. `index` and the `trade` commands share one write path:
`load_state` decodes the ledger, the offer book, the BTC deltas and the two
counters whole into a state that finds each UTXO and inscription record in
the bytes the first time it reads it and logs what it writes
(`IndexState.decode`), and `save_state` writes the bytes read with only that
spliced in (`IndexState.spliced_bytes`), so every byte of a record no write
changed is copied: `trade offer` and `trade accept` re-encode the offer book
and the BTC deltas, and `index` and `trade settle` also the ledger and the
UTXO and inscription records their blocks touched. A refused write saves nothing, and
loses nothing by that: `trade` refuses before it changes the state, so a
dead offer keeps its status, and `trade accept` checks the offer before the
buyer's funding. Reads decode only the sections they need:
`brc20` decodes "brc20" and `inscriptions` stops after "inscriptions";
`snapshot hash` decodes only "tip_height" and `sat` "tip_height" and
"utxos", both found from the end of the file (`read_sections`'s `first`).
With no snapshot, every command reads EMPTY_SNAPSHOT, an empty index's bytes.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import click

from . import chain, errors, indexer, metrics, ordinals, scenario, trade
from .brc20 import Brc20Ledger
from .indexer import IndexState

SNAPSHOT_FILE = "snapshot.json"
EMPTY_SNAPSHOT = IndexState().snapshot_bytes()


def emit(obj) -> None:
    click.echo(chain.canonical_dumps(obj))


def snapshot_path(data_dir) -> Path:
    return Path(data_dir) / SNAPSHOT_FILE


def load_state(data_dir) -> IndexState:
    """The data dir's state for a write: it decodes only the records it
    reads, and logs what it writes, for `save_state`."""
    return IndexState.decode(read_snapshot(data_dir))


def read_snapshot(data_dir) -> bytes:
    """The data dir's snapshot bytes, or an empty index's."""
    path = snapshot_path(data_dir)
    return path.read_bytes() if path.exists() else EMPTY_SNAPSHOT


def read_ledger(data_dir) -> Brc20Ledger:
    sections = indexer.read_sections(read_snapshot(data_dir), "brc20")
    return Brc20Ledger.from_json(sections["brc20"])


def write_data_dir(data_dir, data: bytes) -> str:
    """Make data into data_dir's snapshot (see `indexer.write_snapshot`);
    return its hash."""
    Path(data_dir).mkdir(parents=True, exist_ok=True)
    return indexer.write_snapshot(snapshot_path(data_dir), data)


def save_state(data_dir, state: IndexState) -> str:
    """Write a state `load_state` gave into data_dir as the bytes it was
    read from with what it changed spliced in (`IndexState.spliced_bytes`);
    return their hash."""
    return write_data_dir(data_dir, state.spliced_bytes())


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
    digest = save_state(obj["data_dir"], state)
    emit({"tip_height": state.tip_height, "hash": digest,
          "diagnostics": state.diagnostics + state.ledger.diagnostics})


@cli.command()
@click.argument("query")
@click.pass_obj
def sat(obj, query):
    """Describe a sat given any notation (integer, name, decimal, degree,
    percentile such as 50%)."""
    n = ordinals.parse_sat_query(query)
    utxos = indexer.read_sections(read_snapshot(obj["data_dir"]), "utxos",
                                  first="tip_height")["utxos"]
    emit(indexer.sat_report(n, ((key, e["sat_ranges"]) for key, e in utxos.items())))


@cli.command()
@click.option("--height", type=int, default=None)
@click.pass_obj
def inscriptions(obj, height):
    """List inscriptions, optionally filtered by reveal height."""
    data = read_snapshot(obj["data_dir"])
    listed = indexer.read_sections(data, "inscriptions")["inscriptions"]
    emit([{"id": ins_id, "number": i["number"], "kind": i["kind"],
           "content_type": i["content_type"], "height": i["height"],
           "genesis_sat": i["genesis_sat"], "satpoint": i["satpoint"]}
          for ins_id, i in sorted(listed.items(), key=lambda item: item[1]["number"])
          if height is None or i["height"] == height])


@cli.group()
def brc20():
    """BRC-20 ledger queries."""


@brc20.command("tick")
@click.argument("tick")
@click.pass_obj
def brc20_tick(obj, tick):
    emit(read_ledger(obj["data_dir"]).query_tick(tick.lower()))


@brc20.command("balance")
@click.argument("tick")
@click.argument("address")
@click.pass_obj
def brc20_balance(obj, tick, address):
    emit(read_ledger(obj["data_dir"]).query_balance(tick.lower(), address))


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
    trade.check_acceptable(state, offer, fee)
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
    data = read_snapshot(obj["data_dir"])
    emit({"hash": hashlib.sha256(data).hexdigest(),
          "tip_height": indexer.read_sections(data, "tip_height",
                                              first="tip_height")["tip_height"]})


@snapshot.command("save")
@click.argument("path", type=click.Path())
@click.pass_obj
def snapshot_save(obj, path):
    digest = indexer.write_snapshot(path, read_snapshot(obj["data_dir"]))
    emit({"saved": str(path), "hash": digest})


@snapshot.command("load")
@click.argument("path", type=click.Path(exists=True))
@click.pass_obj
def snapshot_load(obj, path):
    """Validate a snapshot file and make it the data dir's snapshot."""
    data = Path(path).read_bytes()
    state = IndexState.from_untrusted(data)
    digest = write_data_dir(obj["data_dir"], data)
    emit({"loaded": str(path), "hash": digest,
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


def fail(error: str, message: str, code: int) -> None:
    """Exit with code after one canonical JSON error line on stderr."""
    click.echo(chain.canonical_dumps({"error": error, "message": message}), err=True)
    sys.exit(code)


# click >= 8.2 raises this usage error for a bare `ordlite`; older versions
# print the help themselves
NoArgsIsHelpError = getattr(click.exceptions, "NoArgsIsHelpError", ())


def main():
    try:
        cli(standalone_mode=False)
    except NoArgsIsHelpError as exc:
        exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        # click's formatted message names the parameter at fault
        fail(type(exc).__name__, exc.format_message(), 1)
    except click.Abort:
        sys.exit(1)
    except (errors.InvariantViolation, AssertionError) as exc:
        # before OrdliteError: a broken invariant is a bug, not a user error
        fail("InvariantViolation", str(exc), 2)
    except (errors.OrdliteError, OSError, UnicodeDecodeError) as exc:
        # a file that cannot be read or written, or is not UTF-8, is the user's
        fail(type(exc).__name__, str(exc), 1)


if __name__ == "__main__":
    main()
