"""Read commands decode only the snapshot sections they need. On the seed-101
chains of every benchmark workload, and on an empty data dir, each read
command must print what the Python API prints on the fully loaded state;
`brc20 tick` and `brc20 balance` must do so without decoding the whole
ledger (`Brc20Ledger.from_json`). On those chains, on one whose names are
the snapshot's heads and after each index file of the hand-built chain of
the splice's edge cases, the snapshot reader must find each section, and
each record by its key, where encoding them one after another puts it, and
its sat finder must find every sat's output as the walk over every UTXO
does."""

import importlib
import json
import re
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import test_sectioned_writes as writes
from conftest import spend, txid
from ordlite import brc20, chain, cli, envelope, errors, indexer, ordinals, scenario, trade
from ordlite.chain import Transaction, TxIn, TxOut
from ordlite.brc20 import Brc20Ledger
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Brc20Ledger, "from_json", refuse_whole_ledger)
        for tick in state.ledger.ticks:
            check(["brc20", "tick", tick], state.ledger.query_tick(tick))
            for holder in state.ledger.balances[tick]:
                check(["brc20", "balance", tick, holder],
                      state.ledger.query_balance(tick, holder))
        check(["brc20", "balance", "zzzz", "nobody"],
              state.ledger.query_balance("zzzz", "nobody"))
        assert isinstance(read("brc20", "tick", "zzzz").exception, errors.UnknownTick)
    check(["inscriptions"], listing(state))
    for height in range(state.tip_height + 2):  # the height after the tip has none
        check(["inscriptions", "--height", str(height)], listing(state, height))
    unmined = ordinals.start_sat_of_block(state.tip_height + 1)
    sats = [state.inscriptions[i].genesis_sat for i in sorted(state.location)] + [unmined]
    for n in sats:
        check(["sat", str(n)], state.sat_report(n))
    assert "satpoint" not in json.loads(read("sat", str(unmined)).output)
    check(["snapshot", "hash"], {"hash": state.snapshot_hash(), "tip_height": state.tip_height})


def assert_reader_finds_the_encoding(data: bytes, state: IndexState) -> None:
    """The snapshot reader's span of each ledger field and later section of
    data, state's bytes, is where encoding the sections of `state.to_json()`
    one after another puts it, and its value of each section and field is
    that section or field; and it finds each record where encoding its
    section record by record puts it (`assert_locator_finds_the_records`)."""
    obj = json.loads(chain.canonical_dumps(state.to_json()))
    fields = {**obj["brc20"], **obj}
    text, spans = f'{{"{indexer.SECTIONS[0]}":{{', {}
    for name in (*indexer.LEDGER, *indexer.SECTIONS[1:]):
        if name == indexer.SECTIONS[1]:
            text += "}"  # the end of the ledger
        text += f'{"," if spans else ""}"{name}":'
        encoded = chain.canonical_dumps(fields[name])
        spans[name] = (len(text), len(text) + len(encoded))
        text += encoded
    assert f"{text}}}".encode() == data
    reader = indexer.Snapshot(data)
    assert reader.spans == spans
    for name in (*indexer.LEDGER, *indexer.SECTIONS):
        assert reader.value(name) == fields[name], name
    for section in ("utxos", "inscriptions", "pendings"):
        assert_locator_finds_the_records(data, section, fields[section], spans[section][0])


def assert_locator_finds_the_records(data: bytes, section: str, value, start: int) -> None:
    """In data, whose section encodes value from offset start, the reader
    finds each record where encoding the section's records one after another
    puts it. For a key, `Snapshot.locate` gives its record's start and end,
    between which the bytes are exactly its `"<key>":<value>` (a pending's
    list element), and its value; for any other probe, the place where the
    next record starts, or the section's closing bracket past the last, and
    None. A record found by bytes it holds (`record_at`) has the same entry.
    The probes are every key, each without its last character and with "0"
    after it, "" and "~"."""
    # key -> its record; a pending's key is its id, and `pendings` is sorted by it
    records = value if section != "pendings" else {p["id"]: p for p in value}
    table, pos = [], start + 1  # (start, end, key) of each record, in the bytes' order
    for key, record in (records.items() if section == "pendings" else sorted(records.items())):
        head = "" if section == "pendings" else f"{json.dumps(key)}:"
        end = pos + len(head) + len(chain.canonical_dumps(record))
        assert data[pos:end] == f"{head}{chain.canonical_dumps(record)}".encode(), key
        table.append((pos, end, key.encode()))
        pos = end + 1
    keys = [key for _, _, key in table]
    assert keys == sorted(keys), section
    reader, other = indexer.Snapshot(data), indexer.Snapshot(data)
    close = reader.spans[section][1] - 1
    probes = {"", "~"}.union(*((key, key[:-1], f"{key}0") for key in records))
    for probe in sorted(probes):
        k = bisect_left(keys, probe.encode())
        if k < len(table) and keys[k] == probe.encode():
            expected = (*table[k][:2], records[probe])
            assert other.record_at(section, table[k][1] - 1) == (probe, records[probe])
            assert other.locate(section, probe) == expected, (section, probe)
        else:
            place = table[k][0] if k < len(table) else close
            expected = (place, place, None)
        assert reader.locate(section, probe) == expected, (section, probe)
        assert reader.record(section, probe) == records.get(probe), (section, probe)


def test_each_record_opens_with_its_smallest_field():
    """What opens a record of each section (`indexer._RECORD_OPENS`) is a
    brace and the smallest field name of the record its builder makes; a
    pending's key, its id, is the field after `amt`."""
    ins = indexer.Inscription(f"{txid('opens')}i0", 0, "text/plain", b"hi", "text", 0, 0)
    pending = brc20.PendingTransfer(ins.id, "ordi", brc20.AMOUNT_UNIT, "alice", False)
    for section, record in (
            ("utxos", indexer._utxo_json(chain.UtxoEntry(TxOut(1, "alice"), [(0, 1)]))),
            ("inscriptions", indexer._inscription_json(ins, None)),
            ("pendings", brc20.pending_json(pending))):
        opener = indexer._RECORD_OPENS[section]
        assert opener == f'{{"{min(record)}":'.encode(), section
        assert chain.canonical_dumps(record).encode().startswith(opener), section
    assert sorted(brc20.pending_json(pending))[:2] == ["amt", "id"]


@given(st.integers(min_value=0, max_value=brc20.MAX_MANTISSA * brc20.AMOUNT_UNIT))
def test_no_encoded_amount_holds_a_quote(units):
    """`_head` reads a pending's id after the quote that ends its amount."""
    encoded = chain.canonical_dumps(brc20.format_amount(units))
    assert re.fullmatch(r'"[0-9.]+"', encoded), units


def fixed_sats(state: IndexState) -> set:
    """Sat 0, a sat inside block 0, one in block 1 whose digits share none
    with the block's first sat (5e9), and the first unmined sat."""
    return {0, 2_345_678_901, 7_000_000_003, ordinals.start_sat_of_block(state.tip_height + 1)}


def assert_sat_finder_matches_the_walk(data: bytes, state: IndexState) -> None:
    """For each range of state's UTXOs, its start, its last sat and the sat
    after it, and each of `fixed_sats`, the outputs `Snapshot.outputs_holding`
    finds in data, state's bytes, locate the sat where the walk over every
    UTXO (`IndexState.sat_report`) does. No two ranges share a sat, so the
    walk's satpoints are those of one sorted table of the state's ranges,
    which `find_sat` over the outputs found must give for each sat; at the
    fixed sats and every 50th other, `indexer.sat_report` over them must
    print what the walk itself prints."""
    held = sorted((start, end, op, offset) for op, entry in state.utxos.items()
                  for (start, end), offset in zip(entry.sat_ranges,
                                                  ordinals.prefix_sums(entry.sat_ranges)))
    starts = [r[0] for r in held]
    fixed = fixed_sats(state)
    source = indexer.Snapshot(data)
    sats = sorted(fixed.union(*((start, end - 1, end) for start, end, _, _ in held)))
    for k, n in enumerate(sats):
        outputs = source.outputs_holding(n)
        i = bisect_right(starts, n) - 1
        expected = None
        if i >= 0 and n < held[i][1]:
            start, _, op, offset = held[i]
            expected = f"{op}:{offset + n - start}"
        point = ordinals.find_sat(n, outputs)
        assert (None if point is None else str(point)) == expected, n
        if k % 50 == 0 or n in fixed:
            assert indexer.sat_report(n, outputs) == state.sat_report(n), n


def refuse_whole_ledger(*args):
    raise AssertionError("a brc20 read decoded the whole ledger")


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
        # what indexing writes passes the checks `snapshot load` makes
        state = IndexState.from_untrusted(path.read_bytes())
        assert state.inscriptions, (workload, k)
        assert_reader_finds_the_encoding(path.read_bytes(), state)
        assert_sat_finder_matches_the_walk(path.read_bytes(), state)
        assert_reads_match(data_dir, state)


def test_reads_of_an_empty_data_dir_equal_an_empty_index(tmp_path):
    assert_reader_finds_the_encoding(cli.EMPTY_SNAPSHOT, IndexState())
    assert_sat_finder_matches_the_walk(cli.EMPTY_SNAPSHOT, IndexState())
    assert_reads_match(tmp_path / "absent", IndexState())


def test_reader_finds_the_records_of_the_hand_built_chain():
    """After each index file of the chain that gathers the splice's edge
    cases (`<txid>:10` before `<txid>:2`, ids `i10` before `i2`, names like
    record keys), the reader finds every section and record."""
    state = IndexState()
    for blocks in writes.hand_built_index_files(IndexState()):
        state.index_blocks(blocks)
        assert_reader_finds_the_encoding(state.snapshot_bytes(), state)


def test_reader_section_order_is_the_snapshot_key_order():
    assert indexer.SECTIONS == tuple(sorted(IndexState().to_json()))


# Names after every head the snapshot reader finds, by the name it heads and
# in full: each is a holder, a BTC-delta address, an offer signer and a UTXO
# recipient below.
NAMES = (*list(indexer.HEADS)[1:], *indexer.HEADS.values())


def needles(ins_id: str) -> list[str]:
    """What the snapshot reader's `records_with` searches for, for inscription
    ins_id's reveal output and each of NAMES."""
    outpoint = f"{ins_id.rpartition('i')[0]}:0"
    found = [f'"satpoint":"{outpoint}:']
    for name in NAMES:
        found.append(f'{{"recipient":{json.dumps(name)},')
        found.append(f',"owner":{json.dumps(name)},"tick":"ordi","used":false}}')
    return found


def test_commands_are_not_misled_by_section_heads_in_names(tmp_path):
    """The snapshot reader finds each section by the first match of its head
    after the one before it, and derived lookups by `records_with` needles.
    Here every name is a head's, and one content type holds every head and
    every needle of the writes below, so the bytes hold each head's name
    before its section; every read and write command must still answer as
    the API does on the same state. That content type and some names end
    in `{`, so `{"` follows them in the bytes, and one recipient holds the
    range text of a sat `sat` is asked for."""
    script = [{"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
               "deployer": NAMES[0]}]
    for k, name in enumerate(NAMES):
        script += [{"action": "mint", "tick": "ordi", "amt": "1000", "minter": name},
                   {"action": "transfer_inscribe", "tick": "ordi", "amt": "100", "owner": name,
                    "id": f"sold{k}"},
                   {"action": "transfer_inscribe", "tick": "ordi", "amt": "100", "owner": name}]
    for k, name in enumerate(NAMES):  # each sells to the next; the last offer stays open
        script.append({"action": "trade_offer", "inscription": f"sold{k}", "seller": name,
                       "ask": 20_000 + k})
        if k + 1 < len(NAMES):
            script.append({"action": "trade_accept", "inscription": f"sold{k}",
                           "buyer": NAMES[k + 1]})
    compiler = scenario.ScenarioCompiler(SEED)
    compiler.compile(script)
    state = compiler.state
    # a text inscription, from NAMES[0]'s funds, whose content type holds
    # every head and every needle
    label = "head names text"
    ins_id = f"{txid(label)}i0"
    content_type = "text/x;" + "".join([*indexer.HEADS.values(), *needles(ins_id)]) + "{"
    funding, value = max(trade.funding_outputs(state, NAMES[0]), key=lambda o: o[1])
    reveal = Transaction(txid(label), (TxIn(funding, tuple(envelope.build_envelope(
        content_type, b"hi"))),), (TxOut(546, NAMES[1], "p2tr_inscription"),
                                   TxOut(value - 1_546, NAMES[0])))
    compiler.blocks.append(chain.mine_block(state.tip_height + 1, (reveal,), state.utxos,
                                            txid(f"{label} cb"), NAMES[2]))
    state.apply_block(compiler.blocks[-1])
    assert state.inscriptions[ins_id].content_type == content_type
    assert set(NAMES) <= set(state.btc_deltas) & set(state.ledger.balances["ordi"])
    assert {o.status for o in state.offers.values()} == {"settled", "open"}

    data_dir, mirror = tmp_path / "data", IndexState()
    path = tmp_path / "blocks.jsonl"
    with open(path, "w") as fp:
        chain.write_blocks_jsonl(compiler.blocks, fp)
    writes.write(data_dir, mirror, ["index", str(path)],
                 lambda m: m.index_blocks(compiler.blocks))
    text = cli.snapshot_path(data_dir).read_text()
    for name in NAMES[:len(indexer.HEADS) - 1]:  # decoys before each head
        assert text.count(f'"{name}":') > 1, name

    # a transfer of each name's and its sale to the next name, then a block
    # that sends the text on and inscribes a transfer of each name's
    for k, name in enumerate(NAMES):
        unused = sorted(p.inscription_id for p in mirror.ledger.pendings.values()
                        if p.owner == name and not p.used)
        oid = writes.offer(data_dir, mirror, unused[0], writes.ASK)
        buyer = NAMES[(k + 1) % len(NAMES)]
        writes.accept(data_dir, mirror, oid, buyer)
        writes.write(data_dir, mirror, ["trade", "settle", oid],
                     lambda m: trade.broadcast_and_settle(m, m.offers[oid], buyer))
    txs = [spend("head names send", [mirror.location[ins_id].outpoint],
                 [TxOut(546, NAMES[3], "p2tr_inscription")])]
    sat = state.inscriptions[ins_id].genesis_sat
    decoy = f"[{sat},{sat + 1}]{{"  # the first name's tx also pays this recipient
    assert any(name.endswith("{") for name in NAMES)
    for k, name in enumerate(NAMES):
        body = b'{"amt":"1","op":"transfer","p":"brc-20","tick":"ordi"}'
        funding, value = max(trade.funding_outputs(mirror, name), key=lambda o: o[1])
        change = ((TxOut(1_000, decoy), TxOut(value - 2_546, name)) if k == 0
                  else (TxOut(value - 1_546, name),))
        txs.append(Transaction(txid(f"head names {name}"), (TxIn(funding, tuple(
            envelope.build_envelope("text/plain", body))),), (
            TxOut(546, name, "p2tr_inscription"), *change)))
    writes.index(data_dir, mirror, tmp_path / "more.jsonl", chain.mine_block(
        mirror.tip_height + 1, tuple(txs), mirror.utxos, txid("head names more"), NAMES[4]))
    assert mirror.location[ins_id].outpoint.txid == txid("head names send")
    assert all(not mirror.ledger.pendings[f"{txid(f'head names {name}')}i0"].used
               for name in NAMES)

    data = cli.snapshot_path(data_dir).read_bytes()
    saved = tmp_path / "saved.json"
    runner = CliRunner()
    assert runner.invoke(cli.cli, ["--data-dir", str(data_dir), "snapshot", "save",
                                   str(saved)]).exit_code == 0
    loaded = runner.invoke(cli.cli, ["--data-dir", str(tmp_path / "loaded"), "snapshot",
                                     "load", str(saved)])
    assert json.loads(loaded.output)["tip_height"] == mirror.tip_height
    assert cli.snapshot_path(tmp_path / "loaded").read_bytes() == data
    assert_reader_finds_the_encoding(data, mirror)
    # the decoy's record is a candidate for the sat, which `find_sat` drops
    assert len(indexer.Snapshot(data).outputs_holding(sat)) == 2
    assert_sat_finder_matches_the_walk(data, mirror)
    assert_reads_match(data_dir, IndexState.from_untrusted(data))
