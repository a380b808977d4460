import hashlib
import json
import sys

import click
import pytest
from click.testing import CliRunner

from conftest import BAD_FIELD_SCRIPTS, SELLER_SCRIPT, coinbase, send_then_recreate, spend, txid
from ordlite import chain, cli as cli_module, envelope, errors, indexer, ordinals, trade
from ordlite.chain import Block, OutPoint, Transaction, TxIn, TxOut
from ordlite.cli import cli
from ordlite.indexer import IndexState
from ordlite.scenario import ScenarioCompiler

SCRIPT = [
    {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
     "deployer": "alice"},
    {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "alice"},
    {"action": "transfer_inscribe", "tick": "ordi", "amt": "100",
     "owner": "alice", "id": "t1"},
    {"action": "transfer_send", "inscription": "t1", "to": "bob"},
]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    script_file = tmp_path / "script.json"
    script_file.write_text(json.dumps(SCRIPT))
    return tmp_path


def run(runner, workdir, *args):
    result = runner.invoke(cli, ["--data-dir", str(workdir / "data"), *args],
                           catch_exceptions=False)
    return result


def indexed(runner, workdir):
    run(runner, workdir, "scenario", str(workdir / "script.json"),
        "-o", str(workdir / "blocks.jsonl"))
    return run(runner, workdir, "index", str(workdir / "blocks.jsonl"))


def test_scenario_and_index(runner, workdir):
    result = indexed(runner, workdir)
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["tip_height"] >= 3
    assert out["diagnostics"] == []


def test_sat_query_all_notations(runner, workdir):
    result = run(runner, workdir, "sat", "2099994106992659")
    out = json.loads(result.output)
    assert out["decimal"] == "3891094.16797"
    assert out["degree"] == "3°111094′214″16797‴"
    assert out["percentile"] == "99.99971949060254%"
    # any notation resolves the same sat
    for query in (out["decimal"], out["degree"], out["percentile"], out["name"]):
        assert json.loads(run(runner, workdir, "sat", query).output)["n"] == \
            2099994106992659


def test_brc20_queries(runner, workdir):
    indexed(runner, workdir)
    bal = json.loads(run(runner, workdir, "brc20", "balance", "ordi",
                         "alice").output)
    assert bal == {"available": "900", "pending": "0"}
    unknown = json.loads(run(runner, workdir, "brc20", "balance", "ordi",
                             "nobody").output)
    assert unknown == {"available": "0", "pending": "0"}
    tick = json.loads(run(runner, workdir, "brc20", "tick", "ordi").output)
    assert tick["minted"] == "1000"


def test_inscriptions_listing(runner, workdir):
    indexed(runner, workdir)
    out = json.loads(run(runner, workdir, "inscriptions").output)
    kinds = [i["kind"] for i in out]
    assert kinds == ["brc20_deploy", "brc20_mint", "brc20_transfer"]
    by_height = json.loads(run(runner, workdir, "inscriptions", "--height",
                               str(out[0]["height"])).output)
    assert [i["id"] for i in by_height] == [out[0]["id"]]


def test_snapshot_hash_deterministic(runner, workdir):
    indexed(runner, workdir)
    one = run(runner, workdir, "snapshot", "hash").output
    two = run(runner, workdir, "snapshot", "hash").output
    assert one == two


def test_snapshot_save_load(runner, workdir, tmp_path):
    indexed(runner, workdir)
    dest = tmp_path / "snap.json"
    saved = json.loads(run(runner, workdir, "snapshot", "save",
                           str(dest)).output)
    loaded = json.loads(run(runner, workdir, "snapshot", "load",
                            str(dest)).output)
    assert saved["hash"] == loaded["hash"]


@pytest.mark.parametrize("command", ["index", "snapshot save", "snapshot load",
                                     "trade offer", "trade accept", "trade settle"])
def test_write_command_serializes_once(runner, workdir, monkeypatch, command):
    """A write encodes the snapshot at most once, and only `snapshot load`,
    which checks that the file is canonical, decodes and encodes it whole:
    `snapshot save` copies the bytes, and `index` and the trade commands
    decode only the records they read and splice what they changed into the
    bytes they read, yet write what the full encoding of the same op
    would."""
    written = workdir / "data" / cli_module.SNAPSHOT_FILE
    saved = workdir / "saved.json"
    if command == "index":
        run(runner, workdir, "scenario", str(workdir / "script.json"),
            "-o", str(workdir / "blocks.jsonl"))
        args = ["index", str(workdir / "blocks.jsonl")]
        mirror = IndexState()
        with open(workdir / "blocks.jsonl") as fp:
            mirror.index_blocks(chain.read_blocks_jsonl(fp))
        expected = mirror.snapshot_bytes()
    elif command.startswith("trade"):
        oid = offered(runner, workdir)
        if command == "trade settle":
            run(runner, workdir, "trade", "accept", oid, "miner")
        mirror = IndexState.from_untrusted(written.read_bytes())
        listed = mirror.offers[oid]
        if command == "trade offer":  # a second ask, which cancels the open offer
            args = ["trade", "offer", "alice", listed.inscription_id, "2000"]
            trade.create_offer(mirror, "alice", listed.inscription_id, 2000)
        elif command == "trade accept":
            args = ["trade", "accept", oid, "miner"]
            fee = trade.DEFAULT_FEE
            trade.accept_offer(mirror, listed, "miner",
                               trade.select_funding(mirror, "miner", listed.ask + fee), fee)
        else:
            args = ["trade", "settle", oid]
            trade.broadcast_and_settle(mirror, listed, "miner")
        expected = mirror.snapshot_bytes()
    else:
        indexed(runner, workdir)
        if command == "snapshot save":
            args, written = ["snapshot", "save", str(saved)], saved
        else:
            run(runner, workdir, "snapshot", "save", str(saved))
            args = ["snapshot", "load", str(saved)]
    calls, decodes = [], []
    to_json, from_json = IndexState.to_json, IndexState.from_json.__func__

    def counted(self):
        calls.append(self)
        return to_json(self)

    def counted_decode(cls, obj):
        decodes.append(obj)
        return from_json(cls, obj)
    monkeypatch.setattr(IndexState, "to_json", counted)
    monkeypatch.setattr(IndexState, "from_json", classmethod(counted_decode))
    out = json.loads(run(runner, workdir, *args).output)
    monkeypatch.undo()
    if command == "snapshot save":  # a copy of the data dir's bytes
        assert calls == decodes == []
        assert written.read_bytes() == (workdir / "data" / cli_module.SNAPSHOT_FILE).read_bytes()
    elif command == "snapshot load":  # its whole decode and its canonical check
        assert len(calls) == len(decodes) == 1
    else:  # the read bytes, with what the command changed spliced in
        assert calls == decodes == []
        assert written.read_bytes() == expected
    digest = hashlib.sha256(written.read_bytes()).hexdigest()
    assert digest == IndexState.from_untrusted(written.read_bytes()).snapshot_hash()
    if not command.startswith("trade"):  # a trade command prints no hash
        assert out["hash"] == digest


def test_cli_byte_identical_output(runner, workdir):
    indexed(runner, workdir)
    a = run(runner, workdir, "inscriptions").output
    b = run(runner, workdir, "inscriptions").output
    assert a == b


def test_trade_cli_cycle(runner, tmp_path):
    script = [
        {"action": "deploy", "tick": "ordi", "max": "2100000", "lim": "1000",
         "deployer": "seller"},
        {"action": "mint", "tick": "ordi", "amt": "1000", "minter": "seller"},
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "1000",
         "owner": "seller", "id": "t1"},
        {"action": "mine", "miner": "buyer"},
    ]
    (tmp_path / "script.json").write_text(json.dumps(script))
    runner_ = runner
    run(runner_, tmp_path, "scenario", str(tmp_path / "script.json"),
        "-o", str(tmp_path / "blocks.jsonl"))
    run(runner_, tmp_path, "index", str(tmp_path / "blocks.jsonl"))

    listing = json.loads(run(runner_, tmp_path, "inscriptions").output)
    transfer_id = [i["id"] for i in listing if i["kind"] == "brc20_transfer"][0]
    offer = json.loads(run(runner_, tmp_path, "trade", "offer", "seller",
                           transfer_id, "20000000").output)
    assert offer["status"] == "open"
    accepted = json.loads(run(runner_, tmp_path, "trade", "accept",
                              offer["offer_id"], "buyer").output)
    assert accepted["status"] == "accepted"
    settled = json.loads(run(runner_, tmp_path, "trade", "settle",
                             offer["offer_id"]).output)
    assert settled["status"] == "settled"
    assert settled["btc_deltas"]["seller"] == 20_000_000
    bal = json.loads(run(runner_, tmp_path, "brc20", "balance", "ordi",
                         "buyer").output)
    assert bal["available"] == "1000"


def test_metrics_cli(runner, tmp_path):
    a = tmp_path / "aaa.csv"
    a.write_text("date,price\n2023-05-01,100\n2023-05-02,110\n2023-05-03,99\n"
                 "2023-05-04,105\n")
    b = tmp_path / "bbb.csv"
    b.write_text("date,price\n2023-05-01,50\n2023-05-02,54\n2023-05-03,51\n"
                 "2023-05-04,55\n")
    result = runner.invoke(cli, ["metrics", "--risk-free", "0.0",
                                 str(a), str(b)], catch_exceptions=False)
    out = json.loads(result.output)
    assert set(out["per_symbol"]) == {"aaa", "bbb"}
    assert "aaa/bbb" in out["correlation"]


def price_csv(path, start):
    path.parent.mkdir(exist_ok=True)
    path.write_text("date,price\n" + "".join(f"2023-05-0{d},{start + d * (-1) ** d}\n"
                                             for d in range(1, 6)))
    return str(path)


def test_metrics_refuses_two_series_of_one_symbol(tmp_path, monkeypatch, capsys):
    a, b = price_csv(tmp_path / "a" / "p.csv", 100), price_csv(tmp_path / "b" / "p.csv", 50)
    code, err = main_exits(monkeypatch, capsys, tmp_path, "metrics", a, b)
    assert (code, err["error"]) == (1, "MetricsError")
    assert "'p'" in err["message"]


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
def test_metrics_refuses_a_risk_free_rate_that_is_not_finite(tmp_path, monkeypatch, capsys,
                                                              rate):
    a = price_csv(tmp_path / "aaa.csv", 100)
    code, err = main_exits(monkeypatch, capsys, tmp_path, "metrics", "--risk-free", rate, a)
    assert (code, err["error"]) == (1, "MetricsError")
    assert "risk-free" in err["message"]


@pytest.mark.parametrize("exc, code", [
    (errors.InvariantViolation("ordi: minted > max"), 2),
    (errors.UnknownTick("ordi"), 1),
    (errors.CorruptSnapshot("not in canonical form"), 1),
])
def test_main_exit_codes(monkeypatch, capsys, exc, code):
    def fail(**kwargs):
        raise exc
    monkeypatch.setattr(cli_module, "cli", fail)
    with pytest.raises(SystemExit) as info:
        cli_module.main()
    assert info.value.code == code
    assert json.loads(capsys.readouterr().err)["error"] == \
        ("InvariantViolation" if code == 2 else type(exc).__name__)


def test_sat_query_with_non_ascii_digit_is_a_json_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "argv", ["ordlite", "--data-dir", str(tmp_path), "sat", "²"])
    with pytest.raises(SystemExit) as info:
        cli_module.main()
    assert info.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "BadSatQuery"


@pytest.mark.parametrize("args, message", [
    (lambda w: ["index", str(w / "missing.jsonl")], "Invalid value for 'BLOCKS'"),
    (lambda w: ["trade", "offer", "alice", "t1", "notanint"], "Invalid value for 'ASK'"),
    (lambda w: ["nosuch"], "No such command 'nosuch'"),
], ids=["missing_input_file", "ask_not_an_int", "unknown_command"])
def test_usage_error_is_a_json_error(workdir, monkeypatch, capsys, args, message):
    code, err = main_exits(monkeypatch, capsys, workdir / "data", *args(workdir))
    assert code == 1
    assert issubclass(getattr(click.exceptions, err["error"]), click.UsageError)
    assert message in err["message"]


def test_bare_ordlite_prints_its_help(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ordlite"])
    try:
        cli_module.main()  # click < 8.2 prints the help and returns
    except SystemExit as exc:  # click >= 8.2 raises, and main exits 1
        assert exc.code == 1
    captured = capsys.readouterr()
    assert "Commands:" in captured.out + captured.err


def _not_utf8(workdir, text):
    path = workdir / "not_utf8"
    path.write_bytes(text.encode() + b"\xff\n")
    return str(path)


@pytest.mark.parametrize("args, error", [
    (lambda w: ["index", _not_utf8(w, "")], "UnicodeDecodeError"),
    (lambda w: ["metrics", _not_utf8(w, "date,price\n2023-05-01,1")], "UnicodeDecodeError"),
    (lambda w: ["snapshot", "save", str(w / "missing" / "snapshot.json")],
     "FileNotFoundError"),
    (lambda w: ["scenario", str(w / "script.json"), "-o", str(w / "missing" / "b.jsonl")],
     "FileNotFoundError"),
    (lambda w: ["snapshot", "load", str(w)], "IsADirectoryError"),
], ids=["index_not_utf8", "metrics_not_utf8", "save_into_missing_dir",
        "scenario_into_missing_dir", "load_a_directory"])
def test_unreadable_or_unwritable_file_is_a_json_error(runner, workdir, monkeypatch, capsys,
                                                       args, error):
    indexed(runner, workdir)
    data = workdir / "data"
    before = {path.name: path.read_bytes() for path in data.iterdir()}
    code, err = main_exits(monkeypatch, capsys, data, *args(workdir))
    assert (code, err["error"]) == (1, error)
    assert {path.name: path.read_bytes() for path in data.iterdir()} == before


def block_line(height, **tx):
    return json.dumps({"height": height, "txs": [{"coinbase": True, **tx}]})


GOOD_TXID = "ab" * 32
ONE_SAT = [{"value": 1, "recipient": "miner"}]


def spend_line(height, vout):
    """A block whose second tx makes two empty outputs and whose third spends
    the one `vout` names; with vout 1 it indexes."""
    maker = "cd" * 32
    return json.dumps({"height": height, "txs": [
        {"coinbase": True, "txid": GOOD_TXID, "outputs": ONE_SAT},
        {"txid": maker, "outputs": [{"value": 0, "recipient": "a"}] * 2},
        {"txid": "ef" * 32, "inputs": [{"txid": maker, "vout": vout}], "outputs": []}]})


@pytest.mark.parametrize("bad_line", [
    lambda h: "{not json",
    lambda h: "[]",
    lambda h: block_line(float(h), txid=GOOD_TXID, outputs=ONE_SAT),
    lambda h: block_line(h, txid="XYZ", outputs=ONE_SAT),
    lambda h: block_line(h, txid=GOOD_TXID, inputs=[{"txid": "XYZ", "vout": 0}],
                         outputs=[]),
    lambda h: block_line(h, txid=GOOD_TXID),
    lambda h: block_line(h, txid=GOOD_TXID, outputs=[{"value": 1, "recipient": 5}]),
    lambda h: "[" * 100_000,
    lambda h: spend_line(h, True),
    lambda h: spend_line(h, 1.0),
    lambda h: block_line(h, txid=GOOD_TXID, outputs=ONE_SAT, coinbase="false"),
], ids=["not_json", "not_an_object", "float_height", "bad_txid", "bad_input_txid",
        "no_outputs", "int_recipient", "nested_too_deep", "bool_vout", "float_vout",
        "string_coinbase"])
def test_malformed_block_line_is_a_json_error(runner, workdir, monkeypatch, capsys,
                                              bad_line):
    run(runner, workdir, "scenario", str(workdir / "script.json"),
        "-o", str(workdir / "blocks.jsonl"))
    lines = (workdir / "blocks.jsonl").read_text().splitlines()
    (workdir / "head.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    run(runner, workdir, "index", str(workdir / "head.jsonl"))
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    before = snapshot.read_bytes()
    # the last good block comes first: it is applied in memory, never saved;
    # the bad line is at the height after it, so only parsing can reject it
    height = json.loads(lines[-1])["height"] + 1
    (workdir / "bad.jsonl").write_text(f"{lines[-1]}\n{bad_line(height)}\n")
    monkeypatch.setattr(sys, "argv", ["ordlite", "--data-dir", str(workdir / "data"),
                                      "index", str(workdir / "bad.jsonl")])
    with pytest.raises(SystemExit) as info:
        cli_module.main()
    assert info.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChainError"
    assert err["message"].startswith("line 2: ")
    assert snapshot.read_bytes() == before


# --- the trust boundary: `snapshot load` validates, reads trust the data dir ---

def _inscribed(obj):
    """An inscription's snapshot record and its UTXO's outpoint."""
    ins = next(i for i in obj["inscriptions"].values() if i["satpoint"])
    return ins, ins["satpoint"].rpartition(":")[0]


def _value_off_by_one(obj):
    obj["utxos"][min(obj["utxos"])]["value"] += 1


def _shared_sat(obj):
    first, second = sorted(obj["utxos"])[:2]
    for field in ("value", "sat_ranges"):
        obj["utxos"][second][field] = obj["utxos"][first][field]


def _on_missing_outpoint(obj):
    _inscribed(obj)[0]["satpoint"] = f"{'00' * 32}:0:0"


def _past_its_value(obj):
    ins, outpoint = _inscribed(obj)
    ins["satpoint"] = f"{outpoint}:{obj['utxos'][outpoint]['value']}"


def _minted_mismatch(obj):
    obj["brc20"]["ticks"]["ordi"]["minted"] = "999"


def _next_number_off_by_one(obj):
    obj["next_number"] += 1


def _genesis_satpoint_moved(obj):
    ins = _inscribed(obj)[0]
    ins["genesis_satpoint"] = ins["genesis_satpoint"][:-1] + "1"


def _number_repeated(obj):
    first, second = sorted(obj["inscriptions"].values(), key=lambda i: i["number"])[:2]
    second["number"] = first["number"]


def _offer(obj):
    """The snapshot record of the data dir's one offer."""
    (offer,) = obj["offers"].values()
    return offer


def _offer_of_the_deploy(obj):
    deploy = next(i for i, ins in obj["inscriptions"].items() if ins["kind"] == "brc20_deploy")
    _offer(obj)["inscription_id"] = deploy


def _offer_re_keyed(obj):
    obj["offers"] = {"0" * 16: _offer(obj)}


def _offer_status_unknown(obj):
    _offer(obj)["status"] = "pending"


def _offer_status_stale(obj):
    _offer(obj)["status"] = "stale"


def _offer_psbt_without_inputs(obj):
    _offer(obj)["psbt"]["inputs"] = []


def _offer_signature_forged(obj):
    _offer(obj)["psbt"]["inputs"][0]["signatures"] = {"alice": "00" * 32}


def _offer_unsigned(obj):
    _offer(obj)["psbt"]["inputs"][0]["signatures"] = {}


def _open_offer_finalized(obj):
    _offer(obj)["psbt"]["finalized"] = True


def _negative_vout(obj):
    key = next(k for k, utxo in sorted(obj["utxos"].items()) if utxo["recipient"] == "miner")
    obj["utxos"][key.rpartition(":")[0] + ":-1"] = obj["utxos"].pop(key)


def _recipient_not_ascii(obj):
    next(utxo for utxo in obj["utxos"].values() if utxo["recipient"] == "miner")["recipient"] = "mïner"


def _mint_relabelled_text(obj):
    next(i for i in obj["inscriptions"].values() if i["kind"] == "brc20_mint")["kind"] = "text"


def _unused_pending(obj):
    return next(p for p in obj["brc20"]["pendings"] if not p["used"])


def _pending_amount_changed(obj):
    _unused_pending(obj)["amt"] = "1"


def _pending_without_inscription(obj):
    pendings = obj["brc20"]["pendings"]
    pendings.append({**_unused_pending(obj), "id": f"{'00' * 32}i0", "amt": "1"})
    pendings.sort(key=lambda p: p["id"])  # in id order, as the canonical form is


def _inscription_renamed(obj):
    """A mint inscription keyed by a name, its derived genesis satpoint to match."""
    ins_id = next(i for i, ins in obj["inscriptions"].items() if ins["kind"] == "brc20_mint")
    obj["inscriptions"]["zz"] = {**obj["inscriptions"].pop(ins_id), "genesis_satpoint": ":0:0"}


def _unused_pending_lost(obj):
    """An unused pending's inscription marked lost, as a burn of its sat would."""
    obj["inscriptions"][_unused_pending(obj)["id"]]["satpoint"] = None


def _deploy_id_names_no_inscription(obj):
    obj["brc20"]["ticks"]["ordi"]["deploy_id"] = f"{'00' * 32}i0"


def _deploy_height_above_tip(obj):
    obj["brc20"]["ticks"]["ordi"]["height"] = obj["tip_height"] + 1


def _balances_of_an_undeployed_tick(obj):
    obj["brc20"]["balances"]["zzzz"] = {"mallory": "5"}


def _numbered(obj, number):
    return next(i for i in obj["inscriptions"].values() if i["number"] == number)


def _mint_height_above_tip(obj):
    next(i for i in obj["inscriptions"].values()
         if i["kind"] == "brc20_mint")["height"] = obj["tip_height"] + 5


def _heights_swapped(obj):
    """The mint's and the next inscription's heights swapped: the later one
    is the lower."""
    first, second = _numbered(obj, 1), _numbered(obj, 2)
    assert first["height"] < second["height"]
    first["height"], second["height"] = second["height"], first["height"]


def _mint_made_a_deploy(obj, tick):
    """The mint inscription's body made a deploy of tick; return its id."""
    ins_id, ins = next(item for item in obj["inscriptions"].items()
                       if item[1]["kind"] == "brc20_mint")
    body = {"p": "brc-20", "op": "deploy", "tick": tick, "max": "2100000", "lim": "1000"}
    ins.update(kind="brc20_deploy", body=json.dumps(body).encode().hex())
    return ins_id


def _later_deploy_named(obj):
    """ordi's deploy_id and height those of a second deploy of ordi."""
    ins_id = _mint_made_a_deploy(obj, "ordi")
    obj["brc20"]["ticks"]["ordi"].update(deploy_id=ins_id,
                                         height=obj["inscriptions"][ins_id]["height"])


def _deploy_of_an_undeployed_tick(obj):
    _mint_made_a_deploy(obj, "zzzz")


def _minted_past_the_mints(obj):
    """ordi's minted and alice's balance both raised to ordi's max: the
    balances still sum to minted, and minted is within max, but the mint
    inscriptions inscribe only 1000 of it."""
    ordi, balances = obj["brc20"]["ticks"]["ordi"], obj["brc20"]["balances"]["ordi"]
    rise = int(ordi["max"]) - int(ordi["minted"])
    assert rise > 0
    ordi["minted"] = ordi["max"]
    balances["alice"] = str(int(balances["alice"]) + rise)


def _minted_below_the_mints(obj):
    """ordi's minted and alice's balance both lowered by 100: the balances
    still sum to minted, and alice's still covers her unused pending, but
    the mint inscriptions inscribe 1000."""
    ordi, balances = obj["brc20"]["ticks"]["ordi"], obj["brc20"]["balances"]["ordi"]
    ordi["minted"] = str(int(ordi["minted"]) - 100)
    balances["alice"] = str(int(balances["alice"]) - 100)


def _tick_max_changed(obj):
    obj["brc20"]["ticks"]["ordi"]["max"] = "2100001"


def _tick_lim_changed(obj):
    obj["brc20"]["ticks"]["ordi"]["lim"] = "999"


def _tick_height_float(obj):
    ordi = obj["brc20"]["ticks"]["ordi"]
    ordi["height"] = float(ordi["height"])


def _tick_height_true(obj):
    """ordi's height JSON true: ordi is deployed at height 1, and True == 1."""
    ordi = obj["brc20"]["ticks"]["ordi"]
    assert ordi["height"] == 1
    ordi["height"] = True


def _range_across_blocks(obj):
    """A coinbase output's two ranges, its fee sats at the end of the block
    before and its subsidy, which meet at its block's first sat, joined into
    one range, as indexing never joins them: the range crosses a block."""
    utxo = next(u for u in obj["utxos"].values()
                if len(u["sat_ranges"]) == 2 and u["sat_ranges"][1][1] == u["sat_ranges"][0][0])
    (_, end), (start, _) = utxo["sat_ranges"]
    utxo["sat_ranges"] = [[start, end]]


def _range_above_the_tip(obj):
    """An uninscribed UTXO's sats moved into the block after the tip, which
    no block mined."""
    inscribed = {i["satpoint"].rpartition(":")[0] for i in obj["inscriptions"].values()
                 if i["satpoint"]}
    key = min((k for k in obj["utxos"] if k not in inscribed),
              key=lambda k: obj["utxos"][k]["value"])
    start = ordinals.start_sat_of_block(obj["tip_height"] + 1)
    assert obj["utxos"][key]["value"] <= chain.block_subsidy(obj["tip_height"] + 1)
    obj["utxos"][key]["sat_ranges"] = [[start, start + obj["utxos"][key]["value"]]]


NOT_THE_LAYOUT = """expected '{"brc20":' at offset 0"""  # the snapshot reader's first check
NOT_MADE = "tick ordi is not what its deploy and mint inscriptions make"  # the tick replay's

CORRUPTIONS = {  # test id -> (edit of the snapshot, how it is written, message part)
    "range_total_off_by_one": (_value_off_by_one, None, "do not total"),
    "two_utxos_share_a_sat": (_shared_sat, None, "share sat"),
    "range_across_blocks": (_range_across_blocks, None, "is not inside block 0's subsidy"),
    "range_above_the_tip": (_range_above_the_tip, None, "is of block 6, above the tip"),
    "inscription_on_missing_outpoint": (_on_missing_outpoint, None, "not unspent"),
    "inscription_past_output_value": (_past_its_value, None, "not on its genesis sat"),
    "minted_does_not_match_balances": (_minted_mismatch, None, "balances sum to"),
    "balances_of_an_undeployed_tick": (_balances_of_an_undeployed_tick, None,
                                       "zzzz: balances of a tick no deploy made"),
    "inscription_id_is_a_name": (_inscription_renamed, None,
                                 "inscription id 'zz' is not <txid>i<k>"),
    "next_number_is_not_the_count": (_next_number_off_by_one, None, "not in canonical form"),
    "genesis_satpoint_moved": (_genesis_satpoint_moved, None, "not in canonical form"),
    "two_inscriptions_share_a_number": (_number_repeated, None, "numbers are not 0..n-1"),
    "re_indented": (lambda obj: None, lambda obj: json.dumps(obj, indent=1, sort_keys=True),
                    NOT_THE_LAYOUT),
    "not_json": (lambda obj: None, lambda obj: "{not json", NOT_THE_LAYOUT),
    "not_an_object": (lambda obj: None, lambda obj: "[]", NOT_THE_LAYOUT),
    "nested_too_deep": (lambda obj: None, lambda obj: "[" * 100_000, NOT_THE_LAYOUT),
    "offer_inscription_id_is_not_its_psbts": (_offer_of_the_deploy, None,
                                              "not in canonical form"),
    "offer_re_keyed": (_offer_re_keyed, None, "is not the id of its seller, inscription and ask"),
    "offer_status_unknown": (_offer_status_unknown, None, "unknown status 'pending'"),
    "offer_status_stale": (_offer_status_stale, None, "unknown status 'stale'"),
    "offer_psbt_without_inputs": (_offer_psbt_without_inputs, None, "IndexError"),
    "offer_signature_forged": (_offer_signature_forged, None,
                               "carries a signature that does not commit to its PSBT"),
    "offer_without_its_sellers_signature": (_offer_unsigned, None,
                                            "lacks its seller's signature"),
    "open_offer_finalized": (_open_offer_finalized, None,
                             "is open but its PSBT is finalized"),
    "mint_relabelled_text": (_mint_relabelled_text, None,
                             "is labelled 'text', its content is 'brc20_mint'"),
    "negative_vout": (_negative_vout, None, "vout -1 is not a non-negative integer"),
    "pending_amount_is_not_its_inscriptions": (_pending_amount_changed, None,
                                               "is not the transfer its inscription inscribes"),
    "pending_names_no_inscription": (_pending_without_inscription, None,
                                     "is not the transfer its inscription inscribes"),
    "unused_pending_not_located": (_unused_pending_lost, None, "is not located"),
    "deploy_id_names_no_inscription": (_deploy_id_names_no_inscription, None,
                                       "tick ordi is not what its deploy"),
    "deploy_height_above_tip": (_deploy_height_above_tip, None,
                                "tick ordi is not what its deploy"),
    "inscription_height_above_tip": (_mint_height_above_tip, None,
                                     "not between an earlier one's"),
    "inscription_heights_decrease": (_heights_swapped, None, "not between an earlier one's"),
    "deploy_id_is_not_the_first_deploy": (_later_deploy_named, None, NOT_MADE),
    # the relabelled mint leaves ordi short of it, and ordi sorts before zzzz
    "deploy_of_an_undeployed_tick": (_deploy_of_an_undeployed_tick, None, NOT_MADE),
    "minted_past_the_mints": (_minted_past_the_mints, None, NOT_MADE),
    "minted_below_the_mints": (_minted_below_the_mints, None, NOT_MADE),
    "tick_max_changed": (_tick_max_changed, None, NOT_MADE),
    "tick_lim_changed": (_tick_lim_changed, None, NOT_MADE),
    "tick_height_float": (_tick_height_float, None, "tick ordi has height 1.0, not an integer"),
    "tick_height_true": (_tick_height_true, None, "tick ordi has height True, not an integer"),
    # canonical bytes are ASCII, so offsets in the decoded text are byte offsets
    "raw_utf8": (_recipient_not_ascii,
                 lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                        ensure_ascii=False),
                 "'ascii' codec can't decode"),
}


def offered(runner, workdir):
    """A data dir holding SCRIPT's chain, a second transfer of alice's and her
    open offer of it; return the offer's id."""
    script = workdir / "offer_script.json"
    script.write_text(json.dumps(SCRIPT + [
        {"action": "transfer_inscribe", "tick": "ordi", "amt": "100", "owner": "alice"}]))
    run(runner, workdir, "scenario", str(script), "-o", str(workdir / "offer_blocks.jsonl"))
    run(runner, workdir, "index", str(workdir / "offer_blocks.jsonl"))
    transfer = json.loads(run(runner, workdir, "inscriptions").output)[-1]["id"]
    return json.loads(run(runner, workdir, "trade", "offer", "alice", transfer,
                          "1000").output)["offer_id"]


def main_exits(monkeypatch, capsys, data_dir, *args):
    """Run `ordlite` through main; return its exit code and stderr JSON."""
    monkeypatch.setattr(sys, "argv", ["ordlite", "--data-dir", str(data_dir), *args])
    with pytest.raises(SystemExit) as info:
        cli_module.main()
    return info.value.code, json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_snapshot_load_rejects_corrupt_snapshot(runner, workdir, monkeypatch, capsys,
                                                corruption):
    edit, dumps, message = CORRUPTIONS[corruption]
    offered(runner, workdir)
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    before = snapshot.read_bytes()
    obj = json.loads(before)
    edit(obj)
    foreign = workdir / "foreign.json"
    foreign.write_text((dumps or chain.canonical_dumps)(obj))
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "snapshot", "load",
                           str(foreign))
    assert code == 1
    assert err["error"] == "CorruptSnapshot"
    assert message in err["message"]
    assert snapshot.read_bytes() == before


def test_trade_accept_refuses_a_negative_fee(runner, workdir, monkeypatch, capsys):
    oid = offered(runner, workdir)
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    before = snapshot.read_bytes()
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "trade", "accept", oid,
                           "miner", "--fee", "-1")
    assert (code, err["error"]) == (1, "TradeError")
    assert snapshot.read_bytes() == before


def test_trade_settle_refuses_a_re_created_listed_outpoint(runner, tmp_path, monkeypatch,
                                                           capsys):
    """The inscription is sent on after `trade accept`, and a tx reusing its
    reveal's txid re-creates the listed outpoint for the seller."""
    comp = ScenarioCompiler(seed=11)
    comp.compile(SELLER_SCRIPT)
    ins_id = comp.handles["t1"]
    for name, blocks in (("blocks", comp.blocks),
                         ("more", send_then_recreate(comp.state, ins_id))):
        with open(tmp_path / f"{name}.jsonl", "w") as fp:
            chain.write_blocks_jsonl(blocks, fp)
    assert run(runner, tmp_path, "index", str(tmp_path / "blocks.jsonl")).exit_code == 0
    oid = json.loads(run(runner, tmp_path, "trade", "offer", "seller", ins_id,
                         "20000000").output)["offer_id"]
    assert json.loads(run(runner, tmp_path, "trade", "accept", oid, "buyer").output)[
        "status"] == "accepted"
    assert run(runner, tmp_path, "index", str(tmp_path / "more.jsonl")).exit_code == 0
    snapshot = tmp_path / "data" / cli_module.SNAPSHOT_FILE
    before = snapshot.read_bytes()
    code, err = main_exits(monkeypatch, capsys, tmp_path / "data", "trade", "settle", oid)
    assert (code, err["error"]) == (1, "DoubleSpend")
    assert snapshot.read_bytes() == before
    assert IndexState.from_untrusted(before).offers[oid].status == "accepted"


@pytest.mark.parametrize("status", ["cancelled", "settled"])
def test_trade_accept_checks_the_offer_before_funding(runner, workdir, monkeypatch, capsys,
                                                      status):
    oid = offered(runner, workdir)
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    if status == "cancelled":
        transfer = json.loads(snapshot.read_bytes())["offers"][oid]["inscription_id"]
        run(runner, workdir, "trade", "offer", "alice", transfer, "2000")
    else:
        run(runner, workdir, "trade", "accept", oid, "miner")
        run(runner, workdir, "trade", "settle", oid)
    before = snapshot.read_bytes()
    assert json.loads(before)["offers"][oid]["status"] == status
    # "nobody" holds no sats, so funding would fail if it were looked for first
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "trade", "accept", oid,
                           "nobody")
    assert (code, err["error"]) == (1, "OfferNotOpen")
    assert snapshot.read_bytes() == before


def test_snapshot_load_takes_an_offer_in(runner, workdir):
    oid = offered(runner, workdir)
    foreign = workdir / "foreign.json"
    foreign.write_bytes((workdir / "data" / cli_module.SNAPSHOT_FILE).read_bytes())
    loaded = json.loads(run(runner, workdir, "snapshot", "load", str(foreign)).output)
    assert loaded["hash"] == hashlib.sha256(foreign.read_bytes()).hexdigest()
    assert json.loads(foreign.read_bytes())["offers"][oid]["status"] == "open"


def test_snapshot_load_takes_a_settled_offer_in(runner, workdir):
    oid = offered(runner, workdir)
    run(runner, workdir, "trade", "accept", oid, "miner")
    assert json.loads(run(runner, workdir, "trade", "settle", oid).output)["status"] == \
        "settled"
    foreign = workdir / "foreign.json"
    foreign.write_bytes((workdir / "data" / cli_module.SNAPSHOT_FILE).read_bytes())
    loaded = run(runner, workdir, "snapshot", "load", str(foreign))
    assert loaded.exit_code == 0
    assert json.loads(loaded.output)["hash"] == hashlib.sha256(foreign.read_bytes()).hexdigest()


@pytest.mark.parametrize("script", [
    "{not json",
    "[" * 100_000,
    '[{"action": "mine", "count": "x"}]',
    '[{"action": "mint", "tick": "ordi", "amt": "1", "minter": 5}]',
    "[5]",
], ids=["not_json", "nested_too_deep", "non_int_count", "int_minter", "not_an_object"])
def test_malformed_scenario_is_a_json_error(workdir, monkeypatch, capsys, script):
    (workdir / "bad.json").write_text(script)
    output = workdir / "out.jsonl"
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "scenario",
                           str(workdir / "bad.json"), "-o", str(output))
    assert (code, err["error"]) == (1, "ActionInvalid")
    assert err["message"].startswith("action 0: ")
    assert not output.exists()


@pytest.mark.parametrize("case", sorted(BAD_FIELD_SCRIPTS))
def test_scenario_with_a_non_int_field_is_action_invalid(workdir, monkeypatch, capsys, case):
    script, field = BAD_FIELD_SCRIPTS[case]
    (workdir / "bad.json").write_text(json.dumps(script))
    output = workdir / "out.jsonl"
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "scenario",
                           str(workdir / "bad.json"), "-o", str(output))
    assert (code, err["error"]) == (1, "ActionInvalid")
    assert err["message"].startswith(f"action {len(script) - 1}: ValueError: field {field!r} ")
    assert not output.exists()


@pytest.mark.parametrize("content", ["{not json", "[" * 100_000],
                         ids=["not_json", "nested_too_deep"])
@pytest.mark.parametrize("args", [("index", "empty.jsonl"), ("trade", "offer", "alice", "t1", "1"),
                                  ("trade", "accept", "o1", "bob"), ("trade", "settle", "o1")],
                         ids=" ".join)
def test_write_on_a_corrupt_data_dir_is_corrupt(workdir, monkeypatch, capsys, content, args):
    """Writes decode the data dir as reads do, and change nothing it holds."""
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    snapshot.parent.mkdir()
    snapshot.write_text(content)
    (workdir / "empty.jsonl").write_text("")
    args = [str(workdir / a) if a.endswith(".jsonl") else a for a in args]
    code, err = main_exits(monkeypatch, capsys, workdir / "data", *args)
    assert (code, err["error"]) == (1, "CorruptSnapshot")
    assert snapshot.read_bytes() == content.encode()


def test_write_reading_a_record_that_is_not_json_is_corrupt(runner, workdir, monkeypatch,
                                                           capsys):
    """A write decodes a record only when it reads it; a record that is not
    JSON is then `CorruptSnapshot`, as a section that is not JSON is."""
    offered(runner, workdir)
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    transfer = json.loads(run(runner, workdir, "inscriptions").output)[-1]["id"]
    text = snapshot.read_text()
    snapshot.write_text(text.replace(f'"{transfer}":{{"body":"', f'"{transfer}":{{"body":'))
    before = snapshot.read_bytes()
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "trade", "offer", "alice",
                           transfer, "2000")
    assert (code, err["error"]) == (1, "CorruptSnapshot")
    assert snapshot.read_bytes() == before


def test_index_spends_an_inscription_whose_content_type_ends_in_a_brace(runner, workdir):
    """A string that ends in `{` is followed by its closing quote, so the
    bytes of an inscription record whose content type is `text/x{` hold
    `{"` before its location. An `index` whose block spends that location
    must still find the record, and write what indexing in memory writes."""
    state = IndexState()
    genesis = Block(0, (coinbase(0, chain.block_subsidy(0), "alice"),))
    state.apply_block(genesis)
    funding = OutPoint(genesis.txs[0].txid, 0)
    reveal = Transaction(txid("brace reveal"), (TxIn(funding, tuple(envelope.build_envelope(
        "text/x{", b"hi"))),), (TxOut(546, "alice", "p2tr_inscription"),
                                TxOut(chain.block_subsidy(0) - 1_546, "alice")))
    first = [genesis, chain.mine_block(1, (reveal,), state.utxos, txid("brace cb1"), "miner")]
    state.apply_block(first[-1])
    send = spend("brace send", [OutPoint(reveal.txid, 0)], [TxOut(546, "bob", "p2tr_inscription")])
    second = [chain.mine_block(2, (send,), state.utxos, txid("brace cb2"), "miner")]
    state.apply_block(second[-1])
    assert state.location[f"{reveal.txid}i0"].outpoint == OutPoint(send.txid, 0)
    for name, blocks in (("first.jsonl", first), ("second.jsonl", second)):
        with open(workdir / name, "w") as fp:
            chain.write_blocks_jsonl(blocks, fp)
        result = runner.invoke(cli, ["--data-dir", str(workdir / "data"), "index",
                                     str(workdir / name)])
        assert result.exit_code == 0, result.exception
    assert json.loads(result.output)["hash"] == state.snapshot_hash()


READS = (("sat", "0"), ("inscriptions",), ("brc20", "tick", "ordi"),
         ("brc20", "balance", "ordi", "alice"), ("snapshot", "hash"))


def forbid_full_load(monkeypatch):
    """Make loading the whole state fail, as no read command may do it."""
    def refuse(*args):
        raise AssertionError("a read command loaded the whole state")
    monkeypatch.setattr(IndexState, "from_json", refuse)
    monkeypatch.setattr(cli_module, "load_state", refuse)


@pytest.mark.parametrize("args", READS, ids=" ".join)
def test_read_of_out_of_order_sections_is_corrupt(runner, workdir, monkeypatch, capsys,
                                                  args):
    indexed(runner, workdir)
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    obj = json.loads(snapshot.read_bytes())
    snapshot.write_text(json.dumps(dict(reversed(obj.items())), separators=(",", ":")))
    forbid_full_load(monkeypatch)  # a layout mismatch never falls back to a full load
    code, err = main_exits(monkeypatch, capsys, workdir / "data", *args)
    assert code == 1
    assert err["error"] == "CorruptSnapshot"


@pytest.mark.parametrize("args", READS, ids=" ".join)
def test_read_commands_never_load_the_whole_state(runner, workdir, monkeypatch, args):
    indexed(runner, workdir)
    forbid_full_load(monkeypatch)
    for data_dir in ("data", "empty"):
        result = runner.invoke(cli, ["--data-dir", str(workdir / data_dir), *args])
        if data_dir == "empty" and args[:2] == ("brc20", "tick"):
            assert isinstance(result.exception, errors.UnknownTick)
        else:
            assert result.exit_code == 0, result.exception


def decoded_sections(monkeypatch) -> list:
    """The snapshot sections the snapshot reader decodes from now on, in
    order, each named by the head its value follows, and the records, each
    named by its key."""
    decoded = []
    decoder = indexer._DECODER

    class Spy:
        def raw_decode(self, text, start):
            decoded.append(text[:start].rpartition('"')[0].rpartition('"')[2])
            return decoder.raw_decode(text, start)
    monkeypatch.setattr(indexer, "_DECODER", Spy())
    return decoded


def _utxo_holding_sat_0(state):
    """The record of the UTXO that holds sat 0, by its key."""
    return [state.sat_report(0)["satpoint"].rpartition(":")[0]]


def _inscriptions_of_height_2(state):
    """The records of the inscriptions revealed at height 2, by key: the mint."""
    return sorted(i.id for i in state.inscriptions.values() if i.height == 2)


@pytest.mark.parametrize("args, sections", [
    (("sat", "0"), _utxo_holding_sat_0),
    (("snapshot", "hash"), lambda state: ["tip_height"]),
    # the ledger without its pendings
    (("brc20", "tick", "ordi"), lambda state: ["ticks", "balances"]),
    (("inscriptions",), lambda state: ["inscriptions"]),
    (("inscriptions", "--height", "2"), _inscriptions_of_height_2),
], ids=["sat", "snapshot hash", "brc20 tick", "inscriptions", "inscriptions --height"])
def test_reads_decode_only_their_sections(runner, workdir, monkeypatch, args, sections):
    """Each read decodes only the sections, or the records, it prints from."""
    indexed(runner, workdir)
    expected = sections(IndexState.from_untrusted(
        (workdir / "data" / cli_module.SNAPSHOT_FILE).read_bytes()))
    assert len(expected) > 0
    decoded = decoded_sections(monkeypatch)
    result = runner.invoke(cli, ["--data-dir", str(workdir / "data"), *args])
    assert result.exit_code == 0, result.exception
    assert decoded == expected


def _drop_the_utxos_section(text):
    return text.rpartition(',"utxos":')[0] + "}"


def _section_between_the_tail_sections(text):
    head, utxos, rest = text.rpartition(',"utxos":')
    return f'{head},"txs":[]{utxos}{rest}'


def _btc_deltas_first(text):
    obj = json.loads(text)
    return json.dumps({"btc_deltas": obj.pop("btc_deltas"), **obj}, separators=(",", ":"))


def _bytes_after_the_last_section(text):
    return text + "{}"


@pytest.mark.parametrize("edit", [_drop_the_utxos_section, _section_between_the_tail_sections,
                                  _btc_deltas_first, _bytes_after_the_last_section])
@pytest.mark.parametrize("args", [("sat", "0"), ("snapshot", "hash"), ("inscriptions",),
                                  ("brc20", "tick", "ordi"), ("trade", "offer", "alice", "t1", "1"),
                                  ("index", "empty.jsonl")], ids=" ".join)
def test_tail_read_of_a_wrong_layout_is_corrupt(runner, workdir, monkeypatch, capsys, edit,
                                                args):
    """Every command that reads the data dir refuses a layout edit, though
    it decodes none of the bytes edited."""
    indexed(runner, workdir)
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    snapshot.write_text(edit(snapshot.read_text()))
    before = snapshot.read_bytes()
    (workdir / "empty.jsonl").write_text("")
    args = [str(workdir / a) if a.endswith(".jsonl") else a for a in args]
    code, err = main_exits(monkeypatch, capsys, workdir / "data", *args)
    assert (code, err["error"]) == (1, "CorruptSnapshot")
    assert snapshot.read_bytes() == before


def test_sat_parses_its_query_before_the_snapshot(workdir, monkeypatch, capsys):
    snapshot = workdir / "data" / cli_module.SNAPSHOT_FILE
    snapshot.parent.mkdir()
    snapshot.write_text("{not json")
    code, err = main_exits(monkeypatch, capsys, workdir / "data", "sat", "not a sat")
    assert (code, err["error"]) == (1, "BadSatQuery")
    assert snapshot.read_text() == "{not json"
