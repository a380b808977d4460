"""Every module-level import in the package and its tests is used, no
regex literal in the package ends in an unescaped `$`, JSON is decoded only
where bytes enter the package, a `UtxoEntry` is made only from a block's
values or a snapshot's, only `chain.tx_fee` raises `NegativeFee`, the UTXO
set, the inscriptions and their locations are written only where a block
or a snapshot is committed to them, an
output's JSON shape is spelled only in `chain`, every function and method
of the package is reached from the package, and the package holds no
`assert` statement.

No linter is a dependency of this project, so these are stdlib `ast` scans.
An imported name counts as used if it appears anywhere in the module as a
name (an attribute chain's root included). A pattern ending in `$` also
matches before a trailing newline; `fullmatch` does not. Every snapshot has
one reader, `indexer.Snapshot`, which decodes each section, and each record
a CLI command reads, at one place (`value_at`); a second decoder could read
it differently from the first. It alone knows where a record lies: only it
and their own definitions name how a key is sought, how a record's start
and key are read and what opens a record (`_seek`, `_head`,
`_RECORD_OPENS`), so the splice writes each record where the reader found
it and seeks no key again.
`ordinals.assign_ordinals` alone turns a block into UTXO entries, which
`IndexState.apply_block` commits as they are; a second maker could give an
output other ranges. `IndexState.apply_block` and `IndexState.from_json`
alone write the UTXO set, so the recipient -> plain outpoints index they keep
with it cannot drift from it. The UTXO set, the inscriptions and their
locations of a CLI write's state keep what was written to them, which is all
the write re-encodes, so each of their writers must be one a block's or a
snapshot's commit runs. `chain.txout_to_json`
and `txout_from_json` own the output shape, so no other module names its
`"script_kind"` key. `IndexState.validate` checks a loaded tick table
against the one replaying the deploy and mint inscriptions makes, which is
sound only while a tick is made by a deploy or a snapshot's decode alone and
its `minted` is assigned only in `Brc20Ledger.apply_mint`. `cli` holds no
bytes literal: the record syntax a read searches for is `indexer`'s. No
`raise` follows a call of `.apply_block(` in a function's body: a caller checks everything before it commits a block, so
it cannot fail with the block committed and the rest of its work (a trade's
BTC deltas and status) undone. Nor does a `raise` follow a store to a
`.status` attribute: a refused trade leaves every offer's status as it was,
and whether an offer can still settle is `trade.settleable`'s to say.
`chain.tx_fee` is the one fee rule, so building a block, settling a trade and
indexing price a tx alike. `ordinals.find_sat` walks ranges, so only a `sat`
query and the checks of a loaded snapshot call it; applying a block finds a
moved sat by its offset. Code that nothing in the package reaches is
deleted; what only the benchmark reaches is listed in BENCHMARK_ONLY until
the benchmark stops reaching it. `python -O` strips `assert` statements, so
every check in the package raises instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/ordlite/*.py"))
MODULES = sorted([*SOURCES, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_names():
    source = "import os, sys\nfrom json import dumps as d, loads\nimport a.b\nsys.exit(loads(a))\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]


def dollar_anchored_regexes(source: str) -> list[tuple[int, str]]:
    """(line, pattern) of each string literal passed first to an `re`
    function that ends in a `$` not escaped by a backslash."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        pattern = node.args[0].value
        body = pattern[:-1]
        if pattern.endswith("$") and (len(body) - len(body.rstrip("\\"))) % 2 == 0:
            found.append((node.lineno, pattern))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_regex_ends_in_dollar(path):
    assert dollar_anchored_regexes(path.read_text()) == []


def test_scan_finds_dollar_anchors():
    source = r"""re.compile("a$")
re.match(r"b\$", s)
re.search(r"c\\$", s)
re.sub("d", "$", s)
"""
    assert dollar_anchored_regexes(source) == [(1, "a$"), (3, r"c\\$")]


def assert_lines(source: str) -> list[int]:
    """The lines of each `assert` statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []


def test_scan_finds_assert_statements():
    source = """assert x
def f(y):
    if y:
        assert y > 0, "positive"
    return AssertionError, "assert y"
"""
    assert assert_lines(source) == [1, 4]


JSON_DECODERS = {
    "chain.read_blocks_jsonl",  # a JSONL block file
    "brc20.parse_brc20",  # an inscription body
    "indexer.Snapshot.value_at",  # a snapshot's section or record, the data dir's or a file's
    "scenario.load_script",  # a scenario script
}


def calling_scopes(source: str, module: str, is_callee) -> set[str]:
    """The dotted names of the functions (the module, at top level) that make
    a call whose callee expression satisfies is_callee."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and is_callee(child.func):
                found.add(scope)
            visit(child, scope)
    visit(ast.parse(source), module)
    return found


def json_decoders(source: str, module: str) -> set[str]:
    """The functions that call `json.load`, `json.loads` or a `.raw_decode`
    method."""
    return calling_scopes(source, module, lambda func: isinstance(func, ast.Attribute) and (
        func.attr == "raw_decode" or func.attr in ("load", "loads")
        and isinstance(func.value, ast.Name) and func.value.id == "json"))


def test_json_is_decoded_only_where_bytes_enter():
    found = set().union(*(json_decoders(path.read_text(), path.stem) for path in SOURCES))
    assert found == JSON_DECODERS


def test_scan_finds_json_decoders():
    source = """import json
TOP = json.loads("1")
def f(fp):
    return json.load(fp)
class C:
    def g(self, text):
        def inner():
            return DECODER.raw_decode(text)
        return inner, pickle.loads(text), json.dumps(text)
"""
    assert json_decoders(source, "m") == {"m", "m.f", "m.C.g.inner"}


RECORD_SYNTAX = {"_seek", "_head", "_RECORD_OPENS"}
RECORD_SYNTAX_DEFINITIONS = {"indexer._seek", "indexer._head"}


def naming_scopes(source: str, module: str, names: set[str]) -> set[str]:
    """The dotted names of the scopes (the module, at top level) that read
    one of names, as a name or an attribute: a definition or an assignment
    of it does not count."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id in names
                    or isinstance(child, ast.Attribute) and child.attr in names) \
                    and isinstance(child.ctx, ast.Load):
                found.add(scope)
            visit(child, scope)
    visit(ast.parse(source), module)
    return found


def test_only_the_snapshot_reader_knows_where_a_record_lies():
    found = set().union(*(naming_scopes(path.read_text(), path.stem, RECORD_SYNTAX)
                          for path in SOURCES))
    assert found, "the scan found no reader of the record syntax"
    assert {scope for scope in found
            if not scope.startswith("indexer.Snapshot.")} <= RECORD_SYNTAX_DEFINITIONS


def test_scan_finds_record_syntax_names():
    source = """_RECORD_OPENS = {"utxos": b"{"}
def _seek(data, key):
    return _head(data, key), _RECORD_OPENS
def _head(data, at):
    return at
def splice(source):
    return indexer._seek(source), seek
class Snapshot:
    def locate(self, key):
        def inner():
            return _head
        return _seek(self, key), inner
TOP = _RECORD_OPENS["utxos"]
"""
    assert naming_scopes(source, "m", RECORD_SYNTAX) == {
        "m", "m._seek", "m.splice", "m.Snapshot.locate", "m.Snapshot.locate.inner"}


UTXO_ENTRY_MAKERS = {
    "ordinals.assign_ordinals.create",  # a block's UTXO delta
    "indexer._utxo_from_json",  # a snapshot's UTXO record
}


def utxo_entry_makers(source: str, module: str) -> set[str]:
    """The functions that call `UtxoEntry` or `<module>.UtxoEntry`."""
    return calling_scopes(source, module, lambda func: "UtxoEntry" in (
        getattr(func, "id", None), getattr(func, "attr", None)))


def test_utxo_entries_are_made_only_by_assign_ordinals_and_snapshot_decoding():
    found = set().union(*(utxo_entry_makers(path.read_text(), path.stem) for path in SOURCES))
    assert found == UTXO_ENTRY_MAKERS


def test_scan_finds_utxo_entry_makers():
    source = """from chain import UtxoEntry
E = UtxoEntry(o)
def f():
    return [chain.UtxoEntry(o, r) for o, r in x]
class C:
    def g(self):
        def inner():
            return UtxoEntry, chain.UtxoEntry
        return inner, make_UtxoEntry(o), UtxoEntries(o)
"""
    assert utxo_entry_makers(source, "m") == {"m", "m.f"}


FIND_SAT_CALLERS = {
    "indexer.sat_report",  # `ordlite sat`
    "indexer.IndexState.validate",  # a loaded snapshot's locations
    "ordinals.locate_sat",  # the benchmark's sat lookups
}


def find_sat_callers(source: str, module: str) -> set[str]:
    """The functions that call `find_sat` or `<module>.find_sat`."""
    return calling_scopes(source, module, lambda func: "find_sat" in (
        getattr(func, "id", None), getattr(func, "attr", None)))


def test_only_queries_and_snapshot_checks_walk_ranges_for_a_sat():
    found = set().union(*(find_sat_callers(path.read_text(), path.stem) for path in SOURCES))
    assert found == FIND_SAT_CALLERS


def test_scan_finds_find_sat_callers():
    source = """def f(n, outputs):
    return ordinals.find_sat(n, outputs)
class C:
    def g(self, n):
        return find_sat(n, ()), self.find_sats(n), find_sat
"""
    assert find_sat_callers(source, "m") == {"m.f", "m.C.g"}


def negative_fee_raisers(source: str, module: str) -> set[str]:
    """The functions that call `NegativeFee` or `<module>.NegativeFee`."""
    return calling_scopes(source, module, lambda func: "NegativeFee" in (
        getattr(func, "id", None), getattr(func, "attr", None)))


def test_only_tx_fee_raises_negative_fee():
    found = set().union(*(negative_fee_raisers(path.read_text(), path.stem)
                          for path in SOURCES))
    assert found == {"chain.tx_fee"}


def test_scan_finds_negative_fee_raisers():
    source = """class NegativeFee(Exception):
    pass
def f(fee):
    if fee < 0:
        raise errors.NegativeFee(str(fee))
class C:
    def g(self):
        return NegativeFee("short"), errors.NegativeFee, NegativeFees()
"""
    assert negative_fee_raisers(source, "m") == {"m.f", "m.C.g"}


def own_nodes(node):
    """Every node under node, except those inside a nested function or class."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from own_nodes(child)


UTXO_SET_WRITERS = {
    "indexer.IndexState.apply_block",  # a block's UTXO delta, with the plain-outpoint index
    "indexer.IndexState.from_json",  # a snapshot's UTXOs, with the plain-outpoint index
}
# A CLI write splices only the records written to its state's maps since it
# decoded them, so every writer of the UTXO set (above), the locations or the
# inscriptions must be one that applying a block, or decoding a snapshot, runs.
STATE_WRITERS = {
    "location": {
        "indexer.IndexState._place",  # a reveal, a move or a snapshot's location
        "indexer.IndexState._track_moved_inscriptions",  # the lost inscription's delete
    },
    "inscriptions": {
        "indexer.IndexState._extract_reveals",  # a reveal
        "indexer.IndexState.from_json",  # a snapshot's inscriptions
    },
    # `IndexState.validate`'s replay of the deploys and mints relies on these
    # alone making a tick, and on MINTED_WRITERS alone changing its `minted`
    "ticks": {
        "brc20.Brc20Ledger.apply_deploy",  # a deploy
        "brc20.Brc20Ledger.from_tables",  # a snapshot's ticks
    },
}
MINTED_WRITERS = {"brc20.Brc20Ledger.apply_mint"}
WRITE_METHODS = {"update", "pop", "popitem", "clear", "setdefault"}


def state_writers(source: str, module: str, attr: str) -> set[str]:
    """The dotted names of the scopes (the module, at top level) that write
    the mapping an `attr` attribute holds (`location` matches `<x>.location`):
    assign or delete an item of it, or call its update, pop, popitem, clear
    or setdefault, directly or through a name the scope itself binds to it,
    a parameter named `attr` included."""
    found = set()

    def is_written(node, aliases) -> bool:
        if isinstance(node, ast.Name):
            return node.id in aliases
        return isinstance(node, ast.Attribute) and node.attr == attr

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
        nodes = list(own_nodes(node))
        params = getattr(node, "args", None)
        aliases = {a.arg for a in (*params.posonlyargs, *params.args, *params.kwonlyargs)
                   if a.arg == attr} if params else set()
        for n in nodes:
            if isinstance(n, ast.Assign):
                for target in n.targets:
                    pairs = (zip(target.elts, n.value.elts) if isinstance(target, ast.Tuple)
                             and isinstance(n.value, ast.Tuple) else [(target, n.value)])
                    aliases.update(t.id for t, v in pairs
                                   if isinstance(t, ast.Name) and is_written(v, ()))
        if any(isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del))
               and is_written(n.value, aliases)
               or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr in WRITE_METHODS and is_written(n.func.value, aliases)
               for n in nodes):
            found.add(scope)
    visit(ast.parse(source), module)
    return found


def test_utxo_set_is_written_only_by_apply_block_and_snapshot_decoding():
    found = set().union(*(state_writers(path.read_text(), path.stem, "utxos")
                          for path in SOURCES))
    assert found == UTXO_SET_WRITERS


@pytest.mark.parametrize("target", ["location", "inscriptions"])
def test_locations_and_inscriptions_are_written_only_by_commits(target):
    found = set().union(*(state_writers(path.read_text(), path.stem, target)
                          for path in SOURCES))
    assert found == STATE_WRITERS[target]


def test_ticks_are_made_only_by_deploys_and_snapshot_decoding():
    found = set().union(*(state_writers(path.read_text(), path.stem, "ticks")
                          for path in SOURCES))
    assert found == STATE_WRITERS["ticks"]


def test_scan_finds_tick_writers():
    source = """class Ledger:
    def deploy(self, op):
        self.ticks[op.tick] = op
    def load(self, obj):
        ticks = self.ticks
        ticks.update(obj)
    def reads(self, op, made):
        ticks, made = self.ticks, {}
        made[op.tick] = ticks[op.tick]
        return ticks == made, self.ticks.get(op.tick), self.tick.pop(op)
"""
    assert state_writers(source, "m", "ticks") == {"m.Ledger.deploy", "m.Ledger.load"}


def attribute_assigners(source: str, module: str, attr: str) -> set[str]:
    """The dotted names of the scopes (the module, at top level) that assign
    an `attr` attribute, an augmented assignment included."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
        if any(isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Store)
               for n in own_nodes(node)):
            found.add(scope)
    visit(ast.parse(source), module)
    return found


def test_minted_changes_only_in_a_mint():
    found = set().union(*(attribute_assigners(path.read_text(), path.stem, "minted")
                          for path in SOURCES))
    assert found == MINTED_WRITERS


def test_scan_finds_minted_assigners():
    source = """class TickState:
    minted: int
def mint(state, amt):
    state.minted += amt
def load(state, obj):
    state.max, state.minted = obj
    minted = state.minted
    return minted, state.minted_at, TickState(minted=1)
class Ledger:
    def reset(self):
        def inner(state):
            state.minted = 0
        return inner
TOP = x.minted = 1
"""
    assert attribute_assigners(source, "m", "minted") == {
        "m", "m.mint", "m.load", "m.Ledger.reset.inner"}


def test_scan_finds_utxo_set_writers():
    source = """def f(s, op, e):
    s.utxos[op] = e
def g(s, k):
    del s.state.utxos[k]
def h(utxos, x):
    utxos.update(x)
def i(self, k):
    spent, other = self.utxos, {}
    spent.pop(k)
    other.pop(k)
class C:
    def j(self):
        self.utxos.clear()
        def inner(unspent, k):
            unspent.pop(k)
        return inner
def reads(s, op, utxo):
    unspent = s.utxos
    unspent[op].txout.value = 1
    utxo.pop(op)
    return (unspent[op], s.utxos.get(op), op in unspent, s.entries.pop(op),
            s.utxos.written.pop(op), {op: 1}.update(unspent), chain.require(s.utxos, op))
TOP = x.utxos.setdefault(k, v)
"""
    assert state_writers(source, "m", "utxos") == {"m", "m.f", "m.g", "m.h", "m.i", "m.C.j"}


def test_scan_finds_location_and_inscription_writers():
    source = """def f(s, i, p):
    s.location[i] = p
def g(self, i):
    del self.location[i]
def h(state, x):
    state.inscriptions.update(x)
def i(self, k):
    location, other = self.location, {}
    location.pop(k)
    other.pop(k)
class C:
    def j(self, k):
        self.inscriptions.setdefault(k, None)
        def inner(location, k):
            location.pop(k)
        return inner
def reads(s, i):
    location = s.location
    location[i].outpoint = 1
    return (s.location.get(i), i in s.inscriptions, s.location.written.get(i),
            s.inscription.pop(i), {i: 1}.update(location), s.by_outpoint.pop(i))
TOP = x.location.clear()
"""
    assert state_writers(source, "m", "location") == {"m", "m.f", "m.g", "m.i", "m.C.j.inner"}
    assert state_writers(source, "m", "inscriptions") == {"m.h", "m.C.j"}


def commits_a_block(node) -> bool:
    """A call of `.apply_block(`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "apply_block")


def sets_a_status(node) -> bool:
    """A store to a `.status` attribute."""
    return (isinstance(node, ast.Attribute) and node.attr == "status"
            and isinstance(node.ctx, ast.Store))


def raises_after(source: str, module: str, is_marker) -> list[str]:
    """`<function>: line <n>` for each `raise` in a function's own body
    (nested functions apart) that comes after its first node satisfying
    is_marker."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        nodes = list(own_nodes(node))
        marks = [(n.lineno, n.col_offset) for n in nodes if is_marker(n)]
        if marks:
            found.extend(f"{scope}: line {n.lineno}" for n in nodes if isinstance(n, ast.Raise)
                         and (n.lineno, n.col_offset) > min(marks))
    visit(ast.parse(source), module)
    return found


def test_nothing_raises_after_a_block_is_committed():
    found = [line for path in SOURCES
             for line in raises_after(path.read_text(), path.stem, commits_a_block)]
    assert found == []


def test_scan_finds_raises_after_commit():
    source = """def f(s, b):
    if not b:
        raise ValueError
    s.apply_block(b)
    return b
def g(s, b):
    s.state.apply_block(b)
    for x in b:
        if x:
            raise ValueError
class C:
    def h(self, b):
        self.apply_block(b)
        def inner():
            raise KeyError
        return inner
    def k(self, b):
        apply_block(b)
        raise KeyError
"""
    assert raises_after(source, "m", commits_a_block) == ["m.g: line 10"]


def test_nothing_raises_after_an_offer_status_is_set():
    found = [line for path in SOURCES
             for line in raises_after(path.read_text(), path.stem, sets_a_status)]
    assert found == []


def test_scan_finds_raises_after_a_status_is_set():
    source = """def f(offer, ok):
    if not ok:
        raise ValueError
    offer.status = "accepted"
    return offer
def g(state, offer):
    for other in state.offers.values():
        other.status = "cancelled"
    if offer.status != "open":
        raise KeyError
class C:
    def h(self):
        self.status, n = "settled", 1
        def inner():
            raise KeyError
        return inner
    def k(self, offer):
        status = "stale"
        offer.state = status
        raise KeyError
"""
    assert raises_after(source, "m", sets_a_status) == ["m.g: line 10"]


def bytes_literal_lines(source: str) -> list[int]:
    """The lines of each bytes literal in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, bytes))


def test_the_cli_spells_no_record_bytes():
    assert bytes_literal_lines((ROOT / "src/ordlite/cli.py").read_text()) == []


def test_scan_finds_bytes_literals():
    source = """a = b'{"height":'
b = "height", f"{a}"
c = (b"x"
     b"y")
d = rb"%d" % 1
"""
    assert bytes_literal_lines(source) == [1, 3, 5]


def string_literal_lines(source: str, value: str) -> list[int]:
    """The lines of each string literal in source that equals value."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value == value)


def test_output_shape_is_spelled_only_in_chain():
    spelled = {path.name for path in SOURCES
               if string_literal_lines(path.read_text(), "script_kind")}
    assert spelled == {"chain.py"}


def test_scan_finds_string_literals():
    source = """a = {"script_kind": 1}
b = o.script_kind
c = "script_kind_x", b"script_kind"
d = f"script_kind"
e = ("script"
     "_kind")
"""
    assert string_literal_lines(source, "script_kind") == [1, 4, 5]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# reached only from bench/, which changes only with the benchmark: each entry
# names the ROADMAP item that removes it
BENCHMARK_ONLY = {
    "chain.UtxoSet.entries": "item 12, once item 2 points bench/ at the UTXO set itself",
    "ordinals.locate_sat": "item 12, once item 2 stops the tracer wrapping it",
    "indexer.IndexState.save": "item 12, once item 2 points bench/session.py at cli.save_state",
    "indexer.IndexState.snapshot_hash": "item 12, once item 2 moves the tracer and "
                                        "bench/session.py's hash checks off it",
}


def unreached(sources: dict[str, str]) -> set[str]:
    """The top-level functions and methods (`module.f`, `module.C.m`) of the
    modules in sources (module name -> source) whose name occurs, as a name
    or an attribute, nowhere outside their own body, except dunders and
    click commands (decorated by a `.command(...)` or `.group(...)` call).
    Names are matched without their owner, so a function reached only
    through a namesake counts as reached."""
    defined = {}  # dotted name -> def node
    occurs_in = {}  # name -> the dotted names of the defs it occurs in (None: outside any)

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            child_scope, child_owner = scope, owner
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                child_scope = f"{scope}.{child.name}"
                if isinstance(child, FUNCTIONS) and owner is None:
                    defined[child_scope] = child
                    child_owner = child_scope
            elif isinstance(child, (ast.Name, ast.Attribute)):
                name = child.id if isinstance(child, ast.Name) else child.attr
                occurs_in.setdefault(name, set()).add(owner)
            visit(child, child_scope, child_owner)

    for module, source in sources.items():
        visit(ast.parse(source), module, None)

    def exempt(node) -> bool:
        return (node.name.startswith("__") and node.name.endswith("__")
                or any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                       and d.func.attr in ("command", "group") for d in node.decorator_list))

    return {dotted for dotted, node in defined.items()
            if not exempt(node) and not occurs_in.get(node.name, set()) - {dotted}}


def test_every_function_is_reached_from_the_package():
    found = unreached({path.stem: path.read_text() for path in SOURCES})
    assert found == set(BENCHMARK_ONLY)


def test_scan_finds_unreached_functions():
    source = """import click
def used():
    return 1
def recursive(n):
    return recursive(n - 1) if n else used()
def unused():
    def inner():
        return inner
    return inner
@click.group()
def cli():
    pass
@cli.command("go")
def go():
    return C().method(), helper
class C:
    def __init__(self):
        self.x = "spare"
    def method(self):
        return self.x
    def spare(self):
        return self.method()
    @property
    def helper(self):
        return None
"""
    assert unreached({"m": source}) == {"m.recursive", "m.unused", "m.C.spare"}
