"""Every module-level import in the package and its tests is used, no
regex literal in the package ends in an unescaped `$`, JSON is decoded only
where bytes enter the package, and an output's JSON shape is spelled only in
`chain`.

No linter is a dependency of this project, so these are stdlib `ast` scans.
An imported name counts as used if it appears anywhere in the module as a
name (an attribute chain's root included). A pattern ending in `$` also
matches before a trailing newline; `fullmatch` does not. Every snapshot has
one decoder, `indexer.read_sections`; a second one could read it differently
from the first. `chain.txout_to_json` and `txout_from_json` own the output
shape, so no other module names its `"script_kind"` key.
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


JSON_DECODERS = {
    "chain.read_blocks_jsonl",  # a JSONL block file
    "brc20.parse_brc20",  # an inscription body
    "indexer.read_sections",  # a snapshot, the data dir's or a file from elsewhere
    "scenario.load_script",  # a scenario script
}


def json_decoders(source: str, module: str) -> set[str]:
    """The dotted names of the functions (the module, at top level) that call
    `json.load`, `json.loads` or a `.raw_decode` method."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and (
                    func.attr == "raw_decode" or func.attr in ("load", "loads")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                found.add(scope)
            visit(child, scope)
    visit(ast.parse(source), module)
    return found


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
