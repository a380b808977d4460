"""Every module-level import in the package and its tests is used, and no
regex literal in the package ends in an unescaped `$`.

No linter is a dependency of this project, so these are stdlib `ast` scans.
An imported name counts as used if it appears anywhere in the module as a
name (an attribute chain's root included). A pattern ending in `$` also
matches before a trailing newline; `fullmatch` does not.
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
