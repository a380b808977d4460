"""Every module-level import in the package and its tests is used.

No linter is a dependency of this project, so this is a stdlib `ast` scan:
an imported name counts as used if it appears anywhere in the module as a
name (an attribute chain's root included).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/ordlite/*.py"), *ROOT.glob("tests/*.py")])


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
