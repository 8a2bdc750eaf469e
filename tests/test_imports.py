"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import sgrel


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    unused = {
        path.name: sorted(names)
        for path in sorted(Path(sgrel.__file__).parent.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    # The one exception: perfbench/tracing.py patches these re-exported names on ``sgrel.alignment``.
    assert unused == {"alignment.py": ["build_ranked", "match_triples"]}


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport json\nimport numpy as np\nfrom os import path, sep\n"
    assert unused_imports(source + "np.sum(sep)\n") == {"json", "path"}
