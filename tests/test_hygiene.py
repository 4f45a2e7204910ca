"""Source hygiene: no module imports a name it never references.

No linter ships with the project, so this AST scan stands in for the
unused-import check over the library, the tests and the scripts.  Package
``__init__`` modules are skipped, since their imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "scripts")
                 for path in (ROOT / top).rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded afterwards."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_flags_unused_and_accepts_used():
    src = ("from __future__ import annotations\nimport math\n"
           "import os.path\nfrom numpy import array as arr\n"
           "x = os.path.join('a')\n")
    assert unused_imports(src) == ["line 2: math", "line 4: arr"]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in SOURCES}
    assert SOURCES and not {k: v for k, v in found.items() if v}
