"""Source hygiene: no module imports a name it never references, the
package defines and exports no name that only tests call and holds no
field that no code reads, the command layer reads no private name of
another package module, and importing it loads no scipy subpackage the
commands do not need at start-up.

No linter ships with the project, so these AST scans stand in for the
unused-import check over the library, the tests and the scripts.  Package
``__init__`` modules are skipped, since their imports are re-exports.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "gammaclutter" / "__init__.py"
SOURCES = sorted(path for top in ("src", "tests", "scripts")
                 for path in (ROOT / top).rglob("*.py")
                 if path.name != "__init__.py")
# Where an exported name counts as called: the library, the scripts and the
# benchmark; the README's backticked names count as documented.
CALLERS = sorted(path for top in ("src/gammaclutter", "scripts", "perfbench")
                 for path in (ROOT / top).rglob("*.py")
                 if path != PACKAGE_INIT)
PACKAGE = [path for path in CALLERS if path.parent.name == "gammaclutter"]
# A public member whose bare name another package class also has as a field
# or member counts as read only through the production reader named here:
# module and function, which must read the name as an attribute.
SHARED_NAME_READERS = {
    "PoleMgf.mean": ("saddlepoint", "_solve_saddles"),
}


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


def loaded_names(source: str) -> set[str]:
    """Names read as a bare name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_export_has_a_caller():
    exports = {alias.asname or alias.name
               for node in ast.parse(PACKAGE_INIT.read_text()).body
               if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    called = set().union(*(loaded_names(path.read_text())
                           for path in CALLERS))
    documented = set(re.findall(r"`(\w+)`", (ROOT / "README.md").read_text()))
    uncalled = sorted(exports - called - documented)
    assert exports and not uncalled, uncalled


def public_definitions(source: str) -> list[str]:
    """Public module-level functions and classes, and the public methods
    and properties of those classes, as ``name`` or ``Class.name``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return found


def class_attributes(source: str) -> set[str]:
    """``Class.name`` for each field (annotated in the class body or
    assigned to ``self``) and each method or property of a module-level
    class."""
    found = set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                found.add(f"{node.name}.{item.target.id}")
            elif isinstance(item, ast.FunctionDef):
                found.add(f"{node.name}.{item.name}")
                found |= {f"{node.name}.{sub.attr}" for sub in ast.walk(item)
                          if isinstance(sub, ast.Attribute)
                          and isinstance(sub.ctx, ast.Store)
                          and isinstance(sub.value, ast.Name)
                          and sub.value.id == "self"}
    return found


def target_attributes(source: str) -> set[str]:
    """The attribute strings of ``Target(name, owner, attr)`` calls: the
    benchmark's tracer reads ``owner.attr``."""
    return {node.args[2].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "Target"
            and len(node.args) > 2 and isinstance(node.args[2], ast.Constant)}


def test_scan_finds_public_definitions_and_target_reads():
    src = ("def f(): pass\ndef _g(): pass\nclass A:\n    x: int\n"
           "    def m(self): self.y = 1\n    def _n(self): pass\n"
           "    @property\n    def p(self): return 1\n"
           "t = Target('x.y', A, 'm')\n")
    assert public_definitions(src) == ["f", "A", "A.m", "A.p"]
    assert class_attributes(src) == {"A.x", "A.m", "A.y", "A._n", "A.p"}
    assert target_attributes(src) == {"m"}


def test_every_public_definition_has_a_reader():
    # ROADMAP north star: no public API that only its own test calls
    read = set().union(*(loaded_names(path.read_text())
                         | target_attributes(path.read_text())
                         for path in CALLERS))
    documented = set(re.findall(r"`(\w+)`",
                                (ROOT / "README.md").read_text()))
    attributes = set().union(*(class_attributes(path.read_text())
                               for path in PACKAGE))

    def shared(member):
        name = member.split(".")[1]
        return any(a.endswith(f".{name}") and a != member for a in attributes)

    def is_read(name):
        if "." in name and shared(name):
            return name in SHARED_NAME_READERS
        return name.split(".")[-1] in read | documented

    unread = [f"{path.stem}.{name}" for path in PACKAGE
              for name in public_definitions(path.read_text())
              if not is_read(name)]
    assert not unread, unread
    # each allowlisted member is shared, and its reader reads the name
    for member, (module, function) in SHARED_NAME_READERS.items():
        tree = ast.parse((ROOT / "src" / "gammaclutter" / f"{module}.py")
                         .read_text())
        body, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == function]
        assert shared(member) and member.split(".")[1] in \
            loaded_names(ast.unparse(body)), member


def annotated_fields(source: str) -> list[str]:
    """``Class.name`` for each field annotated in the body of a
    module-level class."""
    return [f"{node.name}.{item.target.id}"
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def attribute_loads(source: str) -> set[str]:
    """Names read as an attribute, ``x.name``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_scan_finds_fields_and_attribute_loads():
    src = ("class A:\n    x: int\n    y: float = 0.0\n    z = 1\n"
           "    def m(self): return self.x + y\n")
    assert annotated_fields(src) == ["A.x", "A.y"]
    assert attribute_loads(src) == {"x"}


def test_every_field_is_read_as_an_attribute():
    """A field of a package class that no library, script or benchmark
    code loads as ``x.field`` is state that nothing uses; a bare name or a
    README mention does not count as a read.

    Names are matched bare, so a field counts as read wherever any
    attribute of its name is loaded: a ``pfa`` or ``method`` field of a
    result would pass on the command layer's ``args.pfa`` and
    ``args.method`` alone, and this scan cannot see such a field."""
    read = set().union(*(attribute_loads(path.read_text())
                         for path in CALLERS))
    unread = [f"{path.stem}.{name}" for path in PACKAGE
              for name in annotated_fields(path.read_text())
              if name.split(".")[1] not in read]
    assert not unread, unread


def private_reads(source: str) -> list[str]:
    """Underscore names read from another package module, by a relative
    ``from .mod import _name`` or as ``mod._name`` after
    ``from . import mod``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules |= {alias.asname or alias.name for alias in node.names}
            else:
                found += [f"{node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    return found + [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]


def test_cli_reads_no_private_name_of_another_module():
    # the command layer goes through each module's public functions
    cli = ROOT / "src" / "gammaclutter" / "cli.py"
    assert private_reads(cli.read_text()) == []


def test_cli_import_loads_only_the_scipy_it_needs():
    # start-up dominates the commands: scipy.special is all they import, and
    # scipy.interpolate loads only when an interpolator is built
    code = "import sys, gammaclutter.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], check=True, text=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout.split()
    heavy = ("scipy.stats", "scipy.linalg", "scipy.interpolate",
             "scipy.optimize")
    assert "gammaclutter.cli" in loaded
    assert not [name for name in heavy if name in loaded]
