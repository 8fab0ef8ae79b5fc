"""Import hygiene of the package modules, checked with a small ``ast`` pass.

Neither ruff nor pyflakes is a dependency.  Every name a module imports must
appear as a ``Name`` somewhere in the module or be re-exported through
``__all__``, rationals enter only through the input parsers, every
public function or class is used by the package itself or exported, and
every top-level UPPER_CASE constant is read by package code.
"""

import ast
from pathlib import Path

import twoselmer

SRC = Path(__file__).resolve().parent.parent / "src" / "twoselmer"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_detects_unused():
    source = "import os\nfrom json import dumps, loads\nfrom x import y as z\nloads('1')\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)", "z (line 3)"]


def test_no_unused_imports():
    found = {p.name: unused_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def imports_fractions(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
    return False


def test_fractions_only_in_input_parsers():
    # the class of a/b is the class of ab: below the curve parser and --mask
    # every square class is read from an integer
    found = [p.name for p in sorted(SRC.glob("*.py")) if imports_fractions(p.read_text())]
    assert found == ["cli.py", "curve.py"]


# public definitions that the package does not call, each with the reason it stays
NOT_CALLED_BY_THE_PACKAGE = {
    "clear_image_cache": "the benchmark empties the image cache between passes",
    "collapse_masks": "the paper's rank-lowering step, checked by acceptance criterion 10",
}


def unreferenced_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Public top-level functions and classes that no module names outside their own body.

    References are matched by name (a ``Name`` or an attribute), as in the
    unused-import check; a recursive call does not count as a use.
    """
    defined: list[str] = []
    used: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.append(f"{module}.{own}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return sorted(d for d in defined if d.split(".")[1] not in used | exported)


def test_unreferenced_definition_check():
    sources = {
        "a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
        "def rec(n): return rec(n - 1)\nclass Exported: pass\ndef attr(): pass\n",
        "b": "import a\nfrom a import used\nused()\na.attr()\n",
    }
    assert unreferenced_definitions(sources, {"Exported"}) == ["a.rec", "a.unused"]


def test_no_test_only_library_code():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = unreferenced_definitions(sources, set(twoselmer.__all__))
    # an entry that gains a caller leaves the list
    assert {d.split(".")[1] for d in found} == set(NOT_CALLED_BY_THE_PACKAGE), found


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Top-level UPPER_CASE assignments that no module reads (as a name or an attribute)."""
    assigned: list[str] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.lstrip("_").isupper():
                    assigned.append(f"{module}.{t.id}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(c for c in assigned if c.split(".")[1] not in read)


def test_unread_constant_check():
    sources = {
        "a": "LIMIT = 3\n_BASES = (2, 3)\nUNUSED = 1\n_HIDDEN: int = 2\nlower = 4\n"
        "def f(n): return n < LIMIT\n",
        "b": "import a\nprint(a._BASES)\n",
    }
    assert unread_constants(sources) == ["a.UNUSED", "a._HIDDEN"]


def test_no_unread_constants():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []
