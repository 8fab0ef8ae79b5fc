"""Every name a package module imports is used in that module.

Neither ruff nor pyflakes is a dependency, so this is a small ``ast`` pass:
a name bound by an import must appear as a ``Name`` somewhere in the module
or be re-exported through ``__all__``.
"""

import ast
from pathlib import Path

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
