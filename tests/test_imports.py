"""Import hygiene of the package modules, checked with a small ``ast`` pass.

Neither ruff nor pyflakes is a dependency.  Every name a module imports must
appear as a ``Name`` somewhere in the module or be re-exported through
``__all__``, and rationals enter only through the input parsers.
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
