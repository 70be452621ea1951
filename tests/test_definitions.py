"""Every top-level definition in the package is used somewhere.

A top-level ``def`` or ``class`` in ``src/coarse_kit`` must be named by some
other top-level statement under ``src/`` or ``tests/``: as a name, an
attribute, or an imported name.  Dunders are exempt.  Mentions in comments
or strings do not count, nor do references from inside the definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarse_kit"


def _referenced_names(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def test_no_dead_top_level_definitions():
    files = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "tests").rglob("*.py"))
    definitions = []
    references = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            references.append(((path, index), _referenced_names(stmt)))
            if path.parent == PACKAGE and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append(((path, index), stmt.name))
    dead = []
    for where, name in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(name in names for at, names in references if at != where):
            dead.append(f"{where[0].relative_to(ROOT)}: {name}")
    assert not dead, "top-level definitions named nowhere else: " + \
        ", ".join(dead)
