"""Every definition in the package is used somewhere.

A top-level ``def`` or ``class`` in ``src/coarse_kit`` must be named by some
other top-level statement under ``src/`` or ``tests/``: as a name, an
attribute, or an imported name.  A method of a package class must be named
outside its own body: by another statement of its class or by any other
top-level statement.  Dunders are exempt.  Mentions in comments or strings do
not count, nor do references from inside the definition.

Every field of a package class, a ``self.<name> = ...`` of its ``__init__``,
is read as an attribute somewhere under ``src/`` or ``tests/``: a field that
is only ever set is dead weight.  So is a module-level UPPER_CASE constant of
the package that no other top-level statement under ``src/`` or ``tests/``
reads.

Every function that ``perfbench/design.json`` lists for tracing resolves to
a module-level callable of the package.
"""

import ast
import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarse_kit"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCTIONS + (ast.ClassDef,)


def _referenced_names(node, loads_only=False):
    out = set()
    for sub in ast.walk(node):
        if loads_only and isinstance(sub, (ast.Name, ast.Attribute)) and \
                not isinstance(sub.ctx, ast.Load):
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _sources():
    return sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "tests").rglob("*.py"))


def _dead_definitions():
    """(top-level names, method names) that nothing outside them names."""
    files = _sources()
    definitions = []
    methods = []
    references = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            where = (path, index)
            references.append((where, _referenced_names(stmt)))
            if path.parent != PACKAGE or not isinstance(stmt, DEFS):
                continue
            definitions.append((where, stmt.name))
            if not isinstance(stmt, ast.ClassDef):
                continue
            for member in stmt.body:
                if isinstance(member, FUNCTIONS):
                    rest = set().union(*[_referenced_names(m) for m in
                                         stmt.body if m is not member])
                    methods.append((where, f"{stmt.name}.{member.name}",
                                    member.name, rest))

    def named_elsewhere(name, where):
        return any(name in names for at, names in references if at != where)

    dead = [f"{where[0].relative_to(ROOT)}: {name}"
            for where, name in definitions
            if not _is_dunder(name) and not named_elsewhere(name, where)]
    dead_methods = [
        f"{where[0].relative_to(ROOT)}: {qualname}"
        for where, qualname, name, rest in methods
        if not _is_dunder(name) and name not in rest
        and not named_elsewhere(name, where)]
    return dead, dead_methods


def test_no_dead_top_level_definitions():
    dead, _ = _dead_definitions()
    assert not dead, "top-level definitions named nowhere else: " + \
        ", ".join(dead)


def test_no_dead_methods():
    _, dead = _dead_definitions()
    assert not dead, "methods named nowhere outside their body: " + \
        ", ".join(dead)


def _init_fields(cls):
    """The names ``self.<name> = ...`` assigns in the ``__init__`` of a
    class: its fields."""
    for member in cls.body:
        if isinstance(member, FUNCTIONS) and member.name == "__init__":
            me = member.args.args[0].arg
            return [target.attr for stmt in ast.walk(member)
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for top in (stmt.targets if isinstance(stmt, ast.Assign)
                                else [stmt.target])
                    for target in ast.walk(top)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == me]
    return []


def test_no_write_only_fields():
    """Reads are ``obj.field`` loads and ``getattr(obj, "field")`` calls;
    a field counts as read when any object's attribute of that name is."""
    fields = []
    read = set()
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
            elif path.parent == PACKAGE and isinstance(node, ast.ClassDef):
                fields.extend((f"{node.name}.{name}", name)
                              for name in dict.fromkeys(_init_fields(node)))
    # the 17 former dataclasses alone have 72 fields
    assert len({qualname.split(".")[0] for qualname, _ in fields}) >= 17
    assert len(fields) >= 72
    unread = [qualname for qualname, name in fields if name not in read]
    assert not unread, "fields never read: " + ", ".join(unread)


def test_no_unread_module_constants():
    """A read is a load of the name, an attribute of that name or an import
    of it, in a top-level statement other than the assignment."""
    constants = []
    reads = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            where = (path, index)
            reads.append((where, _referenced_names(stmt, loads_only=True)))
            if path.parent != PACKAGE or \
                    not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else \
                [stmt.target]
            constants.extend(
                (where, name.id) for target in targets
                for name in ast.walk(target) if isinstance(name, ast.Name)
                and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id))
    assert len(constants) >= 20
    unread = [f"{where[0].relative_to(ROOT)}: {name}"
              for where, name in constants
              if not any(name in names for at, names in reads
                         if at != where)]
    assert not unread, "module constants never read: " + ", ".join(unread)


def test_traced_functions_resolve():
    """Every function the bench traces is a module-level callable of its
    home module, so a rename fails here and not only under ``--trace 1``."""
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    names = [layer["function"] for layer in design["layers"]]
    assert names
    missing = []
    for name in names:
        home, attr = name.split(".")
        module = importlib.import_module(f"coarse_kit.{home}")
        fn = getattr(module, attr, None)
        if not callable(fn) or fn.__module__ != module.__name__:
            missing.append(name)
    assert not missing, "traced names that do not resolve: " + \
        ", ".join(missing)
