"""The source of ``analysis``, ``classify`` and ``harness``, read as
syntax trees, for the tests that guard which layers a function reaches,
and of every module of the package, for the tests that guard against
dead names.

A name is a pair (module, name).  In a module's own code a bare name is
that module's, and ``analysis.x`` or ``classify.x`` is the other
module's; a name that is not a top-level function or assignment of one
of the three modules leads nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import deltaring
from deltaring import analysis, classify, harness

MODULES = {"analysis": analysis, "classify": classify, "harness": harness}
TREES = {name: ast.parse(Path(module.__file__).read_text()) for name, module in MODULES.items()}
PACKAGE = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(deltaring.__file__).parent.glob("*.py"))}


def _top_level(module: str):
    """Each top-level function and assignment of a module, by name."""
    for node in TREES[module].body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


DEFS = {(module, name): node for module in TREES for name, node in _top_level(module)}


def _followed(node):
    """What a definition reads when it runs: a function's arguments'
    defaults and its body, not its decorators; an assignment's value."""
    if isinstance(node, ast.FunctionDef):
        return [*node.args.defaults, *node.args.kw_defaults, *node.body]
    return [node.value]


def _name(module: str, node):
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in MODULES:
            return node.value.id, node.attr
    if isinstance(node, ast.Name):
        return module, node.id
    return None


def reached(roots, stop=frozenset()) -> set:
    """Every name that ``roots``, (module, AST node) pairs, read, and
    what the definitions of those names read in turn, except the
    definitions named in ``stop``, which are reached but not followed."""
    todo, seen = list(roots), set()
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            name = _name(module, sub)
            if name is None or name in seen:
                continue
            seen.add(name)
            if name in DEFS and name not in stop:
                todo += [(name[0], part) for part in _followed(DEFS[name])]
    return seen


def definition(module: str, name: str):
    """(module, the part of its definition that runs), as roots for :func:`reached`."""
    return [(module, part) for part in _followed(DEFS[module, name])]


def cached_layers() -> set:
    """The functions of ``analysis`` and ``classify`` decorated with
    ``_cached`` or ``_swept``: their names are their cache keys."""
    found = set()
    for (module, name), node in DEFS.items():
        for deco in getattr(node, "decorator_list", ()):
            label = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)
            if label in ("_cached", "_swept"):
                found.add((module, name))
    return found


def layer_names() -> dict:
    """Each entry of ``analysis.LAYERS`` as (module, name) pairs:
    theorem path -> sweep."""

    def named(function):
        return function.__module__.rsplit(".", 1)[1], function.__name__

    return {named(theorem): named(sweep) for theorem, sweep in analysis.LAYERS.values()}


def unused_imports(trees=PACKAGE) -> set:
    """(module, name) for each name a module imports, other than from
    ``__future__``, that its code never reads and its ``__all__`` does
    not list."""
    found = set()
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.add((module, name))
    return found


def unreferenced_private(trees=PACKAGE) -> set:
    """(module, name) for each undecorated top-level function and each
    top-level assignment of a private name (one leading underscore) that
    no module of ``trees`` reads, as a name, an attribute or an import."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [] if node.decorator_list else [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                names = [node.target.id] if isinstance(node, ast.AnnAssign) else []
            found |= {(module, name) for name in names
                      if name.startswith("_") and not name.startswith("__") and name not in read}
    return found
