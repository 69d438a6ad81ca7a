"""Static checks on the package source, in place of a linter.

Each module of ``algebragen`` is parsed with ``ast``: an import that its
module never reads, or a module-level private name that nothing in the
package reads, is a leftover of a deletion.  No module asserts: ``python -O``
strips an ``assert``, and the CLI's exit table maps no AssertionError.  The
CLI's subcommands and its ``cmd_*`` functions match one to one.
"""

import ast
from pathlib import Path

import pytest

import algebragen

PACKAGE = Path(algebragen.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads: loaded names, attributes, and the names
    that ``from ... import`` statements take from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__.py"}))
def test_no_unused_imports(name):
    tree = MODULES[name]
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(bound - loaded) == []


def test_no_asserts():
    found = [(name, node.lineno) for name, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []


def test_private_names_are_used():
    read = set().union(*(_read_names(tree) for tree in MODULES.values()))
    defined = set()
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - read) == []


def test_every_subcommand_has_its_command():
    # main looks up cmd_<subcommand> by name: a missing function would be a
    # KeyError traceback, which exits 1, the non-member code
    tree = MODULES["cli.py"]
    subcommands = [node.args[0].value.replace("-", "_") for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_parser"]
    commands = [node.name.removeprefix("cmd_") for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert commands and sorted(subcommands) == sorted(commands)
