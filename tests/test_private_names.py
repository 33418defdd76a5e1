"""Every private function and class in ``src/pfaffian`` is read there.

A name with one leading underscore belongs to its module's implementation,
so code in the package is its only reader: one that nothing in the package
reads is dead, or lives on for tests alone.  The census is syntactic: each
``def`` or ``class`` whose name starts with a single underscore, at any
depth, must be read as an ``ast.Name`` or ``ast.Attribute`` somewhere in
``src/pfaffian`` outside its own definition.
"""

import ast
import collections
import pathlib

import pfaffian

SRC = pathlib.Path(pfaffian.__file__).parent

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _reads(tree):
    """The names ``tree`` reads, as ``ast.Name`` ids and attribute names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _private_definitions(trees):
    """``(module, node)`` of each private function or class, at any depth."""
    return [(module, node) for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, _DEFS) and _private(node.name)]


def unread_private_definitions(trees):
    """Sorted ``module.name`` of each private definition in ``trees`` (module
    name to parsed source) that no code outside it reads."""
    reads = collections.Counter(
        name for tree in trees.values() for name in _reads(tree))
    return sorted(
        f"{module}.{node.name}"
        for module, node in _private_definitions(trees)
        if reads[node.name] == sum(name == node.name for name in _reads(node)))


def test_every_private_definition_is_read_in_the_package():
    assert unread_private_definitions(_trees()) == []


def test_the_census_sees_definitions_at_any_depth():
    names = {node.name for _, node in _private_definitions(_trees())}
    # a module function, a method read as an attribute, a class
    assert {"_scan_samples", "_solve", "_LeftBounds"} <= names


def test_a_definition_read_only_by_itself_is_unread():
    source = """
def _loop(n):
    return _loop(n - 1) if n else 0

class _Used:
    def _method(self):
        return self._helper()

    def _helper(self):
        return 1

def public():
    return _Used()._method()
"""
    trees = {"m": ast.parse(source)}
    assert unread_private_definitions(trees) == ["m._loop"]
