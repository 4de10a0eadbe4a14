"""Every function, class and method under src/sportscaster is used somewhere
but in the tests: a definition only tests reach belongs in the tests, as a
_reference_* the code is pinned against."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(directory):
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / directory).glob("*.py"))}


def _definitions(tree):
    """Each top-level function and class, and each method of a top-level
    class but the dunder ones, as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def _references(trees, strings=False):
    """Name -> the nodes that reference it: each ast.Name and ast.Attribute,
    and with strings each str constant (the bench tracer wraps attributes
    by name)."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            found.setdefault(name, []).append(node)
    return found


def test_every_definition_is_referenced_outside_the_tests():
    sources = _parse("src/sportscaster")
    in_source = _references(sources.values())
    outside = _references(_parse("demos").values())
    outside.update(_references(_parse("bench").values(), strings=True))
    unused = []
    for path, tree in sources.items():
        for name, node in _definitions(tree):
            if name in outside:
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(ref) in inside for ref in in_source.get(name, ())):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
