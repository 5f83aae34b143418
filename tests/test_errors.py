"""The three failure classes of ssflab.errors, and the handlers in src/ssflab that may catch a ValueError."""

import ast
from pathlib import Path

import pytest

from ssflab import errors
from ssflab.errors import IoError, ValidationError

SRC = Path(__file__).resolve().parent.parent / "src" / "ssflab"
CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_is_a_refusal_a_numeric_failure_or_a_write_failure(cls):
    assert [issubclass(cls, base) for base in (ValidationError, ArithmeticError, IoError)].count(True) == 1


def _caught_names(node) -> list[str]:
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _caught_names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


def _value_error_handlers(node, module: str, where: str = "<module>"):
    """(module, enclosing function) of every handler under node that names ValueError itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler) and "ValueError" in _caught_names(child.type):
            yield module, where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _value_error_handlers(child, module, inner)


def test_only_the_standard_library_text_parsers_catch_value_error():
    # A ValueError caught anywhere else would read a program fault (numpy refusing two shapes) as a refusal of
    # the input. These two catch the standard library refusing malformed text: base64 and float().
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = [handler for name, tree in trees.items() for handler in _value_error_handlers(tree, name)]
    assert found == [("export.py", "read_ssf_csv"), ("scenario.py", "_matrix_bytes")]
