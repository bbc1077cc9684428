"""Every test that takes its example count from `at_least` carries the
``property`` marker: CI selects the tests it runs at the ci profile by
that marker, and an unmarked one would run at tier-1 counts alone."""

import ast
from pathlib import Path

import pytest

MARK = "pytest.mark.property"
TEST_FILES = sorted(Path(__file__).parent.glob("test_*.py"))


def _marked(node) -> bool:
    return any(ast.unparse(d) == MARK for d in node.decorator_list)


def _unmarked(tree: ast.Module) -> list:
    """Names of the functions in `tree` that call `at_least` in a
    decorator and carry the marker neither themselves nor through a
    class around them or the module's ``pytestmark``."""
    module_marked = any(
        isinstance(node, ast.Assign)
        and ast.unparse(node.targets[0]) == "pytestmark"
        and MARK in ast.unparse(node.value) for node in tree.body)
    names = []

    def walk(node, marked):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                here = marked or _marked(child)
                if isinstance(child, ast.FunctionDef) and not here and any(
                        isinstance(n, ast.Name) and n.id == "at_least"
                        for d in child.decorator_list for n in ast.walk(d)):
                    names.append(child.name)
                walk(child, here)

    walk(tree, module_marked)
    return names


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_at_least_tests_carry_the_marker(path):
    assert _unmarked(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, unmarked", [
    ("@settings(max_examples=at_least(5))\ndef test_a(): pass", ["test_a"]),
    ("@pytest.mark.property\n@settings(max_examples=at_least(5))\n"
     "def test_a(): pass", []),
    ("@pytest.mark.property\nclass T:\n"
     "    @settings(max_examples=at_least(5))\n    def test_a(self): pass",
     []),
    ("class T:\n    @settings(max_examples=at_least(5))\n"
     "    def test_a(self): pass", ["test_a"]),
    ("pytestmark = pytest.mark.property\n"
     "@settings(max_examples=at_least(5))\ndef test_a(): pass", []),
    ("@settings(max_examples=5)\ndef test_a(): pass", []),
])
def test_finds_an_unmarked_test(source, unmarked):
    assert _unmarked(ast.parse(source)) == unmarked
