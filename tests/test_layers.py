import ast
from pathlib import Path

import pytest

import misspec_ssl

SOURCES = sorted(Path(misspec_ssl.__file__).parent.glob("*.py"))


def private_imports(source):
    """(line, module, name) of every relative ``from .x import _y`` in
    ``source``. Imports from outside the package are out of scope."""
    return [(node.lineno, node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_private_imports_are_found():
    source = ("from .kernels import KernelMatrix, _row_blocks\nfrom . import _x\n"
              "from numpy._core import umath\nfrom .core import InputError\n")
    assert private_imports(source) == [(1, "kernels", "_row_blocks"), (2, None, "_x")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
