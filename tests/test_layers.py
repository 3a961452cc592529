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


def orphaned_privates(sources):
    """(file, line, name) of every private function, class or method
    defined in ``sources`` (file -> text) that no code among them uses: by
    its bare name in its own file, or as an attribute or a string (as
    getattr takes it) in any. Dunder names are hooks that Python calls, so
    they are out of scope."""
    defined, names, used = [], {}, set()
    for file, text in sources.items():
        names[file] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((file, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                names[file].add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [(file, line, name) for file, line, name in defined
            if name not in used and name not in names[file]]


def test_orphaned_privates_are_found():
    # _f is used in b.py only, where a private name of a.py cannot be reached
    a = ("def _kept(): pass\ndef _f(): pass\nclass _C:\n    def _m(self): pass\n"
         "    def __len__(self): return 0\n    def _n(self): return self._m()\n"
         "x = _kept(), _C\ny = getattr(_C, '_n')\n")
    b = "def _f(): pass\nz = _f()\n"
    assert orphaned_privates({"a.py": a, "b.py": b}) == [("a.py", 2, "_f")]


def test_every_private_definition_is_used_in_the_package():
    # references from the tests do not count: a helper only a test calls is
    # dead code of the package
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert orphaned_privates(sources) == []
