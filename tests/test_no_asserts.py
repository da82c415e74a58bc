"""No module of the package checks anything with ``assert``.

``python -O`` removes assert statements, so a check written as one
vanishes in silence; the package raises instead.
"""

import ast
import pathlib

import addcomb

SRC = pathlib.Path(addcomb.__file__).resolve().parent


def test_no_module_under_src_addcomb_contains_an_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not found, f"assert statements, removed under python -O: {found}"
