import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qdsim"
MODULES = sorted(SRC.rglob("*.py"))


def _unused_imports(source: str) -> list:
    """Names a module binds by import and never reads: not as a name, not
    as the base of an attribute, and not listed in its __all__.
    `from __future__` imports bind nothing and are skipped."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_unused_import_finder_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom .a import (b, c as d)\nfrom .e import f\n"
              "__all__ = ['f']\n"
              "def g():\n    return os.path.join(b)\n")
    assert _unused_imports(source) == [(2, "math"), (4, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_a_name_it_never_uses(path):
    assert len(MODULES) > 10
    assert _unused_imports(path.read_text()) == []
