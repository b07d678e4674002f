"""Every imported name is used.

An AST scan of each module under ``src/``, ``tests/``, ``benchmarks/``
and ``examples/``: a name bound by ``import`` or ``from ... import``
must be read somewhere in the same module.  A package's
``__init__.py`` re-exports names, and a name listed in a module's
``__all__`` is exported, so both are exempt.
"""

import ast
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source):
    """``[(line, name)]`` of the names ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in read and name not in exported
    )


def test_scan_finds_an_unused_import():
    source = (
        "import os\nimport sys as system\nfrom a import b, c\n"
        "__all__ = ['c']\nprint(system)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("top", ["src", "tests", "benchmarks", "examples"])
def test_no_unused_imports(top):
    found = []
    for root, _dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
        for name in sorted(files):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                for line, imported in unused_imports(handle.read()):
                    found.append(
                        "%s:%d %s"
                        % (os.path.relpath(path, REPO_ROOT), line, imported)
                    )
    assert not found, "unused imports:\n" + "\n".join(found)
