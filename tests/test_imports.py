"""Every name a library module imports is used in that module.

No linter ships with the project, so this walks ``src/archarray/*.py``
with ``ast``.  A name counts as used when the module reads it or lists
it in ``__all__``; what ``__init__.py`` imports from the package's own
modules is a re-export.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "archarray").glob("*.py"))


def unused_imports(source, *, package_init=False):
    """Names bound by import statements in ``source`` that it never uses,
    as (line, name); a package's ``__init__`` may re-export relative imports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
              and not (package_init and node.level)):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), package_init=path.name == "__init__.py") == []


def test_guard_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau as turn\n" \
             "__all__ = ['pi']\nprint(sys.argv)\n"
    assert unused_imports(source) == [(1, "os"), (3, "turn")]
    reexport = "import os\nfrom .region import Region\n"
    assert unused_imports(reexport, package_init=True) == [(1, "os")]
    assert unused_imports(reexport) == [(1, "os"), (2, "Region")]
