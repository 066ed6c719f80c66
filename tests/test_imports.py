"""No unused imports in src/ or tests/, and one scipy importer in src/
(stdlib ast, no linter needed).

A name counts as used when the module reads it anywhere (a bare name or the
base of an attribute) or lists it in __all__. An import whose line carries
`# noqa: F401` is kept on purpose and skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str):
    """(line, name) of every import binding the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                line = getattr(alias, "lineno", node.lineno)
                if "noqa: F401" in lines[node.lineno - 1] + lines[line - 1]:
                    continue
                bound[(alias.asname or alias.name).split(".")[0]] = line
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = getattr(node, "targets", ())
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in targets):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_detector_flags_only_unused_names():
    source = (
        "import os\nimport sys  # noqa: F401\nimport numpy as np\n"
        "from math import pi, tau\nfrom json import dumps\n"
        "__all__ = ['dumps']\nprint(np.ones(1), pi)\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "tau")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_only_stats_imports_scipy():
    """Every runtime scipy call sits in a bitboundary.stats helper."""
    importers = set()
    for path in sorted((ROOT / "src" / "bitboundary").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.add(path.name)
    assert importers == {"stats.py"}
