"""The public surface of the package, and the names the benchmark traces."""

import ast
import importlib
from pathlib import Path

import cuntzgeo

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_export_resolves():
    missing = [name for name in cuntzgeo.__all__ if not hasattr(cuntzgeo, name)]
    assert missing == []


def test_benchmark_entry_points_resolve(monkeypatch):
    """Every (module, attribute) that a traced benchmark run wraps exists, so
    deleting or renaming a traced name fails here, not mid-run."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.ENTRY_POINTS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.ENTRY_POINTS and missing == []


def _unused_imports(path: Path) -> list[str]:
    """Names imported in ``path`` that it never loads (a name in ``__all__``
    counts as loaded); lines marked ``# noqa: F401`` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []
