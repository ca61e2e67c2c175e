"""The public surface of the package, the names the benchmark traces, and
scans for unused imports and unused module-level definitions."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cuntzgeo

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_export_resolves():
    missing = [name for name in cuntzgeo.__all__ if not hasattr(cuntzgeo, name)]
    assert missing == []


EXPORTS = [
    "AlgElem", "BASIS_DIFFERENTIALS", "CapacityError", "Connection", "CurvatureReport",
    "GScalar", "Metric", "MetricError", "Monomial", "OneForm", "ParseError",
    "RepTwoForm", "SymTensorMap", "TensorElem", "TwoForm", "antisym_lift",
    "base_connection", "christoffel", "compatibility_map", "curvature",
    "curvature_operator", "curvature_report", "d0", "d1", "derive", "differential",
    "flip", "get_caps", "junk_project", "koszul_correction", "levi_civita",
    "load_metric", "monomial", "one_form_tensor", "parse_alg", "parse_expr",
    "parse_scalar", "print_canonical", "print_tensor", "rational",
    "represented_product", "ricci", "rotate", "scalar_curvature", "set_caps",
    "sym_project", "tensor_product", "torsion", "unitarity_residual", "wedge",
]


def test_the_public_surface_is_the_modules_lists():
    """The package exports the 50 names, each written in exactly one
    module's ``__all__``; ``cuntzgeo.curvature`` is the function, not the
    submodule that the star import of its names shadows."""
    assert sorted(cuntzgeo.__all__) == EXPORTS
    star: dict = {}
    exec("from cuntzgeo import *", star)
    assert sorted(set(star) - {"__builtins__"}) == EXPORTS
    assert cuntzgeo.curvature is sys.modules["cuntzgeo.curvature"].curvature
    homes = Counter(
        name
        for path in (ROOT / "src" / "cuntzgeo").glob("*.py")
        if path.stem not in ("__init__", "__main__")
        for name in getattr(importlib.import_module(f"cuntzgeo.{path.stem}"), "__all__", ()))
    assert sorted(homes) == EXPORTS and set(homes.values()) == {1}


def test_readme_library_example_prints_its_comment(capsys):
    """The README's ``python`` block runs and prints the result that the
    comment on its last line states."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert block.rstrip().endswith("# - 7/8")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "- 7/8\n"


def test_a_cold_import_loads_no_unused_stdlib_module():
    """``import cuntzgeo, cuntzgeo.cli`` in a fresh interpreter loads none of
    ``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``),
    ``inspect`` or ``json``: the records are plain ``__slots__`` classes, and
    ``json`` is imported where a metric file is read or a JSON document
    printed.  A module that the interpreter had loaded before the import
    does not count."""
    code = ("import sys; before = set(sys.modules); import cuntzgeo, cuntzgeo.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out == "[]\n"


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
    """Names imported in ``path`` that it never loads (a name in a literal
    ``__all__`` list counts as loaded; a computed ``__all__`` is ordinary
    code, whose loads count); lines marked ``# noqa: F401`` are exempt.  A
    star import binds no name of its own, so it is not a candidate."""
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
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []


def _docstring_ids(tree: ast.AST) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _references(path: Path) -> set[str]:
    """Names that ``path`` loads, reads as an attribute or imports, and the
    words of its string constants other than docstrings (``bench/spans.py``
    names traced functions in strings; annotations may be strings)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstring_ids(tree)
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def _module_level_names(path: Path) -> dict[str, int]:
    """The functions, classes and assigned names a module defines at its top."""
    names: dict[str, int] = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.setdefault(leaf.id, node.lineno)
    return names


def test_no_dead_module_level_definitions():
    """Every name a package module defines is exported or used somewhere in
    src/, tests/ or bench/."""
    readers = [p for sub in ("src", "tests", "bench") for p in (ROOT / sub).rglob("*.py")]
    refs = set().union(*(_references(p) for p in readers))
    exported = set(cuntzgeo.__all__)
    dead = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "cuntzgeo").glob("*.py"))
        for name, line in _module_level_names(path).items()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported and name not in refs
    ]
    assert dead == []
