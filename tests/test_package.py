"""The public surface of the package, and the names the benchmark traces."""

import importlib
from pathlib import Path

import cuntzgeo

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
