"""The public surface of the package."""

import cuntzgeo


def test_every_export_resolves():
    missing = [name for name in cuntzgeo.__all__ if not hasattr(cuntzgeo, name)]
    assert missing == []
