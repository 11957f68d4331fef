"""The package namespace."""

import cpsmap


def test_every_exported_name_resolves():
    missing = [name for name in cpsmap.__all__ if not hasattr(cpsmap, name)]
    assert missing == []
