"""The package's public names."""

import mirrorcrit


def test_every_exported_name_resolves():
    # a stale entry would make `from mirrorcrit import *` raise
    missing = [name for name in mirrorcrit.__all__ if not hasattr(mirrorcrit, name)]
    assert missing == []
    assert len(set(mirrorcrit.__all__)) == len(mirrorcrit.__all__)
