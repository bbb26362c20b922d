"""The package's public surface."""
import hgcl


def test_every_exported_name_resolves():
    missing = [name for name in hgcl.__all__ if not hasattr(hgcl, name)]
    assert missing == []
    assert len(set(hgcl.__all__)) == len(hgcl.__all__)
