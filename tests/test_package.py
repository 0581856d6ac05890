"""The package's public names."""

import gimirec


def test_every_public_name_resolves():
    assert len(set(gimirec.__all__)) == len(gimirec.__all__)
    assert [name for name in gimirec.__all__ if not hasattr(gimirec, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gimirec import *", namespace)
    assert set(gimirec.__all__) <= set(namespace)
