"""The package's public surface: every exported name resolves."""

import qgalois


def test_all_names_resolve():
    missing = [name for name in qgalois.__all__ if not hasattr(qgalois, name)]
    assert not missing
    assert len(set(qgalois.__all__)) == len(qgalois.__all__)


def test_star_import():
    namespace = {}
    exec("from qgalois import *", namespace)
    assert set(qgalois.__all__) <= namespace.keys()
