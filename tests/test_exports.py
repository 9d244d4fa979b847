"""The public names of the package."""

import pbrules


def test_every_exported_name_resolves():
    missing = [name for name in pbrules.__all__ if not hasattr(pbrules, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(pbrules.__all__)) == len(pbrules.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from pbrules import *", namespace)
    assert set(pbrules.__all__) <= namespace.keys()
