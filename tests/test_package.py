"""The package surface: every name `matpi.__all__` exports exists, once."""

from collections import Counter

import matpi


def test_all_names_resolve_once():
    assert [name for name, k in Counter(matpi.__all__).items() if k > 1] == []
    assert [name for name in matpi.__all__ if not hasattr(matpi, name)] == []


def test_star_import():
    namespace = {}
    exec("from matpi import *", namespace)
    assert set(matpi.__all__) <= set(namespace)
