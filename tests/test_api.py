import importlib
import pkgutil

import pytest

import sumtails

MODULES = ["sumtails"] + [
    f"sumtails.{info.name}" for info in pkgutil.iter_modules(sumtails.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from sumtails import *", namespace)
    assert set(sumtails.__all__) <= set(namespace)
