"""The star imports a user writes succeed, and every exported name resolves.

A name deleted from a module but left in its ``__all__`` breaks only
``from ... import *``, which nothing else in the package runs.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["sasakicheck", "sasakicheck.dual"])
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if name not in namespace]
    assert missing == []
