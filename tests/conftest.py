"""Fixtures every test gets: a throwaway home for the result cache."""

import pytest

from repro.bench import cache as result_cache


@pytest.fixture(scope="session")
def _test_home(tmp_path_factory):
    return tmp_path_factory.mktemp("home")


@pytest.fixture(autouse=True)
def _private_result_cache(_test_home, monkeypatch):
    """CLI verbs call ``result_cache.configure``, whose default root is
    ``~/.cache/typedarch``: point ``HOME`` at a temporary directory so
    no test writes there, and put back whatever cache selection the
    test changed."""
    monkeypatch.setenv("HOME", str(_test_home))
    active, configured = result_cache._ACTIVE, result_cache._CONFIGURED
    yield
    result_cache._ACTIVE, result_cache._CONFIGURED = active, configured
