import pytest


@pytest.fixture(autouse=True)
def corpus_cache_home(tmp_path_factory, monkeypatch):
    """A fresh, empty corpus cache for each test, which subprocesses inherit, so that no
    test reads or fills the user's cache and each test's first ingest of a file parses it."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
