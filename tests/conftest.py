import pytest

from crowdcoord import cache


@pytest.fixture(autouse=True)
def corpus_cache_home(tmp_path_factory, monkeypatch):
    """A fresh, empty corpus cache for each test, which subprocesses inherit, so that no
    test reads or fills the user's cache and each test's first ingest of a file parses it.
    In process, a file written just before its ingest may be cached: its mtime and ctime
    need only be older than the lookup, not older by cache.RACY_NS."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.setattr(cache, "RACY_NS", 0)
    return home
