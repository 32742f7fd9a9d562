"""Shared fixtures."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from monoculture import estimators


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the thread pools the estimators open, in order."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", Recording)
    return sizes
