"""Fixtures shared across the test modules."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from evolmpnn import data

# Workers of ``fixed_workers``: the calling thread and WORKERS - 1 pool
# threads. Each worker holds one block in flight, so a memory bound sized for
# this count holds on a host with any number of CPUs.
WORKERS = 2


@pytest.fixture
def fixed_workers(monkeypatch):
    """A pool of ``WORKERS - 1`` threads in place of the one sized by the
    host's CPUs; yields that pool."""
    pool = ThreadPoolExecutor(WORKERS - 1)
    monkeypatch.setattr(data, "_POOL", pool)
    yield pool
    # Cancelling queued turns frees a pool thread that waits on one of them.
    pool.shutdown(wait=False, cancel_futures=True)
