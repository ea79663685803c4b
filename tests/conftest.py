"""Fixtures shared across the test modules."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from evolmpnn import data

# Worker threads of ``fixed_workers``. Each worker holds one block in flight,
# so a memory bound sized for this count holds on a host with any number of
# CPUs.
WORKERS = 2


@pytest.fixture
def fixed_workers(monkeypatch):
    """A pool of ``WORKERS`` threads in place of the one sized by the host's
    CPUs; yields that pool."""
    pool = ThreadPoolExecutor(WORKERS)
    monkeypatch.setattr(data, "_POOL", pool)
    yield pool
    # Cancelling queued blocks frees a worker that waits on one of them.
    pool.shutdown(wait=False, cancel_futures=True)
