"""Fixtures shared by the tests of sample splitting inside ``T.parallel()``."""
import threading

import pytest

from attndistill import tensor as T


@pytest.fixture
def parts(monkeypatch):
    """Set the usable CPUs to ``workers``, and record the (samples, thread)
    of every part that runs."""
    parts = []
    over_samples = T._over_samples

    def spy(fn, rows, *args):
        def part(*arrays):
            parts.append((len(arrays[0]), threading.get_ident()))
            return fn(*arrays)
        return over_samples(part, rows, *args)

    monkeypatch.setattr(T, "_over_samples", spy)

    def set_workers(workers):
        monkeypatch.setattr(T, "_WORKERS", workers)
        parts.clear()
        return parts
    return set_workers


@pytest.fixture
def split(parts, monkeypatch):
    """``parts`` with REGION_FLOOR at 0."""
    monkeypatch.setattr(T, "REGION_FLOOR", 0)
    return parts


@pytest.fixture
def blas(monkeypatch):
    """numpy's OpenBLAS thread-count functions, or a stand-in where they are missing."""
    if T._BLAS is None:
        threads = [4]
        monkeypatch.setattr(T, "_BLAS", (lambda: threads[0],
                                         lambda n: threads.__setitem__(0, n)))
    return T._BLAS
