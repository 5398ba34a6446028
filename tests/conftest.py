"""Fixtures shared by the tests of sample splitting."""
import threading

import pytest

from attndistill import tensor as T


@pytest.fixture
def parts(monkeypatch):
    """Set the usable CPUs to ``workers``, and record the (samples, thread)
    of every part that runs."""
    parts = []
    over_samples = T._over_samples

    def spy(fn, rows, *args, **kwargs):
        def part(*arrays, **share):
            parts.append((len(arrays[0]), threading.get_ident()))
            return fn(*arrays, **share)
        return over_samples(part, rows, *args, **kwargs)

    monkeypatch.setattr(T, "_over_samples", spy)

    def set_workers(workers):
        monkeypatch.setattr(T, "_WORKERS", workers)
        parts.clear()
        return parts
    return set_workers


@pytest.fixture
def split(parts, monkeypatch):
    """``parts`` with SPLIT_FLOOR at 0: every op call of two or more samples
    splits."""
    monkeypatch.setattr(T, "SPLIT_FLOOR", 0)
    return parts
