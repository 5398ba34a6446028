"""Sample splitting inside ``T.parallel()``: bit-identical results, the BLAS
thread count, error hand-off, and every public function on the calling thread."""
import functools
import inspect
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from attndistill import distill, losses
from attndistill import tensor as T
from attndistill.data import ToySpec, gen_toy
from attndistill.distill import DistillConfig, DistillError, distill_step, make_state
from attndistill.encoder import EncoderConfig
from attndistill.tensor import Tensor


# ---------------------------------------------------------------------------
# (a) each split op equals its unsplit run bit for bit


SPLIT_OPS = {
    "conv2d": (lambda x, c: T.conv2d(x, c["w"]), (5, 3, 6, 5)),
    "instance_norm": (lambda x, c: T.instance_norm(x, c["gamma"], c["beta"]), (5, 4, 6, 5)),
    "avgpool": (lambda x, c: T.avgpool(x), (5, 4, 7, 6)),
    "relu": (lambda x, c: T.relu(x), (5, 4, 6, 5)),
    "abs_pow": (lambda x, c: T.abs_pow(x, 4.0), (5, 4, 6, 5)),
}


@pytest.mark.parametrize("name", sorted(SPLIT_OPS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("budget", [None, 250])
def test_split_op_matches_unsplit_bit_for_bit(split, monkeypatch, name, dtype, workers,
                                              record, budget):
    """5 samples over 2 parts (3 + 2) and 3 parts (1 + 2 + 2), with or without
    a graph; budget 250 puts one sample per conv2d column group and two per
    instance_norm dX group, so parts also hold several groups."""
    if budget is not None:
        monkeypatch.setattr(T, "GROUP_BUDGET", budget)
    op, shape = SPLIT_OPS[name]
    rng = np.random.default_rng(606)
    x0 = rng.normal(size=shape).astype(dtype)
    w0 = rng.normal(size=(4, shape[1], 3, 3)).astype(dtype)
    gamma0, beta0 = (rng.normal(size=4) + 1.5).astype(dtype), rng.normal(size=4).astype(dtype)
    g0 = rng.normal(size=op(Tensor(x0), {"w": Tensor(w0), "gamma": Tensor(gamma0),
                                          "beta": Tensor(beta0)}).shape).astype(dtype)

    def run():
        x = Tensor(x0.copy(), requires_grad=record)
        c = {"w": Tensor(w0), "gamma": Tensor(gamma0, requires_grad=record),
             "beta": Tensor(beta0, requires_grad=record)}
        with T.parallel(x0.size):
            out = op(x, c)
            if record:
                T.backward(T.sum_all(T.mul(out, Tensor(g0))))
        return [out.data.copy(), x.grad, c["gamma"].grad, c["beta"].grad]

    parts = split(1)
    whole = run()
    assert {m for m, _ in parts} == {5}
    parts = split(workers)
    pieces = run()
    calls = len(parts) // workers
    assert sorted(m for m, _ in parts) == sorted(([2, 3] if workers == 2 else [1, 2, 2]) * calls)
    assert any(t != threading.get_ident() for _, t in parts)
    for a, b in zip(whole, pieces):
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))


# ---------------------------------------------------------------------------
# the region is the only gate: inside it every op of two or more samples splits


def test_region_alone_decides_which_ops_split(split, blas):
    """Only REGION_FLOOR is patched, so no per-op size threshold can keep a
    tiny op whole; the two workers stand for a 2-CPU machine on any box."""
    parts = split(2)
    main = threading.get_ident()
    rng = np.random.default_rng(7)
    pair = Tensor(rng.normal(size=(2, 1, 2, 2)).astype(np.float32))
    with T.parallel(1):
        T.relu(pair)
    threads = {t for _, t in parts}
    assert [m for m, _ in parts] == [1, 1] and main in threads and len(threads) == 2

    parts.clear()
    x = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    gamma, beta = Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32))

    def every_op(x):
        y = T.avgpool(T.relu(T.instance_norm(T.conv2d(x, w), gamma, beta)))
        T.backward(T.sum_all(T.abs_pow(y, 4.0)))

    with T.parallel(1):
        every_op(x)
    assert len(parts) == 10 and set(parts) == {(1, main)}

    parts.clear()
    x = Tensor(rng.normal(size=(4, 2, 4, 4)).astype(np.float32), requires_grad=True)
    every_op(x)
    assert len(parts) == 10 and set(parts) == {(4, main)}


# ---------------------------------------------------------------------------
# (b, c) distill_step: 1 worker, 2 workers and no BLAS symbol give the same bytes


def _toy_state(dtype):
    train, _ = gen_toy(ToySpec(num_classes=2, images_per_class=12, image_size=8,
                               noise_std=0.3, seed=0))
    enc = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8, num_classes=2)
    return make_state(DistillConfig(ipc=3, iterations=3, real_batch_per_class=10, seed=4),
                      enc, train, dtype=dtype)


def _three_steps(dtype):
    state = _toy_state(dtype)
    breakdowns = [distill_step(state, i) for i in range(3)]
    return state.syn.images.data.tobytes(), breakdowns


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("workers", [2, 3])
def test_distill_step_bytes_do_not_depend_on_workers(split, dtype, workers):
    """Also with more workers than this box may have cores, and threads
    switched as often as the interpreter allows."""
    split(1)
    one = _three_steps(dtype)
    parts = split(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _three_steps(dtype)
    finally:
        sys.setswitchinterval(interval)
    assert any(t != threading.get_ident() for _, t in parts)
    assert one == many


def test_region_without_blas_symbol_changes_nothing(split, monkeypatch):
    split(1)
    one = _three_steps(np.float32)
    parts = split(2)
    monkeypatch.setattr(T, "_BLAS", None)
    with T.parallel(1):
        assert not T._modes.split
    assert _three_steps(np.float32) == one
    assert parts and all(t == threading.get_ident() for _, t in parts)


# ---------------------------------------------------------------------------
# the real REGION_FLOOR: the toy gate's steps stay whole, a CIFAR ipc-1 step splits


def _steps(classes, channels, size, width, ipc, real, dtype, steps=1):
    train, _ = gen_toy(ToySpec(num_classes=classes, images_per_class=real, image_size=size,
                               channels=channels, noise_std=1.0, seed=0))
    enc = EncoderConfig(depth=3, width=width, input_channels=channels, input_size=size,
                        num_classes=classes)
    state = make_state(DistillConfig(ipc=ipc, iterations=steps, real_batch_per_class=real,
                                     seed=4), enc, train, dtype=dtype)
    breakdowns = [distill_step(state, i) for i in range(steps)]
    return state.syn.images.data.tobytes(), breakdowns


def test_toy_gate_step_splits_no_op(parts, blas):
    """4 classes of 1x16x16, width 32, ipc 10, 64 real images: the real
    batch's first activation (64*32*16*16 elements) stays below the floor."""
    seen = parts(2)
    _steps(4, 1, 16, 32, 10, 64, np.float32)
    assert seen and all(t == threading.get_ident() for _, t in seen)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cifar_ipc1_step_splits_by_its_real_chunk_bit_for_bit(parts, blas, dtype):
    """One class of 3x32x32 at width 128, ipc 1, 8 real images: the synthetic
    first activation (1*128*32*32 elements) is below the floor, the real
    chunk's (8*128*32*32) above it, so the step's ops split."""
    parts(1)
    whole = _steps(1, 3, 32, 128, 1, 8, dtype, steps=2)
    seen = parts(2)
    pieces = _steps(1, 3, 32, 128, 1, 8, dtype, steps=2)
    assert any(t != threading.get_ident() for _, t in seen)
    assert pieces == whole


# ---------------------------------------------------------------------------
# (d) the BLAS thread count and the split mode return after a region


def test_region_pins_blas_to_one_thread_and_restores_it(split, blas):
    split(2)
    get, _ = blas
    before = get()
    with T.parallel(1):
        assert get() == 1 and T._modes.split
        with T.parallel(1):
            assert get() == 1
        assert get() == 1 and T._modes.split
    assert get() == before and not T._modes.split
    with T.parallel(0):  # no larger than REGION_FLOOR
        assert get() == before and not T._modes.split


def test_region_restores_blas_threads_after_distill_error(split, blas):
    split(2)
    get, _ = blas
    before = get()
    state = _toy_state(np.float32)
    state.syn.images.data[:] = np.nan
    with pytest.raises(DistillError, match="non-finite loss"):
        distill_step(state, 0)
    assert get() == before and not T._modes.split


# ---------------------------------------------------------------------------
# (e) a failing part reaches the caller after every part has finished


@pytest.mark.parametrize("failing", [0, 2])
def test_failing_part_is_raised_after_the_others_finish(split, failing):
    split(3)
    finished = []

    def fn(samples):
        if samples[0] == failing:
            raise ValueError(f"part at {failing}")
        time.sleep(0.05)
        finished.append(samples[0])

    with T.parallel(6), pytest.raises(ValueError, match=f"part at {failing}"):
        T._over_samples(fn, (np.arange(6),))
    assert sorted(finished) == sorted({0, 2, 4} - {failing})


# ---------------------------------------------------------------------------
# every traced function runs on the calling thread


def test_public_functions_run_on_the_calling_thread(split, monkeypatch):
    """The benchmark's tracer wraps these functions with one span stack, so
    none of them may run on a worker thread."""
    seen = []

    def on_thread(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    for mod in (T, losses):
        for name, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                monkeypatch.setattr(mod, name, on_thread(fn))
    for name in ("forward", "siamese_augment"):
        monkeypatch.setattr(distill, name, on_thread(getattr(distill, name)))

    parts = split(2)
    state = _toy_state(np.float32)
    for i in range(2):
        distill_step(state, i)
    main = threading.get_ident()
    assert {"conv2d", "conv_blocks", "backward", "forward", "siamese_augment",
            "class_stats"} <= {name for name, _ in seen}
    assert [name for name, t in seen if t != main] == []
    assert any(t != main for _, t in parts)


def test_importing_the_engine_starts_no_thread():
    """The part pool is made at import; its threads start on first use."""
    code = ("import threading, attndistill.tensor; "
            "assert threading.active_count() == 1, threading.enumerate()")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode == 0, run.stderr
