"""Sample splitting of op calls: which calls split, bit-identical results,
the BLAS pin made at import, the shared scratch budget, error hand-off, and
every public function on the calling thread."""
import functools
import inspect
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from attndistill import distill, evaluation, losses
from attndistill import tensor as T
from attndistill.data import ToySpec, gen_toy
from attndistill.distill import DistillConfig, distill_step, make_state
from attndistill.encoder import EncoderConfig
from attndistill.evaluation import EvalConfig, train_classifier
from attndistill.synfile import SyntheticSet
from attndistill.tensor import Tensor


# ---------------------------------------------------------------------------
# (a) each split op equals its unsplit run bit for bit


SPLIT_OPS = {
    "conv2d": (lambda x, c: T.conv2d(x, c["w"]), (5, 1, 3, 3)),
    "instance_norm": (lambda x, c: T.instance_norm(x, c["gamma"], c["beta"]), (5, 4, 4, 5)),
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
    a graph; budget 250 gives a part of 2 or 3 a share that holds one sample
    of conv2d columns (81 elements) or of instance_norm's dX term (80), so
    parts also hold several groups."""
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
# the floor is per call: a call splits iff its largest array reaches it


def test_a_call_splits_iff_its_largest_array_reaches_the_floor(parts, monkeypatch):
    """SPLIT_FLOOR at 16 elements; the two workers stand for a 2-CPU machine
    on any box."""
    monkeypatch.setattr(T, "SPLIT_FLOOR", 16)
    seen = parts(2)
    main = threading.get_ident()
    rng = np.random.default_rng(7)
    below = Tensor(rng.normal(size=(2, 1, 2, 2)).astype(np.float32))  # 8 elements
    at = Tensor(rng.normal(size=(2, 1, 2, 4)).astype(np.float32))  # 16 elements
    T.relu(below)
    assert seen == [(2, main)]
    seen.clear()
    T.relu(at)
    assert sorted(m for m, _ in seen) == [1, 1] and len({t for _, t in seen}) == 2
    seen.clear()
    # 8 input elements, but the output holds 2*8*2*2 = 64: the call splits
    T.conv2d(below, Tensor(rng.normal(size=(8, 1, 3, 3)).astype(np.float32)))
    assert sorted(m for m, _ in seen) == [1, 1] and len({t for _, t in seen}) == 2
    seen.clear()
    T.relu(Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32)))  # one sample
    assert seen == [(1, main)]


# ---------------------------------------------------------------------------
# (b, c) distill_step: 1 worker and 2 or 3 workers give the same bytes


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


# ---------------------------------------------------------------------------
# the real SPLIT_FLOOR: the toy gate's real chunks split, and a CIFAR ipc-1 step


def _steps(classes, channels, size, width, ipc, real, dtype, steps=1):
    train, _ = gen_toy(ToySpec(num_classes=classes, images_per_class=real, image_size=size,
                               channels=channels, noise_std=1.0, seed=0))
    enc = EncoderConfig(depth=3, width=width, input_channels=channels, input_size=size,
                        num_classes=classes)
    state = make_state(DistillConfig(ipc=ipc, iterations=steps, real_batch_per_class=real,
                                     seed=4), enc, train, dtype=dtype)
    breakdowns = [distill_step(state, i) for i in range(steps)]
    return state.syn.images.data.tobytes(), breakdowns


def test_toy_gate_step_splits_only_its_real_chunks_bit_for_bit(parts, monkeypatch):
    """4 classes of 1x16x16, width 32, ipc 10, 64 real images, at the real
    floor: each class's real chunk (64*32*16*16 elements in ``conv_blocks``)
    splits, and no synthetic op (at most 10*32*16*16) does."""
    chunks = []
    rows = T._conv_blocks_rows

    def spy(x, *arrays, **kw):
        chunks.append((len(x), threading.get_ident()))
        return rows(x, *arrays, **kw)

    monkeypatch.setattr(T, "_conv_blocks_rows", spy)
    parts(1)
    whole = _steps(4, 1, 16, 32, 10, 64, np.float32)
    seen = parts(2)
    chunks.clear()
    pieces = _steps(4, 1, 16, 32, 10, 64, np.float32)
    main = threading.get_ident()
    assert sorted(chunks) == sorted([(32, main)] * 4 + [(32, t) for _, t in seen if t != main])
    assert len([t for _, t in seen if t != main]) == 4
    assert pieces == whole


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cifar_ipc1_step_splits_by_its_real_chunk_bit_for_bit(parts, dtype):
    """One class of 3x32x32 at width 128, ipc 1, 8 real images: the synthetic
    ops hold one sample each, and the real chunk (8*128*32*32 elements in
    ``conv_blocks``) splits."""
    parts(1)
    whole = _steps(1, 3, 32, 128, 1, 8, dtype, steps=2)
    seen = parts(2)
    pieces = _steps(1, 3, 32, 128, 1, 8, dtype, steps=2)
    assert any(t != threading.get_ident() for _, t in seen)
    assert pieces == whole


# ---------------------------------------------------------------------------
# evaluation: training and scoring give the same bytes with 1 and 2 workers


def _eval_setup():
    """64 synthetic images of 1x16x16 in 4 classes and a 64-image test set,
    width 16: block 1 of a 64-image training batch and of the scoring chunk
    holds 64*16*16*16 elements, the real floor, so both split."""
    train, test = gen_toy(ToySpec(num_classes=4, images_per_class=16, image_size=16,
                                  noise_std=1.0, seed=2))
    enc = EncoderConfig(depth=2, width=16, input_channels=1, input_size=16, num_classes=4)
    syn = SyntheticSet(images=Tensor(train.images.data.copy()), labels=train.labels, ipc=16)
    return syn, enc, test


def _train_and_score(syn, enc, test):
    config = EvalConfig(num_models=1, epochs=2, batch_size=64, seed=0)
    model = train_classifier(syn, enc, config, 5)
    return [p.data.tobytes() for p in model.parameters()], evaluation.test_accuracy(model, test)


def test_trained_parameters_and_accuracy_do_not_depend_on_workers(parts):
    syn, enc, test = _eval_setup()
    parts(1)
    one = _train_and_score(syn, enc, test)
    seen = parts(2)
    many = _train_and_score(syn, enc, test)
    main = threading.get_ident()
    assert sorted(m for m, t in seen if t != main).count(32) >= 2  # training and scoring
    assert one == many


# ---------------------------------------------------------------------------
# the parts of a split call share GROUP_BUDGET


def test_the_groups_of_a_split_call_stay_within_the_budget_in_total(split, monkeypatch):
    """8 samples of 2x6x6 and 3 conv channels, a budget of 4 samples of conv
    columns (4*2*9*36 elements): unsplit, every grouped scratch (conv columns
    in forward and dX, the instance norm dX term, and the same in
    ``conv_blocks``) takes 4 samples at a time; in 2 parts each takes 2."""
    per_sample = 2 * 9 * 36
    monkeypatch.setattr(T, "GROUP_BUDGET", 4 * per_sample)
    groups = []
    group_size = T._group_size

    def spy(size):
        groups.append((size, group_size(size), T._modes.parts))
        return groups[-1][1]

    monkeypatch.setattr(T, "_group_size", spy)
    rng = np.random.default_rng(12)
    x0 = rng.normal(size=(8, 2, 6, 6)).astype(np.float32)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32))
    gamma, beta = Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32))

    def run():
        groups.clear()
        x = Tensor(x0, requires_grad=True)
        T.backward(T.sum_all(T.instance_norm(T.conv2d(x, w), gamma, beta)))
        fused = T.conv_blocks(Tensor(x0), [(w, gamma, beta)])
        return list(groups), x.grad, fused[0].data

    split(1)
    whole, *one = run()
    split(2)
    halves, *two = run()
    assert len(whole) == 4 and len(halves) == 8
    assert {(g * size, parts) for size, g, parts in whole} == {(4 * per_sample, 1)}
    assert {(g * size, parts) for size, g, parts in halves} == {(2 * per_sample, 2)}
    assert T._modes.parts == 1
    assert all(np.array_equal(a, b) for a, b in zip(one, two))


def test_a_call_takes_no_more_parts_than_shares_that_hold_a_sample(split, monkeypatch):
    """A budget of 2 samples of conv columns and 3 workers: the conv, which
    fills columns, splits 6 samples in 2 parts, and the ReLU, which has no
    grouped scratch, in 3."""
    monkeypatch.setattr(T, "GROUP_BUDGET", 2 * 2 * 9 * 36)
    seen = split(3)
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(6, 2, 6, 6)).astype(np.float32))
    T.conv2d(x, Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32)))
    assert sorted(m for m, _ in seen) == [3, 3]
    seen.clear()
    T.relu(x)
    assert sorted(m for m, _ in seen) == [2, 2, 2]


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

    with pytest.raises(ValueError, match=f"part at {failing}"):
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


def _run_python(code):
    """Run ``code`` in a fresh interpreter that sees this one's path; its stdout."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_importing_the_engine_starts_no_thread():
    """The part pool is made at import; its threads start on first use."""
    _run_python("import threading, attndistill.tensor; "
                "assert threading.active_count() == 1, threading.enumerate()")


# ---------------------------------------------------------------------------
# (d) the engine pins BLAS once, at import


_IMPORT_ENGINE = """
import ctypes, json, threading
import numpy as np
lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
put(2)
before = get()
if {hidden}:
    ctypes.CDLL = lambda path: object()  # a library that exports no symbol
from attndistill import tensor as T
after, started = get(), threading.active_count() - 1
T.relu(T.Tensor(np.ones((2, T.SPLIT_FLOOR // 2), np.float32)))
print(json.dumps([before, after, started, T._WORKERS, threading.active_count() - 1]))
"""


@pytest.mark.parametrize("hidden", [False, True], ids=["found", "hidden"])
def test_importing_the_engine_pins_blas_unless_it_cannot(hidden):
    """With numpy's OpenBLAS symbol and 2 or more usable CPUs, importing the
    engine sets OpenBLAS to 1 thread for the process, starts no thread, and
    a call at the floor splits with no further set-up. With the symbol hidden
    before import, the engine keeps 1 worker, so no call splits, and leaves
    OpenBLAS's count as it was."""
    if T._find_blas() is None:
        pytest.skip("numpy bundles no scipy-openblas")
    before, after, started, workers, threads = json.loads(
        _run_python(_IMPORT_ENGINE.format(hidden=hidden)))
    assert started == 0
    if hidden or len(os.sched_getaffinity(0)) < 2:
        assert (after, workers, threads) == (before, 1, 0)
    else:
        assert before == 2 and (after, workers, threads) == (1, len(os.sched_getaffinity(0)), 1)
