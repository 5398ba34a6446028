"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The relational criteria
(5-7) run real distillation and therefore dominate the suite's runtime; they
carry the ``slow`` marker, so ``pytest -m "not slow"`` skips them.
"""
import functools
import struct
import time

import numpy as np
import pytest

from attndistill import benchmark, tensor as T
from attndistill.cli import main as cli_main
from attndistill.data import FormatError, ToySpec, gen_toy, load_cifar10, load_mnist
from attndistill.distill import DistillConfig, run_distillation
from attndistill.encoder import EncoderConfig, forward, sample_params
from attndistill.evaluation import EvalConfig
from attndistill.losses import attention_pool, class_stats, mmd_loss, sam_loss
from attndistill.synfile import read_synthetic
from attndistill.tensor import Tensor

from oracles import (matching_gradient_error, max_rel_err, naive_attention_pool,
                     naive_avgpool, naive_conv2d, naive_linear)
from test_data import write_cifar, write_mnist_pair


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {num} [{title}]: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of the full combined loss


@criterion(1, "gradient correctness")
def test_criterion_1_full_loss_gradient():
    start = time.monotonic()
    for dtype, h, tol in ((np.float32, 1e-3, 1e-3), (np.float64, 1e-4, 1e-6)):
        worst = matching_gradient_error(dtype, h)
        assert worst < tol, f"{np.dtype(dtype).name}: max rel err {worst:.3e} >= {tol}"
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: zero-loss identities


@criterion(2, "zero-loss identities")
def test_criterion_2_identical_batches():
    cfg = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8, num_classes=2)
    rng = np.random.default_rng(12)
    batch = Tensor(rng.normal(size=(4, 1, 8, 8)).astype(np.float32))
    for seed in range(20):
        params = sample_params(cfg, seed)
        stats = class_stats([forward(params, batch)], 4.0)
        s, _ = sam_loss(stats, stats)
        m = mmd_loss(stats, stats)
        assert abs(s.item()) < 1e-6
        assert abs(m.item()) < 1e-6


# ---------------------------------------------------------------------------
# criterion 3: scale invariance of the attention term


@criterion(3, "attention scale invariance")
def test_criterion_3_feature_scaling():
    from attndistill.encoder import ForwardTrace

    cfg = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8, num_classes=2)
    params = sample_params(cfg, 44, dtype=np.float64)
    rng = np.random.default_rng(45)
    real = forward(params, Tensor(rng.normal(size=(4, 1, 8, 8))))
    syn = forward(params, Tensor(rng.normal(size=(2, 1, 8, 8))))
    _, base = sam_loss(class_stats([real], 4.0), class_stats([syn], 4.0))

    def scaled(trace, layer, c):
        feats = [Tensor(f.data * c) if i == layer else f
                 for i, f in enumerate(trace.features)]
        return ForwardTrace(features=feats, logits=trace.logits)

    for layer in (0, 1):
        for c in (0.1, 7.3):
            _, got = sam_loss(class_stats([scaled(real, layer, c)], 4.0),
                              class_stats([scaled(syn, layer, c)], 4.0))
            assert abs(got[layer] - base[layer]) < 1e-6, (layer, c)


# ---------------------------------------------------------------------------
# criterion 4: oracle equivalence on randomized shapes


@criterion(4, "oracle equivalence")
def test_criterion_4_naive_loop_oracles():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(50):
        n, c, h, w = (int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                      int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        cout = int(rng.integers(1, 5))
        x = rng.normal(size=(n, c, h, w))
        wt = rng.normal(size=(cout, c, 3, 3))
        assert max_rel_err(T.conv2d(Tensor(x), Tensor(wt)).data,
                           naive_conv2d(x, wt)) < 1e-6
        assert max_rel_err(T.avgpool(Tensor(x)).data, naive_avgpool(x)) < 1e-6
        p = float(rng.choice([1.0, 2.0, 4.0]))
        assert max_rel_err(attention_pool(Tensor(x), p).data,
                           naive_attention_pool(x, p)) < 1e-6
        xl = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 65))))
        wl = rng.normal(size=(int(rng.integers(1, 9)), xl.shape[1]))
        bl = rng.normal(size=wl.shape[0])
        assert max_rel_err(T.linear(Tensor(xl), Tensor(wl), Tensor(bl)).data,
                           naive_linear(xl, wl, bl)) < 1e-6
        checked += 4
    assert checked == 200


# ---------------------------------------------------------------------------
# criterion 5: optimization progress on the quick toy


@pytest.mark.slow
@criterion(5, "optimization progress")
def test_criterion_5_loss_halves():
    start = time.monotonic()
    train, _ = gen_toy(ToySpec(num_classes=4, images_per_class=64, image_size=8,
                               noise_std=0.3, seed=0))
    enc = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8, num_classes=4)
    cfg = DistillConfig(ipc=1, iterations=500, lr_images=1.0, image_momentum=0.5,
                        lam=0.01, p=4.0, seed=0, init="noise")
    history = []
    syn_a = run_distillation(cfg, enc, train, sink=lambda i, b: history.append(b.total))
    assert len(history) == 500
    assert history[-1] <= 0.5 * history[0], (history[0], history[-1])
    syn_b = run_distillation(cfg, enc, train)
    assert np.array_equal(syn_a.images.data, syn_b.images.data), "not deterministic"
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# criteria 6 and 7 share the relational benchmark runs


@pytest.fixture(scope="module")
def bench_results():
    cache = {}
    train, test = benchmark.load_benchmark_data()

    def get(name):
        if name not in cache:
            cache[name] = benchmark.run_pipeline(name, train, test)
        return cache[name]

    return get


@pytest.mark.slow
@criterion(6, "relational accuracy")
def test_criterion_6_synthesis_beats_selection(bench_results):
    start = time.monotonic()
    joint = bench_results("joint")
    coreset = bench_results("coreset")
    noise = bench_results("noise")
    print(f"\n  distilled {joint.mean:.3f} | random coreset {coreset.mean:.3f} | "
          f"unoptimized noise {noise.mean:.3f}")
    assert joint.mean >= coreset.mean + 0.03, (joint.mean, coreset.mean)
    assert joint.mean >= noise.mean + 0.10, (joint.mean, noise.mean)
    assert time.monotonic() - start < 600.0


@pytest.mark.slow
@criterion(7, "ablation non-inferiority")
def test_criterion_7_joint_loss_not_worse(bench_results):
    joint = bench_results("joint")
    sam_only = bench_results("sam_only")
    mmd_only = bench_results("mmd_only")
    print(f"\n  joint {joint.mean:.3f} | attention-only {sam_only.mean:.3f} | "
          f"feature-mean-only {mmd_only.mean:.3f}")
    assert joint.mean >= sam_only.mean - 0.01, (joint.mean, sam_only.mean)
    assert joint.mean >= mmd_only.mean - 0.01, (joint.mean, mmd_only.mean)


# ---------------------------------------------------------------------------
# criterion 8: determinism and round-trips


@criterion(8, "determinism and round-trip")
def test_criterion_8_artifacts(tmp_path):
    args = ["distill", "--dataset", "toy", "--toy-classes", "2", "--toy-per-class", "8",
            "--toy-size", "8", "--ipc", "2", "--iters", "3", "--width", "4",
            "--seed", "9"]
    a, b = tmp_path / "a.dds", tmp_path / "b.dds"
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a), "--metrics", str(ca)]) == 0
    assert cli_main(args + ["--out", str(b), "--metrics", str(cb)]) == 0
    assert a.read_bytes() == b.read_bytes(), "synthetic files differ between runs"
    assert ca.read_text() == cb.read_text()
    lines = ca.read_text().strip().splitlines()
    assert lines[0] == "iteration,l_sam,l_mmd,total" and len(lines) == 4
    for line in lines[1:]:
        assert all(np.isfinite(float(v)) for v in line.split(",")[1:])

    syn, manifest = read_synthetic(a)
    assert syn.images.data.shape == (4, 1, 8, 8)
    assert manifest["seed"] == 9

    # loaders: exact fixture values and corrupt-input rejection
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, size=3072).astype(np.uint8)
    cif = write_cifar(tmp_path / "c.bin", [(3, px)])
    ds = load_cifar10(cif, stats=(np.zeros(3), np.ones(3)))
    assert np.allclose(ds.images.data[0], px.reshape(3, 32, 32) / 255.0, atol=1e-7)
    with pytest.raises(FormatError):
        load_cifar10(write_cifar(tmp_path / "bad.bin", [(12, px)]))

    pixels = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
    img, lab = write_mnist_pair(tmp_path, pixels, [5])
    mds = load_mnist(img, lab, stats=(np.zeros(1), np.ones(1)))
    assert np.allclose(mds.images.data[0, 0], pixels[0] / 255.0)
    bad_img, bad_lab = write_mnist_pair(tmp_path, pixels, [5], image_magic=0x900)
    with pytest.raises(FormatError):
        load_mnist(bad_img, bad_lab)


# ---------------------------------------------------------------------------
# criterion 9: hyperparameter fidelity


@criterion(9, "hyperparameter fidelity")
def test_criterion_9_default_hyperparameters(tmp_path):
    d = DistillConfig(ipc=10)
    assert d.lam == 0.01
    assert d.p == 4.0
    assert d.lr_images == 1.0
    assert d.image_momentum == 0.5
    assert d.weight_decay_images == 0.0
    assert d.real_batch_per_class == 256
    assert d.iterations == 8000
    assert d.augment.flip_prob == 0.5
    assert d.augment.crop_pad_ratio == 0.125
    assert d.augment.cutout_ratio == 0.5

    e = EvalConfig()
    assert e.lr == 0.01
    assert e.momentum == 0.9
    assert e.weight_decay == 5e-4
    assert e.decay_rate == 0.5
    assert e.decay_every == 15

    # the CLI's embedded manifest records the same resolved values
    out = tmp_path / "m.dds"
    assert cli_main(["distill", "--dataset", "toy", "--toy-classes", "2",
                     "--toy-per-class", "8", "--toy-size", "8", "--ipc", "1",
                     "--iters", "0", "--width", "4", "--out", str(out)]) == 0
    _, manifest = read_synthetic(out)
    got = manifest["distill"]
    assert got["lam"] == 0.01
    assert got["p"] == 4.0
    assert got["lr_images"] == 1.0
    assert got["image_momentum"] == 0.5
    assert got["weight_decay_images"] == 0.0
    assert got["real_batch_per_class"] == 256
    assert got["augment"]["flip_prob"] == 0.5
    assert got["augment"]["crop_pad_ratio"] == 0.125
    assert got["augment"]["cutout_ratio"] == 0.5
