import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attndistill.encoder import EncoderConfig, ForwardTrace, forward, sample_params
from attndistill.losses import attention_pool, class_stats, mmd_loss, sam_loss, total_loss
from attndistill.tensor import Tensor

from oracles import fd_gradient, matching_loss, max_rel_err, naive_attention_pool


def trace_from(features, dtype=np.float64):
    """Build a ForwardTrace directly from raw feature arrays."""
    feats = [Tensor(np.asarray(f, dtype=dtype)) for f in features]
    b = feats[0].data.shape[0]
    return ForwardTrace(features=feats, logits=Tensor(np.zeros((b, 1), dtype=dtype)))


def random_features(rng, depth=3, batch=3, width=2, size=8):
    feats, s = [], size
    for _ in range(depth):
        s = -(-s // 2)
        feats.append(rng.normal(size=(batch, width, s, s)))
    return feats


def stats_of(features, layers=None):
    return class_stats([trace_from(features)], 4.0, layers)


# ---------------------------------------------------------------------------
# attention pooling


def test_attention_pool_hand_case():
    f = np.zeros((1, 2, 1, 1))
    f[0, 0], f[0, 1] = 1.0, -2.0
    out = attention_pool(Tensor(f), 4.0)
    assert np.isclose(out.data[0, 0, 0], 17.0)


def test_attention_pool_p1_is_abs_sum():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(2, 3, 4, 4))
    out = attention_pool(Tensor(f), 1.0).data
    assert np.allclose(out, np.abs(f).sum(axis=1))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 20), st.integers(1, 4))
def test_attention_pool_homogeneity(c, p):
    rng = np.random.default_rng(1)
    f = rng.normal(size=(1, 2, 3, 3))
    base = attention_pool(Tensor(f), float(p)).data
    scaled = attention_pool(Tensor(c * f), float(p)).data
    assert np.allclose(scaled, c ** p * base, rtol=1e-9)


def test_attention_pool_matches_naive():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(2, 4, 5, 5))
    assert max_rel_err(attention_pool(Tensor(f), 4.0).data,
                       naive_attention_pool(f, 4.0)) < 1e-6


def test_attention_pool_nonnegative():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 3, 4, 4))
    assert (attention_pool(Tensor(f), 3.0).data >= 0).all()


# ---------------------------------------------------------------------------
# class statistics


def test_class_stats_select_layers():
    rng = np.random.default_rng(13)
    feats = random_features(rng)
    assert stats_of(feats).layers == [1, 2]
    only2 = stats_of(feats, layers=(2, 2))
    assert only2.layers == [2] and len(only2.attention) == 1
    assert stats_of(feats, layers=()).attention == []
    mean = feats[-1].reshape(3, -1).mean(axis=0)
    assert np.allclose(only2.feature.data, mean, rtol=1e-12)


WIDE = EncoderConfig(depth=3, width=6, input_channels=2, input_size=12, num_classes=2)
# width 1 with a 1x1 final map: the feature rows are one column, which numpy
# sums pairwise; with these draws a sum taken one row after another rounds
# differently
NARROW = EncoderConfig(depth=2, width=1, input_channels=1, input_size=4, num_classes=2)


@pytest.mark.parametrize("cfg,batch,chunk,layers,dtype", [
    pytest.param(WIDE, batch, chunk, layers, dtype,
                 id=f"{batch}-{chunk}-{'None' if layers is None else 'layers2'}-{dtype.__name__}")
    for batch, chunk, layers in [
        (11, 4, None),   # the chunk size does not divide the batch
        (11, 16, None),  # one chunk
        (12, 5, (2,)),   # a subset of the layers
    ]
    for dtype in (np.float32, np.float64)
] + [pytest.param(NARROW, 64, 3, None, np.float64, id="width1-64-3-None-float64")])
def test_chunked_class_stats_equal_full_batch_bit_for_bit(cfg, batch, chunk, layers, dtype):
    params = sample_params(cfg, 31, dtype=dtype)
    rng = np.random.default_rng(32)
    images = rng.normal(size=(batch, cfg.input_channels, cfg.input_size,
                              cfg.input_size)).astype(dtype)
    whole = class_stats([forward(params, Tensor(images))], 4.0, layers)
    chunked = class_stats((forward(params, Tensor(images[i:i + chunk]))
                           for i in range(0, batch, chunk)), 4.0, layers)
    assert chunked.layers == whole.layers == ([2] if layers else list(range(1, cfg.depth)))
    got = chunked.attention + [chunked.feature]
    want = whole.attention + [whole.feature]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.data.dtype == w.data.dtype == dtype
        assert g.data.tobytes() == w.data.tobytes()


def test_target_stats_rejects_last_layer():
    # the real batch's chunked statistics reject the last layer as well
    rng = np.random.default_rng(33)
    chunks = [trace_from(random_features(rng)) for _ in range(2)]
    with pytest.raises(ValueError):
        class_stats(chunks, 4.0, layers=(3,))


# ---------------------------------------------------------------------------
# attention-matching loss


def test_sam_loss_zero_for_identical_batches():
    rng = np.random.default_rng(4)
    stats = stats_of(random_features(rng))
    loss, per_layer = sam_loss(stats, stats)
    assert loss.item() == 0.0
    assert per_layer == [0.0, 0.0]


def test_sam_loss_layer_scale_invariance():
    rng = np.random.default_rng(5)
    real, syn = random_features(rng), random_features(rng)
    _, base = sam_loss(stats_of(real), stats_of(syn))
    for c in (0.1, 7.3):
        scaled_real = [c * f if i == 0 else f for i, f in enumerate(real)]
        scaled_syn = [c * f if i == 0 else f for i, f in enumerate(syn)]
        _, got = sam_loss(stats_of(scaled_real), stats_of(scaled_syn))
        assert abs(got[0] - base[0]) < 1e-6
        assert got[1] == base[1]


def test_sam_loss_orthogonal_unit_vectors():
    # one intermediate layer, engineered so the normalized batch means are
    # exactly [1, 0] and [0, 1] -> MSE 1.0
    real = stats_of([np.array([[[[1.0, 0.0]]]]), np.zeros((1, 1, 1, 1))], layers=[1])
    syn = stats_of([np.array([[[[0.0, 1.0]]]]), np.zeros((1, 1, 1, 1))], layers=[1])
    loss, per_layer = sam_loss(real, syn)
    assert np.isclose(loss.item(), 1.0)
    assert np.isclose(per_layer[0], 1.0)


def test_sam_loss_batch_permutation_invariance():
    rng = np.random.default_rng(6)
    real = random_features(rng, batch=5)
    syn = stats_of(random_features(rng, batch=4))
    base, _ = sam_loss(stats_of(real), syn)
    perm = rng.permutation(5)
    got, _ = sam_loss(stats_of([f[perm] for f in real]), syn)
    assert abs(got.item() - base.item()) < 1e-6


def test_sam_loss_monotone_in_layers():
    rng = np.random.default_rng(7)
    real, syn = random_features(rng), random_features(rng)

    def sam(layers):
        return sam_loss(stats_of(real, layers), stats_of(syn, layers))[0].item()

    full, only1, only2 = sam([1, 2]), sam([1]), sam([2])
    assert full >= only1 - 1e-12
    assert full >= only2 - 1e-12
    assert np.isclose(only1 + only2, full)


def test_sam_loss_rejects_last_layer():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        stats_of(random_features(rng), layers=[3])
    with pytest.raises(ValueError):
        stats_of(random_features(rng), layers=[0])


def test_sam_loss_zero_feature_map_guarded():
    real = stats_of([np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 1, 1))])
    syn = stats_of([np.ones((2, 1, 2, 2)), np.zeros((2, 1, 1, 1))])
    loss, _ = sam_loss(real, syn)
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# feature-mean (MMD, linear kernel) loss


def test_mmd_loss_zero_for_identical_batches():
    rng = np.random.default_rng(9)
    stats = stats_of(random_features(rng))
    assert mmd_loss(stats, stats).item() == 0.0


def test_mmd_loss_orthogonal_means():
    real = stats_of([np.zeros((1, 1, 1, 1)), np.array([[[[1.0, 0.0]]]])])
    syn = stats_of([np.zeros((1, 1, 1, 1)), np.array([[[[0.0, 1.0]]]])])
    assert np.isclose(mmd_loss(real, syn).item(), 1.0)


def test_mmd_loss_shift_invariance():
    rng = np.random.default_rng(10)
    real, syn = random_features(rng), random_features(rng)
    base = mmd_loss(stats_of(real), stats_of(syn)).item()
    shift = rng.normal(size=real[-1].shape[1:])
    real_s = real[:-1] + [real[-1] + shift]
    syn_s = syn[:-1] + [syn[-1] + shift]
    assert abs(mmd_loss(stats_of(real_s), stats_of(syn_s)).item() - base) < 1e-9


def test_losses_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        real = stats_of(random_features(rng))
        syn = stats_of(random_features(rng))
        s, _ = sam_loss(real, syn)
        assert s.item() >= 0.0
        assert mmd_loss(real, syn).item() >= 0.0


# ---------------------------------------------------------------------------
# combination


def test_total_loss_lambda_zero_is_sam_only():
    sam = Tensor(np.asarray(0.37))
    mmd = Tensor(np.asarray(9.9))
    assert total_loss(sam, mmd, 0.0).item() == pytest.approx(0.37)


def test_total_loss_hand_case():
    total = total_loss(Tensor(np.asarray(0.5)), Tensor(np.asarray(2.0)), 0.01)
    assert np.isclose(total.item(), 0.52)


def test_total_loss_rejects_negative_lambda():
    with pytest.raises(ValueError):
        total_loss(Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0)), -1.0)


# ---------------------------------------------------------------------------
# identities through the real encoder


def test_zero_loss_identity_through_encoder():
    cfg = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8, num_classes=2)
    rng = np.random.default_rng(12)
    batch = Tensor(rng.normal(size=(4, 1, 8, 8)).astype(np.float32))
    for seed in range(20):
        params = sample_params(cfg, seed)
        stats = class_stats([forward(params, batch)], 4.0)
        s, _ = sam_loss(stats, stats)
        m = mmd_loss(stats, stats)
        assert abs(s.item()) < 1e-6 and abs(m.item()) < 1e-6


def test_total_gradient_matches_finite_differences():
    # 2 classes, batch 4 real vs 1 synthetic, depth-3 width-8 encoder, 8x8
    cfg = EncoderConfig(depth=3, width=8, input_channels=1, input_size=8, num_classes=2)
    params = sample_params(cfg, 21, dtype=np.float64)
    rng = np.random.default_rng(22)
    real = [Tensor(rng.normal(size=(4, 1, 8, 8))) for _ in range(2)]
    syn0 = rng.normal(size=(2, 1, 8, 8))

    _, grad = matching_loss(params, real, syn0)
    num = fd_gradient(lambda v: matching_loss(params, real, v)[0], syn0.ravel(), 1e-4)
    assert max_rel_err(grad.ravel(), num) < 1e-6


def test_check_gradients_script_passes():
    script = Path(__file__).resolve().parents[1] / "scripts" / "check_gradients.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("[OK]") == 2, run.stdout
