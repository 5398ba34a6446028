import struct
import tracemalloc

import numpy as np
import pytest

from attndistill import data
from attndistill.data import (FormatError, ToySpec, gen_toy, load_cifar10,
                              load_mnist, toy_templates)

from oracles import one_draw_toy


def write_cifar(path, records):
    """records: list of (label, pixels[3072] uint8)."""
    blob = bytearray()
    for label, pixels in records:
        blob.append(label)
        blob += bytes(pixels)
    path.write_bytes(bytes(blob))
    return path


def write_mnist_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                     label_count=None):
    n, rows, cols = images.shape
    img = tmp_path / "images-idx3-ubyte"
    img.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) +
                    images.astype(np.uint8).tobytes())
    lab = tmp_path / "labels-idx1-ubyte"
    lab.write_bytes(struct.pack(">II", label_magic,
                                label_count if label_count is not None else len(labels)) +
                    bytes(labels))
    return img, lab


# ---------------------------------------------------------------------------
# CIFAR-10 binary


def test_cifar_fixture_exact_values(tmp_path):
    rng = np.random.default_rng(0)
    px0 = rng.integers(0, 256, size=3072).astype(np.uint8)
    px1 = rng.integers(0, 256, size=3072).astype(np.uint8)
    path = write_cifar(tmp_path / "batch.bin", [(3, px0), (7, px1)])
    ds = load_cifar10(path)
    raw = np.stack([px0, px1]).reshape(2, 3, 32, 32).astype(np.float32) / 255.0
    mean = raw.mean(axis=(0, 2, 3))
    std = raw.std(axis=(0, 2, 3))
    expect = (raw - mean[None, :, None, None]) / std[None, :, None, None]
    assert np.allclose(ds.images.data, expect, atol=1e-6)
    assert list(ds.labels) == [3, 7]
    assert ds.per_class[3] == [0] and ds.per_class[7] == [1]


def test_cifar_label_out_of_range(tmp_path):
    path = write_cifar(tmp_path / "bad.bin", [(10, np.zeros(3072, dtype=np.uint8))])
    with pytest.raises(FormatError) as err:
        load_cifar10(path)
    assert err.value.offset == 0
    assert "record 0" in str(err.value)


def test_cifar_truncated_file(tmp_path):
    path = tmp_path / "trunc.bin"
    path.write_bytes(bytes(3073 + 100))
    with pytest.raises(FormatError) as err:
        load_cifar10(path)
    assert err.value.offset == 3073


def test_cifar_normalization_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    recs = [(int(rng.integers(0, 10)), rng.integers(0, 256, size=3072).astype(np.uint8))
            for _ in range(4)]
    ds = load_cifar10(write_cifar(tmp_path / "b.bin", recs))
    raw = data.denormalize(ds.images.data, ds.mean, ds.std)
    renorm = (raw - ds.mean[None, :, None, None]) / ds.std[None, :, None, None]
    assert np.abs(renorm - ds.images.data).max() < 1e-6


def test_cifar_reuses_given_stats(tmp_path):
    rng = np.random.default_rng(2)
    recs = [(1, rng.integers(0, 256, size=3072).astype(np.uint8))]
    mean, std = np.full(3, 0.5, np.float32), np.full(3, 0.25, np.float32)
    ds = load_cifar10(write_cifar(tmp_path / "c.bin", recs), stats=(mean, std))
    assert np.array_equal(ds.mean, mean) and np.array_equal(ds.std, std)


# ---------------------------------------------------------------------------
# MNIST IDX


def test_mnist_fixture_exact_values(tmp_path):
    pixels = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
    img, lab = write_mnist_pair(tmp_path, pixels, [5])
    ds = load_mnist(img, lab, stats=(np.zeros(1), np.ones(1)))
    assert ds.images.data.shape == (1, 1, 4, 4)
    assert np.allclose(ds.images.data[0, 0], pixels[0] / 255.0)
    assert ds.labels[0] == 5


def test_mnist_wrong_magic(tmp_path):
    img, lab = write_mnist_pair(tmp_path, np.zeros((1, 4, 4)), [0], image_magic=0x804)
    with pytest.raises(FormatError) as err:
        load_mnist(img, lab)
    assert "0x00000803" in str(err.value) and "0x00000804" in str(err.value)


def test_mnist_count_mismatch(tmp_path):
    img, lab = write_mnist_pair(tmp_path, np.zeros((2, 4, 4)), [0, 1], label_count=3)
    with pytest.raises(FormatError):
        load_mnist(img, lab)


def test_mnist_pad_and_crop(tmp_path):
    pixels = np.full((1, 4, 4), 255, dtype=np.uint8)
    img, lab = write_mnist_pair(tmp_path, pixels, [1])
    padded = load_mnist(img, lab, stats=(np.zeros(1), np.ones(1)), resize_to=8)
    assert padded.images.data.shape == (1, 1, 8, 8)
    assert padded.images.data[0, 0, 0, 0] == 0.0
    assert padded.images.data[0, 0, 3, 3] == 1.0
    cropped = load_mnist(img, lab, stats=(np.zeros(1), np.ones(1)), resize_to=2)
    assert cropped.images.data.shape == (1, 1, 2, 2)
    assert np.all(cropped.images.data == 1.0)
    for ds in (padded, cropped):
        assert ds.images.data.flags.c_contiguous and ds.images.data.dtype == np.float32


# ---------------------------------------------------------------------------
# toy generator


def test_toy_zero_noise_equals_templates():
    spec = ToySpec(num_classes=3, images_per_class=4, image_size=8, noise_std=0.0, seed=5)
    train, _ = gen_toy(spec)
    templates = toy_templates(spec)
    raw = data.denormalize(train.images.data, train.mean, train.std)
    for i, lab in enumerate(train.labels):
        assert np.allclose(raw[i], templates[lab], atol=1e-5)


@pytest.mark.parametrize("spec", [ToySpec(seed=9), ToySpec(3, 5, 6, channels=3, seed=2,
                                                             noise_std=1.0)])
def test_toy_class_blocks_equal_one_draw_per_split(spec):
    train, test = gen_toy(spec)
    for got, want in zip((train, test), one_draw_toy(spec)):
        assert np.array_equal(got.images.data, want)
        assert got.images.data.flags.c_contiguous and got.images.data.dtype == np.float32


def test_toy_peak_memory_stays_near_its_splits():
    """Both splits are built in place: gen_toy's traced peak stays within
    1.5x the float32 bytes of the two splits, where one float64 draw per
    split and whole-array copies took about 3.6x."""
    spec = ToySpec(num_classes=8, images_per_class=64, image_size=32, channels=3)
    tracemalloc.start()
    try:
        train, test = gen_toy(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (train.images.data.nbytes + test.images.data.nbytes)


@pytest.mark.parametrize("fmt,resize_to", [("cifar10", None), ("mnist", None),
                                            ("mnist", 32), ("mnist", 20)],
                         ids=["cifar10", "mnist", "mnist-pad32", "mnist-crop20"])
def test_loader_peak_memory_stays_near_its_set(tmp_path, fmt, resize_to):
    """With given stats (the test split of ``eval``), a loader's traced peak
    is the file's bytes and one float32 copy of the set: within 1.6x the
    set's bytes, where scaling into a second float32 array took 2.25x, and
    padding or cropping the scaled set 1.96x and 3.48x."""
    rng = np.random.default_rng(0)
    n = 400
    pixels = rng.integers(0, 256, size=(n, 3072 if fmt == "cifar10" else 784), dtype=np.uint8)
    labels = list(rng.integers(0, 10, size=n))
    if fmt == "cifar10":
        path = write_cifar(tmp_path / "batch.bin", list(zip(labels, pixels)))
        load, channels = (lambda stats: load_cifar10(path, stats=stats)), 3
    else:
        img, lab = write_mnist_pair(tmp_path, pixels.reshape(n, 28, 28), labels)
        load, channels = (lambda stats: load_mnist(img, lab, stats, resize_to)), 1
    stats = (np.full(channels, 0.5), np.full(channels, 0.25))
    tracemalloc.start()
    try:
        ds = load(stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * ds.images.data.nbytes


def test_toy_deterministic():
    spec = ToySpec(seed=9)
    a_train, a_test = gen_toy(spec)
    b_train, b_test = gen_toy(spec)
    assert np.array_equal(a_train.images.data, b_train.images.data)
    assert np.array_equal(a_test.images.data, b_test.images.data)


def test_toy_train_test_noise_disjoint():
    train, test = gen_toy(ToySpec(seed=3))
    assert not np.array_equal(train.images.data, test.images.data)
    assert np.array_equal(train.labels, test.labels)


def test_toy_normalization_stats_close_to_standard():
    train, _ = gen_toy(ToySpec(seed=1))
    x = train.images.data
    for c in range(x.shape[1]):
        assert abs(x[:, c].mean()) < 0.05
        assert abs(x[:, c].std() - 1.0) < 0.05


def test_toy_nearest_template_classifier_is_perfect():
    spec = ToySpec(num_classes=2, images_per_class=16, image_size=8, noise_std=0.1, seed=4)
    train, test = gen_toy(spec)
    templates = toy_templates(spec).reshape(spec.num_classes, -1)
    raw = data.denormalize(test.images.data, test.mean, test.std).reshape(test.labels.size, -1)
    dists = np.linalg.norm(raw[:, None, :] - templates[None], axis=2)
    assert np.array_equal(dists.argmin(axis=1), test.labels)


def test_per_class_partitions_indices():
    train, _ = gen_toy(ToySpec(num_classes=4, images_per_class=8, seed=2))
    seen = sorted(i for lst in train.per_class for i in lst)
    assert seen == list(range(train.labels.size))
    for k, lst in enumerate(train.per_class):
        assert all(train.labels[i] == k for i in lst)
        assert [i for i in range(train.labels.size) if train.labels[i] == k] == lst
