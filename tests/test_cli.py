import dataclasses
import json
import struct

import numpy as np
import pytest

from attndistill import cli
from attndistill.cli import main
from attndistill.distill import SyntheticSet
from attndistill.synfile import (RunManifest, SynFileError, read_synthetic,
                                 write_synthetic)
from attndistill.tensor import Tensor


def run_cli(*argv):
    return main(list(argv))


def toy_distill_args(out, metrics=None, **over):
    args = ["distill", "--dataset", "toy", "--toy-classes", "2",
            "--toy-per-class", "8", "--toy-size", "8",
            "--ipc", "1", "--iters", "2", "--width", "4", "--seed", "3",
            "--out", str(out)]
    if metrics is not None:
        args += ["--metrics", str(metrics)]
    for flag, val in over.items():
        args += [f"--{flag}", str(val)]
    return args


def small_syn(k=2, ipc=2, c=1, h=8, w=8, seed=0):
    rng = np.random.default_rng(seed)
    return SyntheticSet(
        images=Tensor(rng.normal(size=(k * ipc, c, h, w)).astype(np.float32)),
        labels=np.repeat(np.arange(k), ipc), ipc=ipc)


def manifest_stub(**stats):
    return RunManifest(tool_version="0.0", seed=0, dataset={"path": "x", "sha256": ""},
                       distill={}, encoder={}, stats=stats or {"mean": [0.0], "std": [1.0]})


# ---------------------------------------------------------------------------
# DDS1 container


def test_synfile_round_trips_bit_exact(tmp_path):
    syn = small_syn()
    path = tmp_path / "a.dds"
    manifest = manifest_stub()
    write_synthetic(path, syn, 2, manifest)
    loaded, mdict = read_synthetic(path)
    assert np.array_equal(loaded.images.data, syn.images.data)
    assert np.array_equal(loaded.labels, syn.labels)
    assert loaded.ipc == syn.ipc
    assert mdict == manifest.to_dict()
    # writing the parsed set again reproduces the same bytes
    path2 = tmp_path / "b.dds"
    write_synthetic(path2, loaded, 2, mdict)
    assert path.read_bytes() == path2.read_bytes()


def test_synfile_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dds"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(SynFileError, match="magic"):
        read_synthetic(path)


def test_synfile_rejects_count_mismatch(tmp_path):
    syn = small_syn()
    path = tmp_path / "c.dds"
    write_synthetic(path, syn, 2, manifest_stub())
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 5)  # header count field
    path.write_bytes(bytes(blob))
    with pytest.raises(SynFileError):
        read_synthetic(path)


def test_synfile_rejects_truncated_payload(tmp_path):
    syn = small_syn()
    path = tmp_path / "d.dds"
    write_synthetic(path, syn, 2, manifest_stub())
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(SynFileError):
        read_synthetic(path)


def test_manifest_json_round_trip():
    m = RunManifest(tool_version="1.2", seed=5, dataset={"path": "p", "sha256": "h"},
                    distill={"ipc": 3, "lam": 0.01}, encoder={"depth": 3},
                    stats={"mean": [0.5], "std": [0.25]}, duration_sec=1.25)
    d = json.loads(json.dumps(m.to_dict(), sort_keys=True))
    # artifact serialization nulls the wall clock for byte determinism
    assert d["duration_sec"] is None
    assert RunManifest(**d) == dataclasses.replace(m, duration_sec=None)


# ---------------------------------------------------------------------------
# distill command


def test_cmd_distill_writes_artifacts(tmp_path):
    out, metrics = tmp_path / "syn.dds", tmp_path / "m.csv"
    assert run_cli(*toy_distill_args(out, metrics)) == 0
    syn, manifest = read_synthetic(out)
    assert syn.images.data.shape == (2, 1, 8, 8)
    lines = metrics.read_text().strip().splitlines()
    assert lines[0] == "iteration,l_sam,l_mmd,total"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert int(parts[0]) >= 0
        assert all(np.isfinite(float(v)) for v in parts[1:])


def test_cmd_distill_flushes_each_metrics_line(tmp_path, monkeypatch):
    out, metrics = tmp_path / "syn.dds", tmp_path / "m.csv"
    on_disk = []
    run_distillation = cli.run_distillation

    def run(config, encoder_cfg, train, sink):
        def read_back(iteration, brk):
            sink(iteration, brk)
            on_disk.append(metrics.read_text().splitlines())
        return run_distillation(config, encoder_cfg, train, sink=read_back)

    monkeypatch.setattr(cli, "run_distillation", run)
    assert run_cli(*toy_distill_args(out, metrics)) == 0
    assert [len(lines) for lines in on_disk] == [2, 3]
    assert on_disk[-1] == metrics.read_text().splitlines()


def test_cmd_distill_zero_iters_keeps_init(tmp_path):
    out, metrics = tmp_path / "syn.dds", tmp_path / "m.csv"
    assert run_cli(*toy_distill_args(out, metrics, iters=0)) == 0
    assert metrics.read_text() == "iteration,l_sam,l_mmd,total\n"
    syn, manifest = read_synthetic(out)
    assert manifest["distill"]["iterations"] == 0
    from attndistill.data import ToySpec, gen_toy
    from attndistill.distill import init_synthetic
    train, _ = gen_toy(ToySpec(num_classes=2, images_per_class=8, image_size=8))
    ref = init_synthetic(train, 1, "random", seed=3)
    assert np.array_equal(syn.images.data, ref.images.data)


def test_cmd_distill_default_manifest_hyperparameters(tmp_path):
    out = tmp_path / "syn.dds"
    assert run_cli(*toy_distill_args(out)) == 0
    _, manifest = read_synthetic(out)
    d = manifest["distill"]
    assert d["lam"] == 0.01
    assert d["p"] == 4.0
    assert d["lr_images"] == 1.0
    assert d["image_momentum"] == 0.5
    assert d["weight_decay_images"] == 0.0
    assert d["real_batch_per_class"] == 256


def test_cmd_distill_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("distill", "--dataset", "toy", "--frobnicate", "1",
                "--out", str(tmp_path / "x.dds"))
    assert exc.value.code == 2


def test_cmd_distill_identical_invocations_identical_bytes(tmp_path):
    a, b = tmp_path / "a.dds", tmp_path / "b.dds"
    ma, mb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*toy_distill_args(a, ma)) == 0
    assert run_cli(*toy_distill_args(b, mb)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ma.read_text() == mb.read_text()


def test_cmd_distill_runtime_failure_exits_1(tmp_path):
    # ipc larger than the class size with a real-image init cannot work
    code = run_cli("distill", "--dataset", "toy", "--toy-per-class", "2",
                   "--ipc", "4", "--iters", "1", "--width", "4",
                   "--out", str(tmp_path / "x.dds"))
    assert code == 1


def test_cmd_distill_bad_aug_list_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("distill", "--dataset", "toy", "--aug", "flip,sparkle",
                "--out", str(tmp_path / "x.dds"))
    assert exc.value.code == 2


@pytest.mark.parametrize("flags,words", [
    (["--lr", "-1"], "learning rate"),              # gradient ascent
    (["--no-sam", "--no-mmd"], "at least one"),     # an objective that is 0
    (["--depth", "1", "--no-mmd"], "at least one"),  # no layer for attention to match
    (["--depth", "2", "--layers", "2"], "outside 1..1"),
    # each non-finite rate used to fail after the first step, naming no field
    (["--lr=nan"], "lr_images (image learning rate) must be a finite"),
    (["--lr=inf"], "lr_images (image learning rate) must be a finite"),
    (["--lambda=nan"], "lam (task balance) must be a finite"),
    (["--momentum=nan"], "image_momentum (image momentum) must be a finite"),
    (["--p=nan"], "p (attention exponent) must be a finite"),
    (["--p=inf"], "p (attention exponent) must be a finite"),
], ids=["negative-lr", "no-terms", "depth-1-no-mmd", "layer-outside-depth", "nan-lr",
        "inf-lr", "nan-lambda", "nan-momentum", "nan-p", "inf-p"])
def test_cmd_distill_wrong_objective_exits_1_with_one_error_line(tmp_path, capsys, flags,
                                                                 words):
    out = tmp_path / "x.dds"
    assert run_cli(*toy_distill_args(out), *flags) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cmd_eval_non_finite_lr_exits_1_naming_the_field(tmp_path, capsys, monkeypatch, value):
    """``--lr nan`` used to train NaN parameters and report an accuracy."""
    out = tmp_path / "syn.dds"
    assert run_cli(*toy_distill_args(out)) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "evaluate_synthetic", lambda *a: calls.append(a))
    assert run_cli("eval", "--syn", str(out), "--dataset", "toy", "--models", "1",
                   "--epochs", "1", f"--lr={value}") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: lr (") and "finite" in err[0]
    assert calls == []


@pytest.mark.parametrize("command,flag,value,words", [
    ("distill", "--ipc", "0", "ipc (images per class) must be an integer >= 1, got 0"),
    ("distill", "--iters", "-1", "iterations (optimization steps) must be an integer >= 0, "
                                 "got -1"),
    ("distill", "--real-batch", "0", "real_batch_per_class (real images per class and step) "
                                     "must be an integer >= 1, got 0"),
    ("distill", "--width", "0", "width (channels per block) must be an integer >= 1, got 0"),
    ("distill", "--depth", "0", "depth (conv blocks) must be an integer >= 1, got 0"),
    ("eval", "--models", "0", "num_models (models to train) must be an integer >= 1, got 0"),
    ("eval", "--epochs", "0", "epochs (training epochs) must be an integer >= 1, got 0"),
    ("eval", "--batch-size", "0", "batch_size (training batch size) must be an integer >= 1, "
                                  "got 0"),
    ("eval", "--width", "0", "width (channels per block) must be an integer >= 1, got 0"),
    ("distill", "--seed", "-1", "seed (distillation seed) must be an integer >= 0, got -1"),
    ("distill", "--toy-seed", "-1", "seed (toy data seed) must be an integer >= 0, got -1"),
    ("eval", "--seed", "-3", "seed (evaluation seed) must be an integer >= 0, got -3"),
])
def test_count_flag_out_of_range_exits_1_naming_the_field(tmp_path, capsys, monkeypatch,
                                                           command, flag, value, words):
    """Each used to end in one line that dumped the whole config, named no
    field and called ``--iters 0``, which is valid, not positive."""
    syn = tmp_path / "syn.dds"
    if command == "distill":
        argv = toy_distill_args(tmp_path / "x.dds")
    else:
        assert run_cli(*toy_distill_args(syn)) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "evaluate_synthetic", lambda *a: pytest.fail("trained"))
        argv = ["eval", "--syn", str(syn), "--dataset", "toy", "--models", "1", "--epochs", "1"]
    assert run_cli(*argv, f"{flag}={value}") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {words}"]
    assert not (tmp_path / "x.dds").exists()


@pytest.mark.parametrize("layers", [",", ""], ids=["comma", "empty"])
def test_cmd_distill_empty_layer_list_exits_2(tmp_path, layers):
    with pytest.raises(SystemExit) as exc:
        run_cli(*toy_distill_args(tmp_path / "x.dds"), "--layers", layers)
    assert exc.value.code == 2


@pytest.mark.parametrize("pad", ["0", "-4"])
def test_cmd_distill_mnist_pad_below_one_exits_2(tmp_path, capsys, pad):
    with pytest.raises(SystemExit) as exc:
        run_cli("distill", "--dataset", str(tmp_path), "--format", "mnist",
                f"--mnist-pad={pad}", "--out", str(tmp_path / "x.dds"))
    assert exc.value.code == 2
    assert "--mnist-pad" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distill", "eval"])
@pytest.mark.parametrize("flag,value", [
    ("--toy-classes", "0"), ("--toy-per-class", "0"), ("--toy-size", "0"),
    ("--toy-size", "-2"), ("--toy-noise", "-1"), ("--toy-noise", "nan"),
    ("--toy-noise", "inf"),
])
def test_toy_flag_out_of_range_exits_2_naming_the_flag(tmp_path, capsys, command, flag,
                                                       value):
    """Each value used to reach numpy and fail there (or warn, then fail)."""
    target = ["--out", str(tmp_path / "x.dds")] if command == "distill" else [
        "--syn", str(tmp_path / "x.dds")]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--dataset", "toy", f"{flag}={value}", *target)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Warning" not in err


def test_cmd_distill_cifar_fixture_end_to_end(tmp_path):
    import test_data
    rng = np.random.default_rng(0)
    recs = [(lab, rng.integers(0, 256, size=3072).astype(np.uint8))
            for lab in list(range(10)) * 2]
    root = tmp_path / "cifar"
    root.mkdir()
    test_data.write_cifar(root / "data_batch_1.bin", recs)
    test_data.write_cifar(root / "test_batch.bin", recs[:10])
    out = tmp_path / "c.dds"
    code = run_cli("distill", "--dataset", str(root), "--format", "cifar10",
                   "--ipc", "1", "--iters", "1", "--width", "4",
                   "--real-batch", "2", "--out", str(out))
    assert code == 0
    syn, manifest = read_synthetic(out)
    assert syn.images.data.shape == (10, 3, 32, 32)
    assert manifest["encoder"]["depth"] == 3
    assert manifest["distill"]["lam"] == 0.01  # 32px input -> low-res default
    code = run_cli("eval", "--syn", str(out), "--dataset", str(root),
                   "--format", "cifar10", "--models", "1", "--epochs", "1")
    assert code == 0


def write_mnist_dir(tmp_path):
    """An MNIST directory of 20 training and 10 test images of 28x28."""
    import test_data
    rng = np.random.default_rng(1)
    n = 20
    images = rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8)
    labels = list(range(10)) * 2
    img, lab = test_data.write_mnist_pair(tmp_path, images, labels)
    img.rename(tmp_path / "train-images-idx3-ubyte")
    lab.rename(tmp_path / "train-labels-idx1-ubyte")
    timg, tlab = test_data.write_mnist_pair(tmp_path, images[:10], labels[:10])
    timg.rename(tmp_path / "t10k-images-idx3-ubyte")
    tlab.rename(tmp_path / "t10k-labels-idx1-ubyte")


def test_cmd_distill_mnist_fixture_end_to_end(tmp_path):
    write_mnist_dir(tmp_path)
    out = tmp_path / "m.dds"
    code = run_cli("distill", "--dataset", str(tmp_path), "--format", "mnist",
                   "--ipc", "1", "--iters", "1", "--width", "4",
                   "--real-batch", "2", "--out", str(out))
    assert code == 0
    syn, _ = read_synthetic(out)
    assert syn.images.data.shape == (10, 1, 28, 28)
    code = run_cli("eval", "--syn", str(out), "--dataset", str(tmp_path),
                   "--format", "mnist", "--models", "1", "--epochs", "1")
    assert code == 0


# ---------------------------------------------------------------------------
# eval command


def test_cmd_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "syn.dds"
    report = tmp_path / "report.json"
    assert run_cli(*toy_distill_args(out)) == 0
    code = run_cli("eval", "--syn", str(out), "--dataset", "toy",
                   "--models", "1", "--epochs", "2", "--seed", "1",
                   "--report", str(report))
    assert code == 0
    printed = capsys.readouterr().out
    assert "±" in printed
    data = json.loads(report.read_text())
    assert data["std"] == 0.0
    assert len(data["accuracies"]) == 1
    assert data["config"]["num_models"] == 1


def test_cmd_eval_corrupt_file_exits_1(tmp_path, capsys):
    out = tmp_path / "syn.dds"
    assert run_cli(*toy_distill_args(out)) == 0
    blob = bytearray(out.read_bytes())
    struct.pack_into("<I", blob, 8, 9)  # count no longer equals K * ipc
    out.write_bytes(bytes(blob))
    code = run_cli("eval", "--syn", str(out), "--dataset", "toy",
                   "--models", "1", "--epochs", "1")
    assert code == 1
    assert "count" in capsys.readouterr().err


def test_cmd_eval_format_toy_scores_on_the_manifest_toy_spec(tmp_path):
    out = tmp_path / "syn.dds"
    assert run_cli(*toy_distill_args(out, **{"toy-seed": 5})) == 0
    accuracies = []
    for extra in ([], ["--format", "toy"]):
        report = tmp_path / f"report{len(extra)}.json"
        assert run_cli("eval", "--syn", str(out), "--dataset", "toy", *extra,
                       "--models", "1", "--epochs", "2", "--batch-size", "4",
                       "--no-aug", "--report", str(report)) == 0
        accuracies.append(json.loads(report.read_text())["accuracies"])
    assert accuracies[0] == accuracies[1]


@pytest.mark.parametrize("field,value,words", [
    ("num_classes", 0, "num_classes (toy classes) must be an integer >= 1, got 0"),
    ("images_per_class", 0, "images_per_class (toy images per class) must be an integer "
                            ">= 1, got 0"),
    ("image_size", 0, "image_size (toy image side in pixels) must be an integer >= 1, got 0"),
    ("channels", 0, "channels (toy image channels) must be an integer >= 1, got 0"),
    ("noise_std", float("nan"), "noise_std (toy pixel noise) must be a finite number >= 0, "
                                "got nan"),
    ("noise_std", -1.0, "noise_std (toy pixel noise) must be a finite number >= 0, got -1.0"),
    ("noise_std", "0.3", "noise_std (toy pixel noise) must be a finite number >= 0, got 0.3"),
    ("seed", -1, "seed (toy data seed) must be an integer >= 0, got -1"),
], ids=["classes", "per-class", "size", "channels", "nan-noise", "negative-noise",
        "string-noise", "seed"])
def test_cmd_eval_manifest_toy_spec_out_of_range_exits_1_naming_the_field(
        tmp_path, capsys, monkeypatch, field, value, words):
    """The test set is rebuilt from the toy spec a manifest records. A NaN
    noise used to score on an all-NaN test set and exit 0; the others ended
    in numpy's or Python's words, which name no field."""
    toy = {"num_classes": 2, "images_per_class": 8, "image_size": 8, "channels": 1,
           "seed": 0, "noise_std": 0.3, field: value}
    manifest = dataclasses.replace(manifest_stub(), dataset={"path": "toy", "toy": toy})
    path = tmp_path / "syn.dds"
    write_synthetic(path, small_syn(k=2), 2, manifest)
    monkeypatch.setattr(cli, "evaluate_synthetic", lambda *a: pytest.fail("trained"))
    assert run_cli("eval", "--syn", str(path), "--dataset", "toy",
                   "--models", "1", "--epochs", "1") == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {words}"]


@pytest.mark.parametrize("extra", [[], ["--format", "toy"]])
def test_cmd_eval_class_count_mismatch_exits_1(tmp_path, capsys, extra):
    path = tmp_path / "syn.dds"
    write_synthetic(path, small_syn(k=2), 2, manifest_stub())  # no toy spec recorded
    code = run_cli("eval", "--syn", str(path), "--dataset", "toy", *extra,
                   "--toy-classes", "3", "--models", "1", "--epochs", "1")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "classes" in err[0]


def test_cmd_eval_image_shape_mismatch_exits_1_before_training(tmp_path, capsys,
                                                               monkeypatch):
    write_mnist_dir(tmp_path)
    out = tmp_path / "m.dds"
    assert run_cli("distill", "--dataset", str(tmp_path), "--format", "mnist",
                   "--mnist-pad", "32", "--ipc", "1", "--iters", "0", "--width", "4",
                   "--out", str(out)) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "evaluate_synthetic", lambda *a: calls.append(a))
    code = run_cli("eval", "--syn", str(out), "--dataset", str(tmp_path),
                   "--format", "mnist", "--models", "1", "--epochs", "1")
    assert code == 1 and not calls
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "1x28x28" in err[0] and "1x32x32" in err[0]


def _bad_labels(labels):
    def corrupt(path):
        syn = small_syn()
        syn.labels = np.asarray(labels)
        write_synthetic(path, syn, 2, manifest_stub())
    return corrupt


def _nan_pixel(path):
    syn = small_syn()
    syn.images.data[1, 0, 2, 3] = np.nan
    write_synthetic(path, syn, 2, manifest_stub())


def _manifest_bytes(payload):
    def corrupt(path):
        write_synthetic(path, small_syn(), 2, manifest_stub())
        # the file ends in the u32 manifest length and the manifest itself
        mjson = json.dumps(manifest_stub().to_dict(), sort_keys=True)
        head = path.read_bytes()[:-(len(mjson) + 4)]
        path.write_bytes(head + struct.pack("<I", len(payload)) + payload)
    return corrupt


def _empty_set(path):
    syn = SyntheticSet(images=Tensor(np.zeros((0, 1, 8, 8), np.float32)),
                       labels=np.zeros(0, np.int64), ipc=2)
    write_synthetic(path, syn, 0, manifest_stub())


BAD_FILES = {
    "empty-set": (_empty_set, "empty"),
    "label-out-of-range": (_bad_labels([0, 0, 1, 2]), "outside"),
    "labels-not-class-major": (_bad_labels([0, 1, 0, 1]), "class-major"),
    "non-finite-pixel": (_nan_pixel, "non-finite"),
    "manifest-not-utf8": (_manifest_bytes(b"\xff\xfe{}"), "manifest"),
    "manifest-not-json": (_manifest_bytes(b"{seed: 1"), "manifest"),
    "manifest-not-object": (_manifest_bytes(b"[1, 2]"), "manifest"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_synfile_rejects_bad_content(tmp_path, case):
    corrupt, words = BAD_FILES[case]
    path = tmp_path / "bad.dds"
    corrupt(path)
    with pytest.raises(SynFileError, match=words):
        read_synthetic(path)


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_synfile_exits_1_with_one_error_line(tmp_path, capsys, case, command):
    corrupt, words = BAD_FILES[case]
    path = tmp_path / "bad.dds"
    corrupt(path)
    if command == "eval":
        argv = ["eval", "--syn", str(path), "--dataset", "toy", "--models", "1",
                "--epochs", "1"]
    else:
        argv = ["export", "--syn", str(path), "--out", str(tmp_path / "g.ppm")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
    assert not (tmp_path / "g.ppm").exists()


# ---------------------------------------------------------------------------
# export command


def read_ppm(path):
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n")
    header, rest = blob.split(b"\n255\n", 1)
    w, h = map(int, header.split(b"\n")[1].split())
    return w, h, np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def test_cmd_export_grid_dimensions(tmp_path):
    syn = small_syn(k=2, ipc=2, c=3)
    path = tmp_path / "syn.dds"
    write_synthetic(path, syn, 2, manifest_stub(mean=[0.0] * 3, std=[1.0] * 3))
    out = tmp_path / "grid.ppm"
    assert run_cli("export", "--syn", str(path), "--out", str(out)) == 0
    w, h, _ = read_ppm(out)
    assert (w, h) == (16, 16)


def test_cmd_export_replicates_grayscale(tmp_path):
    syn = small_syn(k=1, ipc=1, c=1)
    path = tmp_path / "g.dds"
    write_synthetic(path, syn, 1, manifest_stub())
    out = tmp_path / "g.ppm"
    assert run_cli("export", "--syn", str(path), "--out", str(out)) == 0
    _, _, img = read_ppm(out)
    assert np.array_equal(img[..., 0], img[..., 1])
    assert np.array_equal(img[..., 0], img[..., 2])


def test_cmd_export_zero_pixels_become_mid_gray(tmp_path):
    syn = small_syn(k=1, ipc=1, c=1)
    syn.images.data[:] = 0.0
    path = tmp_path / "z.dds"
    write_synthetic(path, syn, 1, manifest_stub(mean=[0.5], std=[0.25]))
    out = tmp_path / "z.ppm"
    assert run_cli("export", "--syn", str(path), "--out", str(out)) == 0
    _, _, img = read_ppm(out)
    assert np.all(img == 128)  # denormalized 0.5 -> rint(127.5) = 128


# ---------------------------------------------------------------------------
# normalization stats in the manifest

BAD_STATS = {
    "nan-mean": {"mean": [float("nan")], "std": [0.5]},
    "wrong-length": {"mean": [0.1, 0.2], "std": [0.5, 0.5]},
    "zero-std": {"mean": [0.1], "std": [0.0]},
}


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("case", sorted(BAD_STATS))
def test_bad_manifest_stats_exit_1_with_one_error_line(tmp_path, capsys, case, command):
    """An MNIST-shaped set whose manifest stats are not one finite mean and
    one positive std for its single channel is refused by both commands."""
    import test_data
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(10, 28, 28)).astype(np.uint8)
    img, lab = test_data.write_mnist_pair(tmp_path, images, list(range(10)))
    img.rename(tmp_path / "t10k-images-idx3-ubyte")
    lab.rename(tmp_path / "t10k-labels-idx1-ubyte")
    path = tmp_path / "syn.dds"
    write_synthetic(path, small_syn(k=10, ipc=1, h=28, w=28), 10,
                    manifest_stub(**BAD_STATS[case]))
    if command == "eval":
        argv = ["eval", "--syn", str(path), "--dataset", str(tmp_path), "--format", "mnist",
                "--models", "1", "--epochs", "1"]
    else:
        argv = ["export", "--syn", str(path), "--out", str(tmp_path / "g.ppm")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "manifest stats" in err[0]
    assert not (tmp_path / "g.ppm").exists()


def test_manifest_without_stats_keeps_the_identity_for_export(tmp_path):
    syn = small_syn(k=1, ipc=1, c=1)
    syn.images.data[:] = 0.5
    manifest = manifest_stub().to_dict()
    del manifest["stats"]
    path = tmp_path / "s.dds"
    write_synthetic(path, syn, 1, manifest)
    out = tmp_path / "s.ppm"
    assert run_cli("export", "--syn", str(path), "--out", str(out)) == 0
    _, _, img = read_ppm(out)
    assert np.all(img == 128)
