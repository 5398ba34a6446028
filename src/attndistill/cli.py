"""Command-line surface: distill, eval, export.

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 flag or
parse errors (argparse usage text).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, data
from .distill import AugmentSpec, DistillConfig, run_distillation
from .encoder import EncoderConfig, default_depth
from .evaluation import EvalConfig, evaluate_synthetic
from .synfile import RunManifest, read_synthetic, write_synthetic

AUG_NAMES = ("flip", "crop", "cutout")


def _parse_aug(text):
    if text == "none":
        return AugmentSpec.none()
    names = [t.strip() for t in text.split(",") if t.strip()]
    unknown = set(names) - set(AUG_NAMES)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown augmentations: {sorted(unknown)}")
    return AugmentSpec(flip="flip" in names, crop="crop" in names,
                       cutout="cutout" in names)


def _parse_layers(text):
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad layer list {text!r}") from None


def _add_dataset_flags(p):
    p.add_argument("--dataset", required=True,
                   help="dataset path, or 'toy' for the synthetic toy generator")
    p.add_argument("--format", choices=("cifar10", "mnist", "toy"), default=None,
                   help="dataset format (inferred as 'toy' when --dataset toy)")
    p.add_argument("--toy-classes", type=int, default=4)
    p.add_argument("--toy-per-class", type=int, default=64)
    p.add_argument("--toy-size", type=int, default=8)
    p.add_argument("--toy-noise", type=float, default=0.3)
    p.add_argument("--toy-seed", type=int, default=0)
    p.add_argument("--mnist-pad", type=int, default=None,
                   help="center-crop/zero-pad MNIST images to this size")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attndistill",
        description="Learn and evaluate small synthetic image sets by "
                    "attention and feature-mean matching.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("distill", help="optimize a synthetic set")
    _add_dataset_flags(d)
    d.add_argument("--ipc", type=int, default=10, help="images per class")
    d.add_argument("--iters", type=int, default=8000)
    d.add_argument("--lr", type=float, default=None,
                   help="image learning rate (default 1.0 for ipc<=50, else 10.0)")
    d.add_argument("--momentum", type=float, default=0.5)
    d.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="task balance (default 0.01 for <=32px inputs, else 0.02)")
    d.add_argument("--p", type=float, default=4.0, help="attention exponent")
    d.add_argument("--init", choices=("random", "kcenter", "noise"), default="random")
    d.add_argument("--real-batch", type=int, default=256)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--width", type=int, default=128)
    d.add_argument("--depth", type=int, default=None)
    d.add_argument("--layers", type=_parse_layers, default=None,
                   help="comma-separated intermediate layers for attention matching")
    d.add_argument("--no-sam", action="store_true", help="drop the attention term")
    d.add_argument("--no-mmd", action="store_true", help="drop the feature-mean term")
    d.add_argument("--aug", type=_parse_aug, default=AugmentSpec(),
                   help="comma-separated transforms among flip,crop,cutout, or 'none'")
    d.add_argument("--out", required=True, help="output synthetic-set file")
    d.add_argument("--metrics", default=None, help="per-iteration loss CSV")
    d.set_defaults(func=cmd_distill)

    e = sub.add_parser("eval", help="train fresh classifiers on a synthetic set")
    e.add_argument("--syn", required=True, help="synthetic-set file")
    _add_dataset_flags(e)
    e.add_argument("--models", type=int, default=5)
    e.add_argument("--epochs", type=int, default=300)
    e.add_argument("--lr", type=float, default=0.01)
    e.add_argument("--batch-size", type=int, default=256)
    e.add_argument("--no-aug", action="store_true")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--width", type=int, default=None, help="override stored encoder width")
    e.add_argument("--depth", type=int, default=None, help="override stored encoder depth")
    e.add_argument("--report", default=None, help="JSON report path")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("export", help="render a synthetic set as a PPM grid")
    x.add_argument("--syn", required=True)
    x.add_argument("--out", required=True, help="output .ppm path (binary P6)")
    x.set_defaults(func=cmd_export)
    return parser


def _toy_spec(args):
    return data.ToySpec(num_classes=args.toy_classes, images_per_class=args.toy_per_class,
                        image_size=args.toy_size, seed=args.toy_seed,
                        noise_std=args.toy_noise)


def _sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _dataset_format(args):
    fmt = args.format or ("toy" if args.dataset == "toy" else None)
    if fmt is None:
        raise ValueError("--format is required unless --dataset is 'toy'")
    return fmt


def _load_dataset(args, split, stats=None, toy=None):
    """Returns (DatasetIndex, identity dict). split: 'train' | 'test'.

    Toy data follows ``toy`` when given, else the --toy-* flags.
    """
    fmt = _dataset_format(args)
    if fmt == "toy":
        spec = toy or _toy_spec(args)
        train, test = data.gen_toy(spec)
        ident = {"path": "toy", "toy": asdict(spec),
                 "sha256": hashlib.sha256(
                     json.dumps(asdict(spec), sort_keys=True).encode()).hexdigest()}
        return (train if split == "train" else test), ident
    root = Path(args.dataset)
    if fmt == "cifar10":
        if root.is_dir():
            files = (sorted(root.glob("data_batch_*")) if split == "train"
                     else [root / "test_batch.bin"])
            files = [f for f in files if Path(f).exists()]
            if not files:
                raise FileNotFoundError(f"no CIFAR-10 {split} batches under {root}")
        else:
            files = [root]
        ds = data.load_cifar10(files, stats=stats)
        ident = {"path": str(root), "sha256": _sha256_files(files)}
        return ds, ident
    if root.is_dir():
        prefix = "train" if split == "train" else "t10k"
        imgs = root / f"{prefix}-images-idx3-ubyte"
        labs = root / f"{prefix}-labels-idx1-ubyte"
    else:
        imgs = root
        labs = Path(str(root).replace("images-idx3", "labels-idx1"))
    ds = data.load_mnist(imgs, labs, stats=stats, resize_to=args.mnist_pad)
    ident = {"path": str(root), "sha256": _sha256_files([imgs, labs])}
    return ds, ident


def cmd_distill(args):
    start = time.monotonic()
    train, ident = _load_dataset(args, "train")
    c, h, w = train.image_shape
    lam = args.lam if args.lam is not None else (0.01 if h <= 32 else 0.02)
    config = DistillConfig(
        ipc=args.ipc, iterations=args.iters, lr_images=args.lr,
        image_momentum=args.momentum, lam=lam, p=args.p,
        real_batch_per_class=args.real_batch, seed=args.seed, init=args.init,
        layers=args.layers, use_sam=not args.no_sam, use_mmd=not args.no_mmd,
        augment=args.aug)
    encoder_cfg = EncoderConfig(
        depth=args.depth if args.depth is not None else default_depth(h),
        width=args.width, input_channels=c, input_size=h,
        num_classes=train.num_classes)

    csv_file = open(args.metrics, "w") if args.metrics else None
    try:
        if csv_file:
            csv_file.write("iteration,l_sam,l_mmd,total\n")

        def sink(iteration, brk):
            if csv_file:
                csv_file.write(f"{iteration},{brk.l_sam:.9g},{brk.l_mmd:.9g},{brk.total:.9g}\n")

        syn = run_distillation(config, encoder_cfg, train, sink=sink)
    finally:
        if csv_file:
            csv_file.close()

    cfg_dict = asdict(config)
    cfg_dict["layers"] = list(config.layers) if config.layers is not None else None
    manifest = RunManifest(
        tool_version=__version__,
        seed=args.seed,
        dataset=ident,
        distill=cfg_dict,
        encoder=asdict(encoder_cfg),
        stats={"mean": [float(v) for v in train.mean],
               "std": [float(v) for v in train.std]},
        duration_sec=time.monotonic() - start,
    )
    write_synthetic(args.out, syn, train.num_classes, manifest)
    print(f"wrote {args.out}: {syn.images.data.shape[0]} images "
          f"({train.num_classes} classes x ipc {syn.ipc}) "
          f"in {manifest.duration_sec:.1f}s")
    return 0


def cmd_eval(args):
    syn, manifest = read_synthetic(args.syn)
    stats = None
    if "stats" in manifest:
        stats = (manifest["stats"]["mean"], manifest["stats"]["std"])
    toy = None
    if _dataset_format(args) == "toy" and "toy" in manifest.get("dataset", {}):
        toy = data.ToySpec(**manifest["dataset"]["toy"])
    test, _ = _load_dataset(args, "test", stats=stats, toy=toy)
    if test.num_classes != syn.num_classes:
        raise ValueError(f"the test set has {test.num_classes} classes, "
                         f"the synthetic set {syn.num_classes}")
    enc = manifest.get("encoder", {})
    count, c, h, w = syn.images.data.shape
    encoder_cfg = EncoderConfig(
        depth=args.depth if args.depth is not None else enc.get("depth", default_depth(h)),
        width=args.width if args.width is not None else enc.get("width", 128),
        input_channels=c, input_size=h, num_classes=syn.num_classes)
    config = EvalConfig(num_models=args.models, epochs=args.epochs, lr=args.lr,
                        batch_size=args.batch_size, augment=not args.no_aug,
                        seed=args.seed)
    report = evaluate_synthetic(syn, encoder_cfg, test, config)
    if args.report:
        Path(args.report).write_text(report.to_json())
    print(f"accuracy: {report.mean:.4f} ± {report.std:.4f} "
          f"over {config.num_models} models")
    return 0


def cmd_export(args):
    syn, manifest = read_synthetic(args.syn)
    count, c, h, w = syn.images.data.shape
    ipc = syn.ipc
    k = syn.num_classes
    mean = np.asarray(manifest.get("stats", {}).get("mean", [0.0] * c), dtype=np.float64)
    std = np.asarray(manifest.get("stats", {}).get("std", [1.0] * c), dtype=np.float64)
    raw = data.denormalize(syn.images.data, mean, std)
    if c == 1:
        raw = np.repeat(raw, 3, axis=1)
    elif c != 3:
        raise ValueError(f"cannot export {c}-channel images as PPM")
    grid = np.zeros((k * h, ipc * w, 3), dtype=np.float64)
    for cls in range(k):
        for j in range(ipc):
            img = raw[cls * ipc + j].transpose(1, 2, 0)
            grid[cls * h:(cls + 1) * h, j * w:(j + 1) * w] = img
    bytes_img = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{ipc * w} {k * h}\n255\n".encode("ascii")
    Path(args.out).write_bytes(header + bytes_img.tobytes())
    print(f"wrote {args.out}: {ipc * w}x{k * h} grid")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures map to exit 1 with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
