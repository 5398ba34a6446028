"""Command-line surface: distill, eval, export.

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 flag or
parse errors (argparse usage text). A flag value out of its range exits 2
before any data is read, naming the flag and the config field; checks that
need the data or the other flags exit 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, data
from .augment import AugmentSpec
from .distill import INIT_STRATEGIES, DistillConfig, run_distillation
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
        layers = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        layers = ()
    if not layers:
        raise argparse.ArgumentTypeError(f"bad layer list {text!r}")
    return layers


def _bounded_type(name, bound):
    """The argparse type of a value held to ``bound``: a value out of range
    exits 2 at parse time, in one line naming the flag and ``name``."""
    def parse(text):
        try:
            value = bound.kind(text)
        except ValueError:
            value = text
        try:
            bound.check(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def add_field_flag(parser, flag, config, name, prefix="", resolved=None, **kw):
    """Add ``flag`` for the field ``name`` of the dataclass ``config``, stored
    as ``prefix + name`` (what ``_config`` reads). Its default is the field's,
    or None when ``resolved`` says how the command works it out from the data.
    A bounded field gives its meaning as the help and its range as the type.
    ``kw`` goes to ``add_argument`` and takes precedence."""
    f = next(f for f in fields(config) if f.name == name)
    default = f.default if f.default_factory is MISSING else f.default_factory()
    opts = {"dest": prefix + name, "default": default}
    if "bound" in f.metadata:
        opts.update(type=_bounded_type(name, f.metadata["bound"]),
                    help=f.metadata["bound"].meaning)
    if resolved:
        opts.update(default=None, help=f"{opts['help']} (default {resolved})")
    parser.add_argument(flag, **{**opts, **kw})


def _config(config, args, prefix="", **resolved):
    """``config`` built from the flags ``add_field_flag`` stored under
    ``prefix``: a flag left at None takes its value from ``resolved``, or
    else the field's default."""
    given = {f.name: getattr(args, prefix + f.name) for f in fields(config)
             if getattr(args, prefix + f.name, None) is not None}
    return config(**{**resolved, **given})


def _add_dataset_flags(p):
    p.add_argument("--dataset", required=True,
                   help="dataset path, or 'toy' for the synthetic toy generator")
    p.add_argument("--format", choices=("cifar10", "mnist", "toy"), default=None,
                   help="dataset format (inferred as 'toy' when --dataset toy)")
    for flag, name in (("--toy-classes", "num_classes"), ("--toy-per-class", "images_per_class"),
                       ("--toy-size", "image_size"), ("--toy-noise", "noise_std"),
                       ("--toy-seed", "seed")):
        add_field_flag(p, flag, data.ToySpec, name, prefix="toy_")
    p.add_argument("--mnist-pad", type=_bounded_type("resize_to", data.RESIZE_TO),
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
    add_field_flag(d, "--ipc", DistillConfig, "ipc")
    add_field_flag(d, "--iters", DistillConfig, "iterations")
    add_field_flag(d, "--lr", DistillConfig, "lr_images", resolved="1.0 for ipc<=50, else 10.0")
    add_field_flag(d, "--momentum", DistillConfig, "image_momentum")
    add_field_flag(d, "--lambda", DistillConfig, "lam",
                   resolved="0.01 for <=32px inputs, else 0.02")
    add_field_flag(d, "--p", DistillConfig, "p")
    add_field_flag(d, "--init", DistillConfig, "init", choices=INIT_STRATEGIES)
    add_field_flag(d, "--real-batch", DistillConfig, "real_batch_per_class")
    add_field_flag(d, "--seed", DistillConfig, "seed")
    add_field_flag(d, "--width", EncoderConfig, "width")
    add_field_flag(d, "--depth", EncoderConfig, "depth",
                   resolved="3 up to 32px inputs, 4 up to 64px, else 5")
    add_field_flag(d, "--layers", DistillConfig, "layers", type=_parse_layers,
                   help="comma-separated intermediate layers for attention matching")
    d.add_argument("--no-sam", dest="use_sam", action="store_false",
                   help="drop the attention term")
    d.add_argument("--no-mmd", dest="use_mmd", action="store_false",
                   help="drop the feature-mean term")
    add_field_flag(d, "--aug", DistillConfig, "augment", type=_parse_aug,
                   help="comma-separated transforms among flip,crop,cutout, or 'none'")
    d.add_argument("--out", required=True, help="output synthetic-set file")
    d.add_argument("--metrics", default=None, help="per-iteration loss CSV")
    d.set_defaults(func=cmd_distill)

    e = sub.add_parser("eval", help="train fresh classifiers on a synthetic set")
    e.add_argument("--syn", required=True, help="synthetic-set file")
    _add_dataset_flags(e)
    add_field_flag(e, "--models", EvalConfig, "num_models")
    add_field_flag(e, "--epochs", EvalConfig, "epochs")
    add_field_flag(e, "--lr", EvalConfig, "lr")
    add_field_flag(e, "--batch-size", EvalConfig, "batch_size")
    e.add_argument("--no-aug", dest="augment", action="store_false")
    add_field_flag(e, "--seed", EvalConfig, "seed")
    add_field_flag(e, "--width", EncoderConfig, "width", resolved="the synthetic set's")
    add_field_flag(e, "--depth", EncoderConfig, "depth", resolved="the synthetic set's")
    e.add_argument("--report", default=None, help="JSON report path")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("export", help="render a synthetic set as a PPM grid")
    x.add_argument("--syn", required=True)
    x.add_argument("--out", required=True, help="output .ppm path (binary P6)")
    x.set_defaults(func=cmd_export)
    return parser


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
        spec = toy or _config(data.ToySpec, args, prefix="toy_")
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
    config = _config(DistillConfig, args, lam=0.01 if h <= 32 else 0.02)
    encoder_cfg = _config(EncoderConfig, args, depth=default_depth(h), input_channels=c,
                          input_size=h, num_classes=train.num_classes)

    csv_file = open(args.metrics, "w") if args.metrics else None
    try:
        if csv_file:
            csv_file.write("iteration,l_sam,l_mmd,total\n")

        def sink(iteration, brk):
            if csv_file:
                csv_file.write(f"{iteration},{brk.l_sam:.9g},{brk.l_mmd:.9g},{brk.total:.9g}\n")
                csv_file.flush()  # a run killed hours in keeps every finished line

        syn = run_distillation(config, encoder_cfg, train, sink=sink)
    finally:
        if csv_file:
            csv_file.close()

    cfg_dict = asdict(config)
    cfg_dict["layers"] = list(config.layers) if config.layers is not None else None
    manifest = RunManifest(
        tool_version=__version__,
        seed=config.seed,
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


def _manifest_stats(manifest, channels):
    """The manifest's normalization (mean, std) as float64 arrays, or None
    when it records none; each holds one finite number per channel, std > 0."""
    if "stats" not in manifest:
        return None
    stats = manifest["stats"]
    try:
        mean, std = (np.asarray(stats[key], dtype=np.float64) for key in ("mean", "std"))
    except (KeyError, TypeError, ValueError):
        mean = std = np.empty(0)
    if not (mean.shape == std.shape == (channels,) and np.isfinite(mean).all()
            and (np.isfinite(std) & (std > 0)).all()):
        raise ValueError(f"manifest stats {stats!r} are not a finite mean and a "
                         f"positive std for each of {channels} channels")
    return mean, std


def cmd_eval(args):
    syn, manifest = read_synthetic(args.syn)
    stats = _manifest_stats(manifest, syn.images.data.shape[1])
    toy = None
    if _dataset_format(args) == "toy" and "toy" in manifest.get("dataset", {}):
        toy = data.ToySpec(**manifest["dataset"]["toy"])
    test, _ = _load_dataset(args, "test", stats=stats, toy=toy)
    if test.num_classes != syn.num_classes:
        raise ValueError(f"the test set has {test.num_classes} classes, "
                         f"the synthetic set {syn.num_classes}")
    count, c, h, w = syn.images.data.shape
    if test.image_shape != (c, h, w):
        raise ValueError("the test images are {}x{}x{}, the synthetic images {}x{}x{}"
                         .format(*test.image_shape, c, h, w))
    stored = {k: v for k, v in manifest.get("encoder", {}).items() if k in ("depth", "width")}
    encoder_cfg = _config(EncoderConfig, args, **{"depth": default_depth(h), **stored},
                          input_channels=c, input_size=h, num_classes=syn.num_classes)
    config = _config(EvalConfig, args)
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
    stats = _manifest_stats(manifest, c)
    mean, std = stats if stats is not None else (np.zeros(c), np.ones(c))
    raw = data.denormalize(syn.images.data, mean, std)
    if c == 1:
        raw = np.repeat(raw, 3, axis=1)
    elif c != 3:
        raise ValueError(f"cannot export {c}-channel images as PPM")
    grid = raw.reshape(k, ipc, 3, h, w).transpose(0, 3, 1, 4, 2).reshape(k * h, ipc * w, 3)
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
