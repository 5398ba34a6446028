#!/usr/bin/env python3
"""Check the analytic pixel gradient of the full matching loss against
central finite differences, at both precisions.

Usage: python3 scripts/check_gradients.py [--classes 2] [--size 8] [--width 8]

Exits 1 when either precision's error exceeds its tolerance.
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from attndistill.encoder import EncoderConfig, sample_params
from attndistill.tensor import Tensor
from oracles import fd_gradient, matching_loss, max_rel_err


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=2)
    parser.add_argument("--size", type=int, default=8)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--seed", type=int, default=33)
    args = parser.parse_args()

    cfg = EncoderConfig(depth=3, width=args.width, input_channels=1,
                        input_size=args.size, num_classes=args.classes)
    rng = np.random.default_rng(5)
    real64 = [rng.normal(size=(args.batch, 1, args.size, args.size))
              for _ in range(args.classes)]
    pixels = rng.normal(size=(args.classes, 1, args.size, args.size)).ravel()

    params64 = sample_params(cfg, args.seed, dtype=np.float64)
    reals64 = [Tensor(r) for r in real64]

    failed = False
    for dtype, h, tol in ((np.float32, 1e-3, 1e-3), (np.float64, 1e-4, 1e-6)):
        t0 = time.time()
        params = sample_params(cfg, args.seed, dtype=dtype)
        reals = [Tensor(r.astype(dtype)) for r in real64]
        _, grad = matching_loss(params, reals, pixels)
        analytic = grad.ravel().astype(np.float64)
        numeric = fd_gradient(lambda v: matching_loss(params64, reals64, v)[0], pixels, h)

        gmax = max(np.abs(analytic).max(), np.abs(numeric).max())
        worst = max_rel_err(analytic, numeric, floor=1e-4 * gmax)
        verdict = "OK" if worst < tol else "TOO LARGE"
        print(f"{np.dtype(dtype).name:8s} max rel err {worst:.3e} "
              f"(tolerance {tol:g}) [{verdict}] in {time.time() - t0:.1f}s")
        failed |= verdict != "OK"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
