#!/usr/bin/env python3
"""Check the analytic pixel gradient of the full matching loss against
central finite differences, at both precisions: the check of acceptance
criterion 1 (``tests/oracles.py:matching_gradient_error``), with its setup
as flags.

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

from attndistill.cli import add_field_flag
from attndistill.distill import DistillConfig
from attndistill.encoder import EncoderConfig
from oracles import matching_gradient_error


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    add_field_flag(parser, "--classes", EncoderConfig, "num_classes", default=2)
    add_field_flag(parser, "--size", EncoderConfig, "input_size", default=8)
    add_field_flag(parser, "--width", EncoderConfig, "width", default=8)
    add_field_flag(parser, "--batch", DistillConfig, "real_batch_per_class", default=4)
    add_field_flag(parser, "--seed", DistillConfig, "seed", default=33,
                   help="encoder seed")
    args = parser.parse_args()

    failed = False
    for dtype, h, tol in ((np.float32, 1e-3, 1e-3), (np.float64, 1e-4, 1e-6)):
        t0 = time.time()
        worst = matching_gradient_error(dtype, h, args.num_classes, args.input_size, args.width,
                                        args.real_batch_per_class, args.seed)
        verdict = "OK" if worst < tol else "TOO LARGE"
        print(f"{np.dtype(dtype).name:8s} max rel err {worst:.3e} "
              f"(tolerance {tol:g}) [{verdict}] in {time.time() - t0:.1f}s")
        failed |= verdict != "OK"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
