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

from oracles import matching_gradient_error


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=2)
    parser.add_argument("--size", type=int, default=8)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--seed", type=int, default=33)
    args = parser.parse_args()

    failed = False
    for dtype, h, tol in ((np.float32, 1e-3, 1e-3), (np.float64, 1e-4, 1e-6)):
        t0 = time.time()
        worst = matching_gradient_error(dtype, h, args.classes, args.size, args.width,
                                        args.batch, args.seed)
        verdict = "OK" if worst < tol else "TOO LARGE"
        print(f"{np.dtype(dtype).name:8s} max rel err {worst:.3e} "
              f"(tolerance {tol:g}) [{verdict}] in {time.time() - t0:.1f}s")
        failed |= verdict != "OK"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
