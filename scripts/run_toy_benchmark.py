#!/usr/bin/env python3
"""Run the desk-scale relational benchmark and print a comparison table.

Distills a synthetic set on the benchmark toy dataset, evaluates it against
the random-coreset and unoptimized-noise baselines plus the two single-loss
ablations, all under one shared evaluation protocol. Each pipeline is the one
the acceptance gate runs (``benchmark.run_pipeline``).

Usage: python3 scripts/run_toy_benchmark.py [--skip-ablations] [--iters N] [--models N]
"""
import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from attndistill import benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-ablations", action="store_true",
                        help="only run distilled vs the two selection baselines")
    parser.add_argument("--iters", type=int, default=benchmark.DISTILL_ITERATIONS,
                        help="the distillation iterations")
    parser.add_argument("--models", type=int, default=benchmark.EVAL.num_models,
                        help="the number of evaluation models")
    args = parser.parse_args()
    eval_cfg = dataclasses.replace(benchmark.EVAL, num_models=args.models)

    train, test = benchmark.load_benchmark_data()
    print(f"toy benchmark: {benchmark.TOY_SPEC}")
    print(f"encoder: {benchmark.ENCODER}")
    print(f"eval protocol: {eval_cfg}\n")

    runs = [("distilled (joint)", "joint"), ("random coreset", "coreset"),
            ("noise (unoptimized)", "noise")]
    if not args.skip_ablations:
        runs += [("attention-only", "sam_only"), ("feature-mean-only", "mmd_only")]

    results = []
    for label, name in runs:
        def sink(i, brk):
            if i % 200 == 0:
                print(f"  [{label}] iter {i}: total {brk.total:.5f} "
                      f"(sam {brk.l_sam:.5f}, mmd {brk.l_mmd:.5f})")

        t0 = time.time()
        res = benchmark.run_pipeline(name, train, test, sink=sink, eval_config=eval_cfg,
                                     iterations=args.iters)
        results.append((label, res, time.time() - t0))
        accs = " ".join(f"{a:.3f}" for a in res.accuracies)
        print(f"{label:22s} mean {res.mean:.3f}  models [{accs}]  ({time.time() - t0:.0f}s)\n")

    print(f"{'pipeline':24s}{'mean acc':>10s}{'time':>8s}")
    for label, res, dt in results:
        print(f"{label:24s}{res.mean:>10.3f}{dt:>7.0f}s")
    base = results[0][1].mean
    print(f"\ndistilled - coreset: {base - results[1][1].mean:+.3f}  "
          f"distilled - noise: {base - results[2][1].mean:+.3f}")


if __name__ == "__main__":
    main()
