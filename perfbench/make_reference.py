#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the values the benchmark checks
its outputs against.

For every workload and input seed it records the (total, sam, mmd) losses of
one cycle of distill steps and the test accuracy of each model seed slot,
from the same code path the benchmark times. Run it only when a change is meant to
alter these numbers, and say so where the change is described.

    python3 perfbench/make_reference.py              # all workloads, default seeds
    python3 perfbench/make_reference.py --workload eval-toy --seeds 0,1
"""
from __future__ import annotations

import argparse
import json
import sys

import run

SEEDS = list(range(run.SEED_CYCLE)) + [run.HELD_OUT_SEED]


def reference_for(w, seed):
    from workloads import MODEL_SEEDS, STEP_CYCLE, Pipeline

    pipe = Pipeline(w, seed, run.OUT_DIR)
    losses = [pipe.step()[1][:3] for _ in range(STEP_CYCLE)]
    accs = [pipe.model()[1] for _ in range(MODEL_SEEDS)]
    return {"steps": losses, "models": accs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)))
    args = parser.parse_args(argv)

    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    run.OUT_DIR.mkdir(exist_ok=True)
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in (int(s) for s in args.seeds.split(",")):
            ref.setdefault(name, {})[str(seed)] = reference_for(WORKLOADS[name], seed)
            print(f"{name} seed {seed}: {ref[name][str(seed)]}", flush=True)
            run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
