#!/usr/bin/env python3
"""attndistill benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload distill-cifar --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` reports the per-layer metrics from a
traced pass, plus the tracing overhead. Metric names and units come from
BENCHMARK.json. Human-readable lines (environment, each metric with its
sample count) precede the result; the full record, spans included, is
written to .bench_out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Set-up is repeated and its median reported, so that a single slow
# repetition does not move setup_s.
SETUP_REPEATS = 3
# reference.json holds values for the inputs of seeds 0 .. SEED_CYCLE - 1 and
# of the held-out seed. Any other seed makes the inputs of seed % SEED_CYCLE,
# so that every run is checked against committed values.
SEED_CYCLE = 32
HELD_OUT_SEED = 4242


def pin_blas_threads():
    """Pin BLAS and OpenMP pools to the CPUs this process may use; must run
    before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(threads, args):
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def input_seed(seed):
    """The seed the inputs of a ``--seed`` run are made from."""
    return seed if seed == HELD_OUT_SEED else seed % SEED_CYCLE


def load_reference(workload, seed):
    """Committed reference values for one workload and input seed, or None."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def run_unit(pipe, kind, checker, tracer=None):
    """Run and check one distill step or one model; returns its wall time,
    or None if it raised."""
    root = "distill.step" if kind == "distill" else "evaluation.model"
    idx = tracer.begin(root) if tracer else None
    t0 = time.perf_counter()
    try:
        out = pipe.step() if kind == "distill" else pipe.model(tracer)
    except Exception as exc:  # a failed unit is counted and the loop goes on
        checker.error(root, exc)
        return None
    finally:
        if tracer:
            tracer.end(idx)
    elapsed = time.perf_counter() - t0
    if kind == "distill":
        checker.step(*out, pipe.pixels_finite())
    else:
        checker.model(*out)
    return elapsed


def run_rounds(w, pipe, checker, until, least, tracer=None):
    """Closed loop of rounds while the clock is before ``until``, at least
    ``least`` of them. A round is one primary unit followed by
    ``w.secondary_per_round`` units of the other half, so that both halves
    sample the whole run rather than one stretch of it.

    With a tracer, every second unit of each kind runs instrumented, so that
    traced and untraced units see the same state of the machine and the
    ratio of their medians is the tracing overhead. Returns, per kind, the
    untraced and the traced wall times of the units that completed."""
    import tracing as tr
    secondary = "eval" if w.primary == "distill" else "distill"
    plan = [w.primary] + [secondary] * w.secondary_per_round
    times = {kind: ([], []) for kind in ("distill", "eval")}
    done = {"distill": 0, "eval": 0}
    rounds = 0
    while rounds < least or time.perf_counter() < until:
        for kind in plan:
            traced = tracer is not None and done[kind] % 2 == 1
            with tr.instrument(tracer) if traced else contextlib.nullcontext():
                t = run_unit(pipe, kind, checker, tracer if traced else None)
            if t is not None:
                times[kind][traced].append(t)
            done[kind] += 1
        rounds += 1
    return times


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def run_workload(w, seed, reference, seconds, trace, scratch_dir):
    """Returns (metric values, sample counts, checker, extra record)."""
    from workloads import MODEL_SEEDS, Checker, Pipeline
    import tracing as tr

    checker = Checker(reference)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        pipe = Pipeline(w, seed, scratch_dir)
        warm = pipe.warm_up()
        setup_times.append(time.perf_counter() - t0)
        checker.step(*warm, pipe.pixels_finite())
        return pipe

    pipe = set_up()
    # A traced run does twice the rounds, every second unit traced.
    tracer = tr.Tracer() if trace else None
    times = run_rounds(w, pipe, checker, time.perf_counter() + seconds,
                       (2 if trace else 1) * MODEL_SEEDS, tracer)
    plain = {kind: t[0] for kind, t in times.items()}
    traced = {kind: t[1] for kind, t in times.items()}

    if not trace:
        # The other set-up repetitions come after the loop, so that set-up
        # samples too are spread over the run.
        del pipe
        for _ in range(SETUP_REPEATS - 1):
            set_up()
        values = {"distill_step_s": median_or_nan(plain["distill"]),
                  "model_s": median_or_nan(plain["eval"]),
                  "eval_acc": checker.eval_acc,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "setup_s": statistics.median(setup_times)}
        samples = {"distill_step_s": len(plain["distill"]), "model_s": len(plain["eval"]),
                   "eval_acc": len(checker.accuracy_by_slot), "peak_rss_mb": 1,
                   "setup_s": len(setup_times)}
        return values, samples, checker, {"unit_times": plain, "setup_times": setup_times}

    # Peak allocations come from one more primary unit of their own, because
    # tracemalloc slows every allocation.
    mem_tracer = tr.Tracer()
    with tr.instrument(mem_tracer, mem=True):
        run_unit(pipe, w.primary, checker, mem_tracer)

    by_step = tr.summarise(tracer.spans, "distill.step")
    by_model = tr.summarise(tracer.spans, "evaluation.model")
    primary = by_step if w.primary == "distill" else by_model
    values = {k: v for k, v in primary.items() if k.startswith(("tensor.", "encoder."))}
    values.update((k, v) for k, v in by_step.items() if k.startswith(("losses.", "distill.")))
    values.update((k, v) for k, v in by_model.items() if k.startswith("evaluation."))
    values.update(tr.peak_mb(mem_tracer.spans))
    for kind, name in (("distill", "distill_step"), ("eval", "model")):
        traced_s = median_or_nan(traced[kind])
        values[f"trace.{name}_s"] = traced_s
        values[f"trace.overhead.{name}"] = traced_s / median_or_nan(plain[kind])
    samples = {"distill": len(traced["distill"]), "eval": len(traced["eval"])}
    record = {"untraced_unit_times": plain, "traced_unit_times": traced,
              "spans": tracer.spans}
    return values, samples, checker, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import attndistill
    except ImportError as exc:
        attndistill = exc
    if not str(getattr(attndistill, "__file__", "")).startswith(str(ROOT / "src")):
        print(f"perfbench: attndistill not found under {ROOT / 'src'} ({attndistill})",
              file=sys.stderr)
        return 2
    from workloads import NOT_MEASURED, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seed = input_seed(args.seed)
    reference = load_reference(w.name, seed)
    if reference is None:
        print(f"perfbench: {REFERENCE.name} has no values for {w.name} with input seed "
              f"{seed}; record them with perfbench/make_reference.py", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    values, samples, checker, record = run_workload(
        w, seed, reference, args.seconds, args.trace, OUT_DIR)
    env = {**environment(threads, args), "input_seed": seed, "samples": samples}
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    errors = []
    # A per-layer metric is absent only where the primary unit never reaches
    # its layer; any other absent metric means the measurement broke.
    not_measured = NOT_MEASURED[w.primary] if args.trace else ()
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in values:
            value = float(values[name])
            if not math.isfinite(value):  # no unit of this kind completed
                errors.append(f"metric {name} has no completed sample")
                value = 0.0
            n = samples.get(name, "")
            print(f"metric {name} = {value:.6g} {unit}" + (f" (n={n})" if n else ""))
        else:
            value = 0.0
            if name.startswith(not_measured):
                print(f"metric {name} = n/a {unit} (its layer is not reached in {w.primary} units)")
            else:
                errors.append(f"metric {name} was not measured")
                print(f"metric {name} = missing {unit}")
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        print(f"traced units: {samples['distill']} distill steps, {samples['eval']} models")
    correct = checker.failed == 0 and not errors
    for err in checker.errors + errors:
        print(f"check failed: {err}")
    print(f"checks: {checker.attempted} units, {checker.failed} failed, "
          f"{checker.checked_against_reference} against reference")

    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "result": result, "errors": checker.errors + errors,
                               **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
