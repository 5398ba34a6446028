"""Self-tests of the benchmark: span arithmetic, tracing that changes
nothing, reference checks and failure counting, and a tiny-size smoke run
of every workload.

    python3 -m pytest perfbench -q
"""
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from attndistill import distill, evaluation, losses, tensor as T  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_DISTILL = workloads.DistillPart(classes=2, channels=1, size=8, width=4, depth=2,
                                     images_per_class=12, real_per_class=6, ipc=2,
                                     noise_std=1.0)
TINY_EVAL = workloads.EvalPart(classes=2, size=8, width=4, depth=2, images_per_class=8,
                               ipc=2, epochs=2, batch_size=2)


def tiny(w):
    return dataclasses.replace(w, distill=TINY_DISTILL, eval=TINY_EVAL)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {k: tiny(w) for k, w in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    # Reference values for input seed 7 only.
    run.REFERENCE.write_text(json.dumps(
        {k: {"7": make_reference.reference_for(w, 7)} for k, w in workloads.WORKLOADS.items()}))
    return workloads.WORKLOADS


# ---------------------------------------------------------------------------
# span arithmetic


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 9] is apart;
    # a grandchild [1.5, 2] must not count against the parent.
    tr = tracing.Tracer(clock=FakeClock([0, 1, 1.5, 2, 4, 3, 6, 8, 9, 10]))
    p = tr.begin("parent")
    a = tr.begin("a")
    g = tr.begin("grandchild")
    tr.end(g)
    tr.end(a)
    # the clock goes back for the overlapping sibling only in this fake
    b = tr.begin("b")
    tr.end(b)
    c = tr.begin("c")
    tr.end(c)
    tr.end(p)
    spans = tr.spans
    assert tracing.self_time(spans, p) == pytest.approx(10 - (5 + 1))
    assert tracing.self_time(spans, a) == pytest.approx(3 - 0.5)
    assert tracing.union_length([(1, 4), (3, 6), (8, 9), (8.5, 8.7)]) == pytest.approx(6)


def test_child_past_parent_is_rejected():
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3]))
    p = tr.begin("parent")
    c = tr.begin("child")
    tr.end(c)
    tr.end(p)
    tracing.check_nesting(tr.spans)
    tr.spans[c][2] = 5.0
    with pytest.raises(ValueError, match="extends past its parent"):
        tracing.check_nesting(tr.spans)


def test_spans_of_a_real_unit_nest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    tr = tracing.Tracer()
    w = tiny(workloads.WORKLOADS["distill-ipc50"])
    pipe = workloads.Pipeline(w, 3, tmp_path)
    checker = workloads.Checker(make_reference.reference_for(w, 3))
    with tracing.instrument(tr):
        run.run_unit(pipe, "distill", checker, tr)
    assert (checker.attempted, checker.failed) == (1, 0)
    tracing.check_nesting(tr.spans)
    kids = tracing.children_map(tr.spans)
    for i in range(len(tr.spans)):
        assert tracing.self_time(tr.spans, i, kids) >= -1e-9


# ---------------------------------------------------------------------------
# tracing changes nothing


def _outputs(w, seed, traced, tmp_path):
    pipe = workloads.Pipeline(w, seed, tmp_path)
    tr = tracing.Tracer()
    results = []
    with tracing.instrument(tr) if traced else contextlib.nullcontext():
        for _ in range(3):
            results.append(pipe.step()[1])
        for _ in range(2):
            results.append(pipe.model(tr if traced else None)[1])
    return results, pipe.state.syn.images.data.copy(), tr


def test_traced_and_untraced_runs_are_bit_identical(tmp_path):
    w = tiny(workloads.WORKLOADS["distill-cifar"])
    originals = {(m, a): getattr(m, a) for m in (T, distill, evaluation, losses)
                 for a in dir(m) if callable(getattr(m, a))}
    plain, pixels, _ = _outputs(w, 5, False, tmp_path)
    traced, traced_pixels, tr = _outputs(w, 5, True, tmp_path)
    assert traced == plain
    assert np.array_equal(traced_pixels, pixels)
    assert len(tr.spans) > 100
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn, f"{m.__name__}.{a} was not restored"


def test_instrument_restores_after_an_exception():
    originals = {(m, a): getattr(m, a) for m in (T, distill, evaluation, losses)
                 for a in dir(m) if callable(getattr(m, a))}
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            assert T.conv2d is not originals[(T, "conv2d")]
            raise RuntimeError("boom")
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn


# ---------------------------------------------------------------------------
# checks and failure counting


def test_checker_counts_wrong_and_non_finite_outputs():
    ref = {"steps": [[1.0, 0.5, 50.0]], "models": [0.5]}
    c = workloads.Checker(ref)
    c.step(0, [1.0, 0.5, 50.0], True)
    c.model(0, 0.5)
    assert (c.attempted, c.failed, c.checked_against_reference) == (2, 0, 2)
    c.step(0, [1.01, 0.5, 50.0], True)          # off the reference
    c.step(1, [float("nan"), 0.5, 50.0], True)  # non-finite loss
    c.step(2, [1.0, 0.5, 50.0], False)          # non-finite pixels
    c.step(1, [1.0, 0.5, 50.0], True)           # no reference for the step
    c.model(0, 0.75)                            # repeat of slot 0 differs
    c.model(1, 1.5)                             # not a fraction
    c.model(1, 0.5)                             # no reference for the slot
    assert (c.attempted, c.failed) == (9, 7)


def test_steps_cycle_so_every_step_has_a_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    w = tiny(workloads.WORKLOADS["distill-ipc50"])
    pipe = workloads.Pipeline(w, 4, tmp_path)
    first = [pipe.step() for _ in range(workloads.STEP_CYCLE)]
    again = [pipe.step() for _ in range(2)]
    assert [i for i, _ in first] == list(range(workloads.STEP_CYCLE))
    assert again == first[:2]
    assert make_reference.reference_for(w, 4)["steps"] == [v[:3] for _, v in first]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_unit_that_raises_is_one_failed_op(tmp_path):
    pipe = workloads.Pipeline(tiny(workloads.WORKLOADS["eval-toy"]), 1, tmp_path)
    pipe.eval_cfg = dataclasses.replace(pipe.eval_cfg, lr=1e30)   # diverges
    c = workloads.Checker({"steps": [], "models": []})
    assert [run.run_unit(pipe, "eval", c) for _ in range(2)] == [None, None]
    assert (c.attempted, c.failed) == (2, 2)
    assert "non-finite" in c.errors[0]


# ---------------------------------------------------------------------------
# smoke run of every workload at a tiny size


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(tiny_workloads, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [(m, v["unit"]) for m, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in declared]
    for m in declared:
        assert any(l.startswith(f"metric {m['name']} = ") and m["unit"] in l for l in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert all("(n=" in l for l in lines if l.startswith("metric "))
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"nproc", "cpu", "python", "numpy", "blas", "blas_threads", "seed",
            "input_seed", "samples"} <= set(env)


def test_other_seeds_fold_onto_recorded_ones(tiny_workloads, capsys):
    assert run.input_seed(7 + run.SEED_CYCLE) == 7
    assert run.input_seed(run.HELD_OUT_SEED) == run.HELD_OUT_SEED
    assert run.main(["--workload", "eval-toy", "--seed", str(7 + run.SEED_CYCLE),
                     "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0][4:])["input_seed"] == 7
    assert json.loads(lines[-1])["correct"]


def test_a_seed_without_reference_values_is_refused(tiny_workloads, capsys):
    assert run.main(["--workload", "eval-toy", "--seed", "8", "--seconds", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "make_reference.py" in out.err


def test_traced_metrics_are_all_declared_and_measured_where_reached(tiny_workloads,
                                                                     tmp_path):
    declared = {m["name"] for m in SPEC["per_layer"]}
    measured = set()
    for name, w in tiny_workloads.items():
        values, _, checker, _ = run.run_workload(
            w, 7, json.loads(run.REFERENCE.read_text())[name]["7"], 0.0, 1, tmp_path)
        assert checker.failed == 0
        assert set(values) <= declared, set(values) - declared
        absent = declared - set(values)
        assert all(m.startswith(workloads.NOT_MEASURED[w.primary]) for m in absent), absent
        measured |= set(values)
    assert measured == declared, declared - measured


def test_a_per_layer_metric_that_goes_missing_fails_the_run(tiny_workloads, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(tracing, "peak_mb", lambda spans: {})
    assert run.main(["--workload", "eval-toy", "--seed", "7", "--seconds", "0",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert not json.loads(lines[-1])["correct"]
    assert "check failed: metric mem.tensor.backward.peak_mb was not measured" in lines
