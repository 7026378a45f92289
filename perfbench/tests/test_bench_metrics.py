import json
import re
import types

import pytest

from perfbench import run, tracing
from perfbench.workloads import WORKLOADS, Measured

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_spec():
    declared = {w["name"] for w in SPEC["workloads"]}
    assert set(WORKLOADS) == set(run.PARALLEL_SIDE)
    assert declared == set(WORKLOADS) - {"train_fb237_k64", "toy_e2e"}  # these run by hand only


def test_every_end_to_end_metric_is_reported_on_every_workload():
    declared = {m["name"] for m in SPEC["end_to_end"]}
    for make in WORKLOADS.values():
        assert {"setup_s", "peak_rss_mb"} | set(make(1).e2e) == declared


def _measured(ops=3):
    return Measured(op_seconds=[1.0] * ops)


def test_every_per_layer_metric_is_declared_and_reported():
    declared = {m["name"] for m in SPEC["per_layer"]}
    metrics = tracing.layer_metrics(tracing.Tracer(), _measured(), _measured(), 0.5)
    assert set(metrics) == declared


def test_self_time_subtracts_covered_child_time():
    spans = [
        (0, "parent", 0.0, 10.0, None, 1),
        (1, "child", 1.0, 4.0, 0, 1),
        (2, "child", 3.0, 5.0, 0, 1),  # overlaps the first child (another thread)
        (3, "child", 9.0, 12.0, 0, 1),  # runs past the parent's end
    ]
    total, self_time, calls = tracing.span_totals(spans)
    assert total["parent"] == 10.0 and calls["child"] == 3
    assert self_time["parent"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_warmup_op_is_left_out_and_totals_are_per_op():
    tracer = tracing.Tracer()
    for op in range(3):
        tracer.op = op
        tracer.spans.append((op, "training.adam", 0.0, 1.0 + op, None, op))
        tracer.count("beam.stage2_candidates", 10 * (op + 1))
    metrics = tracing.layer_metrics(tracer, _measured(3), _measured(3), 0.5)
    assert metrics["training.adam_s"] == pytest.approx((2.0 + 3.0) / 2)
    assert metrics["beam.stage2_candidates"] == pytest.approx((20 + 30) / 2)
    assert metrics["trace.ops"] == 2


def test_missing_wrapped_name_makes_metric_absent():
    tracer = tracing.Tracer()
    owner = types.SimpleNamespace(__name__="dskg.training")
    assert not tracer.wrap_span(owner, "adam_step", "training.adam")
    metrics = tracing.layer_metrics(tracer, _measured(), _measured(), 0.5)
    assert "training.adam_s" not in metrics and "training.step_s" not in metrics
    assert "model.forward_s" in metrics


def test_wrappers_are_removed_again():
    from dskg import training

    original = training.adam_step
    tracer = tracing.install(tracing.Tracer())
    assert training.adam_step is not original and not tracer.missing
    tracer.uninstall()
    assert training.adam_step is original


@pytest.mark.parametrize("workload", sorted(run.PARALLEL_SIDE))
def test_thread_plan_fits_nproc(workload):
    plan = run.thread_plan(workload)
    assert plan["blas_threads"] * plan["workers"] <= plan["nproc"]
