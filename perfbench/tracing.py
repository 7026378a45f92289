"""Spans and counters recorded around calls into the dskg package, from outside it.

The program is not edited. Instead :func:`install` replaces selected public
functions with timing wrappers, in the module where the caller looks the name
up (``dskg.training.forward_batch``, not ``dskg.model.forward_batch``, because
training imported the name). Spans are kept in memory as
(id, name, start, end, parent, op) tuples and written out when the run ends;
per-layer metrics are derived from them, including self times (a span's
duration minus the part of it that its child spans cover).

A wrapped name that no longer exists is skipped, and the metrics that need it
are reported as absent. The untraced run never installs anything.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder, safe to use from eval/beam worker threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[tuple, float] = defaultdict(float)  # (name, op) -> amount
        self.totals: dict[str, float] = defaultdict(float)  # name -> amount
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore: list[tuple] = []
        self._count_lock = threading.Lock()
        self.missing: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A span opened in a worker thread belongs to whatever the main
            # thread is waiting in (the pool map of an eval or beam call).
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def count(self, name: str, amount: float):
        with self._count_lock:
            self.counters[(name, self.op)] += amount
            self.totals[name] += amount

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        return True

    def wrap_span(self, owner, attr: str, span_name: str) -> bool:
        def make(original):
            def traced(*args, **kwargs):
                with self.span(span_name):
                    return original(*args, **kwargs)
            return traced
        return self._replace(owner, attr, make)

    def wrap_call(self, owner, attr: str, on_call) -> bool:
        """Wrap with ``on_call(original, args, kwargs)``, which makes the call."""
        def make(original):
            def traced(*args, **kwargs):
                return on_call(original, args, kwargs)
            return traced
        return self._replace(owner, attr, make)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics need."""
    from dskg import beam, data, evaluation, sampling, training

    tracer.wrap_span(data.IndexedDataset, "known_answers", "data.known_answers")

    # Sampler: spans where training calls it, counters where it draws.
    tracer.wrap_span(training, "negatives_for_batch", "sampling.negatives")

    def count_raw(original, args, kwargs):
        out = original(*args, **kwargs)
        tracer.count("sampling.raw_draws", len(out))
        return out

    def count_accepted(original, args, kwargs):
        before = tracer.totals["sampling.raw_draws"]
        out = original(*args, **kwargs)
        if tracer.totals["sampling.raw_draws"] > before:
            tracer.count("sampling.accepted", len(out))
        return out

    def negatives_counted(original, args, kwargs):
        with tracer.span("sampling.negatives"):
            return count_accepted(original, args, kwargs)

    tracer.wrap_call(sampling, "log_uniform_raw", count_raw)
    tracer.wrap_call(sampling, "log_uniform_sample", count_accepted)
    # training imported log_uniform_sample by name: span plus the same count.
    tracer.wrap_call(training, "log_uniform_sample", negatives_counted)

    tracer.wrap_span(training, "forward_batch", "model.forward")
    tracer.wrap_span(training, "lstm_backward", "model.lstm_backward")
    tracer.wrap_span(training, "batch_loss_and_grads", "training.loss_and_grads")
    tracer.wrap_span(training, "adam_step", "training.adam")

    tracer.wrap_span(evaluation, "relation_prob_matrix", "evaluation.relation_prob_matrix")
    tracer.wrap_span(evaluation, "entity_scores_batch", "evaluation.scores")
    tracer.wrap_span(evaluation, "relation_scores_batch", "evaluation.scores")

    def count_candidates(original, args, kwargs):
        with tracer.span("beam.stage2_score"):
            out = original(*args, **kwargs)
        tracer.count("beam.stage2_candidates", out.size)
        return out

    tracer.wrap_call(beam, "entity_scores_batch", count_candidates)
    return tracer


# -- deriving per-layer metrics ----------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per name: total duration, total self time, and call count."""
    children = defaultdict(list)
    for span_id, name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for span_id, name, start, end, parent, _ in spans:
        duration = end - start
        total[name] += duration
        self_time[name] += duration - _covered(start, end, children.get(span_id, ()))
        calls[name] += 1
    return total, self_time, calls


def scores_outside(spans, name: str, excluded_parent: str) -> float:
    """Total time of ``name`` spans whose parent is not an ``excluded_parent`` span."""
    names = {span[0]: span[1] for span in spans}
    return sum(
        end - start
        for _, span_name, start, end, parent, _ in spans
        if span_name == name and names.get(parent) != excluded_parent
    )


# Wrapped names each metric needs; a metric whose name is missing is absent.
_NEEDS = {
    "data.known_answers": ["IndexedDataset.known_answers"],
    "sampling.negatives_s": ["dskg.training.negatives_for_batch", "dskg.training.log_uniform_sample"],
    "sampling.accept_ratio": ["dskg.sampling.log_uniform_raw", "dskg.sampling.log_uniform_sample"],
    "model.forward_s": ["dskg.training.forward_batch"],
    "model.lstm_backward_s": ["dskg.training.lstm_backward"],
    "training.step": ["dskg.training.batch_loss_and_grads", "dskg.training.adam_step"],
    "training.loss_self_s": ["dskg.training.batch_loss_and_grads", "dskg.training.forward_batch",
                             "dskg.training.lstm_backward", "dskg.training.negatives_for_batch",
                             "dskg.training.log_uniform_sample"],
    "training.adam_s": ["dskg.training.adam_step"],
    "evaluation.relation_prob_matrix": ["dskg.evaluation.relation_prob_matrix"],
    "evaluation.scores_s": ["dskg.evaluation.entity_scores_batch",
                            "dskg.evaluation.relation_scores_batch"],
    "evaluation.rank_self_s": ["dskg.evaluation.entity_scores_batch",
                               "dskg.evaluation.relation_scores_batch",
                               "dskg.evaluation.relation_prob_matrix",
                               "IndexedDataset.known_answers"],
    "beam.stage2": ["dskg.beam.entity_scores_batch"],
}

EVAL_VARIANTS = ("entity_plain", "entity_enhanced", "cascade_plain", "cascade_enhanced")


def layer_metrics(tracer: Tracer, measured, untraced, index_s: float) -> dict:
    """Per-layer metrics of a traced phase, per op of the workload.

    Spans of warm-up ops (op id below ``measured.steady_from``) are left out,
    and totals are divided by the number of remaining ops. ``data.index_s``
    is the median ``index_dataset`` time over the set-ups, and
    ``trace.overhead_s`` is the traced minus the untraced median op time.
    """
    warmup = measured.steady_from if len(measured.op_seconds) > measured.steady_from else 0
    steady = [s for s in tracer.spans if s[5] is None or s[5] >= warmup]
    ops = len(measured.op_seconds) - warmup
    total, self_time, calls = span_totals(steady)
    counters = defaultdict(float)
    for (name, op), amount in tracer.counters.items():
        if op is None or op >= warmup:
            counters[name] += amount

    def per_op(value):
        return value / ops

    out = {
        "data.index_s": index_s,
        "data.known_answers_s": per_op(total["data.known_answers"]),
        "data.known_answers_calls": per_op(calls["data.known_answers"]),
        "sampling.negatives_s": per_op(total["sampling.negatives"]),
        "sampling.accept_ratio": (
            counters["sampling.accepted"] / counters["sampling.raw_draws"]
            if counters["sampling.raw_draws"] else 0.0
        ),
        "model.forward_s": per_op(total["model.forward"]),
        "model.lstm_backward_s": per_op(total["model.lstm_backward"]),
        "training.step_s": per_op(total["training.loss_and_grads"] + total["training.adam"]),
        "training.steps": per_op(calls["training.loss_and_grads"]),
        "training.loss_self_s": per_op(self_time["training.loss_and_grads"]),
        "training.adam_s": per_op(total["training.adam"]),
        "training.val_eval_s": per_op(total["training.val_eval"]),
        **{f"evaluation.{v}_s": per_op(total[f"evaluation.{v}"]) for v in EVAL_VARIANTS},
        "evaluation.relation_prob_matrix_s": per_op(total["evaluation.relation_prob_matrix"]),
        "evaluation.relation_prob_matrix_calls": per_op(calls["evaluation.relation_prob_matrix"]),
        "evaluation.scores_s": per_op(
            scores_outside(steady, "evaluation.scores", "evaluation.relation_prob_matrix")
        ),
        "evaluation.rank_self_s": per_op(sum(self_time[f"evaluation.{v}"] for v in EVAL_VARIANTS)),
        "beam.stage1_s": per_op(total["beam.stage1"]),
        "beam.stage2_s": per_op(total["beam.stage2"]),
        "beam.stage2_score_s": per_op(total["beam.stage2_score"]),
        "beam.topk_self_s": per_op(self_time["beam.stage2"]),
        "beam.curve_s": per_op(total["beam.curve"]),
        "beam.stage2_candidates": per_op(counters["beam.stage2_candidates"]),
        "trace.overhead_s": _steady_median(measured) - _steady_median(untraced),
        "trace.ops": float(ops),
    }
    for prefix, needed in _NEEDS.items():
        if tracer.missing.intersection(needed):
            for name in [n for n in out if n.startswith(prefix)]:
                del out[name]
    return out


def _steady_median(measured) -> float:
    return statistics.median(measured.op_seconds[measured.steady_from:] or measured.op_seconds)
