"""The names and keyword calls the benchmark in ``perfbench/`` relies on.

The benchmark drives the package from outside: its tracer wraps functions by
the module names their callers look up, and its workloads call the public
entry points with keyword arguments. Renaming or re-signing any of them makes
a benchmark metric silently absent or a workload fail, so the contract is
checked here as well as in ``perfbench/tests``.
"""

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402

from dskg import beam, data, evaluation, model, toygen, training  # noqa: E402


def test_tracer_finds_every_wrapped_name():
    tracer = tracing.install(tracing.Tracer())
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


# (function, positional arguments, keyword arguments) as the workloads and
# oracles call them; the values stand in for the real ones.
CALLS = [
    (data.index_dataset, ("train",), dict(vocab="vocab")),
    (data.index_dataset, ("train", "valid", "test"), {}),
    (model.init_params, ("entities", "relations", "dim", "layers"), dict(seed=0)),
    (model.forward_batch, ("params", "subjects", "relations"), {}),
    (model.logits, ("params", "h", "entity"), {}),
    (model.named_tensors, ("params",), {}),
    (training.TrainConfig, (), dict(workloads.FB_TRAIN, embed_dim=512, epochs=1,
                                     eval_interval=2, seed=0, shared_negatives=True)),
    (training.TrainConfig, (), dict(workloads.TOY_TRAIN, seed=0)),
    (training.train, ("dataset", "config"), dict(progress=print, val_metric_fn=None)),
    (evaluation.EnhanceConfig, (), dict(enabled=False)),
    (evaluation.evaluate_entity_prediction, ("params", "dataset", "enhance"),
     dict(split="valid")),
    *[(getattr(evaluation, fn_name), ("params", "dataset", "enhance"),
       dict(keep_ranks=True, workers=1)) for _, fn_name, _ in workloads.VARIANTS],
    (beam.BeamConfig, (), dict(workloads.BEAM)),
    (beam.stage1_pairs, ("params", "config"), dict(workers=1)),
    (beam.stage2_triples, ("params", "pairs", "config"), dict(workers=1)),
    (beam.precision_curve, ("output", "dataset"), dict(max_points=1000)),
    (toygen.generate_toy_kg, ("config",), {}),
    (toygen.ToyConfig, (), {}),
]


@pytest.mark.parametrize("function, args, kwargs", CALLS,
                         ids=[f"{call[0].__qualname__}-{i}" for i, call in enumerate(CALLS)])
def test_benchmark_calls_bind(function, args, kwargs):
    inspect.signature(function).bind(*args, **kwargs)

