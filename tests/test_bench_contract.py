"""The names and keyword calls the benchmark in ``perfbench/`` relies on.

The benchmark drives the package from outside: its tracer wraps functions by
the module names their callers look up, and its workloads call the public
entry points with keyword arguments. Renaming or re-signing any of them makes
a benchmark metric silently absent or a workload fail, so the contract is
checked here as well as in ``perfbench/tests``.
"""

import inspect
import json
import subprocess
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


def test_traced_eval_scores_behind_the_wrapped_names():
    """Each workload variant, run under the installed tracer on worker threads.

    The eval pass ranks certified rows from entity logits and log-space
    reverse evidence, which no wrapped name covers, so the tracer books that
    scoring as the variants' self time (``evaluation.rank_self_s``). What it
    still sees is pinned here: the cascade's relation scores, one
    ``evaluation.scores`` span per chunk, and no ``relation_prob_matrix``
    span, because no row of this model falls back to the exact probabilities.
    """
    names = [f"e{i}" for i in range(12)]
    train = [data.RawTriple(names[i], f"r{i % 3}", names[(i + 1) % 12]) for i in range(12)]
    test = [data.RawTriple(names[i], f"r{i % 3}", names[(i + 5) % 12]) for i in range(0, 12, 2)]
    dataset = data.index_dataset(train, test=test)
    params = model.init_params(dataset.vocab.num_entities, dataset.vocab.num_relations, 4, 1,
                               seed=0)
    chunks = 3  # 12 queries in chunks of 5
    tracer = tracing.install(tracing.Tracer())
    try:
        for name, fn_name, enhanced in workloads.VARIANTS:
            with tracer.span(f"evaluation.{name}"):
                getattr(evaluation, fn_name)(
                    params, dataset, evaluation.EnhanceConfig(enabled=enhanced),
                    chunk=5, workers=2,
                )
    finally:
        tracer.uninstall()

    scores = [span for span in tracer.spans if span[1] == "evaluation.scores"]
    for name, fn_name, _ in workloads.VARIANTS:
        (call,) = [span for span in tracer.spans if span[1] == f"evaluation.{name}"]
        matrix = [span[0] for span in tracer.spans
                  if span[1] == "evaluation.relation_prob_matrix" and span[4] == call[0]]
        assert matrix == [], name
        queried = [span for span in scores if span[4] == call[0]]
        assert len(queried) == (chunks if fn_name == "evaluate_cascade" else 0), name


def test_benchmark_oracles_pass_on_one_inference_round():
    """One round of ``infer_fb237``, run as the benchmark runs it.

    The workload's own checks compare the four variants' ranks, both beam
    stages and the precision curve of an FB15k-237-shaped model with their
    oracles; its last stdout line reports whether every operation held.
    """
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_fb237", "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_traced_beam_scores_every_chunk_behind_the_wrapped_name():
    """Both beam stages, run under the installed tracer on worker threads.

    ``beam.stage2_score_s`` and ``beam.topk_self_s`` split the stage-2 span
    by the ``beam.stage2_score`` spans, and ``beam.stage2_candidates`` counts
    the scores they return; a chunk scored around the wrapped name would book
    its scoring as top-k time and leave the count short.
    """
    params = model.init_params(10, 4, 4, 1, seed=0)
    config = beam.BeamConfig(stage1_window=9, stage2_window=12)
    tracer = tracing.install(tracing.Tracer())
    try:
        with tracer.span("beam.stage1"):
            pairs = beam.stage1_pairs(params, config, entity_chunk=3, workers=2)
        with tracer.span("beam.stage2"):
            output = beam.stage2_triples(params, pairs, config, pair_chunk=2, workers=2)
    finally:
        tracer.uninstall()

    assert len(pairs) == 9 and len(output) == 12
    (stage2,) = [span[0] for span in tracer.spans if span[1] == "beam.stage2"]
    scored = [span for span in tracer.spans if span[1] == "beam.stage2_score"]
    assert len(scored) == 5  # 9 pairs in chunks of 2
    assert all(span[4] == stage2 for span in scored)
    assert tracer.totals["beam.stage2_candidates"] == 9 * params.num_entities


def test_traced_train_step_holds_adam_and_backward_spans():
    """A tiny ``train()`` run under the installed tracer.

    Each gradient is applied as the backward hands it over, so every
    ``training.adam`` span (one per tensor per step) and every
    ``model.lstm_backward`` span sits under a ``training.loss_and_grads``
    span. ``training.loss_self_s`` subtracts both kinds; a step that ran Adam
    or the LSTM backward around the wrapped names would book them as loss
    time.
    """
    names = [f"e{i}" for i in range(8)]
    train = [data.RawTriple(names[i], f"r{i % 2}", names[(i + 1) % 8]) for i in range(8)]
    dataset = data.index_dataset(train)
    config = training.TrainConfig(embed_dim=4, num_layers=2, batch_size=16, epochs=2,
                                  eval_interval=3, keep_prob=0.5, seed=0)
    tracer = tracing.install(tracing.Tracer())
    try:
        state = training.train(dataset, config)
    finally:
        tracer.uninstall()

    steps = {span[0] for span in tracer.spans if span[1] == "training.loss_and_grads"}
    assert len(steps) == state.step == 2  # 16 sequences, one batch per epoch
    adam = [span for span in tracer.spans if span[1] == "training.adam"]
    assert len(adam) == state.step * len(state.params.tensors)
    backward = [span for span in tracer.spans if span[1] == "model.lstm_backward"]
    assert len(backward) == state.step * 2 * config.num_layers
    assert all(span[4] in steps for span in adam + backward)


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

