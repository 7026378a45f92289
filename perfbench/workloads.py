"""The benchmark's workloads.

Each workload sets up its inputs from the seed (timed as ``setup_s``, the
median of ``SETUP_REPS`` full set-ups), measures for a time budget, and
returns its measurements plus the outputs the oracles need. The program is
driven only through its public entry points: ``data.index_dataset``,
``training.train``, ``evaluation.evaluate_entity_prediction`` /
``evaluate_cascade`` and ``beam.stage1_pairs`` / ``stage2_triples`` /
``precision_curve``.

Every workload repeats one operation ("op") and times each repetition:

* ``train_fb237_k64`` and ``train_fb237_k512_shared``: one optimizer step at
  B=2048 on FB15k-237-shaped data (the training set is a 2,048-sequence slice,
  so each epoch of ``train()`` is exactly one step);
* ``infer_fb237``: one round of the four ``dskg eval`` variants over a fixed
  query set, then stage 1, stage 2 and the precision curve;
* ``toy_e2e``: one training run on the toy KG until filtered valid MRR >= 0.90.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from dskg import beam, data, evaluation, training
from dskg.model import init_params, named_tensors
from dskg.toygen import ToyConfig, generate_toy_kg

from . import oracles
from .kg import generate_kg

SETUP_REPS = 3

# FB15k-237 training: the paper's defaults, except k and the negative mode.
FB_TRAIN = dict(learning_rate=0.001, batch_size=2048, num_layers=2, keep_prob=0.5)
MAX_EPOCHS = 100_000

# infer_fb237: model size, query set, beam windows.
INFER_DIM = 64
INFER_TEST_TRIPLES = 500  # 1,000 queries per variant (both directions)
BEAM = dict(stage1_window=1000, stage2_window=50_000, curve_points=1000)
ORACLE_QUERIES = 100  # per variant, spread over the query set

# toy_e2e: the README toy configuration.
TOY_TRAIN = dict(
    learning_rate=0.01, batch_size=256, embed_dim=64, num_layers=2, keep_prob=0.8,
    epochs=400, eval_interval=10, patience=10, shared_negatives=True,
)
TOY_TARGET_MRR = 90.0
TOY_EXTRA_EPOCHS = 100  # trained past the target; the best-valid model is then checked
TOY_MAX_SECONDS = 120.0

VARIANTS = (
    ("entity_plain", "evaluate_entity_prediction", False),
    ("entity_enhanced", "evaluate_entity_prediction", True),
    ("cascade_plain", "evaluate_cascade", False),
    ("cascade_enhanced", "evaluate_cascade", True),
)


@dataclass
class Measured:
    """One measured phase of a workload."""

    op_seconds: list[float]  # one entry per op, warm-up op included
    work: dict = field(default_factory=dict)  # end-to-end values of the phase
    outputs: dict = field(default_factory=dict)  # what the oracles check
    steady_from: int = 1  # ops before this one are warm-up


class _Stop(Exception):
    """Raised from a ``train()`` callback to end a measured phase."""


def _median_setup(build):
    """Run ``build(index)`` SETUP_REPS times; keep the last state.

    ``index`` is ``data.index_dataset`` with its duration recorded, so
    ``state["index_s"]`` is the median indexing time over all set-ups.
    """
    seconds, index_runs, state = [], [], None

    def index(*args, **kwargs):
        start = time.perf_counter()
        dataset = data.index_dataset(*args, **kwargs)
        index_runs.append(time.perf_counter() - start)
        return dataset

    for _ in range(SETUP_REPS):
        state = None  # release the previous copy before building the next
        gc.collect()  # and start each set-up from the same collector state
        start = time.perf_counter()
        state = build(index)
        seconds.append(time.perf_counter() - start)
    state["setup_s"] = statistics.median(seconds)
    state["index_s"] = statistics.median(index_runs)
    return state


def _steady(op_seconds):
    """Leave out the first (warm-up) op when there is more than one."""
    return op_seconds[1:] if len(op_seconds) > 1 else op_seconds


def _fb_raw(seed):
    kg = generate_kg(seed)
    return {split: kg.raw(split) for split in ("train", "valid", "test")}


# -- FB15k-237 training --------------------------------------------------------


class TrainFB:
    # end-to-end metric -> the name this workload reports it under
    e2e = {"work_per_s": "train_examples_per_s", "task_s": "step_s"}

    def __init__(self, embed_dim: int, shared: bool):
        self.embed_dim = embed_dim
        self.shared = shared

    def setup(self, seed: int) -> dict:
        def build(index):
            state = {}
            raw = _fb_raw(seed)
            full = index(raw["train"], raw["valid"], raw["test"])
            half = FB_TRAIN["batch_size"] // 2  # both orientations -> one batch
            state["dataset"] = data.index_dataset(raw["train"][:half], vocab=full.vocab)
            vocab = full.vocab
            init_params(vocab.num_entities, vocab.num_relations, self.embed_dim,
                        FB_TRAIN["num_layers"], seed=seed)  # train() starts with this
            return state

        state = _median_setup(build)
        state["config"] = training.TrainConfig(
            **FB_TRAIN, embed_dim=self.embed_dim, epochs=MAX_EPOCHS,
            eval_interval=MAX_EPOCHS + 1, seed=seed, shared_negatives=self.shared,
        )
        return state

    def measure(self, state, budget: float, tracer=None) -> Measured:
        stamps, losses = _train_until(state["dataset"], state["config"], budget, tracer)
        steps = np.diff(stamps)
        step_s = float(np.median(_steady(steps)))
        batch = state["config"].batch_size
        return Measured(
            op_seconds=list(steps),
            work={"train_examples_per_s": batch / step_s, "step_s": step_s},
            outputs={"losses": losses},
        )

    def check(self, state, measured: Measured, checks: oracles.Checks):
        oracles.check_losses(checks, "train", measured.outputs["losses"])
        checks.record("train.steps", len(measured.op_seconds), 0)


def _train_until(dataset, config, budget, tracer=None, val_metric_fn=None):
    """Run ``train()`` until an epoch ends past ``budget`` seconds.

    Returns the start time plus one timestamp per finished epoch, and the
    epoch losses from the progress lines.
    """
    stamps, losses = [], []

    def progress(line):
        stamps.append(time.perf_counter())
        losses.append(float(line.split("\t")[1]))
        if tracer is not None:
            tracer.op = len(stamps) - 1
        if stamps[-1] - stamps[0] >= budget:
            raise _Stop

    if tracer is not None:
        tracer.op = 0
    stamps.append(time.perf_counter())
    try:
        training.train(dataset, config, progress=progress, val_metric_fn=val_metric_fn)
    except _Stop:
        pass
    return stamps, losses


# -- toy end to end --------------------------------------------------------------


class ToyE2E:
    e2e = {"work_per_s": "train_examples_per_s", "task_s": "toy_time_to_mrr90_s"}

    def setup(self, seed: int) -> dict:
        def build(index):
            state = {}
            kg = generate_toy_kg(ToyConfig())
            state["raw"] = {"train": kg.train, "valid": kg.valid, "test": kg.test}
            state["dataset"] = index(kg.train, kg.valid, kg.test)
            vocab = state["dataset"].vocab
            init_params(vocab.num_entities, vocab.num_relations, TOY_TRAIN["embed_dim"],
                        TOY_TRAIN["num_layers"], seed=seed)
            return state

        state = _median_setup(build)
        state["config"] = training.TrainConfig(**TOY_TRAIN, seed=seed)
        return state

    def measure(self, state, budget: float, tracer=None) -> Measured:
        # The toy run is one op whatever the budget: train to the target.
        dataset, config = state["dataset"], state["config"]
        run = {"best": -np.inf, "reached": None, "epoch": 0, "eval_epochs": []}

        def val_metric(params):
            with _span(tracer, "training.val_eval"):
                report = evaluation.evaluate_entity_prediction(
                    params, dataset, evaluation.EnhanceConfig(enabled=False), split="valid"
                )
            now = time.perf_counter()
            run["epoch"] += config.eval_interval
            run["eval_epochs"].append(run["epoch"])
            if report.mrr > run["best"]:
                run["best"], run["params"] = report.mrr, params.copy()
            if run["reached"] is None and report.mrr >= TOY_TARGET_MRR:
                run["reached"] = (run["epoch"], now - start)
            done = run["reached"] is not None and run["epoch"] >= run["reached"][0] + TOY_EXTRA_EPOCHS
            if done or now - start > TOY_MAX_SECONDS:
                raise _Stop
            return report.mrr, report.hits10

        start = time.perf_counter()
        stamps, losses = _train_until(dataset, config, float("inf"), tracer, val_metric)
        epochs = np.diff(stamps)
        evals = [e - 1 for e in run["eval_epochs"] if e <= len(epochs)]
        epoch_s = float(np.median(_steady(np.delete(epochs, evals))))  # without validation
        reached = run["reached"]
        to_target = reached[1] if reached else float("nan")
        return Measured(
            op_seconds=[to_target],
            work={"train_examples_per_s": len(dataset.train) / epoch_s,
                  "toy_time_to_mrr90_s": to_target},
            outputs={"losses": losses, "params": run.get("params"), "reached": reached},
            steady_from=0,
        )

    def check(self, state, measured: Measured, checks: oracles.Checks):
        out = measured.outputs
        oracles.check_losses(checks, "train", out["losses"])
        checks.record("toy.reached_target", 1, out["reached"] is None)
        params = out["params"]
        if params is None:
            checks.record("toy.test_mrr", 2, 2, "(no validated model)")
            return
        dataset = state["dataset"]
        raw = state["raw"]
        queries = oracles.both_directions(raw["test"], dataset.vocab)
        index = np.arange(len(queries.golds))
        splits = list(raw.values())
        rel_matrix = oracles.relation_probs(params, np.arange(params.num_entities))
        for alpha in (None, evaluation.EnhanceConfig().alpha):
            bands = oracles.oracle_ranks(params, dataset.vocab, splits, queries, index,
                                         alpha=alpha, rel_matrix=rel_matrix)
            name = "plain" if alpha is None else "enhanced"
            mrr = oracles.mrr_from_bands(bands[0])
            checks.record(f"toy.test_mrr_{name}", 1, not mrr >= TOY_TARGET_MRR, f"({mrr:.2f})")
            report = evaluation.evaluate_entity_prediction(
                params, dataset, evaluation.EnhanceConfig(enabled=alpha is not None),
                keep_ranks=True,
            )
            oracles.check_ranks(checks, f"toy_{name}", report, bands, index)


# -- FB15k-237 inference ------------------------------------------------------------


def fb_model(vocab, seed: int, embed_dim: int = INFER_DIM):
    """A deterministic stand-in for a trained model, independent of training code.

    Glorot init, then seeded Gaussian jitter on every tensor so scores spread
    out, and output biases set to log training frequency so popular labels
    score higher, as they do in a trained model.
    """
    params = init_params(vocab.num_entities, vocab.num_relations, embed_dim, 2, seed=seed)
    rng = np.random.default_rng([seed, 17])
    for _, tensor in named_tensors(params):
        tensor += rng.normal(0.0, 0.3, tensor.shape).astype(tensor.dtype)
    params.entity_out_b[:] = np.log(vocab.entity_freqs)
    params.relation_out_b[:] = np.log(vocab.relation_freqs)
    return params


class InferFB:
    e2e = {"work_per_s": "eval_queries_per_s", "task_s": "beam_round_s"}

    def __init__(self, workers: int = 1):
        self.workers = workers

    def setup(self, seed: int) -> dict:
        def build(index):
            state = {}
            raw = _fb_raw(seed)
            # The fixed query set is the first test triples; the rest of test
            # stays in the dataset (as valid) so the filter sets are complete.
            queried = raw["test"][:INFER_TEST_TRIPLES]
            rest = raw["valid"] + raw["test"][INFER_TEST_TRIPLES:]
            state["raw"] = {"train": raw["train"], "valid": rest, "test": queried}
            state["dataset"] = index(raw["train"], rest, queried)
            state["params"] = fb_model(state["dataset"].vocab, seed)
            return state

        state = _median_setup(build)
        state["beam"] = beam.BeamConfig(**BEAM)
        return state

    def measure(self, state, budget: float, tracer=None) -> Measured:
        params, dataset = state["params"], state["dataset"]
        queries = 2 * len(dataset.test)
        config = state["beam"]
        rounds, eval_rates, beam_seconds = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < budget:
            if tracer is not None:
                tracer.op = len(rounds)
            round_start = time.perf_counter()
            reports = {}
            for name, fn_name, enhanced in VARIANTS:
                fn = getattr(evaluation, fn_name)
                enhance = evaluation.EnhanceConfig(enabled=enhanced)
                with _span(tracer, f"evaluation.{name}"):
                    reports[name] = fn(params, dataset, enhance, keep_ranks=True,
                                       workers=self.workers)
            beam_start = time.perf_counter()
            with _span(tracer, "beam.stage1"):
                pairs = beam.stage1_pairs(params, config, workers=self.workers)
            with _span(tracer, "beam.stage2"):
                output = beam.stage2_triples(params, pairs, config, workers=self.workers)
            with _span(tracer, "beam.curve"):
                curve = beam.precision_curve(output, dataset, max_points=config.curve_points)
            end = time.perf_counter()
            eval_rates.append(len(VARIANTS) * queries / (beam_start - round_start))
            beam_seconds.append(end - beam_start)
            rounds.append({"reports": reports, "pairs": pairs, "output": output,
                           "curve": curve, "seconds": end - round_start})
        beam_s = float(np.median(_steady(beam_seconds)))
        return Measured(
            op_seconds=[r["seconds"] for r in rounds],
            work={
                "eval_queries_per_s": float(np.median(_steady(eval_rates))),
                "beam_round_s": beam_s,
                "beam_pairs_per_s": config.stage1_window / beam_s,
            },
            outputs={"rounds": rounds},
        )

    def check(self, state, measured: Measured, checks: oracles.Checks):
        params, dataset, raw = state["params"], state["dataset"], state["raw"]
        rounds = measured.outputs["rounds"]
        first = rounds[0]
        for later in rounds:  # every query and pair of a round that repeats the first exactly
            for name, report in later["reports"].items():
                same = np.array_equal(report.ranks, first["reports"][name].ranks)
                checks.record(f"eval.{name}", report.count, 0 if same else report.count)
            same = (np.array_equal(later["output"].triples, first["output"].triples)
                    and np.array_equal(later["output"].scores, first["output"].scores))
            checks.record("beam.pairs", len(later["pairs"]), 0 if same else len(later["pairs"]))

        queries = oracles.both_directions(raw["test"], dataset.vocab)
        index = np.linspace(0, len(queries.golds) - 1, ORACLE_QUERIES).astype(np.int64)
        splits = list(raw.values())
        rel_matrix = oracles.relation_probs(params, np.arange(params.num_entities))
        alpha = evaluation.EnhanceConfig().alpha
        for name, fn_name, enhanced in VARIANTS:
            cascade = fn_name == "evaluate_cascade"
            bands = oracles.oracle_ranks(
                params, dataset.vocab, splits, queries, index,
                alpha=alpha if enhanced else None, rel_matrix=rel_matrix, cascade=cascade,
            )
            oracles.check_ranks(checks, name, first["reports"][name], bands, index, cascade)

        config = state["beam"]
        oracles.check_stage1(checks, first["pairs"], rel_matrix, config.stage1_window)
        oracles.check_stage2(checks, params, first["pairs"], first["output"], rel_matrix,
                             config.stage2_window)
        oracles.check_curve(checks, first["output"], first["curve"], splits, dataset.vocab)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    "train_fb237_k64": lambda workers: TrainFB(64, shared=False),
    "train_fb237_k512_shared": lambda workers: TrainFB(512, shared=True),
    "infer_fb237": lambda workers: InferFB(workers),
    "toy_e2e": lambda workers: ToyE2E(),
}
