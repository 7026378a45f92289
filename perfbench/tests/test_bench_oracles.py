import dataclasses

import numpy as np
import pytest

from dskg import beam, data, evaluation
from perfbench import oracles
from perfbench.kg import KGShape, generate_kg
from perfbench.workloads import fb_model

SHAPE = KGShape(entities=80, relations=6, train=900, valid=60, test=40)


@pytest.fixture(scope="module")
def setting():
    kg = generate_kg(5, SHAPE)
    raw = {split: kg.raw(split) for split in ("train", "valid", "test")}
    dataset = data.index_dataset(raw["train"], raw["valid"], raw["test"])
    params = fb_model(dataset.vocab, seed=5, embed_dim=8)
    rel_matrix = oracles.relation_probs(params, np.arange(params.num_entities))
    return raw, dataset, params, rel_matrix


def _bands(setting, cascade=False, alpha=None):
    raw, dataset, params, rel_matrix = setting
    queries = oracles.both_directions(raw["test"], dataset.vocab)
    index = np.arange(len(queries.golds))
    bands = oracles.oracle_ranks(params, dataset.vocab, list(raw.values()), queries, index,
                                 alpha=alpha, rel_matrix=rel_matrix, cascade=cascade)
    return bands, index


def _exact(bands):
    """First query whose band is a single rank."""
    return next(i for i, (lo, hi) in enumerate(bands[0]) if lo == hi)


@pytest.mark.parametrize("enhanced", [False, True])
def test_rank_oracle_accepts_program_and_rejects_perturbed_rank(setting, enhanced):
    _, dataset, params, _ = setting
    alpha = evaluation.EnhanceConfig().alpha if enhanced else None
    bands, index = _bands(setting, alpha=alpha)
    report = evaluation.evaluate_entity_prediction(
        params, dataset, evaluation.EnhanceConfig(enabled=enhanced), keep_ranks=True)
    checks = oracles.Checks()
    oracles.check_ranks(checks, "entity", report, bands, index)
    assert checks.failed == 0 and checks.attempted == len(index)

    report.ranks = report.ranks.copy()
    report.ranks[_exact(bands)] += 1
    checks = oracles.Checks()
    oracles.check_ranks(checks, "entity", report, bands, index)
    assert checks.failed == 1


def test_cascade_oracle_rejects_perturbed_relation_rank(setting):
    _, dataset, params, _ = setting
    bands, index = _bands(setting, cascade=True)
    report = evaluation.evaluate_cascade(params, dataset, keep_ranks=True)
    checks = oracles.Checks()
    oracles.check_ranks(checks, "cascade", report, bands, index, cascade=True)
    assert checks.failed == 0

    i = _exact(bands)
    report.ranks = report.ranks.copy()
    report.relation_ranks = report.relation_ranks.copy()
    report.relation_ranks[i] += 1
    report.ranks[i] = report.ranks[i] // (report.relation_ranks[i] - 1) * report.relation_ranks[i]
    checks = oracles.Checks()
    oracles.check_ranks(checks, "cascade", report, bands, index, cascade=True)
    assert checks.failed == 1


@pytest.fixture(scope="module")
def beam_output(setting):
    _, dataset, params, _ = setting
    config = beam.BeamConfig(stage1_window=30, stage2_window=400)
    pairs = beam.stage1_pairs(params, config)
    output = beam.stage2_triples(params, pairs, config)
    return config, pairs, output


def _beam_failures(setting, config, pairs, output):
    _, _, params, rel_matrix = setting
    checks = oracles.Checks()
    oracles.check_stage1(checks, pairs, rel_matrix, config.stage1_window)
    oracles.check_stage2(checks, params, pairs, output, rel_matrix, config.stage2_window)
    return checks.failed


def test_beam_oracle_accepts_program(setting, beam_output):
    assert _beam_failures(setting, *beam_output) == 0


def test_beam_oracle_rejects_swapped_rows(setting, beam_output):
    config, pairs, output = beam_output
    triples, scores = output.triples.copy(), output.scores.copy()
    triples[[3, 4]] = triples[[4, 3]]
    scores[[3, 4]] = scores[[4, 3]]
    bad = dataclasses.replace(output, triples=triples, scores=scores)
    assert _beam_failures(setting, config, pairs, bad) > 0


def test_beam_oracle_rejects_wrong_object(setting, beam_output):
    config, pairs, output = beam_output
    triples = output.triples.copy()
    triples[0, 2] = (triples[0, 2] + 1) % SHAPE.entities
    bad = dataclasses.replace(output, triples=triples)
    assert _beam_failures(setting, config, pairs, bad) > 0


def test_beam_oracle_rejects_missing_best_triple(setting, beam_output):
    config, pairs, output = beam_output
    bad = dataclasses.replace(output, triples=output.triples[1:], scores=output.scores[1:])
    assert _beam_failures(setting, config, pairs, bad) > 0


def test_stage1_oracle_rejects_perturbed_pair(setting, beam_output):
    config, pairs, _ = beam_output
    _, _, _, rel_matrix = setting
    triples = pairs.triples.copy()
    triples[0, 1] = (triples[0, 1] + 1) % rel_matrix.shape[1]
    checks = oracles.Checks()
    oracles.check_stage1(checks, dataclasses.replace(pairs, triples=triples), rel_matrix,
                         config.stage1_window)
    assert checks.failed > 0


def test_curve_oracle_rejects_perturbed_point(setting, beam_output):
    raw, dataset, _, _ = setting
    _, _, output = beam_output
    curve = beam.precision_curve(output, dataset, max_points=50)
    checks = oracles.Checks()
    oracles.check_curve(checks, output, curve, list(raw.values()), dataset.vocab)
    assert checks.failed == 0
    point = curve[10]
    curve[10] = dataclasses.replace(point, n_corr=point.n_corr + 1, n_error=point.n_error - 1)
    checks = oracles.Checks()
    oracles.check_curve(checks, output, curve, list(raw.values()), dataset.vocab)
    assert checks.failed == 1


def test_order_violations():
    ids = np.array([[0, 1, 2], [0, 1, 3], [5, 0, 0]])
    assert oracles.order_violations(ids, np.array([0.5, 0.5, 0.2])) == 0
    assert oracles.order_violations(ids[::-1], np.array([0.5, 0.5, 0.2])) == 1
    assert oracles.order_violations(ids, np.array([0.5, 0.6, 0.2])) == 1


@pytest.mark.parametrize("losses, failed", [
    ([5.0, 4.0, 3.0, 2.0], 0),
    ([2.0, 3.0, 4.0, 5.0], 1),
    ([5.0, float("nan"), 3.0, 2.0], 2),  # not finite, and no mean to compare
    ([5.0], 1),
])
def test_loss_check(losses, failed):
    checks = oracles.Checks()
    oracles.check_losses(checks, "train", losses)
    assert checks.failed == failed
