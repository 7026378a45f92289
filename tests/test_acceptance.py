"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
Criteria touching the public benchmark files (7, 8) skip unless the files are
present (set DSKG_BENCH_ROOT to a directory holding FB15K/, WN18/, FB15K-237/
with train.txt/valid.txt/test.txt each); criterion 8 additionally requires
DSKG_RUN_FB15K237_K64=1 since it trains for hours on CPU.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import equalized_pair, loss_and_grad_map, make_params
from test_evaluation import oracle_evaluate, oracle_filtered_rank, random_toy_dataset
from test_beam import oracle_pairs, oracle_triples

from dskg import data
from dskg.beam import BeamConfig, stage1_pairs, stage2_triples
from dskg.evaluation import (
    EnhanceConfig,
    enhance_scores,
    evaluate_cascade,
    evaluate_entity_prediction,
    filtered_rank,
)
from dskg.model import ARCH_SHARED, forward_batch, init_params, named_tensors
from dskg.sampling import log_uniform_probs, log_uniform_raw
from dskg.toygen import ToyConfig, generate_toy_kg
from dskg.training import TrainConfig, train


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


def bench_root():
    root = Path(os.environ.get("DSKG_BENCH_ROOT", Path(__file__).parent.parent / "data"))
    return root if root.is_dir() else None


def bench_files_exist(name) -> bool:
    root = bench_root()
    return root is not None and (root / name / "train.txt").exists()


def bench_dataset(name):
    if not bench_files_exist(name):
        return None
    folder = bench_root() / name
    return data.index_dataset(
        data.load_triples(folder / "train.txt"),
        data.load_triples(folder / "valid.txt"),
        data.load_triples(folder / "test.txt"),
    )


def test_criterion_1_gradient_oracle(fix_negatives):
    started = time.time()
    params = make_params(num_entities=6, num_relations=4, embed_dim=4, num_layers=1,
                         dtype=np.float64, seed=17)
    config = TrainConfig(embed_dim=4, num_layers=1, batch_size=4, keep_prob=1.0,
                         entity_negatives=2, relation_negatives=2, precision="high", epochs=0)
    batch = np.array([[0, 1, 2], [3, 0, 1], [5, 2, 4], [2, 3, 0]])
    cand_e = np.array([[2, 0, 4], [1, 3, 5], [4, 0, 2], [0, 5, 3]])
    cand_r = np.array([[1, 0, 3], [0, 2, 1], [2, 3, 0], [3, 1, 2]])
    fix_negatives(cand_e[:, 1:], cand_r[:, 1:])  # column 0 is each row's label

    def loss():
        value, _ = loss_and_grad_map(params, batch, config)
        return value

    _, grads = loss_and_grad_map(params, batch, config)
    step = 1e-5
    worst = 0.0
    for (_, tensor), (_, grad) in zip(named_tensors(params), named_tensors(grads)):
        flat, gflat = tensor.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss()
            flat[i] = original - step
            down = loss()
            flat[i] = original
            numeric = (up - down) / (2 * step)
            err = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, err)
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 60
    assert report(1, ok, f"max relative error {worst:.2e} over all parameters, {elapsed:.1f}s")


def test_criterion_2_worked_example_reproduction():
    refined = enhance_scores([0.25, 0.25, 0.25], [0.001, 0.8, 0.9], alpha=1.0 / 3.0)
    target = np.array([0.025, 0.233, 0.243])
    deviation = np.abs(refined - target)
    ok = bool(np.all(deviation <= 0.001))
    report(
        2, ok,
        f"refined={np.round(refined, 6).tolist()} vs target {target.tolist()}, "
        f"max deviation {deviation.max():.6f} (tolerance 0.001)",
    )
    # The target triple is reproducible only by rounding the intermediate
    # rev**alpha vector to two decimals before multiplying: exact arithmetic
    # gives (0.025, 0.232079, 0.241372). The exact-value check lives in
    # tests/test_evaluation.py; this check is kept at its stated tolerance.
    assert ok, (
        "exact evaluation of rev**alpha * p differs from the rounded-intermediate "
        f"reference by {deviation.max():.6f} > 0.001 on one component"
    )


def test_criterion_3_ranking_oracle():
    started = time.time()
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 60))
        scores = rng.normal(size=n)
        if rng.random() < 0.25:
            scores = np.round(scores, 1)
        gold = int(rng.integers(0, n))
        known = np.unique(np.concatenate([[gold], rng.integers(0, n, size=rng.integers(0, 6))]))
        assert filtered_rank(scores, gold, known) == oracle_filtered_rank(scores, gold, known)
        checked += 1

    ds = random_toy_dataset(rng, num_entities=50, num_relations=4, n_train=150, n_eval=12)
    params = make_params(num_entities=50, num_relations=ds.vocab.num_relations,
                         embed_dim=4, num_layers=2, dtype=np.float64, seed=3)
    plain = evaluate_entity_prediction(params, ds, EnhanceConfig(enabled=False))
    assert plain.as_dict() == pytest.approx(oracle_evaluate(params, ds, EnhanceConfig(enabled=False)))
    enhanced = evaluate_entity_prediction(params, ds, EnhanceConfig(alpha=1 / 3))
    assert enhanced.as_dict() == pytest.approx(oracle_evaluate(params, ds, EnhanceConfig(alpha=1 / 3)))
    cascade = evaluate_cascade(params, ds)
    assert cascade.as_dict() == pytest.approx(
        oracle_evaluate(params, ds, EnhanceConfig(enabled=False), cascade=True)
    )
    elapsed = time.time() - started
    assert report(
        3, elapsed < 60,
        f"{checked} randomized filtered ranks plus entity/cascade reports match the "
        f"exhaustive-sort oracle on a 50-entity model, {elapsed:.1f}s",
    )


def test_criterion_4_beam_oracle():
    started = time.time()
    train_triples = [
        data.RawTriple(f"e{i}", f"r{i % 6}", f"e{(i + 1) % 10}") for i in range(10)
    ] + [data.RawTriple(f"e{i}", f"r{(i + 2) % 6}", f"e{(i + 5) % 10}") for i in range(10)]
    ds = data.index_dataset(train_triples)
    assert ds.vocab.num_entities == 10 and ds.vocab.num_forward_relations == 6
    params = make_params(num_entities=10, num_relations=12, embed_dim=3,
                         num_layers=1, dtype=np.float64, seed=9)
    space_pairs = 10 * 12
    config = BeamConfig(stage1_window=space_pairs, stage2_window=space_pairs * 10)
    pairs = stage1_pairs(params, config, entity_chunk=3)
    output = stage2_triples(params, pairs, config, pair_chunk=7)

    expected_pairs = oracle_pairs(params)
    assert [tuple(p) for p in pairs.triples] == [(e, r) for e, r, _ in expected_pairs]
    expected = oracle_triples(params, expected_pairs)
    assert [tuple(t) for t in output.triples] == [(s, r, o) for s, r, o, _ in expected]
    # scores agree to float64 accumulation order (batched vs row-at-a-time GEMM)
    assert np.allclose(output.scores, [v for *_, v in expected], rtol=1e-12, atol=1e-15)
    elapsed = time.time() - started
    assert report(
        4, elapsed < 60,
        f"full-window beam equals exhaustive enumeration over {space_pairs * 10} triples "
        f"(order and scores), {elapsed:.1f}s",
    )


def test_criterion_5_sampler_distribution():
    started = time.time()
    results = []
    for lexicon_size in (10, 100, 1000):
        rng = np.random.default_rng(lexicon_size)
        draws = log_uniform_raw(lexicon_size, 1_000_000, rng)
        observed = np.bincount(draws, minlength=lexicon_size)
        expected = log_uniform_probs(lexicon_size) * len(draws)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        critical = float(stats.chi2.ppf(1 - 0.001, df=lexicon_size - 1))
        results.append((lexicon_size, chi2, critical))
        assert chi2 < critical, f"N={lexicon_size}: chi2 {chi2:.1f} >= {critical:.1f}"
    elapsed = time.time() - started
    detail = ", ".join(f"N={n}: chi2={c:.1f}<{crit:.1f}" for n, c, crit in results)
    assert report(5, elapsed < 60, f"{detail}, {elapsed:.1f}s")


def test_criterion_6_synthetic_end_to_end():
    started = time.time()
    kg = generate_toy_kg(ToyConfig())  # 200 entities, 8 relations, ~2000 triples, 10% held out
    ds = data.index_dataset(kg.train, kg.valid, kg.test)

    untrained = init_params(ds.vocab.num_entities, ds.vocab.num_relations, 64, 2, seed=0)
    base_plain = evaluate_entity_prediction(untrained, ds, EnhanceConfig(enabled=False))
    base_enh = evaluate_entity_prediction(untrained, ds, EnhanceConfig())
    assert base_plain.mrr / 100 <= 0.05 and base_enh.mrr / 100 <= 0.05

    config = TrainConfig(
        learning_rate=0.01, batch_size=256, embed_dim=64, num_layers=2, keep_prob=0.8,
        epochs=400, eval_interval=10, patience=10, seed=0, shared_negatives=True,
    )
    result = train(ds, config)
    plain = evaluate_entity_prediction(result.best_params, ds, EnhanceConfig(enabled=False))
    enhanced = evaluate_entity_prediction(result.best_params, ds, EnhanceConfig())
    elapsed = time.time() - started
    ok = plain.mrr / 100 >= 0.90 and enhanced.mrr / 100 >= 0.90
    assert report(
        6, ok,
        f"held-out MRR plain {plain.mrr / 100:.3f} / enhanced {enhanced.mrr / 100:.3f} "
        f"(>= 0.90), untrained {base_plain.mrr / 100:.3f} (<= 0.05), "
        f"{result.epoch} epochs in {elapsed:.0f}s",
    )


TABLE_COUNTS = {
    "FB15K": dict(entities=14951, relations=1345, train=483142, valid=50000, test=59071),
    "WN18": dict(entities=40943, relations=18, train=141442, valid=5000, test=5000),
    "FB15K-237": dict(entities=14541, relations=237, train=272115, valid=17535, test=20466),
}


@pytest.mark.skipif(bench_root() is None, reason="public benchmark files not present")
def test_criterion_7_dataset_fidelity():
    datasets = {name: bench_dataset(name) for name in TABLE_COUNTS}
    missing = [name for name, ds in datasets.items() if ds is None]
    if missing:
        pytest.skip(f"benchmark splits not found: {missing}")
    details = []
    for name, expected in TABLE_COUNTS.items():
        stats_now = data.dataset_stats(datasets[name])
        for key, value in expected.items():
            assert stats_now[key] == value, f"{name}: {key}={stats_now[key]} != {value}"
        assert stats_now["train_sequences"] == 2 * expected["train"]
        details.append(f"{name} counts exact")

    def weighted_exposure(ds):
        rows = data.audit_inverse_pairs(ds)
        exposed = {}
        for row in rows:
            if row.train_relation != row.test_relation:  # symmetric self-pairs aside
                exposed[row.test_relation] = max(
                    exposed.get(row.test_relation, 0), row.overlap
                )
        return sum(exposed.values()) / len(ds.test)

    fb_exposure = weighted_exposure(datasets["FB15K"])
    fb237_exposure = weighted_exposure(datasets["FB15K-237"])
    assert fb_exposure > 0.3, f"FB15K exposure {fb_exposure:.3f} not substantial"
    assert fb237_exposure < 0.05, f"FB15K-237 exposure {fb237_exposure:.3f} not near zero"
    assert report(
        7, True,
        f"{'; '.join(details)}; inverse exposure FB15K {fb_exposure:.2f} vs "
        f"FB15K-237 {fb237_exposure:.4f}",
    )


@pytest.mark.skipif(
    os.environ.get("DSKG_RUN_FB15K237_K64") != "1" or not bench_files_exist("FB15K-237"),
    reason="hours-long CPU run; set DSKG_RUN_FB15K237_K64=1 with benchmark files present",
)
def test_criterion_8_reduced_scale_benchmark():
    ds = bench_dataset("FB15K-237")
    config = TrainConfig(
        learning_rate=0.001, batch_size=2048, embed_dim=64, num_layers=2, keep_prob=0.5,
        epochs=200, eval_interval=1, patience=3, seed=0, shared_negatives=True,
    )
    result = train(ds, config)
    enhanced = evaluate_entity_prediction(result.best_params, ds, EnhanceConfig())
    ok = abs(enhanced.hits1 - 23.1) <= 3.0 and abs(enhanced.hits10 - 48.6) <= 3.0
    assert report(
        8, ok,
        f"FB15K-237 k=64: hits@1 {enhanced.hits1:.1f} (target 23.1±3.0), "
        f"hits@10 {enhanced.hits10:.1f} (target 48.6±3.0)",
    )


def test_criterion_9_variant_reduction_bitwise():
    params, shared = equalized_pair(
        make_params(num_entities=20, num_relations=8, embed_dim=8, num_layers=2,
                    dtype=np.float32, seed=31)
    )
    assert shared.arch == ARCH_SHARED

    rng = np.random.default_rng(0)
    subjects = rng.integers(0, 20, size=1000)
    relations = rng.integers(0, 8, size=1000)
    h_s_a, h_r_a, _ = forward_batch(params, subjects, relations)
    h_s_b, h_r_b, _ = forward_batch(shared, subjects, relations)
    ok = np.array_equal(h_s_a, h_s_b) and np.array_equal(h_r_a, h_r_b)
    assert report(
        9, ok,
        "type-switched forward with equalized cells is bitwise-identical to the "
        "shared-stack forward on 1000 random inputs",
    )
