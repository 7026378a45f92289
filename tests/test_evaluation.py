import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import make_params
from dskg import cli, evaluation, model
from dskg.data import RawTriple, augment_reverse, index_dataset, save_dataset
from dskg.evaluation import (
    EnhanceConfig,
    enhance_scores,
    entity_scores_batch,
    evaluate_cascade,
    evaluate_entity_prediction,
    filtered_rank,
    filtered_ranks,
    metrics_from_ranks,
    relation_prob_matrix,
    relation_scores_batch,
    unfiltered_rank,
    unfiltered_ranks,
)
from dskg.model import forward_batch, init_params, logits, save_checkpoint


def oracle_filtered_rank(scores, gold, known, pessimistic=False):
    """Exhaustive sort over the surviving candidates, then scan for the gold."""
    known = set(int(k) for k in known)
    kept = [e for e in range(len(scores)) if e == gold or e not in known]
    # sort descending; break ties so the gold lands at its optimistic or
    # pessimistic end of the tied run
    def key(e):
        tie = (e != gold) if pessimistic else (e == gold)
        return (-scores[e], 0 if tie else 1)

    ordered = sorted(kept, key=key)
    return ordered.index(gold) + 1


def oracle_softmax(row):
    shifted = np.asarray(row, dtype=np.float64)
    shifted = shifted - shifted.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def random_toy_dataset(rng, num_entities=20, num_relations=3, n_train=60, n_eval=8):
    seen = set()
    triples = []

    def add(s, r, o):
        key = (int(s), int(r), int(o))
        if key not in seen:
            seen.add(key)
            triples.append(RawTriple(f"e{s}", f"r{r}", f"e{o}"))

    # a covering cycle keeps every entity and relation indexable from train
    for i in range(num_entities):
        add(i, i % num_relations, (i + 1) % num_entities)
    while len(triples) < n_train + 2 * n_eval:
        s, o = rng.integers(0, num_entities, size=2)
        add(s, rng.integers(0, num_relations), o)
    return index_dataset(
        triples[:n_train],
        triples[n_train : n_train + n_eval],
        triples[n_train + n_eval :],
    )


def oracle_evaluate(params, dataset, enhance, split="test", cascade=False):
    """Per-query loop with exhaustive scoring, sorting-based ranks, and
    hand-rolled aggregation."""
    triples = dataset.split(split)
    rev = dataset.vocab.reverse_of
    queries = [(int(s), int(r), int(o)) for s, r, o in triples]
    queries += [(int(o), int(rev[r]), int(s)) for s, r, o in triples]
    ranks = []
    for subject, relation, gold in queries:
        (h_s,), (h_r,), _ = forward_batch(params, [subject], [relation])
        probs = oracle_softmax(logits(params, h_r, "entity"))
        if enhance.enabled:
            reverse_probs = np.empty(params.num_entities)
            for e in range(params.num_entities):
                (h_e,), _, _ = forward_batch(params, [e], [0])
                reverse_probs[e] = oracle_softmax(logits(params, h_e, "relation"))[rev[relation]]
            probs = reverse_probs ** enhance.alpha * probs
        known = dataset.known_answers(subject, relation)
        rank = oracle_filtered_rank(probs, gold, known)
        if cascade:
            rel_probs = oracle_softmax(logits(params, h_s, "relation"))
            rel_rank = 1 + int(np.sum(rel_probs > rel_probs[relation]))
            rank *= rel_rank
        ranks.append(rank)
    ranks = np.array(ranks)
    return {
        "hits@1": 100.0 * np.mean(ranks <= 1),
        "hits@10": 100.0 * np.mean(ranks <= 10),
        "mrr": 100.0 * np.mean(1.0 / ranks),
        "mr": float(np.mean(ranks)),
        "queries": len(ranks),
    }


class TestScoreVectors:
    def test_entity_scores_sum_to_one(self):
        params = make_params(num_entities=9, num_relations=4)
        assert entity_scores_batch(params, [1], [2])[0].sum() == pytest.approx(1.0, abs=1e-6)

    def test_relation_scores_sum_to_one(self):
        params = make_params(num_entities=9, num_relations=4)
        assert relation_scores_batch(params, [3])[0].sum() == pytest.approx(1.0, abs=1e-6)

    def test_uniform_logits_give_uniform_probs(self):
        params = init_params(8, 4, 4, 1, seed=0)
        for _, tensor in [("w", params.entity_out_w), ("b", params.entity_out_b)]:
            tensor[...] = 0
        probs = entity_scores_batch(params, [0], [0])[0]
        assert np.allclose(probs, 1.0 / 8, atol=1e-12)

    def test_two_relation_logistic_pair(self):
        params = make_params(num_entities=4, num_relations=2)
        probs = relation_scores_batch(params, [1])[0]
        raw = logits(params, forward_batch(params, [1], [0])[0][0], "relation")
        expected = 1.0 / (1.0 + np.exp(-(raw[0] - raw[1])))
        assert probs[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_oracle(self):
        params = make_params(num_entities=7, num_relations=4, embed_dim=3)
        probs = entity_scores_batch(params, [2], [1])[0]
        _, (h_r,), _ = forward_batch(params, [2], [1])
        raw = [
            sum(params.entity_out_w[e][j] * h_r[j] for j in range(3)) + params.entity_out_b[e]
            for e in range(7)
        ]
        assert np.allclose(probs, oracle_softmax(raw), atol=1e-12)

    def test_relation_prob_matrix_matches_rows(self):
        params = make_params(num_entities=6, num_relations=4)
        relations = [2, 0, 3]
        block = relation_prob_matrix(params, relations, 0.5, chunk=4)  # a short last chunk
        assert block.shape == (3, 6) and block.flags.c_contiguous
        for e in range(6):
            expected = relation_scores_batch(params, [e])[0][relations] ** 0.5
            assert np.allclose(block[:, e], expected, atol=1e-15)

    def test_worker_count_does_not_change_results(self):
        params = make_params(num_entities=10, num_relations=4)
        one = relation_prob_matrix(params, [1, 3], 1 / 3, chunk=3, workers=1)
        two = relation_prob_matrix(params, [1, 3], 1 / 3, chunk=3, workers=2)
        assert np.array_equal(one, two)


class TestMapChunks:
    def test_in_flight_spans_bounded_behind_slow_consumer(self):
        workers = 2
        lock = threading.Lock()
        counts = {"computed": 0, "consumed": 0, "most_unconsumed": 0}

        def fn(span):
            with lock:
                counts["computed"] += 1
                unconsumed = counts["computed"] - counts["consumed"]
                counts["most_unconsumed"] = max(counts["most_unconsumed"], unconsumed)
            return span

        seen = []
        for span in evaluation.map_chunks(fn, 40, 1, workers):
            time.sleep(0.005)
            seen.append(span)
            with lock:
                counts["consumed"] += 1
        assert seen == [(lo, lo + 1) for lo in range(40)]
        assert counts["most_unconsumed"] <= 2 * workers

    def test_pins_malloc_before_any_span(self, monkeypatch):
        settings, calls = [], []

        def mallopt(param, value):
            settings.append((param, value))

        monkeypatch.setattr(model.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        spans = evaluation.map_chunks(calls.append, 4, 3, 1)
        assert settings == [(-3, 32 << 20), (-1, 1 << 30)] and calls == []
        assert list(spans) == [None, None] and calls == [(0, 3), (3, 4)]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_before_any_span(self, workers):
        calls = []
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evaluation.map_chunks(calls.append, 10, 3, workers)
        assert calls == []

    @pytest.mark.parametrize("evaluate", [evaluate_entity_prediction, evaluate_cascade])
    def test_evaluation_rejects_zero_workers(self, tiny_dataset, evaluate):
        vocab = tiny_dataset.vocab
        params = init_params(vocab.num_entities, vocab.num_relations, 3, 1, seed=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evaluate(params, tiny_dataset, EnhanceConfig(enabled=False), workers=0)


class TestFilteredRank:
    def test_known_competitor_example(self):
        rank = filtered_rank(np.array([0.5, 0.3, 0.2]), gold=1, known=[1])
        assert rank == 2

    def test_highest_score_is_rank_one(self):
        rank = filtered_rank(np.array([0.1, 0.9, 0.2]), gold=1, known=[1])
        assert rank == 1

    def test_all_competitors_filtered(self):
        rank = filtered_rank(np.array([0.5, 0.3, 0.4]), gold=1, known=[0, 1, 2])
        assert rank == 1

    def test_gold_missing_from_known(self):
        with pytest.raises(ValueError):
            filtered_rank(np.array([0.5, 0.3]), gold=1, known=[0])

    def test_ties_do_not_worsen_rank(self):
        rank = filtered_rank(np.array([0.3, 0.3, 0.3]), gold=1, known=[1])
        assert rank == 1

    def test_pessimistic_counts_ties(self):
        rank = filtered_rank(np.array([0.3, 0.3, 0.3]), gold=1, known=[1], pessimistic=True)
        assert rank == 3

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            if rng.random() < 0.3:  # force ties sometimes
                scores = np.round(scores, 1)
            gold = int(rng.integers(0, n))
            extra = rng.integers(0, n, size=rng.integers(0, n))
            known = np.unique(np.concatenate([[gold], extra]))
            for pessimistic in (False, True):
                assert filtered_rank(scores, gold, known, pessimistic=pessimistic) == (
                    oracle_filtered_rank(scores, gold, known, pessimistic=pessimistic)
                )

    def test_unfiltered_rank_strict_rule(self):
        scores = np.array([0.2, 0.5, 0.5, 0.9])
        assert unfiltered_rank(scores, 1) == 2
        assert unfiltered_rank(scores, 1, pessimistic=True) == 3


def repeats_dataset(rng, num_entities=8):
    """Random triples, plus a relation with one answer per key and a test
    triple that is also a training triple."""
    names = [f"e{i}" for i in range(num_entities)]

    def triples(count):
        picks = zip(*(rng.integers(0, high, count) for high in (num_entities, 2, num_entities)))
        return [RawTriple(names[s], f"r{r}", names[o]) for s, r, o in picks]

    train = [RawTriple(names[i], f"r{i % 2}", names[(i + 1) % num_entities])
             for i in range(num_entities)]
    train += [RawTriple("e0", "solo", "e1")] + triples(10)
    return index_dataset(train, triples(3), [train[-1]] + triples(3))


class TestBatchedRanks:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
    def test_match_the_one_query_oracles(self, seed, levels, pessimistic):
        rng = np.random.default_rng(seed)
        ds = repeats_dataset(rng)
        vocab = ds.vocab
        queries = np.concatenate(
            [ds.train, augment_reverse(ds.valid, vocab), augment_reverse(ds.test, vocab)]
        )
        subjects, relations, golds = queries.T
        lo, hi = ds.answer_spans(subjects, relations)
        assert np.any(hi - lo == 1)
        # few score levels, so most rows hold long runs of ties
        entity_block = rng.integers(0, levels, (len(queries), vocab.num_entities)) / levels
        relation_block = rng.integers(0, levels, (len(queries), vocab.num_relations)) / levels
        ranks = filtered_ranks(
            entity_block, golds, lo, hi, ds.answer_objects, pessimistic=pessimistic
        )
        relation_ranks = unfiltered_ranks(relation_block, relations, pessimistic=pessimistic)
        for i, (s, r, o) in enumerate(queries.tolist()):
            known = ds.known_answers(s, r)
            assert ranks[i] == filtered_rank(entity_block[i], o, known, pessimistic=pessimistic)
            assert relation_ranks[i] == unfiltered_rank(
                relation_block[i], r, pessimistic=pessimistic
            )

    def test_gold_missing_from_its_known_set_raises(self):
        block = np.array([[0.1, 0.5, 0.4], [0.2, 0.3, 0.5]])
        objects = np.array([0, 2, 2], dtype=np.int32)  # row 0 knows {0, 2}, row 1 knows {2}
        with pytest.raises(ValueError, match="gold label 1 missing from the known-answer set"):
            filtered_ranks(block, [2, 1], np.array([0, 2]), np.array([2, 3]), objects)


class TestEnhancement:
    def test_exact_arithmetic(self):
        refined = enhance_scores([0.25, 0.25, 0.25], [0.001, 0.8, 0.9], alpha=1.0 / 3.0)
        # 0.001 ** (1/3) is exactly 0.1; the other two follow from exp/log
        expected = np.array([0.025, 0.8 ** (1 / 3) * 0.25, 0.9 ** (1 / 3) * 0.25])
        assert np.allclose(refined, expected, atol=1e-15)
        assert refined[0] == pytest.approx(0.025, abs=1e-12)
        assert refined[1] == pytest.approx(0.23207944168063893, abs=1e-12)
        assert refined[2] == pytest.approx(0.24137234615140743, abs=1e-12)

    def test_tiny_alpha_preserves_ranking(self):
        rng = np.random.default_rng(0)
        p_orig = rng.random(30)
        reverse = rng.random(30) + 1e-3  # strictly positive
        refined = enhance_scores(p_orig, reverse, alpha=1e-9)
        assert np.array_equal(np.argsort(refined), np.argsort(p_orig))

    def test_zero_reverse_prob_zeroes_entity(self):
        refined = enhance_scores([0.9, 0.1], [0.0, 0.5], alpha=0.5)
        assert refined[0] == 0.0

    @given(st.floats(0.01, 0.99), st.integers(2, 20), st.integers(0, 100))
    def test_equal_reverse_evidence_is_ranking_invariant(self, alpha, n, seed):
        rng = np.random.default_rng(seed)
        p_orig = rng.random(n)
        refined = enhance_scores(p_orig, np.full(n, 0.4), alpha=alpha)
        assert np.array_equal(np.argsort(refined), np.argsort(p_orig))

    def test_alpha_bounds(self):
        with pytest.raises(ValueError) as err:
            enhance_scores([0.1], [0.1], alpha=1.0)
        assert str(err.value) == "alpha must be in (0, 1), got 1.0"
        with pytest.raises(ValueError):
            EnhanceConfig(alpha=0.0, enabled=True)
        EnhanceConfig(alpha=0.0, enabled=False)  # unused alpha unchecked

    def test_negative_original_score_rejected(self):
        with pytest.raises(ValueError) as err:
            enhance_scores([0.5, -0.1], [0.5, 0.5], alpha=0.5)
        assert str(err.value) == "original scores must be non-negative"

    def test_negative_reverse_probability_rejected(self):
        with pytest.raises(ValueError) as err:
            enhance_scores([0.5], [-0.1], alpha=1 / 3)
        assert str(err.value) == "reverse probabilities must be non-negative"

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_relation_prob_matrix_rejects_bad_alpha(self, alpha):
        params = make_params()
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got"):
            evaluation.relation_prob_matrix(params, [0], alpha)

    def test_query_enhancement_uses_model_reverse_evidence(self):
        rng = np.random.default_rng(4)
        ds = random_toy_dataset(rng)
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations
        )
        rev = ds.vocab.reverse_of
        relation = 1
        p_orig = entity_scores_batch(params, [0], [relation])[0]
        (power,) = relation_prob_matrix(params, [rev[relation]], 1 / 3)
        reverse = [relation_scores_batch(params, [e])[0][rev[relation]]
                   for e in range(params.num_entities)]
        expected = np.array(reverse) ** (1 / 3) * p_orig
        assert np.allclose(power * p_orig, expected, atol=1e-15)
        assert np.allclose(enhance_scores(p_orig, reverse, 1 / 3), expected, atol=1e-15)


class TestEntityPrediction:
    def test_memorized_single_triple(self):
        # self-loop test triple: both query directions rank the same entity
        train = [RawTriple("a", "p", "b"), RawTriple("b", "p", "c"), RawTriple("a", "p", "a")]
        ds = index_dataset(train, test=[RawTriple("a", "p", "a")])
        params = init_params(ds.vocab.num_entities, ds.vocab.num_relations, 4, 1, seed=0)
        params.entity_out_b[ds.vocab.entity_ids["a"]] = 50.0
        report = evaluate_entity_prediction(params, ds, EnhanceConfig(enabled=False))
        assert report.hits1 == 100.0
        assert report.mr == 1.0
        assert report.mrr == 100.0

    def test_hits_nesting(self):
        rng = np.random.default_rng(0)
        report = metrics_from_ranks(rng.integers(1, 40, size=200))
        assert report.hits10 >= report.hits1

    @pytest.mark.parametrize("enhance", [EnhanceConfig(enabled=False), EnhanceConfig(alpha=1 / 3)])
    def test_matches_bruteforce_oracle(self, enhance):
        rng = np.random.default_rng(12)
        ds = random_toy_dataset(rng)
        params = make_params(
            num_entities=ds.vocab.num_entities,
            num_relations=ds.vocab.num_relations,
            embed_dim=4, num_layers=2, dtype=np.float64,
        )
        report = evaluate_entity_prediction(params, ds, enhance, chunk=5)
        oracle = oracle_evaluate(params, ds, enhance)
        assert report.as_dict() == pytest.approx(oracle)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(3)
        ds = random_toy_dataset(rng)
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations
        )
        a = evaluate_entity_prediction(params, ds, EnhanceConfig(enabled=False))
        b = evaluate_entity_prediction(params, ds, EnhanceConfig(enabled=False))
        assert a.as_dict() == b.as_dict()

    def test_worker_count_invariant(self):
        rng = np.random.default_rng(5)
        ds = random_toy_dataset(rng)
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations
        )
        a = evaluate_entity_prediction(params, ds, EnhanceConfig(), chunk=4, workers=1)
        b = evaluate_entity_prediction(params, ds, EnhanceConfig(), chunk=4, workers=2)
        assert a.as_dict() == b.as_dict()


class TestCascade:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        ds = random_toy_dataset(rng)
        params = make_params(
            num_entities=ds.vocab.num_entities,
            num_relations=ds.vocab.num_relations,
            embed_dim=4, num_layers=2, dtype=np.float64,
        )
        report = evaluate_cascade(params, ds, chunk=5)
        oracle = oracle_evaluate(params, ds, EnhanceConfig(enabled=False), cascade=True)
        assert report.as_dict() == pytest.approx(oracle)

    def test_cascade_rank_is_product(self):
        rng = np.random.default_rng(2)
        ds = random_toy_dataset(rng)
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations
        )
        cascade = evaluate_cascade(params, ds, keep_ranks=True)
        plain = evaluate_entity_prediction(
            params, ds, EnhanceConfig(enabled=False), keep_ranks=True
        )
        assert np.array_equal(cascade.ranks, plain.ranks * cascade.relation_ranks)
        assert np.all(cascade.relation_ranks >= 1)

    def test_perfect_relation_rank_reduces_to_plain(self):
        # one relation pair only: with two relations the top one has rank 1
        train = [RawTriple("a", "p", "b"), RawTriple("b", "p", "c"), RawTriple("c", "p", "a")]
        ds = index_dataset(train, test=[RawTriple("a", "p", "b")])
        params = make_params(num_entities=3, num_relations=2)
        cascade = evaluate_cascade(params, ds, keep_ranks=True)
        plain = evaluate_entity_prediction(
            params, ds, EnhanceConfig(enabled=False), keep_ranks=True
        )
        matching = cascade.relation_ranks == 1
        assert np.array_equal(cascade.ranks[matching], plain.ranks[matching])

    def test_cascade_mr_dominates_plain(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ds = random_toy_dataset(rng)
            params = make_params(
                num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations,
                seed=seed,
            )
            cascade = evaluate_cascade(params, ds)
            plain = evaluate_entity_prediction(params, ds, EnhanceConfig(enabled=False))
            assert cascade.mr >= plain.mr


class TestNonFiniteScores:
    """A model with non-finite logits cannot be ranked: NaN never beats the
    gold score, so without the softmax's check it would read as rank 1."""

    @staticmethod
    def setup_model():
        ds = random_toy_dataset(np.random.default_rng(4), num_entities=40)
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations
        )
        return ds, params

    # Beyond NaN weights: a +inf logit, or a row of all -inf logits, also
    # leaves its row without a finite max.
    @pytest.mark.parametrize("variant, damage", [
        pytest.param(variant, damage, id=variant if damage == "nan" else f"{variant}-{damage}")
        for damage in ("nan", "inf_bias", "neg_inf_bias")
        for variant in evaluation.VARIANTS
    ])
    def test_nan_entity_weights(self, variant, damage):
        ds, params = self.setup_model()
        if damage == "nan":
            params.entity_out_w[...] = np.nan
        elif damage == "inf_bias":
            params.entity_out_b[3] = np.inf
        else:
            params.entity_out_b[...] = -np.inf
        with pytest.raises(ValueError, match="cannot rank non-finite scores"):
            evaluation.evaluate_variants(params, ds, [variant])

    def test_nan_embedding_rows_off_the_queries_break_only_enhancement(self):
        # These entities are no query's subject, so only the reverse-relation
        # evidence sees their NaN rows, one column of each enhanced row.
        ds, params = self.setup_model()
        off_queries = np.setdiff1d(np.arange(ds.vocab.num_entities), ds.test[:, [0, 2]])
        assert len(off_queries) > 0
        params.entity_embed[off_queries] = np.nan
        evaluation.evaluate_variants(params, ds, ["entity_plain", "cascade_plain"])
        for variant in ("entity_enhanced", "cascade_enhanced"):
            with pytest.raises(ValueError, match="cannot rank non-finite scores"):
                evaluation.evaluate_variants(params, ds, [variant])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_relation_weights_break_the_cascade(self, workers):
        ds, params = self.setup_model()
        params.relation_out_w[...] = np.nan
        evaluation.evaluate_variants(params, ds, ["entity_plain"], workers=workers)
        with pytest.raises(ValueError, match="cannot rank non-finite scores"):
            evaluation.evaluate_variants(params, ds, ["cascade_plain"], chunk=3, workers=workers)


class TestPassMemory:
    """A pass holds about one chunk's scores at a time: its peak stays under a
    small multiple of a ``(chunk, N)`` block, far below a ``(queries, N)`` or
    ``(N, R)`` array."""

    def test_evaluate_variants_peak_is_bounded_by_the_chunk(self):
        n, chunk = 10_000, 8
        train = [RawTriple(f"e{i}", f"r{i % 32}", f"e{(i + 1) % n}") for i in range(n)]
        test = [RawTriple(f"e{i}", "r0", f"e{i + 7}") for i in range(30)]
        ds = index_dataset(train, [], test)
        params = make_params(
            num_entities=n, num_relations=ds.vocab.num_relations, dtype=np.float32
        )
        queries = 2 * len(test)
        # float32 logits and float64 probabilities of a chunk, the reverse-power
        # block (r0 and its reverse) and every variant's ranks
        bound = 2 * chunk * n * 12 + 2 * n * 8 + 8 * queries * 8
        assert min(queries, ds.vocab.num_relations) * n * 8 > bound
        tracemalloc.start()
        try:
            evaluation.evaluate_variants(params, ds, chunk=chunk, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestReportFormat:
    def test_kv_lines_present(self):
        report = metrics_from_ranks([1, 2, 3, 10])
        text = evaluation.format_report(report, "unit")
        assert "hits@1=" in text and "mrr=" in text and "queries=4" in text

    def test_invariants(self):
        report = metrics_from_ranks([1, 5, 20])
        assert 0 <= report.hits1 <= report.hits10 <= 100
        assert 0 < report.mrr <= 100
        assert report.mr >= 1

    def test_no_ranks_is_an_error(self):
        with pytest.raises(ValueError) as err:
            metrics_from_ranks([])
        assert str(err.value) == "no queries to aggregate"

    def test_failed_rank_dump_leaves_the_previous_file(self, tiny_dataset, tmp_path):
        path = tmp_path / "ranks.tsv"
        path.write_bytes(b"previous\n")
        count = 2 * len(tiny_dataset.split("test"))  # tail then head queries
        report = metrics_from_ranks(np.arange(1, count + 1), keep_ranks=True)
        report.ranks = report.ranks[:-1]  # one short: the last row fails after the others
        with pytest.raises(IndexError):
            evaluation.write_ranks_dump(path, tiny_dataset, "test", report)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ranks.tsv"]

    def test_rank_dump_of_a_report_without_ranks_writes_nothing(self, tiny_dataset, tmp_path):
        report = metrics_from_ranks([1, 2])
        with pytest.raises(ValueError) as err:
            evaluation.write_ranks_dump(tmp_path / "ranks.tsv", tiny_dataset, "test", report)
        assert str(err.value) == "report was built without keep_ranks"
        assert list(tmp_path.iterdir()) == []


class TestScoringNames:
    """Every eval call scores through the module names a profiler wraps.

    A refactor that scores around ``entity_scores_batch``,
    ``relation_scores_batch`` or ``relation_prob_matrix`` would move that
    time out of sight of anything that traces them.
    """

    CHUNK = 3

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"entity_rows": [], "relation_rows": [], "matrix": 0, "in_matrix": False}
        originals = {
            name: getattr(evaluation, name)
            for name in ("entity_scores_batch", "relation_scores_batch", "relation_prob_matrix")
        }

        def entity(params, subjects, relations, **kwargs):
            calls["entity_rows"].append(len(subjects))
            return originals["entity_scores_batch"](params, subjects, relations, **kwargs)

        def relation(params, subjects, **kwargs):
            if not calls["in_matrix"]:  # the matrix's own rows are not query scoring
                calls["relation_rows"].append(len(subjects))
            return originals["relation_scores_batch"](params, subjects, **kwargs)

        def matrix(*args, **kwargs):
            calls["matrix"] += 1
            calls["in_matrix"] = True
            try:
                return originals["relation_prob_matrix"](*args, **kwargs)
            finally:
                calls["in_matrix"] = False

        monkeypatch.setattr(evaluation, "entity_scores_batch", entity)
        monkeypatch.setattr(evaluation, "relation_scores_batch", relation)
        monkeypatch.setattr(evaluation, "relation_prob_matrix", matrix)
        return calls

    @staticmethod
    def setup_model(seed=8):
        ds = random_toy_dataset(np.random.default_rng(seed))
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations
        )
        return ds, params

    def chunk_sizes(self, queries, chunk):
        return sorted(min(chunk, queries - lo) for lo in range(0, queries, chunk))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("evaluate", [evaluate_entity_prediction, evaluate_cascade])
    @pytest.mark.parametrize("enhanced", [False, True])
    def test_each_variant_scores_every_chunk(self, calls, evaluate, enhanced, workers):
        ds, params = self.setup_model()
        evaluate(params, ds, EnhanceConfig(enabled=enhanced), chunk=self.CHUNK, workers=workers)
        chunks = self.chunk_sizes(2 * len(ds.test), self.CHUNK)
        assert sorted(calls["entity_rows"]) == chunks
        cascade = evaluate is evaluate_cascade
        assert sorted(calls["relation_rows"]) == (chunks if cascade else [])
        assert calls["matrix"] == (1 if enhanced else 0)

    def test_cmd_eval_is_one_pass(self, calls, tmp_path, capsys):
        ds, params = self.setup_model()
        save_dataset(ds, tmp_path / "data.dskg")
        save_checkpoint(params, tmp_path / "model.dskg")
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "model.dskg"),
                         "--data", str(tmp_path / "data.dskg"), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        chunks = self.chunk_sizes(2 * len(ds.test), 256)
        assert calls["matrix"] == 1
        assert calls["entity_rows"] == chunks and calls["relation_rows"] == chunks

    @pytest.mark.parametrize("evaluate", [evaluate_entity_prediction, evaluate_cascade])
    @pytest.mark.parametrize("enhanced", [False, True])
    def test_empty_split_named_before_any_scoring(self, calls, evaluate, enhanced):
        train = [RawTriple("a", "p", "b"), RawTriple("b", "p", "c")]
        ds = index_dataset(train, test=[RawTriple("a", "p", "c")])
        params = make_params(num_entities=3, num_relations=2)
        with pytest.raises(ValueError, match="split 'valid' has no triples to evaluate"):
            evaluate(params, ds, EnhanceConfig(enabled=enhanced), split="valid")
        assert calls["entity_rows"] == calls["relation_rows"] == [] and calls["matrix"] == 0

    def test_no_variant_asked_is_an_error_before_any_scoring(self, calls):
        ds, params = self.setup_model()
        with pytest.raises(ValueError, match="no evaluation variant asked for"):
            evaluation.evaluate_variants(params, ds, [])
        assert calls["entity_rows"] == calls["relation_rows"] == [] and calls["matrix"] == 0

    def test_unknown_variant_is_an_error_before_any_scoring(self, calls):
        ds, params = self.setup_model()
        with pytest.raises(ValueError) as err:
            evaluation.evaluate_variants(params, ds, ["entity_fancy"])
        assert str(err.value) == "unknown evaluation variants: ['entity_fancy']"
        assert calls["entity_rows"] == calls["relation_rows"] == [] and calls["matrix"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_alpha_is_named_before_any_scoring(self, calls, workers):
        ds, params = self.setup_model()
        with pytest.raises(ValueError) as err:
            evaluation.evaluate_variants(params, ds, alpha=1.5, chunk=self.CHUNK, workers=workers)
        assert str(err.value) == "alpha must be in (0, 1), got 1.5"
        # the reverse-power block is asked for, and refuses, before any query is scored
        assert calls["matrix"] == 1
        assert calls["entity_rows"] == calls["relation_rows"] == []
        # a plain-only pass never uses alpha, so never checks it
        evaluation.evaluate_variants(params, ds, ["entity_plain", "cascade_plain"], alpha=1.5)
        assert calls["matrix"] == 1 and calls["entity_rows"]

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_is_named_before_any_scoring(self, calls, chunk):
        ds, params = self.setup_model()
        message = f"chunk must be >= 1, got {chunk}"
        with pytest.raises(ValueError, match=message):
            evaluation.evaluate_variants(params, ds, chunk=chunk)
        assert calls["entity_rows"] == calls["relation_rows"] == [] and calls["matrix"] == 0
        with pytest.raises(ValueError, match=message):
            evaluation.relation_prob_matrix(params, [0, 1], 0.5, chunk=chunk)


class TestChunkedPasses:
    """A pass scores its queries a chunk at a time, on one or more worker
    threads. No chunk size, worker count or earlier pass may show in a rank."""

    @staticmethod
    def oracle_ranks(params, ds, alpha=EnhanceConfig.alpha):
        """Every variant's ranks, one query at a time through the reference oracles."""
        rev = ds.vocab.reverse_of
        reverse = np.array(
            [relation_scores_batch(params, [e])[0] for e in range(params.num_entities)]
        )
        queries = augment_reverse(ds.test, ds.vocab).tolist()
        ranks = {name: [] for name in evaluation.VARIANTS}
        for s, r, o in queries:
            probs = entity_scores_batch(params, [s], [r])[0]
            known = ds.known_answers(s, r)
            relation_rank = unfiltered_rank(relation_scores_batch(params, [s])[0], r)
            for kind, scores in (
                ("plain", probs), ("enhanced", enhance_scores(probs, reverse[:, rev[r]], alpha))
            ):
                rank = filtered_rank(scores, o, known)
                ranks[f"entity_{kind}"].append(rank)
                ranks[f"cascade_{kind}"].append(rank * relation_rank)
        return {name: np.array(values) for name, values in ranks.items()}

    @staticmethod
    def pass_ranks(params, ds, **options):
        reports = evaluation.evaluate_variants(params, ds, keep_ranks=True, **options)
        return {name: report.ranks for name, report in reports.items()}

    @pytest.fixture(scope="class")
    def model(self):
        ds = random_toy_dataset(np.random.default_rng(31))
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations, seed=3
        )
        assert 2 * len(ds.test) % 3 and 2 * len(ds.test) % 7  # short last chunks
        return ds, params, self.oracle_ranks(params, ds)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_ranks_match_one_chunk_and_the_oracles(self, model, chunk, workers):
        ds, params, oracle = model
        reference = self.pass_ranks(params, ds, chunk=256, workers=1)
        ranks = self.pass_ranks(params, ds, chunk=chunk, workers=workers)
        for name in evaluation.VARIANTS:
            assert np.array_equal(ranks[name], reference[name]), name
            assert np.array_equal(ranks[name], oracle[name]), name

    def test_back_to_back_passes_rank_their_own_model(self, model):
        ds, params, oracle = model
        other = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations,
            embed_dim=6, seed=4,
        )
        other_oracle = self.oracle_ranks(other, ds)
        assert any(not np.array_equal(oracle[name], other_oracle[name])
                   for name in evaluation.VARIANTS)
        for model_params, expected in ((params, oracle), (other, other_oracle),
                                       (params, oracle)):
            ranks = self.pass_ranks(model_params, ds, chunk=3)
            for name in evaluation.VARIANTS:
                assert np.array_equal(ranks[name], expected[name]), name

    def test_threads_never_share_a_buffer(self):
        # More workers than cores and a short switch interval interleave the
        # threads between numpy calls; a score block shared between threads
        # would then be overwritten while another thread is still ranking it.
        ds = random_toy_dataset(np.random.default_rng(5), num_entities=200, num_relations=5,
                                n_train=400, n_eval=150)
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations, embed_dim=8
        )
        reference = self.pass_ranks(params, ds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            passes = [self.pass_ranks(params, ds, chunk=1, workers=4) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for ranks in passes:
            for name in evaluation.VARIANTS:
                assert np.array_equal(ranks[name], reference[name]), name
