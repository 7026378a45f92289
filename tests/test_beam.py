import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_params
from dskg import beam
from dskg.beam import (
    BeamConfig,
    ScoredTriples,
    canonicalize_triples,
    precision_curve,
    stage1_pairs,
    stage2_triples,
)
from dskg.data import RawTriple, _encode_triples, check_key_range, index_dataset
from dskg.evaluation import entity_scores_batch, relation_scores_batch


def oracle_pairs(params):
    """Exhaustive pair enumeration with python sorting."""
    rows = []
    for e in range(params.num_entities):
        probs = relation_scores_batch(params, [e])[0]
        for r in range(params.num_relations):
            rows.append((e, r, float(probs[r])))
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows


def oracle_triples(params, pair_rows):
    rows = []
    for e, r, pair_score in pair_rows:
        probs = entity_scores_batch(params, [e], [r])[0]
        for o in range(params.num_entities):
            rows.append((e, r, o, pair_score * float(probs[o])))
    rows.sort(key=lambda row: (-row[3], row[0], row[1], row[2]))
    return rows


def toy_params(num_entities=5, num_relations=4, seed=0):
    return make_params(
        num_entities=num_entities, num_relations=num_relations,
        embed_dim=3, num_layers=1, seed=seed, dtype=np.float64,
    )


def chain_dataset():
    train = [RawTriple("a", "p", "b"), RawTriple("b", "p", "c"), RawTriple("c", "q", "a")]
    valid = [RawTriple("a", "q", "b")]
    test = [RawTriple("b", "q", "a")]
    return index_dataset(train, valid, test)


class TestStage1:
    def test_window_covering_space_returns_all_pairs(self):
        params = toy_params()
        config = BeamConfig(stage1_window=10_000, stage2_window=1)
        out = stage1_pairs(params, config)
        assert len(out) == params.num_entities * params.num_relations
        assert len({tuple(row) for row in out.triples}) == len(out)

    def test_matches_oracle(self):
        params = toy_params()
        config = BeamConfig(stage1_window=7, stage2_window=1)
        out = stage1_pairs(params, config, entity_chunk=2)
        expected = oracle_pairs(params)[:7]
        assert [tuple(row) for row in out.triples] == [(e, r) for e, r, _ in expected]
        assert np.allclose(out.scores, [s for _, _, s in expected], rtol=1e-12, atol=1e-15)

    def test_scores_are_probabilities(self):
        params = toy_params(seed=3)
        out = stage1_pairs(params, BeamConfig(stage1_window=50, stage2_window=1))
        assert np.all(out.scores > 0) and np.all(out.scores <= 1)

    def test_chunking_invariant(self):
        # At one chunk size the output is exact for any worker count. Across
        # chunk sizes BLAS may pick another GEMM kernel for the row count, so
        # the scores may move in their last bits; the pairs do not.
        params = toy_params(num_entities=9)
        config = BeamConfig(stage1_window=11, stage2_window=1)
        by_chunk = {}
        for chunk in (1, 4):
            one, two = (stage1_pairs(params, config, entity_chunk=chunk, workers=workers)
                        for workers in (1, 2))
            assert np.array_equal(one.triples, two.triples)
            assert np.array_equal(one.scores, two.scores)
            by_chunk[chunk] = one
        assert np.array_equal(by_chunk[1].triples, by_chunk[4].triples)
        assert np.allclose(by_chunk[1].scores, by_chunk[4].scores, rtol=1e-12, atol=0)

    def test_worker_count_invariant(self):
        params = toy_params(num_entities=9)
        config = BeamConfig(stage1_window=11, stage2_window=25)
        one = stage2_triples(params, stage1_pairs(params, config, entity_chunk=2, workers=1),
                             config, pair_chunk=3, workers=1)
        two = stage2_triples(params, stage1_pairs(params, config, entity_chunk=2, workers=2),
                             config, pair_chunk=3, workers=2)
        assert np.array_equal(one.triples, two.triples)
        assert np.array_equal(one.scores, two.scores)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected_before_scoring(self, monkeypatch, chunk):
        scored = []
        monkeypatch.setattr(beam, "relation_scores_batch", lambda *a, **k: scored.append(a))
        monkeypatch.setattr(beam, "entity_scores_batch", lambda *a, **k: scored.append(a))
        params = toy_params()
        config = BeamConfig(stage1_window=4, stage2_window=4)
        pairs = ScoredTriples(np.zeros((3, 2), dtype=np.int64), np.ones(3))
        message = f"chunk must be >= 1, got {chunk}"
        with pytest.raises(ValueError, match=message):
            stage1_pairs(params, config, entity_chunk=chunk)
        with pytest.raises(ValueError, match=message):
            stage2_triples(params, pairs, config, pair_chunk=chunk)
        assert scored == []


def tied_params(relation_bias, entity_bias):
    """Zero output weights: every subject gets p(r|s) = softmax(relation_bias)
    and p(o|s,r) = softmax(entity_bias), so equal biases tie scores exactly."""
    params = toy_params(num_entities=len(entity_bias), num_relations=len(relation_bias))
    params.tensors["relation_out_w"][...] = 0.0
    params.tensors["entity_out_w"][...] = 0.0
    params.tensors["relation_out_b"][...] = relation_bias
    params.tensors["entity_out_b"][...] = entity_bias
    return params


class TestTieBands:
    # all-zero biases tie every score; two bias levels put a tie band on
    # each side of the windows' cutoffs
    @pytest.mark.parametrize("biases", [
        ([0.0] * 4, [0.0] * 9),
        ([1.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0]),
    ], ids=["uniform", "two_levels"])
    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_windows_cutting_tie_bands_match_oracle(self, biases, chunk, workers):
        params = tied_params(*biases)
        config = BeamConfig(stage1_window=5, stage2_window=7)
        pair_rows = oracle_pairs(params)
        assert pair_rows[4][2] == pair_rows[5][2]  # stage 1 cuts a tie band
        stage1_kwargs = {} if chunk is None else {"entity_chunk": chunk}
        pairs = stage1_pairs(params, config, workers=workers, **stage1_kwargs)
        assert [tuple(row) for row in pairs.triples] == [(e, r) for e, r, _ in pair_rows[:5]]
        assert pairs.scores.tolist() == [score for *_, score in pair_rows[:5]]

        triple_rows = oracle_triples(params, pair_rows[:5])
        assert triple_rows[6][3] == triple_rows[7][3]  # and so does stage 2
        out = stage2_triples(params, pairs, config, pair_chunk=chunk, workers=workers)
        assert [tuple(row) for row in out.triples] == [row[:3] for row in triple_rows[:7]]
        assert out.scores.tolist() == [score for *_, score in triple_rows[:7]]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pool_matches_sorted_oracle(self, data):
        # blocks arrive in any key order, as stage-2 pairs do, and take four
        # score levels so tie bands straddle every cutoff; up to `lag` blocks
        # are selected before the offers ahead of them, as on worker threads
        # that read the cutoff while earlier results wait to be offered
        rows = data.draw(st.integers(1, 12))
        width = data.draw(st.integers(1, 4))
        row_keys = np.array(data.draw(st.permutations(range(rows))), dtype=np.int64)
        levels = st.sampled_from([0.125, 0.25, 0.5, 1.0])
        scores = np.array(
            data.draw(st.lists(levels, min_size=rows * width, max_size=rows * width))
        ).reshape(rows, width)
        limit = data.draw(st.integers(1, rows * width))
        block = data.draw(st.integers(1, rows))
        lag = data.draw(st.integers(0, 3))
        pool = beam._TopK(limit)
        pending = []
        for lo in range(0, rows, block):
            pending.append(pool.select(row_keys[lo : lo + block], scores[lo : lo + block]))
            if len(pending) > lag:
                pool.offer(*pending.pop(0))
        for survivors in pending:
            pool.offer(*survivors)
        keys, kept = pool.finish()
        expected = sorted(
            (-scores[i, j], int(row_keys[i]) * width + j)
            for i in range(rows)
            for j in range(width)
        )[:limit]
        assert keys.tolist() == [key for _, key in expected]
        assert kept.tolist() == [-score for score, _ in expected]

    def test_select_keeps_the_whole_tie_band_at_the_block_threshold(self):
        # limit 2: the block's 2nd best score is 0.5, and four entries share it
        scores = np.array([[0.5, 1.0, 0.5], [0.5, 0.25, 0.5]])
        pool = beam._TopK(2)
        keys, kept = pool.select(np.array([7, 3]), scores)
        assert keys.tolist() == [21, 22, 23, 9, 11]
        assert kept.tolist() == [0.5, 1.0, 0.5, 0.5, 0.5]
        pool.offer(keys, kept)
        assert pool.cutoff == 0.5  # the first full pool is cut at once
        assert [k.tolist() for k in pool.finish()] == [[22, 9], [1.0, 0.5]]

    def test_stale_cutoff_selects_more_but_never_loses_the_top(self):
        pool = beam._TopK(2)
        stale = pool.select(np.array([1]), np.array([[0.25, 0.125, 0.25]]))
        pool.offer(*pool.select(np.array([0]), np.array([[1.0, 0.5, 0.5]])))
        assert pool.cutoff == 0.5
        # selected against -inf, the late block keeps its own top two
        assert stale[0].tolist() == [3, 5]
        pool.offer(*stale)
        assert [k.tolist() for k in pool.finish()] == [[0, 1], [1.0, 0.5]]

    def test_more_workers_than_cores_under_fast_switching_match_one_worker(self):
        # scoring threads read the cutoff while the consuming thread raises
        # it; an entry lost to a stale or torn read would change the output
        rng = np.random.default_rng(0)
        params = tied_params(rng.integers(0, 3, 6).astype(float),
                             rng.integers(0, 3, 40).astype(float))
        config = BeamConfig(stage1_window=30, stage2_window=200)
        expected = stage2_triples(params, stage1_pairs(params, config), config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                pairs = stage1_pairs(params, config, entity_chunk=1, workers=4)
                out = stage2_triples(params, pairs, config, pair_chunk=1, workers=4)
                assert np.array_equal(out.triples, expected.triples)
                assert np.array_equal(out.scores, expected.scores)
        finally:
            sys.setswitchinterval(interval)


class TestStage2Memory:
    def test_peak_is_bounded_by_the_pair_chunk(self):
        # far below the (pairs, N) block that scoring every pair at once makes
        n, pair_chunk = 10_000, 8
        params = make_params(num_entities=n, num_relations=64, dtype=np.float32)
        config = BeamConfig(stage1_window=64, stage2_window=2000)
        pairs = stage1_pairs(params, config)
        # a chunk's float32 logits and float64 probabilities, then 16-byte pool
        # entries: up to 3 windows between cuts plus a chunk's survivors, the
        # copies a cut makes, and the output
        bound = 2 * pair_chunk * n * 12 + 8 * config.stage2_window * 16
        assert len(pairs) * n * 8 > bound
        tracemalloc.start()
        try:
            stage2_triples(params, pairs, config, pair_chunk=pair_chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestKeyRange:
    def test_guard_checks_sizes_only(self):
        check_key_range(14_541, 474)
        check_key_range(2**21, 2**21)  # largest key 2**63 - 1 still fits
        with pytest.raises(ValueError, match="int64"):
            check_key_range(2**21, 2**21 + 1)

    def test_beam_stages_refuse_before_scoring(self):
        huge = SimpleNamespace(num_entities=2**32, num_relations=474)
        config = BeamConfig(stage1_window=1, stage2_window=1)
        with pytest.raises(ValueError, match="int64"):
            stage1_pairs(huge, config)
        pairs = ScoredTriples(np.zeros((1, 2), dtype=np.int64), np.ones(1))
        with pytest.raises(ValueError, match="int64"):
            stage2_triples(huge, pairs, config)


class TestStage2:
    def test_full_windows_equal_exhaustive_enumeration(self):
        params = toy_params()
        space = params.num_entities * params.num_relations
        config = BeamConfig(stage1_window=space, stage2_window=space * params.num_entities)
        pairs = stage1_pairs(params, config)
        out = stage2_triples(params, pairs, config, pair_chunk=3)
        expected = oracle_triples(params, oracle_pairs(params))
        assert [tuple(row) for row in out.triples] == [(s, r, o) for s, r, o, _ in expected]
        assert np.allclose(out.scores, [v for *_, v in expected], rtol=1e-12, atol=1e-15)

    def test_partial_windows_match_truncated_oracle(self):
        params = toy_params(seed=5)
        config = BeamConfig(stage1_window=6, stage2_window=9)
        pairs = stage1_pairs(params, config)
        out = stage2_triples(params, pairs, config, pair_chunk=2)
        expected = oracle_triples(params, oracle_pairs(params)[:6])[:9]
        assert [tuple(row) for row in out.triples] == [(s, r, o) for s, r, o, _ in expected]

    def test_scores_non_increasing(self):
        params = toy_params(seed=1)
        config = BeamConfig(stage1_window=10, stage2_window=30)
        out = stage2_triples(params, stage1_pairs(params, config), config)
        assert np.all(np.diff(out.scores) <= 0)

    def test_score_recomputation(self):
        params = toy_params(seed=2)
        config = BeamConfig(stage1_window=8, stage2_window=20)
        out = stage2_triples(params, stage1_pairs(params, config), config)
        for (s, r, o), score in zip(out.triples, out.scores):
            recomputed = (relation_scores_batch(params, [s])[0, r]
                          * entity_scores_batch(params, [s], [r])[0, o])
            assert abs(score - recomputed) < 1e-9

    def test_wider_stage1_never_drops_high_scores(self):
        # with a covering stage-2 window, widening stage 1 can only add triples;
        # anything scoring above the wider run's floor must survive the widening
        params = toy_params(seed=4)
        space2 = params.num_entities * params.num_relations * params.num_entities
        narrow_cfg = BeamConfig(stage1_window=4, stage2_window=space2)
        wide_cfg = BeamConfig(stage1_window=12, stage2_window=space2)
        narrow = stage2_triples(params, stage1_pairs(params, narrow_cfg), narrow_cfg)
        wide = stage2_triples(params, stage1_pairs(params, wide_cfg), wide_cfg)
        wide_set = {tuple(t) for t in wide.triples}
        wide_floor = wide.scores.min()
        assert all(tuple(t) in wide_set for t in narrow.triples)
        for triple, score in zip(narrow.triples, narrow.scores):
            assert score > wide_floor or tuple(triple) in wide_set


class TestNonFiniteScores:
    """A NaN or +inf logit fails every ``>= cutoff`` test of the top-k pool, so
    without the softmax's check the beam would drop it and come back empty."""

    CONFIG = BeamConfig(stage1_window=20, stage2_window=100)

    def test_nan_relation_weights_break_stage1(self):
        params = toy_params()
        params.relation_out_w[...] = np.nan
        with pytest.raises(ValueError, match="cannot rank non-finite scores"):
            stage1_pairs(params, self.CONFIG, entity_chunk=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_entity_weights_break_stage2(self, workers):
        params = toy_params()
        pairs = stage1_pairs(params, self.CONFIG)
        params.entity_out_w[...] = np.nan
        with pytest.raises(ValueError, match="cannot rank non-finite scores"):
            stage2_triples(params, pairs, self.CONFIG, pair_chunk=3, workers=workers)

    def test_one_infinite_entity_bias_breaks_stage2(self):
        params = toy_params()
        pairs = stage1_pairs(params, self.CONFIG)
        params.entity_out_b[2] = np.inf
        with pytest.raises(ValueError, match="cannot rank non-finite scores"):
            stage2_triples(params, pairs, self.CONFIG, pair_chunk=3)


class TestCanonicalization:
    def test_reverse_triples_folded(self):
        ds = chain_dataset()
        vocab = ds.vocab
        p = vocab.relation_ids["p"]
        p_rev = vocab.reverse_of[p]
        a, b = vocab.entity_ids["a"], vocab.entity_ids["b"]
        out = canonicalize_triples(np.array([[b, p_rev, a], [a, p, b]]), vocab)
        assert list(out[0]) == [a, p, b]
        assert list(out[1]) == [a, p, b]


class TestPrecisionCurve:
    def make_output(self, ds, triples):
        ids = np.array(
            [
                [
                    ds.vocab.entity_ids[t.subject],
                    ds.vocab.relation_ids[t.relation],
                    ds.vocab.entity_ids[t.object],
                ]
                for t in triples
            ],
            dtype=np.int64,
        )
        scores = np.linspace(1.0, 0.5, num=len(ids))
        return ScoredTriples(triples=ids, scores=scores)

    def test_empty_output_gives_an_empty_curve(self):
        empty = ScoredTriples(triples=np.zeros((0, 3), dtype=np.int64), scores=np.zeros(0))
        assert precision_curve(empty, chain_dataset()) == []

    def test_all_predictable_gives_precision_one(self):
        ds = chain_dataset()
        out = self.make_output(ds, [RawTriple("a", "q", "b"), RawTriple("b", "q", "a")])
        curve = precision_curve(out, ds)
        assert all(point.precision == 1.0 for point in curve)
        assert curve[-1].n_pred == 2

    def test_all_novel_gives_precision_zero(self):
        ds = chain_dataset()
        out = self.make_output(ds, [RawTriple("a", "p", "c"), RawTriple("b", "p", "a")])
        curve = precision_curve(out, ds)
        assert all(point.precision == 0.0 for point in curve)

    def test_train_only_outputs_are_undefined(self):
        ds = chain_dataset()
        out = self.make_output(ds, [RawTriple("a", "p", "b"), RawTriple("b", "p", "c")])
        curve = precision_curve(out, ds)
        assert all(point.precision is None for point in curve)
        assert all(point.n_error == 0 for point in curve)

    def test_unsorted_scores_rejected(self):
        ds = chain_dataset()
        out = self.make_output(ds, [RawTriple("a", "q", "b"), RawTriple("b", "q", "a")])
        out.scores = out.scores[::-1].copy()
        with pytest.raises(ValueError):
            precision_curve(out, ds)

    def test_reverse_orientation_deduplicated(self):
        ds = chain_dataset()
        vocab = ds.vocab
        q = vocab.relation_ids["q"]
        a, b = vocab.entity_ids["a"], vocab.entity_ids["b"]
        ids = np.array([[a, q, b], [b, vocab.reverse_of[q], a]], dtype=np.int64)
        out = ScoredTriples(triples=ids, scores=np.array([0.9, 0.8]))
        curve = precision_curve(out, ds)
        assert curve[-1].n == 1  # the two orientations collapse to one fact
        assert curve[-1].n_pred == 1
        raw = precision_curve(out, ds, canonicalize=False)
        assert raw[-1].n == 2

    def test_mixed_counts(self):
        ds = chain_dataset()
        out = self.make_output(
            ds,
            [
                RawTriple("a", "q", "b"),   # valid -> predictable
                RawTriple("a", "p", "b"),   # train only -> correct, not predictable
                RawTriple("c", "p", "a"),   # novel -> error
            ],
        )
        curve = precision_curve(out, ds)
        assert [p.precision for p in curve] == [1.0, 1.0, 0.5]
        assert [p.n_corr for p in curve] == [1, 2, 2]
        assert all(p.n_corr >= p.n_pred for p in curve)

    def test_curve_falls_after_predictable_facts_exhausted(self):
        # a trained model fronts the ranking with held-out facts; once those
        # and the training facts run out the tail is errors, so the final
        # precision sits far below the curve's peak
        from dskg.toygen import ToyConfig, generate_toy_kg
        from dskg.training import TrainConfig, train

        kg = generate_toy_kg(
            ToyConfig(num_entities=40, num_chains=40, num_extra_pairs=20,
                      holdout_fraction=0.2, seed=3)
        )
        ds = index_dataset(kg.train, kg.valid, kg.test)
        config = TrainConfig(
            learning_rate=0.02, batch_size=64, embed_dim=32, num_layers=1,
            keep_prob=1.0, epochs=60, eval_interval=10, patience=10, seed=0,
            shared_negatives=True,
        )
        params = train(ds, config).best_params
        beam_config = BeamConfig(stage1_window=300, stage2_window=6000)
        out = stage2_triples(params, stage1_pairs(params, beam_config), beam_config)
        curve = precision_curve(out, ds)
        defined = [p.precision for p in curve if p.precision is not None]
        assert curve[-1].precision is not None
        assert curve[-1].precision < max(defined)
        assert curve[-1].n_pred > 0  # it did surface held-out facts along the way

    def test_predictable_subset_of_correct_on_model_output(self):
        ds = chain_dataset()
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations,
            embed_dim=3, num_layers=1, dtype=np.float64,
        )
        space = ds.vocab.num_entities * ds.vocab.num_relations
        config = BeamConfig(stage1_window=space, stage2_window=space * ds.vocab.num_entities)
        out = stage2_triples(params, stage1_pairs(params, config), config)
        curve = precision_curve(out, ds)
        for point in curve:
            assert point.n_corr >= point.n_pred
            if point.precision is not None:
                assert 0.0 <= point.precision <= 1.0


def oracle_curve(triples, dataset, canonicalize):
    """(n, n_corr, n_pred, n_error) at every n, from Python sets of known facts."""
    vocab = dataset.vocab

    def both_orientations(split):
        rows = {tuple(map(int, t)) for t in split}
        return rows | {(o, vocab.reverse_of[r], s) for s, r, o in rows}

    predict = both_orientations(dataset.valid) | both_orientations(dataset.test)
    correct = both_orientations(dataset.train) | predict
    if canonicalize:
        triples = canonicalize_triples(triples, vocab)
    seen, points, n_corr, n_pred = set(), [], 0, 0
    for triple in map(tuple, triples.tolist()):
        if triple in seen:
            continue
        seen.add(triple)
        n_corr += triple in correct
        n_pred += triple in predict
        points.append((len(seen), n_corr, n_pred, len(seen) - n_corr))
    return points


class TestCurveMembership:
    """Binary-search membership against a set oracle at the key range's edges."""

    def every_triple(self, dataset):
        n, r = dataset.vocab.num_entities, dataset.vocab.num_relations
        grid = np.stack(np.meshgrid(np.arange(n), np.arange(r), np.arange(n), indexing="ij"))
        triples = grid.reshape(3, -1).T.astype(np.int64)
        return ScoredTriples(triples=triples, scores=np.linspace(1.0, 0.1, num=len(triples)))

    def check(self, output, dataset, canonicalize):
        curve = precision_curve(
            output, dataset, canonicalize=canonicalize, max_points=len(output)
        )
        expected = oracle_curve(output.triples, dataset, canonicalize)
        assert [(p.n, p.n_corr, p.n_pred, p.n_error) for p in curve] == expected

    @pytest.mark.parametrize("canonicalize", [True, False])
    def test_keys_below_and_above_known_range(self, canonicalize):
        ds = chain_dataset()
        output = self.every_triple(ds)
        keys = _encode_triples(output.triples, ds.vocab.num_relations, ds.vocab.num_entities)
        assert keys.min() < ds.correct_keys.min() and keys.max() > ds.correct_keys.max()
        assert keys.min() < ds.predict_keys.min() and keys.max() > ds.predict_keys.max()
        self.check(output, ds, canonicalize)

    @pytest.mark.parametrize("canonicalize", [True, False])
    def test_empty_held_out_splits(self, canonicalize):
        train = [RawTriple("a", "p", "b"), RawTriple("b", "p", "c"), RawTriple("c", "q", "a")]
        ds = index_dataset(train, [], [])
        assert len(ds.predict_keys) == 0
        self.check(self.every_triple(ds), ds, canonicalize)


class TestWriters:
    def test_prediction_and_curve_files(self, tmp_path):
        ds = chain_dataset()
        params = make_params(
            num_entities=ds.vocab.num_entities, num_relations=ds.vocab.num_relations,
            embed_dim=3, num_layers=1, dtype=np.float64,
        )
        config = BeamConfig(stage1_window=5, stage2_window=9)
        out = stage2_triples(params, stage1_pairs(params, config), config)
        beam.write_predictions(tmp_path / "p.tsv", out, ds.vocab)
        lines = (tmp_path / "p.tsv").read_text().strip().split("\n")
        assert len(lines) == len(out)
        assert all(len(line.split("\t")) == 4 for line in lines)

        curve = precision_curve(out, ds)
        beam.write_curve(tmp_path / "c.tsv", curve)
        rows = (tmp_path / "c.tsv").read_text().strip().split("\n")
        assert rows[0] == "n\tn_corr\tn_pred\tn_error\tp_n"
        assert len(rows) == len(curve) + 1

    @pytest.mark.parametrize("writer", ["predictions", "curve"])
    def test_failed_write_leaves_the_previous_file(self, tmp_path, writer):
        ds = chain_dataset()
        path = tmp_path / "out.tsv"
        path.write_bytes(b"previous\n")
        # each write fails on its second line, after the first has gone out
        if writer == "predictions":
            output = ScoredTriples(np.array([[0, 0, 1], [0, 0, 99]]), np.array([0.5, 0.25]))
            with pytest.raises(IndexError):  # entity 99 has no label
                beam.write_predictions(path, output, ds.vocab)
        else:
            with pytest.raises(AttributeError):  # None is not a CurvePoint
                beam.write_curve(path, [beam.CurvePoint(1, 1, 1, 0, 1.0), None])
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]
