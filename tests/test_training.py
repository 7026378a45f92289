import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import equalized_pair, loss_and_grad_map, make_params, scalar_lstm_oracle
from dskg import data, model, training
from dskg.beam import BeamConfig, stage1_pairs, stage2_triples
from dskg.data import RawTriple, index_dataset
from dskg.evaluation import evaluate_variants
from dskg.model import (
    ModelParams,
    active_cells,
    init_params,
    load_checkpoint,
    named_tensors,
    tensor_shapes,
)
from dskg.sampling import log_uniform_sample
from dskg.training import (
    ADAM_BLOCK,
    TrainConfig,
    TrainState,
    adam_step,
    batch_loss_and_grads,
    train,
)


def small_config(**overrides):
    defaults = dict(
        embed_dim=4, num_layers=1, batch_size=4, keep_prob=1.0,
        entity_negatives=2, relation_negatives=2, epochs=0, precision="high",
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def fresh_state(params, **fields):
    """The state ``train()`` starts from: Adam moments at zero, no step taken."""
    return TrainState(params, params.zeros_like(), params.zeros_like(), **fields)


class TestTripleLoss:
    def composed_oracle(self, params, s, r, o, cand_r, cand_e, relation_on):
        """Pure-python forward + dot products + log-sum-exp."""
        zero = np.zeros(params.embed_dim)
        cell1, cell2 = active_cells(params, 0)[0], active_cells(params, 1)[0]
        h_s, c_s = scalar_lstm_oracle(cell1, params.entity_embed[s], zero, zero)
        h_r, _ = scalar_lstm_oracle(cell2, params.relation_embed[r], h_s, c_s)

        def term(weight, bias, hidden, cand):
            scores = [
                sum(weight[c][j] * hidden[j] for j in range(len(hidden))) + bias[c]
                for c in cand
            ]
            top = max(scores)
            return top + math.log(sum(math.exp(v - top) for v in scores)) - scores[0]

        loss = term(params.entity_out_w, params.entity_out_b, h_r, cand_e)
        if relation_on:
            loss += term(params.relation_out_w, params.relation_out_b, h_s, cand_r)
        return loss

    def test_matches_composed_oracle(self, fix_negatives):
        params = make_params(num_entities=5, num_relations=4, embed_dim=2, num_layers=1)
        cand_r = np.array([[1, 0, 3]])
        cand_e = np.array([[4, 0, 2]])
        config = small_config(embed_dim=2)
        fix_negatives(cand_e[:, 1:], cand_r[:, 1:])
        loss, _ = loss_and_grad_map(params, np.array([[3, 1, 4]]), config)
        oracle = self.composed_oracle(params, 3, 1, 4, cand_r[0], cand_e[0], True)
        assert loss == pytest.approx(oracle, abs=1e-12)

    def test_relation_loss_off_leaves_entity_term(self, fix_negatives):
        params = make_params(embed_dim=2, num_layers=1, num_entities=5)
        cand_e = np.array([[4, 0, 2]])
        config_off = small_config(embed_dim=2, relation_loss=False)
        fix_negatives(cand_e[:, 1:])
        loss, _ = loss_and_grad_map(params, np.array([[3, 1, 4]]), config_off)
        oracle = self.composed_oracle(params, 3, 1, 4, None, cand_e[0], False)
        assert loss == pytest.approx(oracle, abs=1e-12)

    def test_finite_and_nonnegative_on_random_init(self):
        params = make_params(num_entities=8, num_relations=6, embed_dim=4)
        rng = np.random.default_rng(0)
        config = small_config()
        loss, _ = loss_and_grad_map(params, np.array([[1, 2, 3]]), config, negative_rng=rng)
        assert np.isfinite(loss) and loss >= 0.0


    @pytest.mark.parametrize("shared", [False, True])
    def test_non_finite_scores_rejected_in_both_negative_modes(self, shared):
        params = make_params(num_entities=6, num_relations=4)
        params.entity_out_w[2, 0] = np.inf  # the true object of the first row
        config = small_config(shared_negatives=shared, entity_negatives=5)
        with pytest.raises(ValueError, match="requires finite scores"):
            loss_and_grad_map(
                params, np.array([[0, 1, 2], [3, 0, 1]]), config,
                negative_rng=np.random.default_rng(0),
            )


class TestNegativeModes:
    """A shared-negative step against per-example steps over the same sets."""

    def setup_method(self):
        self.params = make_params(num_entities=8, num_relations=6, num_layers=2)
        self.batch = np.array([[0, 1, 2], [3, 0, 1], [5, 2, 4], [7, 3, 0]])
        self.config = small_config(num_layers=2, entity_negatives=4, relation_negatives=3)
        self.shared_loss, self.shared_grads = loss_and_grad_map(
            self.params, self.batch, dataclasses.replace(self.config, shared_negatives=True),
            negative_rng=np.random.default_rng(3),
        )
        rng = np.random.default_rng(3)  # the shared step's draws, entity set first
        self.neg_e = log_uniform_sample(8, 4, None, rng)
        self.neg_r = log_uniform_sample(6, 3, None, rng)
        # Some rows' true labels are among the shared negatives.
        assert np.isin(self.batch[:, 2], self.neg_e).any()
        assert np.isin(self.batch[:, 1], self.neg_r).any()

    def test_shared_step_equals_per_example_step_with_the_shared_set(self, fix_negatives):
        rows = len(self.batch)
        fix_negatives(np.tile(self.neg_e, (rows, 1)), np.tile(self.neg_r, (rows, 1)))
        loss, grads = loss_and_grad_map(
            self.params, self.batch, self.config, negative_rng=np.random.default_rng(3)
        )
        assert loss == self.shared_loss
        for (name, got), (_, want) in zip(named_tensors(grads), named_tensors(self.shared_grads)):
            assert np.array_equal(got, want), name

    def test_shared_negative_equal_to_a_label_leaves_that_row(self, fix_negatives):
        row_sets = [(self.neg_e[self.neg_e != o], self.neg_r[self.neg_r != r])
                    for _, r, o in self.batch]
        fix_negatives(*(negatives[None, :] for pair in row_sets for negatives in pair))
        rows = [
            loss_and_grad_map(
                self.params, np.array([[s, r, o]]),
                dataclasses.replace(self.config, entity_negatives=len(neg_e),
                                    relation_negatives=len(neg_r)),
            )
            for (s, r, o), (neg_e, neg_r) in zip(self.batch, row_sets)
        ]
        assert self.shared_loss == pytest.approx(np.mean([loss for loss, _ in rows]), rel=1e-12)
        for name, got in named_tensors(self.shared_grads):
            want = np.mean([grads.tensors[name] for _, grads in rows], axis=0)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-15), name


def finite_difference_max_error(params, batch, config, coords_per_tensor=None,
                                negative_seed=None):
    """Worst relative error of the analytic grads against central differences.

    The negatives are either fixed by ``fix_negatives`` or drawn from a
    generator re-seeded with ``negative_seed`` for every loss call, so each
    call sees the same negative sets.
    """
    def loss_and_grads():
        rng = None if negative_seed is None else np.random.default_rng(negative_seed)
        return loss_and_grad_map(params, batch, config, negative_rng=rng)

    _, grads = loss_and_grads()
    step = 1e-5
    worst = 0.0
    rng = np.random.default_rng(0)
    for (name, tensor), (_, grad) in zip(named_tensors(params), named_tensors(grads)):
        flat, gflat = tensor.reshape(-1), grad.reshape(-1)
        indices = np.arange(flat.size)
        if coords_per_tensor is not None and flat.size > coords_per_tensor:
            indices = rng.choice(flat.size, size=coords_per_tensor, replace=False)
        for i in indices:
            original = flat[i]
            flat[i] = original + step
            up = loss_and_grads()[0]
            flat[i] = original - step
            down = loss_and_grads()[0]
            flat[i] = original
            numeric = (up - down) / (2 * step)
            err = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, err)
    return worst


class TestBackward:
    def test_finite_differences_two_layer(self, fix_negatives):
        params = make_params(num_entities=6, num_relations=4, embed_dim=3, num_layers=2)
        batch = np.array([[0, 1, 2], [3, 0, 1], [5, 2, 4]])
        cand_e = np.array([[2, 0, 4], [1, 3, 5], [4, 0, 2]])
        cand_r = np.array([[1, 0, 3], [0, 2, 1], [2, 3, 0]])
        config = small_config(embed_dim=3, num_layers=2)
        fix_negatives(cand_e[:, 1:], cand_r[:, 1:])
        worst = finite_difference_max_error(params, batch, config, coords_per_tensor=24)
        assert worst < 1e-4

    def test_finite_differences_shared_arch(self, fix_negatives):
        params = make_params(num_entities=6, num_relations=4, embed_dim=3,
                             num_layers=2, arch="shared")
        batch = np.array([[0, 1, 2], [3, 0, 1]])
        cand_e = np.array([[2, 0, 4], [1, 3, 5]])
        cand_r = np.array([[1, 0, 3], [0, 2, 1]])
        config = small_config(embed_dim=3, num_layers=2, arch="shared")
        fix_negatives(cand_e[:, 1:], cand_r[:, 1:])
        worst = finite_difference_max_error(params, batch, config, coords_per_tensor=24)
        assert worst < 1e-4

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("correction", [False, True])
    def test_finite_differences_sampled_negatives(self, shared, correction):
        params = make_params(num_entities=6, num_relations=4, embed_dim=3, num_layers=2)
        batch = np.array([[0, 1, 2], [3, 0, 1], [5, 2, 4]])
        config = small_config(embed_dim=3, num_layers=2, entity_negatives=3,
                              shared_negatives=shared, sampling_correction=correction)
        if shared:  # some row's true label is among the shared negatives
            rng = np.random.default_rng(7)
            neg_e = log_uniform_sample(6, 3, None, rng)
            neg_r = log_uniform_sample(4, 2, None, rng)
            assert np.isin(batch[:, 2], neg_e).any() and np.isin(batch[:, 1], neg_r).any()
        worst = finite_difference_max_error(
            params, batch, config, coords_per_tensor=24, negative_seed=7
        )
        assert worst < 1e-4

    def test_grads_hold_exactly_the_architecture_tensors(self, fix_negatives):
        batch = np.array([[0, 1, 2], [3, 0, 1]])
        cand_e = np.array([[2, 0, 4], [1, 3, 5]])
        cand_r = np.array([[1, 0, 3], [0, 2, 1]])
        fix_negatives(cand_e[:, 1:], cand_r[:, 1:])
        for arch in ("dskg", "shared"):
            params = make_params(num_layers=2, arch=arch)
            _, grads = loss_and_grad_map(params, batch, small_config(num_layers=2, arch=arch))
            shapes = tensor_shapes(6, 4, 4, 2, arch)
            assert [(n, t.shape) for n, t in named_tensors(grads)] == list(shapes.items())
            assert all(np.all(np.isfinite(t)) for _, t in named_tensors(grads))

    def test_shared_stack_accumulates_both_timesteps(self, fix_negatives):
        batch = np.array([[0, 1, 2], [3, 0, 1]])
        cand_e = np.array([[2, 0, 4], [1, 3, 5]])
        cand_r = np.array([[1, 0, 3], [0, 2, 1]])
        fix_negatives(cand_e[:, 1:], cand_r[:, 1:])
        dskg, shared = equalized_pair(make_params(num_layers=2))
        _, g_dskg = loss_and_grad_map(dskg, batch, small_config(num_layers=2))
        _, g_shared = loss_and_grad_map(shared, batch, small_config(num_layers=2, arch="shared"))
        for layer in range(2):
            for field in ("w_x", "w_h", "b"):
                # Step 1 runs from the zero state, so only step 2 adds to w_h.
                both = g_dskg.tensors[f"relation_cells.{layer}.{field}"]
                if field != "w_h":
                    both = both + g_dskg.tensors[f"entity_cells.{layer}.{field}"]
                assert np.allclose(g_shared.tensors[f"shared_cells.{layer}.{field}"], both,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("arch", ["dskg", "shared"])
    @pytest.mark.parametrize("shared", [False, True])
    def test_every_stored_tensor_gets_a_gradient(self, tiny_dataset, arch, shared):
        # A stored tensor with no gradient would never train. Step 1 runs from
        # the zero state, so a stack run only at step 1 must store no w_h.
        config = TrainConfig(arch=arch, shared_negatives=shared)
        params = init_params(tiny_dataset.vocab.num_entities, tiny_dataset.vocab.num_relations,
                             config.embed_dim, config.num_layers, arch=config.arch,
                             seed=config.seed)
        _, grads = loss_and_grad_map(
            params, tiny_dataset.train, config,
            negative_rng=np.random.default_rng(1), dropout_rng=np.random.default_rng(2),
        )
        for name, grad in named_tensors(grads):
            assert np.any(grad), name

    def test_saturated_softmax_kills_gradient(self, fix_negatives):
        params = make_params(num_entities=6, num_relations=4)
        params.entity_out_b[2] = 1e6
        params.relation_out_b[1] = 1e6
        batch = np.array([[0, 1, 2]])
        cand_e = np.array([[2, 0, 4]])
        cand_r = np.array([[1, 0, 3]])
        fix_negatives(cand_e[:, 1:], cand_r[:, 1:])
        _, grads = loss_and_grad_map(params, batch, small_config())
        for _, grad in named_tensors(grads):
            assert np.max(np.abs(grad)) < 1e-9

    def test_untouched_embedding_rows_zero(self, fix_negatives):
        params = make_params(num_entities=6, num_relations=4)
        batch = np.array([[0, 1, 2]])
        fix_negatives(np.array([[3, 4]]), np.array([[0, 2]]))
        _, grads = loss_and_grad_map(params, batch, small_config())
        assert np.all(grads.entity_embed[5] == 0)
        assert np.all(grads.relation_embed[3] == 0)
        assert np.any(grads.entity_embed[0] != 0)

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["bias", "rows"])
    def test_row_grad_equals_add_at_into_the_whole_table(self, shape):
        # Skewed ids: one id repeated many times, then the distinct extra ids.
        rng = np.random.default_rng(8)
        ids = np.array([4] * 50 + [0, 7, 4, 2, 7])
        more_ids = np.array([9, 4, 1])
        d_rows = rng.normal(size=(len(ids), *shape)).astype(np.float32)
        more_rows = rng.normal(size=(len(more_ids), *shape)).astype(np.float32)
        table = np.zeros((10, *shape), dtype=np.float32)
        np.add.at(table, ids, d_rows)
        table[more_ids] += more_rows
        grad, rows = training._row_grad(ids, d_rows, more_ids, more_rows)
        assert list(rows) == [0, 1, 2, 4, 7, 9]
        whole = np.zeros_like(table)
        whole[rows] = grad
        assert whole.tobytes() == table.tobytes()

    def test_empty_batch_rejected(self):
        params = make_params()
        with pytest.raises(ValueError, match="non-empty batch"):
            loss_and_grad_map(params, np.empty((0, 3), dtype=int), small_config())


def adam_over(state, learning_rate, grads):
    """One optimizer step as ``train()`` takes it: count the step, then run
    ``adam_step`` on each tensor of a whole gradient map."""
    state.step += 1
    for name, grad in named_tensors(grads):
        adam_step(state, learning_rate, name, grad)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = init_params(4, 3, 3, 1, seed=0, dtype=np.float64)
        before = {name: t.copy() for name, t in named_tensors(params)}
        adam_over(fresh_state(params), 0.1, params.zeros_like())
        for name, tensor in named_tensors(params):
            assert np.array_equal(tensor, before[name])

    def test_single_step_closed_form(self):
        params = init_params(1, 1, 1, 1, seed=0, dtype=np.float64)
        grad = np.zeros_like(params.entity_out_b)
        grad[0] = 1.0
        before = params.entity_out_b[0].copy()
        adam_step(fresh_state(params, step=1), 0.001, "entity_out_b", grad)
        # m_hat = 1, v_hat = 1 after bias correction
        expected = before - 0.001 * 1.0 / (1.0 + 1e-8)
        assert params.entity_out_b[0] == pytest.approx(expected, abs=1e-15)

    def test_constant_gradient_step_magnitude_approaches_rate(self):
        params = init_params(2, 2, 2, 1, seed=0, dtype=np.float64)
        grads = params.zeros_like()
        for _, g in named_tensors(grads):
            g[...] = 1.0
        state = fresh_state(params)
        rate = 0.05
        previous = None
        for _ in range(1000):
            previous = params.entity_embed.copy()
            adam_over(state, rate, grads)
        delta = params.entity_embed - previous
        assert np.allclose(np.abs(delta), rate, atol=1e-3 * rate + 1e-3)
        assert np.all(delta < 0)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_update_equals_one_shot_formula(self, dtype):
        rng = np.random.default_rng(5)
        size = 3 * ADAM_BLOCK + 17
        params = ModelParams(
            {"entity_embed": rng.normal(size=(size, 1)).astype(dtype),
             "entity_out_b": rng.normal(size=3).astype(dtype)},
            "dskg", 1,
        )
        expected = {name: t.copy() for name, t in named_tensors(params)}
        first = {name: np.zeros_like(t) for name, t in expected.items()}
        second = {name: np.zeros_like(t) for name, t in expected.items()}
        state = fresh_state(params)
        rate = 0.01
        for step in range(1, 6):
            grads = ModelParams(
                {name: rng.normal(size=t.shape).astype(dtype) for name, t in named_tensors(params)},
                "dskg", 1,
            )
            adam_over(state, rate, grads)
            beta1, beta2 = training.ADAM_BETA1, training.ADAM_BETA2
            correct1 = 1.0 - beta1 ** step
            correct2 = 1.0 - beta2 ** step
            for name, grad in named_tensors(grads):
                first[name] = beta1 * first[name] + (1.0 - beta1) * grad
                second[name] = beta2 * second[name] + (1.0 - beta2) * (grad * grad)
                expected[name] = expected[name] - rate * (first[name] / correct1) / (
                    np.sqrt(second[name] / correct2) + training.ADAM_EPS
                )
        for name, tensor in named_tensors(params):
            assert tensor.dtype == dtype
            assert np.array_equal(tensor, expected[name])
            assert np.array_equal(state.first.tensors[name], first[name])
            assert np.array_equal(state.second.tensors[name], second[name])
        assert state.step == 5


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_update_equals_the_whole_tensor_update(self, dtype):
        # Rows straddle block edges; every other row's gradient is zero, and
        # some given gradient entries are -0.0.
        rng = np.random.default_rng(6)
        width = 3
        size = 3 * (ADAM_BLOCK // width) + 17
        start = {"entity_embed": rng.normal(size=(size, width)).astype(dtype),
                 "entity_out_b": rng.normal(size=size).astype(dtype)}
        whole = fresh_state(ModelParams({n: t.copy() for n, t in start.items()}, "dskg", 1))
        sparse = fresh_state(ModelParams({n: t.copy() for n, t in start.items()}, "dskg", 1))
        for _ in range(4):
            whole.step += 1
            sparse.step += 1
            for name, tensor in start.items():
                rows = np.unique(np.concatenate([
                    rng.choice(size, 40), [0, ADAM_BLOCK // width - 1, ADAM_BLOCK // width, size - 1],
                ]))
                grad = rng.normal(size=(len(rows), *tensor.shape[1:])).astype(dtype)
                grad[::7] = -0.0
                dense = np.zeros_like(tensor)
                dense[rows] = grad
                adam_step(whole, 0.01, name, dense)
                adam_step(sparse, 0.01, name, grad, rows)
        for kind in ("params", "first", "second"):
            for name in start:
                got = getattr(sparse, kind).tensors[name]
                assert got.tobytes() == getattr(whole, kind).tensors[name].tobytes(), (kind, name)

    def test_non_finite_gradient_raises_before_any_update(self):
        params = init_params(4, 3, 3, 1, seed=0, dtype=np.float64)
        state = fresh_state(params, step=1)
        before = [m.copy() for m in (state.params, state.first, state.second)]
        grad = np.ones_like(params.entity_out_b)
        grad[2] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient in entity_out_b"):
            adam_step(state, 0.1, "entity_out_b", grad)
        for kept, now in zip(before, (state.params, state.first, state.second)):
            for name, tensor in named_tensors(now):
                assert np.array_equal(tensor, kept.tensors[name]), name


def memorizable_kg(n_triples=50, n_relations=5):
    """Each subject appears once, so relation and object are both functions."""
    train = []
    for i in range(n_triples):
        train.append(RawTriple(f"s{i:02d}", f"rel{i % n_relations}", f"o{i:02d}"))
    return index_dataset(train)


def rising_metric():
    """A validation metric that improves at every evaluation."""
    calls = itertools.count(1)
    return lambda params: (float(next(calls)), 0.0)


class TestTrainLoop:
    def test_epoch_cap_zero_returns_initial_params(self, tiny_dataset):
        config = small_config(epochs=0, seed=9, precision="standard")
        result = train(tiny_dataset, config)
        assert result.log == []
        assert result.epoch == result.step == 0
        assert result.best is None
        reference = init_params(
            tiny_dataset.vocab.num_entities, tiny_dataset.vocab.num_relations,
            config.embed_dim, config.num_layers, arch=config.arch, seed=9, dtype=np.float32,
        )
        for (_, got), (_, want) in zip(named_tensors(result.best_params),
                                       named_tensors(reference)):
            assert np.array_equal(got, want)

    def test_memorizable_set_loss_drops_ninety_percent(self):
        ds = memorizable_kg(50)
        config = TrainConfig(
            learning_rate=0.01, batch_size=25, embed_dim=32, num_layers=1,
            keep_prob=1.0, epochs=200, eval_interval=1000, patience=1000, seed=0,
        )
        result = train(ds, config)
        first = float(result.log[0].split("\t")[1])
        last = float(result.log[-1].split("\t")[1])
        assert last < 0.10 * first

    def test_patience_counts_non_improving_evaluations(self, tiny_dataset):
        calls = []

        def frozen_metric(params):
            calls.append(1)
            return 50.0, 50.0

        config = small_config(epochs=100, patience=3, eval_interval=1, precision="standard")
        result = train(tiny_dataset, config, val_metric_fn=frozen_metric)
        # first evaluation sets the best; exactly three more happen afterwards
        assert len(calls) == 4
        assert result.epoch == 4
        assert result.best_val_mrr == 50.0
        assert result.bad_evals == 3

    def test_eval_interval_spacing(self, tiny_dataset):
        calls = []

        def frozen_metric(params):
            calls.append(1)
            return 10.0, 10.0

        config = small_config(epochs=10, patience=2, eval_interval=5, precision="standard")
        train(tiny_dataset, config, val_metric_fn=frozen_metric)
        assert len(calls) == 2  # epochs 5 and 10

    def test_seed_determinism_of_log(self, tiny_dataset):
        config = small_config(epochs=4, precision="standard", seed=3, keep_prob=0.5)
        first = train(tiny_dataset, config, val_metric_fn=rising_metric())
        second = train(tiny_dataset, config, val_metric_fn=rising_metric())
        strip = lambda log: [line.split("\t")[:4] for line in log]
        assert strip(first.log) == strip(second.log)
        # Every evaluation improves, so ``best_params`` are the last epoch's weights.
        for (_, a), (_, b) in zip(named_tensors(first.best_params),
                                  named_tensors(second.best_params)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("relation_loss", [True, False])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("arch", ["dskg", "shared"])
    def test_train_equals_adam_over_whole_gradient_maps(
        self, tiny_dataset, arch, shared, relation_loss
    ):
        # train() updates each tensor as soon as the backward hands its
        # gradient over; the rest of the backward must not read the update.
        # The reference collects a step's whole map first, then runs Adam.
        config = small_config(
            arch=arch, num_layers=2, shared_negatives=shared, relation_loss=relation_loss, epochs=3,
            eval_interval=4, keep_prob=0.5, precision="standard", seed=5,
        )
        result = train(tiny_dataset, config)

        params = init_params(tiny_dataset.vocab.num_entities, tiny_dataset.vocab.num_relations,
                             config.embed_dim, config.num_layers, arch=config.arch,
                             seed=config.seed)
        state = fresh_state(params)
        for epoch in range(1, config.epochs + 1):
            negative_rng = np.random.default_rng([config.seed, 2, epoch])
            dropout_rng = np.random.default_rng([config.seed, 3, epoch])
            for batch in data.batch_iterator(tiny_dataset.train, config.batch_size,
                                             seed=[config.seed, 1, epoch]):
                _, grads = loss_and_grad_map(params, batch, config, negative_rng=negative_rng,
                                             dropout_rng=dropout_rng)
                adam_over(state, config.learning_rate, grads)
        assert state.step == result.step == 9  # 3 steps of 4, 4 and 2 rows
        for name, tensor in named_tensors(params):
            assert np.array_equal(result.params.tensors[name], tensor), name
            assert np.array_equal(result.first.tensors[name], state.first.tensors[name]), name
            assert np.array_equal(result.second.tensors[name], state.second.tensors[name]), name

    def test_a_step_holds_no_gradient_map(self, monkeypatch):
        # Many entities and a small batch, so the parameter maps dwarf the
        # step's caches. Params and both Adam moments are three maps. A step
        # holds one gradient at a time (a table's only at the rows the batch
        # touched) and its caches; a whole gradient map would not fit.
        num_entities = 20_000
        raw = [RawTriple(f"e{i}", f"r{i % 4}", f"e{(i + 1) % num_entities}")
               for i in range(num_entities)]
        dataset = index_dataset(raw[:32], vocab=data.build_vocabulary(raw))
        config = TrainConfig(embed_dim=32, batch_size=64, epochs=2, eval_interval=3,
                             shared_negatives=True)
        shapes = tensor_shapes(num_entities, dataset.vocab.num_relations, config.embed_dim,
                               config.num_layers, config.arch)
        map_bytes = 4 * sum(math.prod(shape) for shape in shapes.values())
        peaks = []

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            out = batch_loss_and_grads(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(training, "batch_loss_and_grads", traced)
        tracemalloc.start()
        try:
            train(dataset, config)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        held = peaks[1] - 3 * map_bytes
        assert held < map_bytes, (held, map_bytes)

    def test_a_libc_without_mallopt_trains_the_same(self, tiny_dataset, monkeypatch):
        """Training and every scoring pass (ranking at 1 and 2 workers, both
        beam stages) give the same results when the malloc pin cannot be set."""
        config = small_config(epochs=2, keep_prob=0.5, precision="standard")
        beam_config = BeamConfig(stage1_window=6, stage2_window=20)

        def run():
            state = train(tiny_dataset, config)
            outputs = []
            for workers in (1, 2):
                reports = evaluate_variants(
                    state.params, tiny_dataset, keep_ranks=True, chunk=1, workers=workers
                )
                outputs += [(r.ranks, r.relation_ranks) for r in reports.values()]
                pairs = stage1_pairs(state.params, beam_config, entity_chunk=1, workers=workers)
                triples = stage2_triples(
                    state.params, pairs, beam_config, pair_chunk=1, workers=workers
                )
                outputs += [(out.triples, out.scores) for out in (pairs, triples)]
            return state, outputs

        want, want_outputs = run()

        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(model.ctypes, "CDLL", no_libc)
        got, got_outputs = run()
        assert [line.split("\t")[:4] for line in got.log] == [
            line.split("\t")[:4] for line in want.log]
        for name, tensor in named_tensors(want.params):
            assert np.array_equal(got.params.tensors[name], tensor), name
        for got_pair, want_pair in zip(got_outputs, want_outputs, strict=True):
            for got_array, want_array in zip(got_pair, want_pair, strict=True):
                assert np.array_equal(got_array, want_array)

    def test_log_file_append(self, tiny_dataset, tmp_path):
        config = small_config(epochs=2, precision="standard")
        log_path = tmp_path / "train.log"
        result = train(tiny_dataset, config, log_path=log_path)
        lines = log_path.read_text().strip().split("\n")
        assert lines == result.log
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_fresh_run_replaces_the_log(self, tiny_dataset, tmp_path):
        log_path = tmp_path / "train.log"
        train(tiny_dataset, small_config(epochs=3, precision="standard"), log_path=log_path)
        second = train(tiny_dataset, small_config(epochs=2, precision="standard", seed=1),
                       log_path=log_path)
        assert log_path.read_text() == "".join(line + "\n" for line in second.log)

    @pytest.mark.parametrize("counts, message", [
        (dict(entity_negatives=0), r"entity_negatives must be in \[1, 4\), got 0"),
        (dict(relation_negatives=4), r"relation_negatives must be in \[1, 4\), got 4"),
    ], ids=["entity_zero", "relation_lexicon_size"])
    def test_bad_negative_counts_rejected_before_the_log_is_opened(
        self, tiny_dataset, tmp_path, counts, message
    ):
        config = small_config(epochs=0, precision="standard", **counts)
        with pytest.raises(ValueError, match=message):
            train(tiny_dataset, config, log_path=tmp_path / "train.log")
        assert not (tmp_path / "train.log").exists()

    @pytest.mark.parametrize("arch", ["dskg", "shared"])
    def test_returned_state_accounts(self, tiny_dataset, monkeypatch, arch):
        calls = []

        def counted(state, learning_rate, name, grad, rows=None):
            calls.append((state.step, name))
            adam_step(state, learning_rate, name, grad, rows)

        monkeypatch.setattr(training, "adam_step", counted)
        config = small_config(arch=arch, num_layers=2, epochs=10, patience=2,
                              precision="standard")
        state = train(tiny_dataset, config, val_metric_fn=lambda params: (50.0, 0.0))
        # The first evaluation improves, the next two do not: patience ends epoch 3.
        assert state.epoch == len(state.log) == 3
        per_epoch = math.ceil(len(tiny_dataset.train) / config.batch_size)
        assert state.step == 3 * per_epoch
        # Each step updates every tensor exactly once.
        assert sorted(calls) == sorted((step, name) for step in range(1, state.step + 1)
                                       for name in state.params.tensors)
        assert (state.best_val_mrr, state.bad_evals) == (50.0, 2)
        layout = [(name, t.shape, t.dtype) for name, t in named_tensors(state.params)]
        for kept in (state.first, state.second, state.best):
            assert [(name, t.shape, t.dtype) for name, t in named_tensors(kept)] == layout

    def test_nan_validation_mrr_is_never_the_best(self, tiny_dataset, tmp_path):
        scores = iter([float("nan"), 10.0, 5.0, float("nan")])
        evaluated = []

        def metric(params):
            evaluated.append(params.copy())
            return next(scores), 0.0

        config = small_config(epochs=10, patience=2, precision="standard")
        checkpoint = tmp_path / "checkpoint.dskg"
        state = train(tiny_dataset, config, checkpoint_path=checkpoint, val_metric_fn=metric)
        assert state.best_val_mrr == 10.0
        # 5.0 and the second NaN are two non-improving evaluations: patience 2 ends epoch 4.
        assert (state.epoch, state.bad_evals) == (4, 2)
        saved = load_checkpoint(checkpoint)
        for name, tensor in named_tensors(saved):
            assert np.array_equal(tensor, evaluated[1].tensors[name]), name
            assert np.array_equal(state.best_params.tensors[name], tensor), name
        assert not np.array_equal(state.params.entity_embed, evaluated[1].entity_embed)

    def test_best_checkpoint_tracks_peak(self, tiny_dataset):
        scores = iter([10.0, 30.0, 20.0, 5.0, 1.0])

        def metric(params):
            return next(scores), 0.0

        config = small_config(epochs=5, patience=3, eval_interval=1, precision="standard")
        result = train(tiny_dataset, config, val_metric_fn=metric)
        assert result.best_val_mrr == 30.0


class TestTypePurity:
    def test_negatives_stay_in_their_lexicon_over_an_epoch(self, tiny_dataset):
        rng = np.random.default_rng(0)
        num_entities = tiny_dataset.vocab.num_entities
        num_relations = tiny_dataset.vocab.num_relations
        from dskg.sampling import negatives_for_batch

        for batch in data.batch_iterator(tiny_dataset.train, 4, seed=1):
            ent = negatives_for_batch(batch[:, 2], num_entities, 2, rng)
            rel = negatives_for_batch(batch[:, 1], num_relations, 2, rng)
            assert ent.min() >= 0 and ent.max() < num_entities
            assert rel.min() >= 0 and rel.max() < num_relations


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(learning_rate=0.0), "learning_rate must be positive and finite, got 0.0"),
            (dict(learning_rate=float("nan")), "learning_rate must be positive and finite, got nan"),
            (dict(learning_rate=float("inf")), "learning_rate must be positive and finite, got inf"),
            (dict(keep_prob=0.0), "keep_prob must be in (0, 1], got 0.0"),
            (dict(keep_prob=1.5), "keep_prob must be in (0, 1], got 1.5"),
            (dict(arch="deep"), "arch must be one of ('dskg', 'shared'), got 'deep'"),
            (dict(precision="float16"),
             "precision must be one of ('standard', 'high'), got 'float16'"),
            (dict(batch_size=0), "batch_size must be >= 1, got 0"),
            (dict(epochs=-1), "epochs must be >= 0, got -1"),
            (dict(patience=0), "patience must be >= 1, got 0"),
            (dict(eval_interval=0), "eval_interval must be >= 1, got 0"),
            (dict(embed_dim=0), "embed_dim must be >= 1, got 0"),
            (dict(num_layers=0), "layers must be in 1..4, got 0"),
            (dict(num_layers=5), "layers must be in 1..4, got 5"),
        ],
    )
    def test_bad_values_name_the_option_and_the_value(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            TrainConfig(**kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize("arch", ["shared-2", "shared-4"])
    def test_arch_names_hold_no_layer_count(self, arch):
        with pytest.raises(ValueError) as raised:
            TrainConfig(arch=arch)
        assert str(raised.value) == f"arch must be one of ('dskg', 'shared'), got {arch!r}"

    @pytest.mark.parametrize("arch", ["dskg", "shared"])
    def test_num_layers_is_the_layer_count(self, tiny_dataset, arch):
        state = train(tiny_dataset, small_config(arch=arch, num_layers=3))
        assert (state.params.arch, state.params.num_layers) == (arch, 3)

    def test_negative_counts_validated_against_vocab(self):
        config = TrainConfig(entity_negatives=10)
        with pytest.raises(ValueError):
            config.resolve_negatives(5, 40)
        assert TrainConfig().resolve_negatives(5, 40) == (4, 39)
        assert TrainConfig().resolve_negatives(10_000, 2_000) == (512, 512)
