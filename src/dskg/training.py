"""Training: sampled-softmax losses, exact gradients, Adam, early stopping.

Each training sequence (s, r, o) contributes up to two loss terms: predicting
r from the entity-step output and predicting o from the relation-step output,
each as a sampled softmax over the true label plus type-matched log-uniform
negatives (Jean et al. 2015). The negatives are one set shared by the batch
(``--shared-negatives``) or one set per example; one forward term
(``_loss_term``) and one backward term (``_backward_term``) serve both, by
scoring the batch's distinct negative columns once as a (batch, columns)
block. Gradients are reverse-mode through the whole graph, computed by hand
against the forward caches, so they can be checked against finite
differences in float64.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import IndexedDataset, batch_iterator
from .model import (
    ARCH_DSKG,
    ARCH_SHARED,
    MAX_LAYERS,
    STEP_STACKS,
    ModelParams,
    _pin_malloc,
    active_cells,
    apply_mask,
    forward_batch,
    init_params,
    lstm_backward,
    save_checkpoint,
)
from .sampling import log_uniform_probs, log_uniform_sample, negatives_for_batch

ARCH_CHOICES = (ARCH_DSKG, ARCH_SHARED)
PRECISION_CHOICES = ("standard", "high")
DEFAULT_NEGATIVES = 512
TRAIN_ALIASES = {"num_layers": "layers"}  # TrainConfig field -> option name


@dataclass
class TrainConfig:
    """Hyperparameters and variant switches."""

    learning_rate: float = 0.001
    batch_size: int = 2048
    embed_dim: int = 512
    num_layers: int = 2
    keep_prob: float = 0.5
    entity_negatives: int | None = None
    relation_negatives: int | None = None
    arch: str = ARCH_DSKG  # or ARCH_SHARED: one stack serves both timesteps
    relation_loss: bool = True
    epochs: int = 100
    eval_interval: int = 1
    patience: int = 3
    seed: int = 0
    shared_negatives: bool = False
    sampling_correction: bool = False
    precision: str = "standard"

    def __post_init__(self):
        for name, ok, rule in (
            ("learning_rate", 0.0 < self.learning_rate < np.inf, "must be positive and finite"),
            ("keep_prob", 0.0 < self.keep_prob <= 1.0, "must be in (0, 1]"),
            ("arch", self.arch in ARCH_CHOICES, f"must be one of {ARCH_CHOICES}"),
            ("precision", self.precision in PRECISION_CHOICES, f"must be one of {PRECISION_CHOICES}"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
            ("patience", self.patience >= 1, "must be >= 1"),
            ("eval_interval", self.eval_interval >= 1, "must be >= 1"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("embed_dim", self.embed_dim >= 1, "must be >= 1"),
            ("num_layers", 1 <= self.num_layers <= MAX_LAYERS, f"must be in 1..{MAX_LAYERS}"),
        ):
            if not ok:
                raise ValueError(f"{TRAIN_ALIASES.get(name, name)} {rule}, got {getattr(self, name)!r}")

    def numpy_dtype(self):
        return np.float64 if self.precision == "high" else np.float32

    def resolve_negatives(self, num_entities: int, num_relations: int) -> tuple[int, int]:
        n_e = self.entity_negatives
        n_r = self.relation_negatives
        if n_e is None:
            n_e = min(DEFAULT_NEGATIVES, num_entities - 1)
        if n_r is None:
            n_r = min(DEFAULT_NEGATIVES, num_relations - 1)
        if not 1 <= n_e < num_entities:
            raise ValueError(f"entity_negatives must be in [1, {num_entities}), got {n_e}")
        if not 1 <= n_r < num_relations:
            raise ValueError(f"relation_negatives must be in [1, {num_relations}), got {n_r}")
        return n_e, n_r


def _columns(neg: np.ndarray, lexicon_size: int):
    """Distinct ids of ``neg`` in first-seen order, and each entry's column.

    One shared negative set ``(k,)`` is already distinct and in order, so it
    is its own column list and every row's positions are ``arange(k)``;
    ``None`` stands for them, which spares the row gather and scatter.
    """
    if neg.ndim == 1:
        return neg, None
    flat = neg.reshape(-1)
    first = np.full(lexicon_size, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    cols = flat[np.sort(first[first < flat.size])]
    column = np.empty(lexicon_size, dtype=np.int64)
    column[cols] = np.arange(len(cols))
    return cols, column[neg]


def _loss_term(weight, bias, h, true_ids, neg, log_q):
    """Per-row sampled-softmax loss over the true label plus its negatives.

    ``neg`` is ``(k,)`` when the batch shares one negative set and ``(B, k)``
    when each row has its own. The distinct negative columns are scored once
    as a ``(B, C)`` block and each row gathers its own scores from it. A
    negative that equals a row's true label is masked out of that row (score
    -inf), which zeroes both its probability and its gradient. Returns the
    per-row losses and, for ``_backward_term``, the rows' softmax over
    ``[true, negatives...]``.
    """
    cols, pos = _columns(neg, len(weight))
    block = h @ weight[cols].T
    block += bias[cols]
    scores = np.empty((len(h), 1 + neg.shape[-1]))
    scores[:, 0] = np.einsum("bk,bk->b", h, weight[true_ids]) + bias[true_ids]
    scores[:, 1:] = block if pos is None else block[np.arange(len(h))[:, None], pos]
    if log_q is not None:
        scores[:, 0] -= log_q[true_ids]
        scores[:, 1:] -= log_q[neg]
    # Checked before the collision mask writes its -inf entries.
    if not np.all(np.isfinite(scores)):
        raise ValueError("sampled-softmax loss requires finite scores")
    scores[:, 1:][neg == true_ids[:, None]] = -np.inf
    top = scores.max(axis=1, keepdims=True)
    probs = np.exp(scores - top)
    total = probs.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0]) + top[:, 0] - scores[:, 0]
    probs /= total
    return losses, (cols, pos, probs)


def _backward_term(apply, kind, weight, h, true_ids, term, batch_size):
    """Hand one term's output-block grads to ``apply``; return its grad w.r.t. ``h``.

    The negatives' row gradients are written back into a ``(B, C)`` block,
    so ``dh`` and ``dW[cols]`` each come from one matmul. A row's negatives
    are distinct, so the write needs no accumulation.
    """
    cols, pos, probs = term
    probs[:, 0] -= 1.0
    probs /= batch_size
    dscores = probs.astype(h.dtype)
    if pos is None:
        block = dscores[:, 1:]
    else:
        block = np.zeros((len(h), len(cols)), dtype=h.dtype)
        block[np.arange(len(h))[:, None], pos] = dscores[:, 1:]
    dh = dscores[:, :1] * weight[true_ids] + block @ weight[cols]
    apply(f"{kind}_out_w", *_row_grad(true_ids, dscores[:, :1] * h, cols, block.T @ h))
    apply(f"{kind}_out_b", *_row_grad(true_ids, dscores[:, 0], cols, block.sum(axis=0)))
    return dh


def _backward_stack(params, cache, timestep, d_out, carried, apply):
    """One timestep down a stack, the reverse of ``_run_stack``.

    ``carried[layer]`` is the ``(dh, dc)`` a layer's state gets from the next
    timestep, or ``(None, None)``. Hands the cells' grads to ``apply`` by name,
    dropping each layer's cache, mask and carried state after its backward, and
    returns the stack input's gradient and each layer's ``(dh_prev, dc_prev)``.
    """
    stack = STEP_STACKS[params.arch][timestep]
    caches, masks = ((cache.step1, cache.masks1), (cache.step2, cache.masks2))[timestep]
    cells = active_cells(params, timestep)
    to_carry = [None] * len(cells)
    for layer in reversed(range(len(cells))):
        dh_carry, dc_carry = carried[layer]
        dh = d_out if masks[layer] is None else apply_mask(d_out, masks[layer], cache.scale)
        if dh_carry is not None:
            dh = dh + dh_carry
        d_out, dh_prev, dc_prev, g_wx, g_wh, g_b = lstm_backward(
            cells[layer], caches[layer], dh, dc_carry
        )
        caches[layer] = masks[layer] = carried[layer] = None
        apply(f"{stack}.{layer}.w_x", g_wx)
        if g_wh is not None:  # None for a step run from the zero state
            apply(f"{stack}.{layer}.w_h", g_wh)
        apply(f"{stack}.{layer}.b", g_b)
        to_carry[layer] = (dh_prev, dc_prev)
    return d_out, to_carry


def _row_grad(ids, d_rows, more_ids=np.empty(0, dtype=np.int64), more_rows=0.0):
    """A table's gradient rows at its sorted distinct ids, and the ids: ``d_rows``
    added at ``ids`` in batch order (as ``np.add.at``), then ``more_rows``."""
    rows, at = np.unique(np.concatenate([ids, more_ids]), return_inverse=True)
    grad = np.zeros((len(rows), *d_rows.shape[1:]), dtype=d_rows.dtype)
    np.add.at(grad, at[: len(ids)], d_rows)
    grad[at[len(ids):]] += more_rows
    return grad, rows


def _backward_network(params: ModelParams, cache, dh_s, dh_r, apply):
    # The shared stack runs at both timesteps: its step-2 grads are held
    # until step 1 adds its share (none to w_h: step 1 starts from zero).
    held = {}
    def add_held(name, grad):
        apply(name, grad + held.pop(name) if name in held else grad)
    # Relation step first: it feeds gradient back into the entity-step states.
    d_relation, carried = _backward_stack(
        params, cache, 1, dh_r, [(None, None)] * params.num_layers,
        held.__setitem__ if params.arch == ARCH_SHARED else apply)
    apply("relation_embed", *_row_grad(cache.r_ids, d_relation))
    d_entity, _ = _backward_stack(params, cache, 0, dh_s, carried, add_held)
    for name, grad in held.items():
        apply(name, grad)
    apply("entity_embed", *_row_grad(cache.s_ids, d_entity))


def _negatives(labels, lexicon_size, count, shared, rng):
    """Negative ids for one term: one ``(k,)`` set shared by the batch, or a
    ``(B, k)`` set per row."""
    if shared:
        return log_uniform_sample(lexicon_size, count, None, rng)
    return negatives_for_batch(labels, lexicon_size, count, rng)


def batch_loss_and_grads(
    params: ModelParams,
    batch: np.ndarray,
    config: TrainConfig,
    *,
    negative_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
    apply: Callable[..., None],
) -> float:
    """Mean loss over a batch; each tensor's gradient goes to ``apply``.

    Each is handed over once, as soon as the backward has finished it, as a
    fresh array it does not touch again: ``apply(name, grad)`` for a whole
    tensor, ``apply(name, grad, rows)`` for a table's rows at the sorted ids
    ``rows`` the batch touched (its other rows' gradient is zero).

    The negatives are drawn from ``negative_rng`` through this module's
    ``log_uniform_sample`` (shared) or ``negatives_for_batch`` (per example),
    entity set first; replacing those names fixes a step's negatives. Dropout
    is active only when a ``dropout_rng`` is given and ``config.keep_prob < 1``.
    """
    batch = np.asarray(batch)
    if len(batch) == 0:
        raise ValueError("batch_loss_and_grads requires a non-empty batch")
    subjects, relations, objects = batch[:, 0], batch[:, 1], batch[:, 2]
    batch_size = len(batch)
    keep = config.keep_prob if (dropout_rng is not None and config.keep_prob < 1.0) else None
    h_s, h_r, cache = forward_batch(
        params, subjects, relations, keep_prob=keep, rng=dropout_rng
    )

    n_e, n_r = config.resolve_negatives(params.num_entities, params.num_relations)
    log_q_e = log_q_r = None
    if config.sampling_correction:
        log_q_e = np.log(log_uniform_probs(params.num_entities))
        log_q_r = np.log(log_uniform_probs(params.num_relations))

    # Entity negatives are drawn before relation negatives.
    neg_e = _negatives(objects, params.num_entities, n_e, config.shared_negatives, negative_rng)
    total = np.zeros(batch_size, dtype=np.float64)
    rel_term = None
    if config.relation_loss:
        neg_r = _negatives(relations, params.num_relations, n_r, config.shared_negatives,
                           negative_rng)
        losses, rel_term = _loss_term(
            params.relation_out_w, params.relation_out_b, h_s, relations, neg_r, log_q_r
        )
        total += losses
    losses, ent_term = _loss_term(
        params.entity_out_w, params.entity_out_b, h_r, objects, neg_e, log_q_e
    )
    total += losses
    mean_loss = float(total.mean())

    dh_r = _backward_term(apply, "entity", params.entity_out_w, h_r, objects, ent_term, batch_size)
    if config.relation_loss:
        dh_s = _backward_term(apply, "relation", params.relation_out_w, h_s, relations,
                              rel_term, batch_size)
    else:  # the unused block still gets its (zero) gradient, so Adam moves it as ever
        dh_s = np.zeros_like(h_s)
        apply("relation_out_w", np.zeros_like(params.relation_out_w))
        apply("relation_out_b", np.zeros_like(params.relation_out_b))
    # The score blocks are spent: free them before the LSTM backward.
    del ent_term, rel_term

    _backward_network(params, cache, dh_s, dh_r, apply)
    return mean_loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per block: a few hundred KB per operand


@dataclass
class TrainState:
    """Everything one training run advances, step by step and epoch by epoch.

    ``first`` and ``second`` are Adam's moments, laid out like ``params``;
    ``step`` counts the optimizer steps begun. No gradient map is kept: each
    gradient is applied as the backward finishes it. ``best`` copies
    ``params`` only when an evaluation beats ``best_val_mrr``, which starts
    at ``-inf``: a NaN MRR never beats it.
    """

    params: ModelParams
    first: ModelParams
    second: ModelParams
    step: int = 0
    best: ModelParams | None = None
    best_val_mrr: float = -np.inf
    bad_evals: int = 0
    epoch: int = 0
    log: list[str] = field(default_factory=list)

    @property
    def best_params(self) -> ModelParams:
        """The best-validation weights, or the last ones if no evaluation improved."""
        return self.params if self.best is None else self.best


def adam_step(state: TrainState, learning_rate: float, name: str, grad: np.ndarray,
              rows: np.ndarray | None = None):
    """Bias-corrected Adam update, at step ``state.step``, of the tensor ``name``
    of ``state.params`` and its two moments by ``grad``, in place.

    ``grad`` covers the whole tensor or, given sorted distinct ``rows``, those
    rows; the other rows' moments skip adding a zero gradient, which changes
    no bit, as a moment is never ``-0.0``. The tensor is walked in blocks of
    about ``ADAM_BLOCK`` elements, so the operands stay in cache. Per element
    the operations and their order are those of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / correct1) / (sqrt(v / correct2) + eps)

    so the result is the same bits as evaluating it on whole tensors. A
    non-finite ``grad`` raises ``FloatingPointError`` before any update.
    """
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(f"non-finite gradient in {name}")
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    correct1 = 1.0 - beta1 ** state.step
    correct2 = 1.0 - beta2 ** state.step
    # As rows: a 1-D tensor is a column of one-element rows.
    param, first, second, grad = (t.reshape(len(t), -1) for t in (
        state.params.tensors[name], state.first.tensors[name], state.second.tensors[name], grad))
    per_block = max(1, ADAM_BLOCK // param.shape[1])
    buf_a, buf_b = np.empty((2, min(per_block, len(param)), param.shape[1]), param.dtype)
    for lo in range(0, len(param), per_block):
        hi = min(lo + per_block, len(param))
        start, stop = (lo, hi) if rows is None else np.searchsorted(rows, (lo, hi))
        g, at = grad[start:stop], slice(None) if rows is None else rows[start:stop] - lo
        m, v, a, b = first[lo:hi], second[lo:hi], buf_a[: hi - lo], buf_b[: hi - lo]
        m *= beta1
        m[at] += g * (1.0 - beta1)
        v *= beta2
        v[at] += g * g * (1.0 - beta2)
        np.divide(m, correct1, out=a)
        a *= learning_rate
        np.divide(v, correct2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        param[lo:hi] -= a


def train(
    dataset: IndexedDataset,
    config: TrainConfig,
    *,
    log_path=None,
    checkpoint_path=None,
    val_metric_fn: Callable[[ModelParams], tuple[float, float]] | None = None,
    progress: Callable[[str], None] | None = None,
) -> TrainState:
    """Epoch loop with periodic validation and MRR-based early stopping.

    Every ``eval_interval`` epochs the filtered validation MRR is computed
    (``val_metric_fn`` overrides the default metric, mainly for tests); the
    best-scoring parameters are kept and training stops after ``patience``
    consecutive non-improving evaluations or at the epoch cap. Log lines are
    ``epoch, mean_loss, val_MRR, val_Hits@10, elapsed_seconds``,
    tab-separated, with ``-`` for epochs without evaluation; ``log_path`` is
    started afresh, replacing the log of any earlier run. The checkpoint
    holds ``best_params`` of the returned state; it is also written at each
    improvement, so a run that fails later keeps its best weights so far.
    """
    from .evaluation import EnhanceConfig, evaluate_entity_prediction

    config.resolve_negatives(dataset.vocab.num_entities, dataset.vocab.num_relations)
    params = init_params(
        dataset.vocab.num_entities,
        dataset.vocab.num_relations,
        config.embed_dim,
        config.num_layers,
        arch=config.arch,
        seed=config.seed,
        dtype=config.numpy_dtype(),
    )
    state = TrainState(params, params.zeros_like(), params.zeros_like())

    if val_metric_fn is None and len(dataset.valid):
        def val_metric_fn(p):
            report = evaluate_entity_prediction(
                p, dataset, EnhanceConfig(enabled=False), split="valid"
            )
            return report.mrr, report.hits10

    _pin_malloc()
    started = time.perf_counter()
    log_handle = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(state.epoch + 1, config.epochs + 1):
            negative_rng = np.random.default_rng([config.seed, 2, epoch])
            dropout_rng = (
                np.random.default_rng([config.seed, 3, epoch])
                if config.keep_prob < 1.0
                else None
            )
            loss_sum = 0.0
            for batch in batch_iterator(
                dataset.train, config.batch_size, seed=[config.seed, 1, epoch]
            ):
                state.step += 1
                loss = batch_loss_and_grads(
                    state.params, batch, config,
                    negative_rng=negative_rng, dropout_rng=dropout_rng,
                    apply=lambda *handed: adam_step(state, config.learning_rate, *handed),
                )
                loss_sum += loss * len(batch)
            mean_loss = loss_sum / max(len(dataset.train), 1)

            val_mrr = val_hits = None
            if val_metric_fn is not None and epoch % config.eval_interval == 0:
                val_mrr, val_hits = val_metric_fn(state.params)
                if val_mrr > state.best_val_mrr:
                    state.best = state.params.copy()
                    state.best_val_mrr = val_mrr
                    state.bad_evals = 0
                    if checkpoint_path:
                        save_checkpoint(state.best, checkpoint_path)
                else:
                    state.bad_evals += 1

            elapsed = time.perf_counter() - started
            line = "\t".join(
                [
                    str(epoch),
                    f"{mean_loss:.6f}",
                    "-" if val_mrr is None else f"{val_mrr:.4f}",
                    "-" if val_hits is None else f"{val_hits:.4f}",
                    f"{elapsed:.3f}",
                ]
            )
            state.log.append(line)
            state.epoch = epoch
            if log_handle:
                log_handle.write(line + "\n")
                log_handle.flush()
            if progress:
                progress(line)
            if state.bad_evals >= config.patience:
                break
    finally:
        if log_handle:
            log_handle.close()

    if checkpoint_path:
        save_checkpoint(state.best_params, checkpoint_path)
    return state
