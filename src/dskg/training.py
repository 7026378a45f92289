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
    ModelParams,
    active_cells,
    forward_batch,
    init_params,
    lstm_backward,
    named_tensors,
    save_checkpoint,
)
from .sampling import log_uniform_probs, log_uniform_sample, negatives_for_batch

ARCH_CHOICES = (ARCH_DSKG, ARCH_SHARED)
PRECISION_CHOICES = ("standard", "high")
DEFAULT_NEGATIVES = 512


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
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        if self.arch not in ARCH_CHOICES:
            raise ValueError(f"arch must be one of {ARCH_CHOICES}")
        if self.precision not in PRECISION_CHOICES:
            raise ValueError(f"precision must be one of {PRECISION_CHOICES}")
        if self.batch_size < 1 or self.epochs < 0 or self.patience < 1:
            raise ValueError("batch_size >= 1, epochs >= 0, patience >= 1 required")
        if self.eval_interval < 1 or self.embed_dim < 1:
            raise ValueError("eval_interval >= 1 and embed_dim >= 1 required")
        if not 1 <= self.num_layers <= MAX_LAYERS:
            raise ValueError(f"num_layers must be in 1..{MAX_LAYERS}")

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


def _backward_term(grads_w, grads_b, weight, h, true_ids, term, batch_size):
    """Accumulate one term's output-block grads; return its grad w.r.t. ``h``.

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
    np.add.at(grads_w, true_ids, dscores[:, :1] * h)
    np.add.at(grads_b, true_ids, dscores[:, 0])
    grads_w[cols] += block.T @ h
    grads_b[cols] += block.sum(axis=0)
    return dh


def _backward_stack(cells, gcells, caches, masks, d_out, carried):
    """One timestep down a stack, the reverse of ``_run_stack``.

    ``carried[layer]`` is the ``(dh, dc)`` a layer's state gets from the next
    timestep, or ``(None, None)``. Adds the cells' grads into ``gcells`` and
    returns the gradient at the stack's input and each layer's ``(dh_prev,
    dc_prev)`` for the previous timestep.
    """
    to_carry = [None] * len(cells)
    for layer in reversed(range(len(cells))):
        dh_carry, dc_carry = carried[layer]
        dh = d_out if masks[layer] is None else d_out * masks[layer]
        if dh_carry is not None:
            dh = dh + dh_carry
        d_out, dh_prev, dc_prev, g_wx, g_wh, g_b = lstm_backward(
            cells[layer], caches[layer], dh, dc_carry
        )
        gcells[layer].w_x += g_wx
        if g_wh is not None:  # None for a step run from the zero state
            gcells[layer].w_h += g_wh
        gcells[layer].b += g_b
        to_carry[layer] = (dh_prev, dc_prev)
    return d_out, to_carry


def _backward_network(params: ModelParams, cache, dh_s, dh_r, grads: ModelParams):
    # Relation step first: it feeds gradient back into the entity-step states.
    d_relation, carried = _backward_stack(
        active_cells(params, 1), active_cells(grads, 1), cache.step2, cache.masks2,
        dh_r, [(None, None)] * params.num_layers,
    )
    np.add.at(grads.relation_embed, cache.r_ids, d_relation)
    d_entity, _ = _backward_stack(
        active_cells(params, 0), active_cells(grads, 0), cache.step1, cache.masks1, dh_s, carried
    )
    np.add.at(grads.entity_embed, cache.s_ids, d_entity)


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
    grads: ModelParams | None = None,
):
    """Mean loss over a batch and gradients for every tensor.

    ``grads``, a map laid out like ``params``, is zeroed and filled in place
    and returned; without it a fresh map is returned.

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

    if grads is None:
        grads = params.zeros_like()
    else:
        for tensor in grads.tensors.values():
            tensor.fill(0)
    dh_r = _backward_term(grads.entity_out_w, grads.entity_out_b, params.entity_out_w,
                          h_r, objects, ent_term, batch_size)
    if config.relation_loss:
        dh_s = _backward_term(grads.relation_out_w, grads.relation_out_b,
                              params.relation_out_w, h_s, relations, rel_term, batch_size)
    else:
        dh_s = np.zeros_like(h_s)
    # The score blocks are spent: free them before the LSTM backward, where
    # the step's memory peaks.
    del ent_term, rel_term

    _backward_network(params, cache, dh_s, dh_r, grads)
    for name, tensor in named_tensors(grads):
        if not np.all(np.isfinite(tensor)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return mean_loss, grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per block: a few hundred KB per operand


@dataclass
class TrainState:
    """Everything one training run advances, step by step and epoch by epoch.

    ``first`` and ``second`` are Adam's moments, laid out like ``params``.
    ``grads`` is the map the first step built. Refilled by every later step,
    it sits above that step's caches and keeps later steps' temporaries below
    a live block, so malloc does not hand them back to the kernel only to
    fault them in again. ``best`` copies ``params`` only when an evaluation
    beats ``best_val_mrr``, which starts at ``-inf``: a NaN MRR never beats it.
    """

    params: ModelParams
    first: ModelParams
    second: ModelParams
    step: int = 0
    grads: ModelParams | None = None
    best: ModelParams | None = None
    best_val_mrr: float = -np.inf
    bad_evals: int = 0
    epoch: int = 0
    log: list[str] = field(default_factory=list)

    @property
    def best_params(self) -> ModelParams:
        """The best-validation weights, or the last ones if no evaluation improved."""
        return self.params if self.best is None else self.best


def adam_step(state: TrainState, learning_rate: float):
    """Bias-corrected Adam update of ``state.params`` by ``state.grads``, in place.

    Each tensor is walked in blocks of ``ADAM_BLOCK`` elements through two
    block-sized scratch buffers, so the operands stay in cache and no
    full-size temporary is made. Per element the operations and their order
    are those of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / correct1) / (sqrt(v / correct2) + eps)

    so the result is the same bits as evaluating it on whole tensors.
    """
    state.step += 1
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    correct1 = 1.0 - beta1 ** state.step
    correct2 = 1.0 - beta2 ** state.step
    dtype = state.params.dtype
    buf_a, buf_b = np.empty(ADAM_BLOCK, dtype), np.empty(ADAM_BLOCK, dtype)
    maps = (state.params, state.grads, state.first, state.second)
    for tensors in zip(*(m.tensors.values() for m in maps)):
        flat_p, flat_g, flat_m, flat_v = (t.reshape(-1, copy=False) for t in tensors)
        for lo in range(0, flat_p.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, flat_p.size)
            g, m, v = flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
            a, b = buf_a[: hi - lo], buf_b[: hi - lo]
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=a)
            m += a
            v *= beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            v += a
            np.divide(m, correct1, out=a)
            a *= learning_rate
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            flat_p[lo:hi] -= a


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
                loss, state.grads = batch_loss_and_grads(
                    state.params, batch, config,
                    negative_rng=negative_rng, dropout_rng=dropout_rng, grads=state.grads,
                )
                adam_step(state, config.learning_rate)
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
