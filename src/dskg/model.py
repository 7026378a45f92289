"""Type-switched stacked LSTM over (entity, relation) input pairs.

A triple (s, r, o) is processed as a two-step sequence: the embedding of s
runs through one stack of LSTM layers from a zero state, then the embedding
of r runs through a second stack that starts from the first stack's per-layer
states. In the default architecture the two stacks have independent cells
("dskg": ``entity_cells`` at step 1, ``relation_cells`` at step 2); in the
shared variant both steps reuse one stack ("shared": ``shared_cells``). The
top-layer hidden state after step 1 scores relations, the one after step 2
scores entities, each through its own output projection.

The zero state of step 1 is passed as ``None``, and :func:`lstm_forward` and
:func:`lstm_backward` skip the matmuls against it. A stack run only at step 1
(``entity_cells`` in "dskg") therefore stores no recurrent weights ``w_h``.

A checkpoint is a :func:`dskg.data.write_container` file, magic ``DSKGCKPT``
and version 4: the ``_HEADER`` sizes, then every tensor from
:func:`named_tensors` in order as little-endian float32. Only the tensors the
architecture runs are stored.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .data import ContainerReader, write_container

ARCH_DSKG = "dskg"
ARCH_SHARED = "shared"
_ARCH_CODES = {ARCH_DSKG: 0, ARCH_SHARED: 1}
_ARCH_NAMES = {code: name for name, code in _ARCH_CODES.items()}
# Cell stack run at timestep 0 (entity) and timestep 1 (relation).
STEP_STACKS = {
    ARCH_DSKG: ("entity_cells", "relation_cells"),
    ARCH_SHARED: ("shared_cells", "shared_cells"),
}

CHECKPOINT_MAGIC = b"DSKGCKPT"
CHECKPOINT_VERSION = 4
# Entities, relations, embed dim, layers, architecture code. The pad bytes put
# the first tensor at byte 28, so each tensor loads as an aligned float32 view.
_HEADER = struct.Struct("<4IB2x")

MAX_LAYERS = 4


def _pin_malloc():
    """Keep what a step or a scoring chunk frees for the next one (glibc: mmap
    only above 32 MB, trim only above 1 GB); handed back to the kernel, it
    would be faulted in again. Set for the rest of the process; a libc without
    ``mallopt`` changes nothing."""
    with contextlib.suppress(AttributeError, OSError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _sigmoid(x):
    """``1 / (1 + exp(-x))`` into one fresh contiguous array, finished in place."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


@dataclass
class CellParams:
    """One LSTM cell: stacked per-gate weights (4h rows) and biases.

    :func:`active_cells` builds these as views: the arrays are the entries of
    a :class:`ModelParams` map, so in-place updates reach the map.
    """

    # Gate rows within the stacked weight matrices: input, forget, candidate, output.
    w_x: np.ndarray  # (4h, input_dim)
    w_h: np.ndarray | None  # (4h, h); None for a stack run only at step 1
    b: np.ndarray  # (4h,)

    @property
    def hidden_size(self) -> int:
        return self.b.shape[0] // 4


def _tensor(name: str):
    return property(lambda self: self.tensors[name])


@dataclass
class ModelParams:
    """Trainable tensors as an ordered name -> array map, plus the architecture.

    The map holds embeddings, output projections and only the cell stacks the
    architecture runs (``<stack>.<layer>.{w_x,w_h,b}``; no step-1-only ``w_h``)
    in checkpoint order. Gradients and optimizer state use the same layout.
    """

    tensors: dict[str, np.ndarray]
    arch: str
    num_layers: int

    entity_embed = _tensor("entity_embed")
    relation_embed = _tensor("relation_embed")
    entity_out_w = _tensor("entity_out_w")
    entity_out_b = _tensor("entity_out_b")
    relation_out_w = _tensor("relation_out_w")
    relation_out_b = _tensor("relation_out_b")

    @property
    def num_entities(self) -> int:
        return self.entity_embed.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_embed.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.entity_embed.shape[1]

    @property
    def dtype(self):
        return self.entity_embed.dtype

    def _map(self, fn) -> "ModelParams":
        return ModelParams({n: fn(t) for n, t in self.tensors.items()}, self.arch, self.num_layers)

    def copy(self) -> "ModelParams":
        return self._map(np.copy)

    def zeros_like(self) -> "ModelParams":
        return self._map(np.zeros_like)


def named_tensors(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Every trainable tensor with a stable name, in checkpoint order."""
    return list(params.tensors.items())


def tensor_shapes(
    num_entities: int, num_relations: int, embed_dim: int, num_layers: int, arch: str
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor an architecture stores, in checkpoint order.
    A stack stores ``w_h`` only if it runs at step 2: step 1 starts from zero.
    A size no model has is a ``ValueError`` naming it."""
    for name, value in (("num_entities", num_entities), ("num_relations", num_relations),
                        ("embed_dim", embed_dim)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 1 <= num_layers <= MAX_LAYERS:
        raise ValueError(f"num_layers must be in 1..{MAX_LAYERS}, got {num_layers}")
    k = embed_dim
    shapes = {"entity_embed": (num_entities, k), "relation_embed": (num_relations, k)}
    for stack in dict.fromkeys(STEP_STACKS[arch]):
        for layer in range(num_layers):
            shapes[f"{stack}.{layer}.w_x"] = (4 * k, k)
            if stack == STEP_STACKS[arch][1]:
                shapes[f"{stack}.{layer}.w_h"] = (4 * k, k)
            shapes[f"{stack}.{layer}.b"] = (4 * k,)
    shapes.update(
        entity_out_w=(num_entities, k),
        entity_out_b=(num_entities,),
        relation_out_w=(num_relations, k),
        relation_out_b=(num_relations,),
    )
    return shapes


def _glorot(rng, rows: int, cols: int, dtype, fan_in: int | None = None, fan_out: int | None = None):
    bound = np.sqrt(6.0 / ((fan_in or rows) + (fan_out or cols)))
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)


def init_params(
    num_entities: int,
    num_relations: int,
    embed_dim: int,
    num_layers: int,
    arch: str = ARCH_DSKG,
    seed: int = 0,
    dtype=np.float32,
) -> ModelParams:
    """Seed-deterministic Glorot initialization of every tensor."""
    if arch not in _ARCH_CODES:
        raise ValueError(f"unknown architecture {arch!r}")
    shapes = tensor_shapes(num_entities, num_relations, embed_dim, num_layers, arch)

    rng = np.random.default_rng(seed)
    k = embed_dim
    drawn = {
        "entity_embed": _glorot(rng, num_entities, k, dtype),
        "relation_embed": _glorot(rng, num_relations, k, dtype),
    }
    # All three stacks are drawn in full, in this order, whichever tensors the
    # architecture keeps: a seed then gives the same weights as in checkpoint
    # version 1, which stored all three, so training from a seed is unchanged.
    for stack in ("entity_cells", "relation_cells", "shared_cells"):
        for layer in range(num_layers):
            # One Glorot block per weight kind; the per-gate fan is (k, k).
            drawn[f"{stack}.{layer}.w_x"] = _glorot(rng, 4 * k, k, dtype, fan_in=k, fan_out=k)
            drawn[f"{stack}.{layer}.w_h"] = _glorot(rng, 4 * k, k, dtype, fan_in=k, fan_out=k)
            bias = np.zeros(4 * k, dtype=dtype)
            bias[k : 2 * k] = 1.0  # forget gate starts open
            drawn[f"{stack}.{layer}.b"] = bias
    drawn["entity_out_w"] = _glorot(rng, num_entities, k, dtype)
    drawn["relation_out_w"] = _glorot(rng, num_relations, k, dtype)
    drawn["entity_out_b"] = np.zeros(num_entities, dtype=dtype)
    drawn["relation_out_b"] = np.zeros(num_relations, dtype=dtype)
    return ModelParams({name: drawn[name] for name in shapes}, arch, num_layers)


def active_cells(params: ModelParams, timestep: int) -> list[CellParams]:
    """Views of the cells run at a timestep (0: entity step, 1: relation step).

    Works on a gradient map too; in the shared architecture both timesteps
    return views of the same arrays. A stack that stores no ``w_h`` gives None.
    """
    stack = STEP_STACKS[params.arch][timestep]
    t = params.tensors
    return [
        CellParams(t[f"{stack}.{layer}.w_x"], t.get(f"{stack}.{layer}.w_h"), t[f"{stack}.{layer}.b"])
        for layer in range(params.num_layers)
    ]


def lstm_forward(
    cell: CellParams, x: np.ndarray, h_prev: np.ndarray | None, c_prev: np.ndarray | None
):
    """Batched LSTM step; returns (h, c, cache) with cache for the backward pass.

    ``h_prev = c_prev = None`` means a zero state: the recurrent matmul and
    the forget-gate product are skipped, which gives the same bits as
    passing zeros. Each gate is computed from its slice of the
    pre-activations into one fresh array and finished in place there.
    """
    hidden = cell.hidden_size
    if x.shape[-1] != cell.w_x.shape[1]:
        raise ValueError(
            f"input size {x.shape[-1]} does not match cell input {cell.w_x.shape[1]}"
        )
    pre = x @ cell.w_x.T
    if h_prev is not None:
        pre += h_prev @ cell.w_h.T
    pre += cell.b
    gate_in = _sigmoid(pre[:, :hidden])
    candidate = np.tanh(pre[:, 2 * hidden : 3 * hidden])
    gate_out = _sigmoid(pre[:, 3 * hidden :])
    if c_prev is None:
        gate_forget = None  # scales only the zero state, here and in the backward pass
        c = gate_in * candidate
    else:
        gate_forget = _sigmoid(pre[:, hidden : 2 * hidden])
        c = gate_forget * c_prev
        c += gate_in * candidate
    tanh_c = np.tanh(c)
    h = gate_out * tanh_c
    cache = (x, h_prev, c_prev, gate_in, gate_forget, candidate, gate_out, tanh_c)
    return h, c, cache


def lstm_backward(cell: CellParams, cache, dh: np.ndarray, dc: np.ndarray | None):
    """Gradients of one LSTM step given upstream dh and dc.

    Returns (dx, dh_prev, dc_prev, grad_w_x, grad_w_h, grad_b). ``dc=None``
    means no gradient reaches the cell state from above. For a step run from
    the zero state (``None`` in the cache) ``dh_prev``, ``dc_prev`` and
    ``grad_w_h`` are None: the state is a constant and ``w_h`` multiplied
    only zeros. The gate gradients are written into the blocks of one array.
    """
    x, h_prev, c_prev, gate_in, gate_forget, candidate, gate_out, tanh_c = cache
    factor = tanh_c * tanh_c
    np.subtract(1.0, factor, out=factor)
    dc_total = dh * gate_out
    dc_total *= factor
    if dc is not None:
        dc_total += dc
    d_pre = np.empty((len(dc_total), 4 * dc_total.shape[1]), dtype=dc_total.dtype)
    d_in, d_forget, d_cand, d_out = np.split(d_pre, 4, axis=1)
    np.multiply(dc_total, candidate, out=d_in)
    d_in *= gate_in
    d_in *= np.subtract(1.0, gate_in, out=factor)
    if c_prev is None:
        d_forget[...] = 0.0
    else:
        np.multiply(dc_total, c_prev, out=d_forget)
        d_forget *= gate_forget
        d_forget *= np.subtract(1.0, gate_forget, out=factor)
    np.multiply(dc_total, gate_in, out=d_cand)
    np.multiply(candidate, candidate, out=factor)
    d_cand *= np.subtract(1.0, factor, out=factor)
    np.multiply(dh, tanh_c, out=d_out)
    d_out *= gate_out
    d_out *= np.subtract(1.0, gate_out, out=factor)
    grad_w_x = d_pre.T @ x
    grad_b = d_pre.sum(axis=0)
    dx = d_pre @ cell.w_x
    if h_prev is None:
        return dx, None, None, grad_w_x, None, grad_b
    grad_w_h = d_pre.T @ h_prev
    dh_prev = d_pre @ cell.w_h
    dc_total *= gate_forget
    return dx, dh_prev, dc_total, grad_w_x, grad_w_h, grad_b


@dataclass
class ForwardCache:
    s_ids: np.ndarray
    r_ids: np.ndarray
    step1: list
    step2: list
    masks1: list  # bool dropout masks, applied with ``scale``
    masks2: list
    scale: float | None


def apply_mask(x, keep, scale):
    """``x * (keep * scale)`` for a bool mask ``keep``, signed zeros too."""
    out = x * keep
    out *= scale
    return out


def _run_stack(cells: list[CellParams], layer_in, states, dropout):
    """One timestep up a stack; ``states`` holds each layer's incoming (h, c).

    ``dropout(h)``, if given, returns the masked upward copy of a layer's
    output and its bool mask. Returns the top output and, per layer, the
    backward cache, the new state and the mask (None without ``dropout``).
    """
    caches, new_states, masks = [], [], []
    for cell, (h_prev, c_prev) in zip(cells, states):
        h, c, cache = lstm_forward(cell, layer_in, h_prev, c_prev)
        caches.append(cache)
        new_states.append((h, c))
        layer_in, mask = (h, None) if dropout is None else dropout(h)
        masks.append(mask)
    return layer_in, caches, new_states, masks


def entity_step(params: ModelParams, s_ids, dropout=None):
    """Step 1: entity embeddings up the step-1 stack from a zero state.

    Each layer's incoming state is ``(None, None)``, the zero state. Returns
    (h_s, caches, states, masks) as :func:`_run_stack` does.
    """
    s_ids = np.atleast_1d(np.asarray(s_ids))
    if s_ids.min() < 0 or s_ids.max() >= params.num_entities:
        raise ValueError("entity id out of range")
    return _run_stack(
        active_cells(params, 0),
        params.entity_embed[s_ids],
        [(None, None)] * params.num_layers,
        dropout,
    )


def forward_batch(
    params: ModelParams,
    s_ids,
    r_ids,
    keep_prob: float | None = None,
    rng: np.random.Generator | None = None,
):
    """Run a batch of (entity, relation) pairs through both timesteps.

    Returns (h_s, h_r, cache): top-layer outputs after the entity and the
    relation step. With ``keep_prob`` set, each layer's upward/output copy is
    masked and rescaled while the state carried into the relation step stays
    intact; with ``keep_prob`` None the pass is deterministic.
    """
    s_ids = np.atleast_1d(np.asarray(s_ids))
    r_ids = np.atleast_1d(np.asarray(r_ids))
    if len(s_ids) != len(r_ids) or len(s_ids) == 0:
        raise ValueError("forward_batch needs one relation per subject and a non-empty "
                         f"batch, got {len(s_ids)} subjects and {len(r_ids)} relations")
    if r_ids.min() < 0 or r_ids.max() >= params.num_relations:
        raise ValueError("relation id out of range")
    if keep_prob is not None and not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must be in (0, 1]")
    if keep_prob is not None and rng is None:
        raise ValueError("dropout requires an rng")

    dropout = scale = None
    if keep_prob is not None and keep_prob < 1.0:
        shape = (len(s_ids), params.embed_dim)
        scale = params.dtype.type(1 / keep_prob)

        def dropout(h):
            keep = rng.random(shape) < keep_prob
            return apply_mask(h, keep, scale), keep

    h_s, step1, states1, masks1 = entity_step(params, s_ids, dropout)
    h_r, step2, _, masks2 = _run_stack(
        active_cells(params, 1), params.relation_embed[r_ids], states1, dropout
    )
    cache = ForwardCache(s_ids=s_ids, r_ids=r_ids, step1=step1, step2=step2,
                         masks1=masks1, masks2=masks2, scale=scale)
    return h_s, h_r, cache


def logits(params: ModelParams, h: np.ndarray, kind: str) -> np.ndarray:
    """Unscaled label scores: row(label) . h + bias(label) over one whole type block."""
    if kind == "entity":
        weight, bias = params.entity_out_w, params.entity_out_b
    elif kind == "relation":
        weight, bias = params.relation_out_w, params.relation_out_b
    else:
        raise ValueError(f"unknown label kind {kind!r}")
    h = np.asarray(h)
    if h.shape[-1] != params.embed_dim:
        raise ValueError("hidden vector has wrong width")
    scores = h @ weight.T
    scores += bias
    return scores


def save_checkpoint(params: ModelParams, path):
    """Write a checkpoint atomically, so a failed write leaves any previous
    checkpoint intact."""
    header = _HEADER.pack(params.num_entities, params.num_relations, params.embed_dim,
                          params.num_layers, _ARCH_CODES[params.arch])
    tensors = (np.ascontiguousarray(tensor, dtype="<f4") for _, tensor in named_tensors(params))
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, itertools.chain([header], tensors))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; its tensors are writable views of the file's bytes."""
    reader = ContainerReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    num_entities, num_relations, embed_dim, num_layers, arch_code = reader.unpack(_HEADER)
    if arch_code not in _ARCH_NAMES:
        raise ValueError(f"{path}: unknown architecture code {arch_code}")
    arch = _ARCH_NAMES[arch_code]
    try:
        shapes = tensor_shapes(num_entities, num_relations, embed_dim, num_layers, arch)
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint header {exc}") from None
    tensors = {name: reader.array("<f4", shape).astype(np.float32, copy=False)
               for name, shape in shapes.items()}
    reader.finish()
    return ModelParams(tensors, arch, num_layers)
