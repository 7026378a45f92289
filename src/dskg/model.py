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
:func:`lstm_backward` skip the matmuls against it. Its recurrent weights
therefore get no gradient: in "dskg" the ``entity_cells.*.w_h`` tensors keep
their initial values through training (they are stored all the same, so the
checkpoint layout is the one of every other stack).

Checkpoint layout (version 2): magic ``DSKGCKPT``, version byte, header
(num_entities, num_relations, embed_dim, num_layers as little-endian uint32,
architecture byte), then every tensor from :func:`named_tensors` in order as
little-endian float32. Only the stacks the architecture runs are stored.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARCH_DSKG = "dskg"
ARCH_SHARED = "shared"
_ARCH_CODES = {ARCH_DSKG: 0, ARCH_SHARED: 1}
_ARCH_NAMES = {code: name for name, code in _ARCH_CODES.items()}
# Cell stack run at timestep 0 (entity) and timestep 1 (relation).
_STEP_STACKS = {
    ARCH_DSKG: ("entity_cells", "relation_cells"),
    ARCH_SHARED: ("shared_cells", "shared_cells"),
}

CHECKPOINT_MAGIC = b"DSKGCKPT"
CHECKPOINT_VERSION = 2
# After the magic: version, entities, relations, embed dim, layers, architecture code.
_HEADER = struct.Struct("<B4IB")

MAX_LAYERS = 4


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class CellParams:
    """One LSTM cell: stacked per-gate weights (4h rows) and biases.

    :func:`active_cells` builds these as views: the arrays are the entries of
    a :class:`ModelParams` map, so in-place updates reach the map.
    """

    # Gate rows within the stacked weight matrices: input, forget, candidate, output.
    w_x: np.ndarray  # (4h, input_dim)
    w_h: np.ndarray  # (4h, h)
    b: np.ndarray  # (4h,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]


def _tensor(name: str):
    return property(lambda self: self.tensors[name])


@dataclass
class ModelParams:
    """Trainable tensors as an ordered name -> array map, plus the architecture.

    The map holds embeddings, output projections and only the cell stacks the
    architecture runs (``<stack>.<layer>.{w_x,w_h,b}``), in checkpoint order.
    Gradients and optimizer state use the same layout.
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
    """Name -> shape of every tensor an architecture stores, in checkpoint order."""
    k = embed_dim
    shapes = {"entity_embed": (num_entities, k), "relation_embed": (num_relations, k)}
    for stack in dict.fromkeys(_STEP_STACKS[arch]):
        for layer in range(num_layers):
            shapes[f"{stack}.{layer}.w_x"] = (4 * k, k)
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
    if embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    if not 1 <= num_layers <= MAX_LAYERS:
        raise ValueError(f"num_layers must be in 1..{MAX_LAYERS}")
    if num_entities < 1 or num_relations < 1:
        raise ValueError("vocabulary sizes must be >= 1")
    if arch not in _ARCH_CODES:
        raise ValueError(f"unknown architecture {arch!r}")

    rng = np.random.default_rng(seed)
    k = embed_dim
    drawn = {
        "entity_embed": _glorot(rng, num_entities, k, dtype),
        "relation_embed": _glorot(rng, num_relations, k, dtype),
    }
    # All three stacks are drawn, in this order, whichever ones the
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
    shapes = tensor_shapes(num_entities, num_relations, embed_dim, num_layers, arch)
    return ModelParams({name: drawn[name] for name in shapes}, arch, num_layers)


def active_cells(params: ModelParams, timestep: int) -> list[CellParams]:
    """Views of the cells run at a timestep (0: entity step, 1: relation step).

    Works on a gradient map too; in the shared architecture both timesteps
    return views of the same arrays.
    """
    stack = _STEP_STACKS[params.arch][timestep]
    t = params.tensors
    return [
        CellParams(t[f"{stack}.{layer}.w_x"], t[f"{stack}.{layer}.w_h"], t[f"{stack}.{layer}.b"])
        for layer in range(params.num_layers)
    ]


def lstm_forward(
    cell: CellParams, x: np.ndarray, h_prev: np.ndarray | None, c_prev: np.ndarray | None
):
    """Batched LSTM step; returns (h, c, cache) with cache for the backward pass.

    ``h_prev = c_prev = None`` means a zero state: the recurrent matmul and
    the forget-gate product are skipped, which gives the same bits as
    passing zeros.
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
        c = gate_forget * c_prev + gate_in * candidate
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
    only zeros.
    """
    x, h_prev, c_prev, gate_in, gate_forget, candidate, gate_out, tanh_c = cache
    dc_total = dh * gate_out * (1.0 - tanh_c * tanh_c)
    if dc is not None:
        dc_total += dc
    d_pre_in = (dc_total * candidate) * gate_in * (1.0 - gate_in)
    if c_prev is None:
        d_pre_forget = np.zeros_like(dc_total)
    else:
        d_pre_forget = (dc_total * c_prev) * gate_forget * (1.0 - gate_forget)
    d_pre_cand = (dc_total * gate_in) * (1.0 - candidate * candidate)
    d_pre_out = (dh * tanh_c) * gate_out * (1.0 - gate_out)
    d_pre = np.concatenate([d_pre_in, d_pre_forget, d_pre_cand, d_pre_out], axis=1)
    grad_w_x = d_pre.T @ x
    grad_b = d_pre.sum(axis=0)
    dx = d_pre @ cell.w_x
    if h_prev is None:
        return dx, None, None, grad_w_x, None, grad_b
    grad_w_h = d_pre.T @ h_prev
    dh_prev = d_pre @ cell.w_h
    dc_prev = dc_total * gate_forget
    return dx, dh_prev, dc_prev, grad_w_x, grad_w_h, grad_b


def lstm_step(cell: CellParams, x: np.ndarray, state: tuple[np.ndarray, np.ndarray]):
    """Single-vector LSTM step: (h', c') from input x and state (h, c)."""
    h_prev, c_prev = state
    h, c, _ = lstm_forward(
        cell, np.asarray(x)[None, :], np.asarray(h_prev)[None, :], np.asarray(c_prev)[None, :]
    )
    return h[0], c[0]


@dataclass
class ForwardCache:
    s_ids: np.ndarray
    r_ids: np.ndarray
    step1: list
    step2: list
    masks1: list
    masks2: list


def _run_stack(cells: list[CellParams], layer_in, states, dropout_mask):
    """One timestep up a stack; ``states`` holds each layer's incoming (h, c).

    Returns the top output and, per layer, the backward cache, the new state
    and the dropout mask applied to the layer's upward copy (None without
    a ``dropout_mask`` factory).
    """
    caches, new_states, masks = [], [], []
    for cell, (h_prev, c_prev) in zip(cells, states):
        h, c, cache = lstm_forward(cell, layer_in, h_prev, c_prev)
        caches.append(cache)
        new_states.append((h, c))
        mask = dropout_mask() if dropout_mask else None
        masks.append(mask)
        layer_in = h if mask is None else h * mask
    return layer_in, caches, new_states, masks


def entity_step(params: ModelParams, s_ids, dropout_mask=None):
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
        dropout_mask,
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
    if r_ids.min() < 0 or r_ids.max() >= params.num_relations:
        raise ValueError("relation id out of range")
    if keep_prob is not None and not 0.0 < keep_prob <= 1.0:
        raise ValueError("keep_prob must be in (0, 1]")
    if keep_prob is not None and rng is None:
        raise ValueError("dropout requires an rng")

    dropout_mask = None
    if keep_prob is not None and keep_prob < 1.0:
        shape = (len(s_ids), params.embed_dim)

        def dropout_mask():
            keep = rng.random(shape) < keep_prob
            return (keep / keep_prob).astype(params.dtype)

    h_s, step1, states1, masks1 = entity_step(params, s_ids, dropout_mask)
    h_r, step2, _, masks2 = _run_stack(
        active_cells(params, 1), params.relation_embed[r_ids], states1, dropout_mask
    )
    cache = ForwardCache(
        s_ids=s_ids, r_ids=r_ids, step1=step1, step2=step2, masks1=masks1, masks2=masks2
    )
    return h_s, h_r, cache


def forward_triple(
    params: ModelParams,
    subject: int,
    relation: int,
    keep_prob: float | None = None,
    seed: int | None = None,
):
    """Single-pair convenience wrapper; returns (h_s, h_r) vectors."""
    rng = np.random.default_rng(seed) if keep_prob is not None else None
    h_s, h_r, _ = forward_batch(params, [subject], [relation], keep_prob=keep_prob, rng=rng)
    return h_s[0], h_r[0]


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
    return h @ weight.T + bias


def save_checkpoint(params: ModelParams, path):
    """Write a checkpoint atomically: a temporary file in the target directory
    replaces ``path`` only once it is complete, so a failed write leaves any
    previous checkpoint intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as buf:
            buf.write(CHECKPOINT_MAGIC)
            buf.write(
                _HEADER.pack(
                    CHECKPOINT_VERSION,
                    params.num_entities,
                    params.num_relations,
                    params.embed_dim,
                    params.num_layers,
                    _ARCH_CODES[params.arch],
                )
            )
            for _, tensor in named_tensors(params):
                buf.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, dtype=np.float32) -> ModelParams:
    with open(path, "rb") as buf:
        magic = buf.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        header = buf.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, num_entities, num_relations, embed_dim, num_layers, arch_code = (
            _HEADER.unpack(header)
        )
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if arch_code not in _ARCH_NAMES:
            raise ValueError(f"{path}: unknown architecture code {arch_code}")
        arch = _ARCH_NAMES[arch_code]
        tensors = {}
        for name, shape in tensor_shapes(
            num_entities, num_relations, embed_dim, num_layers, arch
        ).items():
            size = 4 * int(np.prod(shape))
            raw = buf.read(size)
            if len(raw) != size:
                raise ValueError(f"{path}: truncated checkpoint at tensor {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(dtype)
        if buf.read(1):
            raise ValueError(f"{path}: trailing bytes after last tensor")
    return ModelParams(tensors, arch, num_layers)
