import math

import numpy as np
import pytest
from hypothesis import settings

from dskg import data, training
from dskg.model import ARCH_SHARED, ModelParams, init_params, named_tensors, tensor_shapes

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def scalar_lstm_oracle(cell, x, h_prev, c_prev):
    """Unit-by-unit gate equations, independent of the vectorized path."""
    hidden = cell.hidden_size

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def gate(row):
        pre = cell.b[row]
        for j in range(len(x)):
            pre += cell.w_x[row][j] * x[j]
        if cell.w_h is not None:  # a cell run only from the zero state stores none
            for j in range(hidden):
                pre += cell.w_h[row][j] * h_prev[j]
        return pre

    h_new, c_new = [], []
    for unit in range(hidden):
        gate_in = sig(gate(unit))
        gate_forget = sig(gate(hidden + unit))
        candidate = math.tanh(gate(2 * hidden + unit))
        gate_out = sig(gate(3 * hidden + unit))
        c = gate_forget * c_prev[unit] + gate_in * candidate
        c_new.append(c)
        h_new.append(gate_out * math.tanh(c))
    return np.array(h_new), np.array(c_new)


def reference_lstm_forward(cell, x, h_prev, c_prev):
    """The LSTM step written as whole-array expressions, one temporary per
    operation: the bit-level reference for ``model.lstm_forward``."""
    hidden = cell.hidden_size

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre = x @ cell.w_x.T
    if h_prev is not None:
        pre += h_prev @ cell.w_h.T
    pre += cell.b
    gate_in = sigmoid(pre[:, :hidden])
    candidate = np.tanh(pre[:, 2 * hidden : 3 * hidden])
    gate_out = sigmoid(pre[:, 3 * hidden :])
    if c_prev is None:
        gate_forget = None
        c = gate_in * candidate
    else:
        gate_forget = sigmoid(pre[:, hidden : 2 * hidden])
        c = gate_forget * c_prev + gate_in * candidate
    tanh_c = np.tanh(c)
    h = gate_out * tanh_c
    cache = (x, h_prev, c_prev, gate_in, gate_forget, candidate, gate_out, tanh_c)
    return h, c, cache


def reference_lstm_backward(cell, cache, dh, dc):
    """The bit-level reference for ``model.lstm_backward``: four gate
    gradients as whole-array expressions, joined by ``np.concatenate``."""
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


def make_params(num_entities=6, num_relations=4, embed_dim=4, num_layers=1,
                arch="dskg", seed=0, dtype=np.float64, jitter=0.3):
    """Initialized params plus a seeded perturbation so no tensor is special."""
    params = init_params(num_entities, num_relations, embed_dim, num_layers,
                         arch=arch, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1000)
    for _, tensor in named_tensors(params):
        tensor += rng.normal(0.0, jitter, tensor.shape).astype(dtype)
    return params


def loss_and_grad_map(params, batch, config, **kwargs):
    """``batch_loss_and_grads``' loss, and the gradients its ``apply`` sink
    received collected into a map laid out like ``params``.

    Fails unless every tensor is handed over exactly once, whole or as
    distinct sorted rows, with its tensor's dtype, and is left unchanged by
    the rest of the backward. Rows are written into a zero tensor.
    """
    handed = {}

    def collect(name, grad, rows=None):
        assert name in params.tensors and name not in handed, name
        assert rows is None or np.array_equal(rows, np.unique(rows)), name
        at = ... if rows is None else rows
        full = np.zeros_like(params.tensors[name])
        assert (full[at].shape, grad.dtype) == (grad.shape, params.dtype), name
        handed[name] = (full, at, grad, grad.copy())

    loss = training.batch_loss_and_grads(params, batch, config, apply=collect, **kwargs)
    assert set(handed) == set(params.tensors)
    for name, (full, at, grad, copy) in handed.items():
        assert np.array_equal(grad, copy), f"{name} changed after it was handed over"
        full[at] = grad
    return loss, ModelParams({name: handed[name][0] for name in params.tensors},
                             params.arch, params.num_layers)


def equalized_pair(params):
    """(dskg, shared) models that run the same cell at both steps.

    The dskg model gets its relation stack's ``w_x`` and ``b`` overwritten
    with its entity stack's and keeps its relation ``w_h``, since the entity
    stack stores none. The shared model's one stack is a copy of that
    relation stack.
    """
    dskg = params.copy()
    for name, tensor in dskg.tensors.items():
        entity_name = name.replace("relation_cells.", "entity_cells.", 1)
        if name.startswith("relation_cells.") and entity_name in dskg.tensors:
            tensor[...] = dskg.tensors[entity_name]
    shapes = tensor_shapes(params.num_entities, params.num_relations, params.embed_dim,
                           params.num_layers, ARCH_SHARED)
    shared = ModelParams(
        {name: dskg.tensors[name.replace("shared_cells.", "relation_cells.", 1)].copy()
         for name in shapes},
        ARCH_SHARED,
        params.num_layers,
    )
    return dskg, shared


def container_payload(path, magic: bytes) -> bytearray:
    """The payload of a container file: its bytes between the version byte and
    the CRC. Tests that damage a field rewrite it with ``data.write_container``,
    so that the damage passes the CRC and reaches the check it pins."""
    return bytearray(path.read_bytes()[len(magic) + 1 : -4])


def mutations(blob: bytes):
    """``(what, damaged)`` for every truncation of ``blob``, and for each of its
    bytes set to 0x00 and to 0xFF and flipped at bit 0 and at bit 7 (each
    distinct new value once; a value equal to the old byte is no mutation)."""
    for end in range(len(blob)):
        yield f"truncated to {end} bytes", blob[:end]
    for at, byte in enumerate(blob):
        for new in sorted({0x00, 0xFF, byte ^ 0x01, byte ^ 0x80} - {byte}):
            yield f"byte {at} {byte:#04x} -> {new:#04x}", blob[:at] + bytes([new]) + blob[at + 1 :]


def mutation_failures(path, load) -> list[str]:
    """Write each of :func:`mutations` of the file at ``path`` over it and
    ``load`` it. Returns one line per mutation that loaded or raised a
    ValueError not naming the file; any other exception propagates."""
    failures = []
    for what, blob in mutations(path.read_bytes()):
        path.write_bytes(blob)
        try:
            load(path)
            failures.append(f"{what}: loaded")
        except ValueError as exc:
            if not str(exc).startswith(f"{path}: "):
                failures.append(f"{what}: {exc}")
    return failures


@pytest.fixture
def fix_negatives(monkeypatch):
    """``fix_negatives(*sets)`` makes every training step draw ``sets``.

    Replaces the sampler names ``training`` calls, ``log_uniform_sample``
    (a ``(k,)`` set shared by the batch) and ``negatives_for_batch`` (a
    ``(B, k)`` set per row), with one that hands out the sets in draw order,
    entity set then relation set, starting over after the last, so repeated
    loss calls see the same negatives. Each set must have the shape the step
    asks for, and the test fails unless every set was handed out in every
    round.
    """
    sets, handed = [], 0

    def draw(shape, lexicon_size):
        nonlocal handed
        negatives = sets[handed % len(sets)]
        assert negatives.shape == shape, (negatives.shape, shape)
        assert 0 <= negatives.min() and negatives.max() < lexicon_size
        handed += 1
        return negatives

    def install(*given):
        sets.extend(np.asarray(s, dtype=np.int64) for s in given)
        monkeypatch.setattr(training, "log_uniform_sample",
                            lambda size, count, exclude, rng: draw((count,), size))
        monkeypatch.setattr(training, "negatives_for_batch",
                            lambda labels, size, count, rng: draw((len(labels), count), size))

    yield install
    if sets:
        assert handed and handed % len(sets) == 0, (
            f"{handed} sets handed out in rounds of {len(sets)}: a set was left unused")


@pytest.fixture
def tiny_dataset():
    train = data.parse_triples(
        [
            "a\tp\tb",
            "c\tp\tb",
            "a\tq\tc",
            "b\tq\td",
            "d\tp\ta",
        ]
    )
    valid = [data.RawTriple("a", "p", "c")]
    test = [data.RawTriple("c", "q", "b")]
    return data.index_dataset(train, valid, test)


@pytest.fixture
def inverse_pair_files(tmp_path):
    """Train/test splits holding one contains/containedby inverse pair."""
    (tmp_path / "train.txt").write_text(
        "USA\tcontains\tNewYorkCity\n"
        "France\tcontains\tParis\n"
        "Paris\tcontainedby\tFrance\n",
        encoding="utf-8",
    )
    (tmp_path / "valid.txt").write_text("France\tcontains\tParis\n", encoding="utf-8")
    (tmp_path / "test.txt").write_text("NewYorkCity\tcontainedby\tUSA\n", encoding="utf-8")
    return tmp_path
