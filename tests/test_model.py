import hashlib
import re

import numpy as np
import pytest

from conftest import (
    container_payload,
    equalized_pair,
    make_params,
    mutation_failures,
    reference_lstm_backward,
    reference_lstm_forward,
    scalar_lstm_oracle,
)
from dskg import model
from dskg.data import write_container
from dskg.model import (
    CellParams,
    active_cells,
    forward_batch,
    init_params,
    load_checkpoint,
    logits,
    lstm_backward,
    lstm_forward,
    named_tensors,
    save_checkpoint,
)


class TestInit:
    def test_seed_determinism_bitwise(self):
        a = init_params(10, 4, 8, 2, seed=5)
        b = init_params(10, 4, 8, 2, seed=5)
        for (_, ta), (_, tb) in zip(named_tensors(a), named_tensors(b)):
            assert np.array_equal(ta, tb)

    def test_different_seed_differs(self):
        a = init_params(10, 4, 8, 2, seed=5)
        b = init_params(10, 4, 8, 2, seed=6)
        assert not np.array_equal(a.entity_embed, b.entity_embed)

    def test_four_distinct_cells_for_two_layer_model(self):
        params = init_params(10, 4, 8, 2, seed=0)
        cells = active_cells(params, 0) + active_cells(params, 1)
        assert len(cells) == 4
        assert len({id(c.w_x) for c in cells}) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(cells[i].w_x, cells[j].w_x)

    def test_parameter_count_closed_form(self):
        num_entities, num_relations, k, layers = 10, 4, 64, 2
        w_x = w_h = 4 * k * k
        # A stack run only at step 1 (dskg's entity stack) stores no w_h.
        for arch, cells in (("dskg", (w_x + 4 * k) + (w_x + w_h + 4 * k)),
                            ("shared", w_x + w_h + 4 * k)):
            params = init_params(num_entities, num_relations, k, layers, arch=arch, seed=0)
            total = sum(t.size for _, t in named_tensors(params))
            expected = (
                num_entities * k
                + num_relations * k
                + layers * cells
                + num_entities * k + num_entities
                + num_relations * k + num_relations
            )
            assert total == expected

    @pytest.mark.parametrize("arch", ["dskg", "shared"])
    def test_stored_stacks_match_architecture(self, arch):
        params = init_params(5, 4, 6, 2, arch=arch, seed=0)
        stacks = {name.split(".")[0] for name, _ in named_tensors(params) if "." in name}
        expected = {"entity_cells", "relation_cells"} if arch == "dskg" else {"shared_cells"}
        assert stacks == expected

    def test_forget_bias_one_other_biases_zero(self):
        k = 6
        for arch in ("dskg", "shared"):
            params = init_params(5, 4, k, 1, arch=arch, seed=0)
            for cell in active_cells(params, 0) + active_cells(params, 1):
                assert np.all(cell.b[k : 2 * k] == 1.0)
                assert np.all(cell.b[:k] == 0.0)
                assert np.all(cell.b[2 * k :] == 0.0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("num_entities", dict(num_entities=0, num_relations=2, embed_dim=4, num_layers=1)),
            ("embed_dim", dict(num_entities=3, num_relations=2, embed_dim=0, num_layers=1)),
            ("num_layers", dict(num_entities=3, num_relations=2, embed_dim=4, num_layers=0)),
            ("num_layers", dict(num_entities=3, num_relations=2, embed_dim=4, num_layers=5)),
        ],
    )
    def test_invalid_sizes(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            init_params(**kwargs)

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            init_params(3, 2, 4, 1, arch="tree")


class TestLstmStep:
    def test_all_zero_cell_gives_zero_output(self):
        k = 3
        cell = CellParams(np.zeros((4 * k, k)), np.zeros((4 * k, k)), np.zeros(4 * k))
        h, c, _ = lstm_forward(cell, np.array([[1.0, -2.0, 0.5]]), np.zeros((1, k)), np.zeros((1, k)))
        assert np.all(h == 0.0)
        assert np.all(c == 0.0)

    def test_saturated_forget_gate_preserves_memory(self):
        k = 3
        bias = np.zeros(4 * k)
        bias[:k] = -50.0  # input gate shut
        bias[k : 2 * k] = 50.0  # forget gate open
        cell = CellParams(np.zeros((4 * k, k)), np.zeros((4 * k, k)), bias)
        c_prev = np.array([[0.3, -0.7, 0.9]])
        _, c, _ = lstm_forward(cell, np.ones((1, k)), np.zeros((1, k)), c_prev)
        assert np.allclose(c, c_prev, atol=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        k = 3
        cell = CellParams(
            rng.normal(size=(4 * k, k)), rng.normal(size=(4 * k, k)), rng.normal(size=4 * k)
        )
        x = rng.normal(size=k)
        h_prev = rng.normal(size=k)
        c_prev = rng.normal(size=k)
        h, c, _ = lstm_forward(cell, x[None, :], h_prev[None, :], c_prev[None, :])
        oh, oc = scalar_lstm_oracle(cell, x, h_prev, c_prev)
        assert np.allclose(h[0], oh, atol=1e-12)
        assert np.allclose(c[0], oc, atol=1e-12)

    def test_dimension_mismatch(self):
        k = 3
        cell = CellParams(np.zeros((4 * k, k)), np.zeros((4 * k, k)), np.zeros(4 * k))
        with pytest.raises(ValueError):
            lstm_forward(cell, np.zeros((1, k + 1)), np.zeros((1, k)), np.zeros((1, k)))


def random_cell(rng, k, dtype):
    return CellParams(
        rng.normal(size=(4 * k, k)).astype(dtype),
        rng.normal(size=(4 * k, k)).astype(dtype),
        rng.normal(size=4 * k).astype(dtype),
    )


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


class TestInPlaceStep:
    """The step's in-place gates and ``out=`` gate gradients give the bits of
    the whole-array reference expressions in ``conftest``."""

    @pytest.mark.parametrize("rows, k", [(1, 3), (37, 16)])
    @pytest.mark.parametrize("with_dc", [False, True])
    @pytest.mark.parametrize("carried", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_backward_match_reference_bits(self, rows, k, with_dc, carried, dtype):
        rng = np.random.default_rng(rows + 100 * carried)
        cell = random_cell(rng, k, dtype)
        x, h_prev, c_prev, dh, dc = (
            (3 * rng.normal(size=(rows, k))).astype(dtype) for _ in range(5)
        )
        state = (h_prev, c_prev) if carried else (None, None)
        h, c, cache = lstm_forward(cell, x, *state)
        want_h, want_c, want_cache = reference_lstm_forward(cell, x, *state)
        assert_same_bits((h, c, *cache), (want_h, want_c, *want_cache))
        dc = dc if with_dc else None
        assert_same_bits(lstm_backward(cell, cache, dh, dc),
                         reference_lstm_backward(cell, want_cache, dh, dc))


def reference_forward(params, s_ids, r_ids, keep_prob=None, rng=None):
    """(h_s, h_r) from the reference step, with each dropout mask built by a
    float64 division."""
    def masked(h):
        if keep_prob is None:
            return h
        keep = rng.random(h.shape) < keep_prob
        return h * (keep / keep_prob).astype(params.dtype)

    layer_in, states = params.entity_embed[s_ids], []
    for cell in active_cells(params, 0):
        h, c, _ = reference_lstm_forward(cell, layer_in, None, None)
        states.append((h, c))
        layer_in = masked(h)
    h_s, layer_in = layer_in, params.relation_embed[r_ids]
    for cell, state in zip(active_cells(params, 1), states):
        layer_in = masked(reference_lstm_forward(cell, layer_in, *state)[0])
    return h_s, layer_in


class TestZeroState:
    """``None`` for a state or for ``dc`` gives the bits of explicit zeros."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_none_state_equals_explicit_zeros(self, rows, dropout, dtype):
        # Two layers as in the entity step: the lower output, masked or not,
        # is the upper input, and the mask scales the gradient coming down.
        rng = np.random.default_rng(rows)
        k = 5
        cells = [random_cell(rng, k, dtype) for _ in range(2)]
        x = rng.normal(size=(rows, k)).astype(dtype)
        masks = [
            ((rng.random((rows, k)) < 0.5) / 0.5).astype(dtype) if dropout else None
            for _ in cells
        ]
        dh_top = rng.normal(size=(rows, k)).astype(dtype)
        dcs = [rng.normal(size=(rows, k)).astype(dtype) for _ in cells]
        zeros = np.zeros((rows, k), dtype)

        def run(state):
            outputs, caches, layer_in = [], [], x
            for cell, mask in zip(cells, masks):
                h, c, cache = lstm_forward(cell, layer_in, *state)
                outputs += [h, c]
                caches.append(cache)
                layer_in = h if mask is None else h * mask
            grads, d_out = [], dh_top
            for layer in reversed(range(2)):
                dh = d_out if masks[layer] is None else d_out * masks[layer]
                back = lstm_backward(cells[layer], caches[layer], dh, dcs[layer])
                grads.append(back)
                d_out = back[0]
            return outputs, grads

        out_zero, grads_zero = run((zeros, zeros))
        out_none, grads_none = run((None, None))
        for a, b in zip(out_zero, out_none):
            assert np.array_equal(a, b)
        for zero, none in zip(grads_zero, grads_none):
            dx, dh_prev, dc_prev, grad_w_x, grad_w_h, grad_b = none
            assert dh_prev is None and dc_prev is None and grad_w_h is None
            assert np.array_equal(dx, zero[0])
            assert np.array_equal(grad_w_x, zero[3])
            assert np.array_equal(grad_b, zero[5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_dc_equals_zero_dc(self, dtype):
        rng = np.random.default_rng(7)
        k, rows = 4, 3
        cell = random_cell(rng, k, dtype)
        x, h_prev, c_prev, dh = (rng.normal(size=(rows, k)).astype(dtype) for _ in range(4))
        _, _, cache = lstm_forward(cell, x, h_prev, c_prev)
        with_zeros = lstm_backward(cell, cache, dh, np.zeros_like(dh))
        with_none = lstm_backward(cell, cache, dh, None)
        for a, b in zip(with_zeros, with_none):
            assert np.array_equal(a, b)


class TestForward:
    def test_deterministic_without_dropout(self):
        params = make_params(num_layers=2)
        a = forward_batch(params, [1], [2])
        b = forward_batch(params, [1], [2])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_two_step_scalar_oracle(self):
        params = make_params(num_entities=4, num_relations=3, embed_dim=2, num_layers=1)
        s, r = 2, 1
        (h_s,), (h_r,), _ = forward_batch(params, [s], [r])
        zero = np.zeros(2)
        cell1, cell2 = active_cells(params, 0)[0], active_cells(params, 1)[0]
        oh1, oc1 = scalar_lstm_oracle(cell1, params.entity_embed[s], zero, zero)
        oh2, _ = scalar_lstm_oracle(cell2, params.relation_embed[r], oh1, oc1)
        assert np.allclose(h_s, oh1, atol=1e-12)
        assert np.allclose(h_r, oh2, atol=1e-12)

    def test_zero_keep_prob_rejected(self):
        params = make_params()
        with pytest.raises(ValueError) as err:
            forward_batch(params, [1], [2], keep_prob=0.0, rng=np.random.default_rng(0))
        assert str(err.value) == "keep_prob must be in (0, 1]"

    def test_shared_equals_dskg_when_cells_copied(self):
        params, shared = equalized_pair(make_params(num_layers=2, arch="dskg"))
        assert shared.arch == model.ARCH_SHARED
        h_s_a, h_r_a, _ = forward_batch(params, [3], [2])
        h_s_b, h_r_b, _ = forward_batch(shared, [3], [2])
        assert np.array_equal(h_s_a, h_s_b)
        assert np.array_equal(h_r_a, h_r_b)

    def test_state_carries_across_timesteps(self):
        params = make_params(num_layers=2)
        _, h_r_one, _ = forward_batch(params, [0], [1])
        _, h_r_two, _ = forward_batch(params, [4], [1])
        assert not np.allclose(h_r_one, h_r_two)

    def test_dropout_reproducible_with_seed(self):
        params = make_params()
        a = forward_batch(params, [1], [2], keep_prob=0.5, rng=np.random.default_rng(9))
        b = forward_batch(params, [1], [2], keep_prob=0.5, rng=np.random.default_rng(9))
        c = forward_batch(params, [1], [2], keep_prob=0.5, rng=np.random.default_rng(10))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_dropout_requires_rng(self):
        params = make_params()
        with pytest.raises(ValueError):
            forward_batch(params, [0], [0], keep_prob=0.5)

    def test_id_range_checked(self):
        params = make_params()
        with pytest.raises(ValueError):
            forward_batch(params, [99], [0])
        with pytest.raises(ValueError):
            forward_batch(params, [0], [99])

    @pytest.mark.parametrize(
        "s_ids, r_ids",
        [([0], [0, 1, 2]), ([0, 1, 2], [1]), ([0, 1], [2, 3, 1]), ([], []), ([0], [])],
    )
    def test_batch_lengths_checked(self, s_ids, r_ids):
        # One subject used to broadcast silently over the relations; an empty
        # batch failed inside a NumPy reduction.
        with pytest.raises(ValueError, match=f"got {len(s_ids)} subjects and {len(r_ids)} relations"):
            forward_batch(make_params(), s_ids, r_ids)

    @pytest.mark.parametrize(
        "s_ids, r_ids",
        [([0, 1, 2, 3, 4, 5, 0, 2], [0, 1, 1, 3, 0, 2, 1, 1]), ([4, 0, 3, 1], [2] * 4), ([5], [1])],
    )
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("arch", ["dskg", "shared"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bits(self, s_ids, r_ids, dropout, arch, dtype):
        params = make_params(num_layers=2, arch=arch, dtype=dtype)
        keep_prob = 0.5 if dropout else None
        got = forward_batch(params, s_ids, r_ids, keep_prob=keep_prob,
                            rng=np.random.default_rng(4))[:2]
        want = reference_forward(params, np.array(s_ids), np.array(r_ids), keep_prob,
                                 np.random.default_rng(4))
        assert_same_bits(got, want)

    @pytest.mark.parametrize("keep_prob", [0.5, 0.8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_mask_gives_the_float_mask_bits(self, keep_prob, dtype):
        # The forward masks each layer's upward copy, and the backward the
        # gradient coming down, through ``apply_mask``. Both must give the
        # bits of a float mask ``keep * scale``, the sign of every zero too.
        rng = np.random.default_rng(6)
        scale = np.dtype(dtype).type(1 / keep_prob)
        for _ in range(2):  # a forward output, then a gradient
            x = rng.normal(size=(40, 7)).astype(dtype)
            x[::5] = 0.0
            x[1::5] = -0.0
            keep = rng.random(x.shape) < keep_prob
            got = model.apply_mask(x, keep, scale)
            want = x * np.multiply(keep, scale)
            assert got.dtype == want.dtype == dtype
            bits = f"u{want.itemsize}"
            assert np.array_equal(got.view(bits), want.view(bits))
            assert np.any((want == 0) & np.signbit(want))  # the case has -0.0 results


class TestLogits:
    def test_zero_hidden_gives_biases(self):
        params = make_params()
        scores = logits(params, np.zeros(params.embed_dim), "entity")
        assert np.allclose(scores, params.entity_out_b)

    def test_dense_oracle(self):
        params = make_params(embed_dim=3)
        h = np.array([0.3, -1.2, 0.7])
        out = logits(params, h, "entity")
        for label in range(params.num_entities):
            expected = sum(
                params.entity_out_w[label][j] * h[j] for j in range(3)
            ) + params.entity_out_b[label]
            assert np.isclose(out[label], expected, atol=1e-12)

    def test_unknown_kind(self):
        params = make_params()
        with pytest.raises(ValueError):
            logits(params, np.zeros(params.embed_dim), "label")

    def test_wrong_hidden_width(self):
        params = make_params()
        with pytest.raises(ValueError) as err:
            logits(params, np.zeros(params.embed_dim + 1), "entity")
        assert str(err.value) == "hidden vector has wrong width"


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self, tmp_path):
        params = init_params(7, 4, 6, 2, seed=13)
        first = tmp_path / "a.dskg"
        second = tmp_path / "b.dskg"
        save_checkpoint(params, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        # Seeded Glorot draws and float32 bytes: no BLAS is involved.
        path = tmp_path / "ck.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a5e7a6c9b75817e56585dea33b29f37d37af6bbb322ca895aab84750356a4d65"
        )

    def test_roundtrip_values(self, tmp_path):
        params = init_params(7, 4, 6, 2, arch="shared", seed=13)
        path = tmp_path / "ck.dskg"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == "shared"
        for (na, ta), (nb, tb) in zip(named_tensors(params), named_tensors(loaded)):
            assert na == nb
            assert np.array_equal(ta, tb)
            # Views of the file's bytes: the header's pad keeps them aligned.
            assert tb.dtype == np.float32 and tb.flags.aligned and tb.flags.writeable

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        params = init_params(7, 4, 6, 2, seed=13)
        path = tmp_path / "ck.dskg"
        save_checkpoint(params, path)
        before = path.read_bytes()

        def first_tensor_then_fail(params):
            yield named_tensors(params)[0]
            raise OSError("disk full")

        monkeypatch.setattr(model, "named_tensors", first_tensor_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.dskg"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dskg"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: not a checkpoint (bad magic b'WRONGMAG')"

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_version_1_rejected(self, tmp_path, version):
        path = tmp_path / "ck.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[len(model.CHECKPOINT_MAGIC)] = version
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, sizes", [
        ("num_entities", (0, 4, 6, 1)),
        ("num_relations", (7, 0, 6, 1)),
        ("embed_dim", (7, 4, 0, 1)),
        ("num_layers", (7, 4, 6, 0)),
        ("num_layers", (7, 4, 6, model.MAX_LAYERS + 1)),
    ], ids=["no_entities", "no_relations", "no_embedding", "no_layers", "too_many_layers"])
    def test_header_sizes_no_model_has_name_field_and_file(self, tmp_path, field, sizes):
        # No tensor follows the header: the sizes are checked before one is read.
        path = tmp_path / "ck.dskg"
        write_container(path, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION,
                        [model._HEADER.pack(*sizes, 0)])
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint header {field} ")):
            load_checkpoint(path)

    def test_short_header_names_file(self, tmp_path):
        path = tmp_path / "short.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_unknown_architecture_byte_names_file(self, tmp_path):
        path = tmp_path / "arch.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        payload = container_payload(path, model.CHECKPOINT_MAGIC)
        payload[16] = 7  # the architecture code, after four uint32 sizes
        write_container(path, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, [payload])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: unknown architecture code 7"

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        before = path.read_bytes()

        def failing_tensors(params):
            yield from list(params.tensors.items())[:2]
            raise OSError("disk full")

        monkeypatch.setattr(model, "named_tensors", failing_tensors)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_params(7, 4, 6, 1, seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.dskg"]

    def test_truncated(self, tmp_path):
        params = init_params(7, 4, 6, 1, seed=0)
        path = tmp_path / "ck.dskg"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: checkpoint checksum mismatch"

    def test_every_mutation_is_a_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "ck.dskg"
        save_checkpoint(init_params(3, 4, 2, 1, seed=0), path)
        assert mutation_failures(path, load_checkpoint) == []

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        payload = container_payload(path, model.CHECKPOINT_MAGIC) + b"\x00" * 4
        write_container(path, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, [payload])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: trailing bytes after the checkpoint's last field"

    def test_size_past_the_end_is_truncation(self, tmp_path):
        # A size that passes the CRC still must not become a read of that many bytes.
        path = tmp_path / "ck.dskg"
        save_checkpoint(init_params(7, 4, 6, 1, seed=0), path)
        payload = container_payload(path, model.CHECKPOINT_MAGIC)
        payload[0:4] = (2**31).to_bytes(4, "little")  # num_entities
        write_container(path, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, [payload])
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: truncated checkpoint"
