import struct
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdec.channel import bpsk, make_rng
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import Codeword, ParityCheckMatrix, builtin_code, encode_batch, hard_decision
from diffdec.nn import (Adam, ArchConfig, CheckpointError, DenoiserModel, attention_mask,
                        bce_with_logits_mean, cosine_lr, load_checkpoint, preprocess,
                        preprocess_batch, save_checkpoint)
from diffdec.nn import tensor as T
from diffdec.nn.tensor import Tensor
from diffdec.training import training_step
from oracles import codes, finite_diff_param_grad, pseudo_ldpc_49_24

# Parameter gradients of _reference_case_grads as computed before the weight
# gradient of a batched input took one GEMM and GELU, softmax and layer norm
# ran in place; regenerate only for a deliberate change of the arithmetic.
GRAD_REFERENCE = Path(__file__).parent / "data" / "grad_reference.npz"
SCHED74 = NoiseSchedule.constant(0.01, 3)
ARCHS = {
    "mlp": ArchConfig("mlp", embed_dim=8, layers=2),
    "masked_attention": ArchConfig("masked_attention", embed_dim=8, layers=2),
}


def _gelu_reference(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))))


def _unfolded_mlp_logits(model, feats, e):
    """Plain-numpy MLP forward that conditions every embedding before the first layer."""
    p = {name: t.data for name, t in model.params.items()}
    x = feats[:, :, None] * p["embed.weight"] * p["cond.table"][e][:, None, :]
    h = x.reshape(len(feats), -1)
    for i in range(model.arch.layers):
        h = _gelu_reference(h @ p[f"hidden.{i}.weight"] + p[f"hidden.{i}.bias"])
    return h @ p["head.weight"] + p["head.bias"]


def _assert_folded_forward_matches_unfolded(H, layers, seed):
    model = DenoiserModel.create(H, ArchConfig("mlp", embed_dim=8, layers=layers), seed=seed)
    rng = np.random.default_rng(seed)
    for t in model.params.values():  # off the initial point: nonzero biases, uneven gates
        t.data[...] = rng.normal(0, 1, t.data.shape)
    feats, e = preprocess_batch(rng.normal(1, 1.5, (64, H.n)), H)
    e[: H.n - H.k + 1] = np.arange(H.n - H.k + 1)  # every parity count occurs
    for rows in (slice(None), slice(32, None), slice(5, 6)):  # all counts, some, one row
        got = model.forward(feats[rows], e[rows]).data
        want = _unfolded_mlp_logits(model, feats[rows], e[rows])
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _dense_attention_logits(model, feats, e):
    """The masked-attention forward with every token through every block and
    the final layer norm, sliced to the bit tokens only for the head."""
    p = model.params
    b, s = feats.shape
    x = T.mul(T.mul(T.reshape(Tensor(feats), (b, s, 1)), p["embed.weight"]),
              T.reshape(T.gather_rows(p["cond.table"], e), (b, 1, -1)))
    for i in range(model.arch.layers):
        pre = f"blocks.{i}."
        h = T.layer_norm(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        q, k, v = (T.matmul(h, p[pre + w]) for w in ("wq", "wk", "wv"))
        weights = T.attention_weights(q, k, 1.0 / np.sqrt(model.arch.embed_dim),
                                      np.where(model.mask, 0.0, -np.inf))
        x = T.add(x, T.matmul(T.matmul(weights, v), p[pre + "wo"]))
        h2 = T.layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        f = T.gelu(T.linear(h2, p[pre + "ffn1.weight"], p[pre + "ffn1.bias"]))
        x = T.add(x, T.linear(f, p[pre + "ffn2.weight"], p[pre + "ffn2.bias"]))
    x = T.layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])
    return T.linear(T.slice_leading(x, model.n), p["head.weight"], p["head.bias"],
                    shape=(b, model.n)).data


def _random_case(H, rng):
    y = rng.normal(0, 1, H.n)
    y[y == 0] = 0.1
    feats, e = preprocess(y, H)
    targets = (rng.random(H.n) < 0.5).astype(np.float64)
    return feats, e, targets


class TestPreprocess:
    def test_clean_codeword_maps_to_ones_and_zero_syndrome(self, ham74, ham74_gen):
        cw = encode_batch(ham74_gen, [[1, 0, 1, 1]])[0]
        feats, e = preprocess(bpsk(cw), ham74)
        assert np.array_equal(feats[:7], np.ones(7))
        assert not feats[7:].any() and e == 0

    def test_invariant_under_codeword_modulation_bit_exact(self, ham74, ham74_gen):
        rng = make_rng(0)
        y = rng.normal(0, 1, 7)
        base, e_base = preprocess(y, ham74)
        for cw in ham74_gen.codebook():
            mod, e_mod = preprocess(y * bpsk(Codeword(cw)), ham74)
            assert np.array_equal(mod, base) and e_mod == e_base

    def test_single_flip_exposes_matching_H_column(self, ham74, ham74_gen):
        cw = encode_batch(ham74_gen, [[0, 1, 0, 1]])[0]
        y = bpsk(cw)
        y[4] = -y[4]
        feats, e = preprocess(y, ham74)
        assert np.array_equal(feats[7:], ham74.matrix[:, 4].astype(float))
        assert e == int(ham74.matrix[:, 4].sum())


class TestForward:
    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_deterministic(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=1)
        feats, e, _ = _random_case(ham74, np.random.default_rng(2))
        a = model.forward(feats, e).data
        b = model.forward(feats, e).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_zero_conditioning_row_blanks_the_features(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=1)
        rng = np.random.default_rng(3)
        e = 1
        model.params["cond.table"].data[e] = 0.0  # test hook: silence the gate
        feats_a, _, _ = _random_case(ham74, rng)
        feats_b, _, _ = _random_case(ham74, rng)
        out_a = model.forward(feats_a, e).data
        out_b = model.forward(feats_b, e).data
        assert np.array_equal(out_a, out_b)  # bias-only output

    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_conditioning_index_changes_logits(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=4)
        feats, _, _ = _random_case(ham74, np.random.default_rng(5))
        assert not np.array_equal(model.forward(feats, 0).data,
                                  model.forward(feats, 2).data)

    def test_parity_count_range_enforced(self, ham74):
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=0)
        feats, _, _ = _random_case(ham74, np.random.default_rng(1))
        with pytest.raises(ValueError):
            model.forward(feats, 4)

    def test_codeword_invariance_of_full_input_bit_exact(self, ham74, ham74_gen):
        model = DenoiserModel.create(ham74, ARCHS["masked_attention"], seed=6)
        rng = make_rng(7)
        y = rng.normal(0, 1, 7)
        feats, e = preprocess(y, ham74)
        base = model.forward(feats, e).data
        for cw in ham74_gen.codebook():
            feats_m, e_m = preprocess(y * bpsk(Codeword(cw)), ham74)
            assert np.array_equal(model.forward(feats_m, e_m).data, base)

    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_denoise_from_syndrome_bits_equals_forward_of_preprocess(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=10)
        Y = np.random.default_rng(11).normal(0.5, 1, (64, 7))
        S = ham74.syndrome_bits(hard_decision(Y))
        assert len(np.unique(S.sum(axis=1))) == 4  # every parity count occurs
        want = model.forward(*preprocess_batch(Y, ham74)).data
        assert np.array_equal(model.denoise(Y, S), want)

    def test_batch_forward_matches_single(self, ham74):
        model = DenoiserModel.create(ham74, ARCHS["masked_attention"], seed=8)
        rng = np.random.default_rng(9)
        feats = rng.normal(0, 1, (5, 10)) ** 2
        es = np.array([0, 1, 2, 3, 1])
        batch = model.forward(feats, es).data
        for i in range(5):
            assert np.allclose(batch[i], model.forward(feats[i], int(es[i])).data,
                               atol=1e-12)


class TestBitTokenForward:
    """The masked-attention forward carries only the bit tokens through the last block."""

    @staticmethod
    def _model_and_batch(H, layers, seed):
        model = DenoiserModel.create(H, ArchConfig("masked_attention", embed_dim=8,
                                                   layers=layers), seed=seed)
        rng = np.random.default_rng(seed)
        for t in model.params.values():  # off the initial point: nonzero biases, uneven gains
            t.data += rng.normal(0, 0.3, t.data.shape)
        feats, e = preprocess_batch(rng.normal(1, 1.5, (24, H.n)), H)
        return model, feats, e

    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("code", ["rep31", "hamming74", "ldpc49"])
    def test_logits_equal_the_dense_forward_bit_for_bit(self, code, layers):
        H = pseudo_ldpc_49_24() if code == "ldpc49" else builtin_code(code)
        model, feats, e = self._model_and_batch(H, layers, seed=60 + layers)
        with T.no_grad():
            want = _dense_attention_logits(model, feats, e)
            assert np.array_equal(model.forward(feats, e).data, want)
        out = model.forward(feats, e)
        assert out.requires_grad
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_last_block_products_have_one_row_per_bit(self, ham74, monkeypatch, layers):
        model, feats, e = self._model_and_batch(ham74, layers, seed=63)
        operands = []
        matmul = T.matmul

        def recording_matmul(a, b):
            operands.append((b, np.shape(a.data if isinstance(a, Tensor) else a)))
            return matmul(a, b)

        monkeypatch.setattr(T, "matmul", recording_matmul)
        model.forward(feats, e)
        names = {id(p): name for name, p in model.params.items()}
        rows = {names[id(b)]: shape[:-1] for b, shape in operands if id(b) in names}
        n, s, last = ham74.n, 2 * ham74.n - ham74.k, f"blocks.{layers - 1}."
        for w in ("wq", "wo", "ffn1.weight", "ffn2.weight"):
            assert rows[last + w] == (len(feats), n), w
        for w in ("wk", "wv"):  # keys and values still come from every token
            assert rows[last + w] == (len(feats), s), w
        if layers == 2:
            assert rows["blocks.0.ffn2.weight"] == (len(feats), s)


class TestFoldedFrontEnd:
    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("code", ["rep31", "hamming74", "ldpc49"])
    def test_matches_unfolded_formula(self, code, layers):
        H = pseudo_ldpc_49_24() if code == "ldpc49" else builtin_code(code)
        _assert_folded_forward_matches_unfolded(H, layers, seed=30 + layers)

    @settings(max_examples=25, deadline=None)
    @given(code_and_rng=codes(), layers=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_matches_unfolded_formula_on_random_codes(self, code_and_rng, layers, seed):
        _assert_folded_forward_matches_unfolded(code_and_rng[0], layers, seed)


class TestGroupedMatmul:
    def test_matches_per_row_products_and_central_differences(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(9, 5)), requires_grad=True)
        tables = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
        group = np.array([2, 0, 2, 3, 0, 2, 0, 0, 3])  # group 1 has no rows
        probe = rng.normal(size=(9, 3))
        out = T.grouped_matmul(x, group, tables)
        want = np.stack([x.data[b] @ tables.data[:, g] for b, g in enumerate(group)])
        assert np.allclose(out.data, want, rtol=0, atol=1e-14)
        T.matmul(T.reshape(T.mul(out, probe), (1, -1)), np.ones((probe.size, 1))).backward()
        h = 1e-6
        for t in (x, tables):
            for index in np.ndindex(*t.data.shape):
                saved = t.data[index]
                t.data[index] = saved + h
                up = (T.grouped_matmul(x.data, group, tables.data).data * probe).sum()
                t.data[index] = saved - h
                down = (T.grouped_matmul(x.data, group, tables.data).data * probe).sum()
                t.data[index] = saved
                assert abs(t.grad[index] - (up - down) / (2 * h)) <= 1e-8
        assert not tables.grad[:, 1].any()


def _loss_of(out: Tensor, probe: np.ndarray) -> Tensor:
    """sum(out * probe) as a scalar root, so the gradient reaching ``out`` is ``probe`` exactly."""
    flat = T.reshape(T.mul(out, probe), (1, -1))
    return T.matmul(flat, np.ones((probe.size, 1)))


class TestMatmulWeightGradient:
    @pytest.mark.parametrize("lead", [(6,), (3, 4)])
    def test_shared_weight_gradient_sums_the_per_matrix_products(self, lead):
        rng = np.random.default_rng(41)
        a = Tensor(rng.normal(size=lead + (5, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        probe = rng.normal(size=lead + (5, 3))
        _loss_of(T.matmul(a, w), probe).backward()
        want = sum(a.data[i].T @ probe[i] for i in np.ndindex(*lead))
        assert np.abs(w.grad - want).max() <= 1e-12 * np.abs(want).max()
        # one GEMM over the leading rows gives the batched product's bits at these shapes
        assert np.array_equal(a.grad, probe @ w.data.T)

    @pytest.mark.parametrize("a_shape, w_shape", [((128, 10, 128), (128, 32)),
                                                  ((128, 10, 32), (32, 32))])
    def test_attention_shapes_take_one_gemm(self, a_shape, w_shape):
        rng = np.random.default_rng(44)
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        out = T.matmul(a, w)
        assert np.array_equal(out.data, np.matmul(a.data, w.data))
        probe = rng.normal(size=out.data.shape)
        _loss_of(out, probe).backward()
        n = w_shape[1]
        assert np.array_equal(a.grad, (probe.reshape(-1, n) @ w.data.T).reshape(a_shape))
        batched = probe @ w.data.T
        assert np.abs(a.grad - batched).max() <= 1e-15 * np.abs(batched).max()

    def test_batched_weight_gradient_stays_per_matrix(self):
        # the attention scores: 3-D @ 3-D, one product per batch entry
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(4, 5, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 6, 5)), requires_grad=True)
        probe = rng.normal(size=(4, 5, 5))
        _loss_of(T.matmul(a, b), probe).backward()
        assert np.array_equal(b.grad, a.data.swapaxes(-1, -2) @ probe)
        assert np.array_equal(a.grad, probe @ b.data.swapaxes(-1, -2))

    def test_broadcast_batched_weight_gradient_is_summed(self):
        rng = np.random.default_rng(43)
        a = Tensor(rng.normal(size=(4, 5, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 6, 3)), requires_grad=True)
        probe = rng.normal(size=(4, 5, 3))
        _loss_of(T.matmul(a, b), probe).backward()
        want = sum(a.data[i].T @ probe[i] for i in range(4))[None]
        assert b.grad.shape == (1, 6, 3)
        assert np.abs(b.grad - want).max() <= 1e-12 * np.abs(want).max()


class TestInPlaceOps:
    """The scratch-array forms give the plain formulas' results bit for bit."""

    def _inputs(self, shape):
        rng = np.random.default_rng(44)
        x = rng.normal(0, 3, shape)
        x[0, 0, :4] = (0.0, -0.0, 40.0, -40.0)
        return x, rng.normal(size=shape)

    def test_gelu_forward_and_backward(self):
        x, probe = self._inputs((32, 10, 64))  # large enough for the cube's rounding to show
        c = np.sqrt(2.0 / np.pi)
        th = np.tanh(c * (x + 0.044715 * (x * x * x)))
        du = c * (1.0 + 3 * 0.044715 * (x * x))
        t = Tensor(x, requires_grad=True)
        out = T.gelu(t)
        assert np.array_equal(out.data, 0.5 * x * (1.0 + th))
        # np.power's cube is rounded once, the product's twice: equal to within an ulp or so
        assert np.abs(out.data - _gelu_reference(x)).max() <= 1e-15 * np.abs(x).max()
        _loss_of(out, probe).backward()
        assert np.array_equal(t.grad, probe * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du))

    def test_softmax_forward_and_backward(self):
        x, probe = self._inputs((6, 5, 8))
        x[..., 1] = -np.inf  # a masked position
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        t = Tensor(x, requires_grad=True)
        out = T.softmax_last(t)
        assert np.array_equal(out.data, s)
        _loss_of(out, probe).backward()
        assert np.array_equal(t.grad, s * (probe - (probe * s).sum(axis=-1, keepdims=True)))

    def test_layer_norm_forward_and_backward(self):
        d = 12  # not a power of two, so that every division by d rounds
        x, probe = self._inputs((6, 5, d))
        rng = np.random.default_rng(45)
        gain = Tensor(rng.normal(size=d), requires_grad=True)
        bias = Tensor(rng.normal(size=d), requires_grad=True)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc**2).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        t = Tensor(x, requires_grad=True)
        out = T.layer_norm(t, gain, bias)
        assert np.array_equal(out.data, xhat * gain.data + bias.data)
        _loss_of(out, probe).backward()
        dxhat = probe * gain.data
        gsum = dxhat.sum(axis=-1, keepdims=True)
        gdot = (dxhat * xhat).sum(axis=-1, keepdims=True)
        assert np.array_equal(t.grad, (inv / d) * (d * dxhat - gsum - xhat * gdot))
        for p, want in ((gain, (probe * xhat).sum(axis=(0, 1))), (bias, probe.sum(axis=(0, 1)))):
            assert np.abs(p.grad - want).max() <= 1e-12 * np.abs(want).max()


def _forward_and_grads(build, arrays, probe):
    """build(*tensors) over leaves that share the caller's arrays, and each leaf's gradient."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    _loss_of(out, probe).backward()
    return out.data, [t.grad for t in leaves]


def _attention_case(lead, s=6, d=4):
    rng = np.random.default_rng(46)
    q, k = rng.normal(0, 2, lead + (s, d)), rng.normal(0, 2, lead + (s, d))
    allow = rng.random((s, s)) < 0.5
    np.fill_diagonal(allow, True)  # every row keeps a partner, as in attention_mask
    return [q, k], np.where(allow, 0.0, -np.inf), rng.normal(size=lead + (s, s))


class TestFusedOps:
    """The fused ops equal the chains of plain ops they replace bit for bit, in the
    forward and in every gradient, and leave every array they are handed unchanged."""

    SCALE = 1.0 / np.sqrt(4)

    @staticmethod
    def _assert_same_as_chain(fused, chain, arrays, probe, constants=()):
        before = [a.tobytes() for a in (*arrays, *constants)]
        want, want_grads = _forward_and_grads(chain, arrays, probe)
        got, got_grads = _forward_and_grads(fused, arrays, probe)
        assert np.array_equal(got, want)
        for g, w in zip(got_grads, want_grads, strict=True):
            assert np.array_equal(g, w)
        with T.no_grad():
            out = fused(*(Tensor(a, requires_grad=True) for a in arrays))
        assert not out.requires_grad and np.array_equal(out.data, want)
        assert [a.tobytes() for a in (*arrays, *constants)] == before

    @pytest.mark.parametrize("lead", [(), (4,)], ids=["2d", "3d"])
    def test_linear_equals_matmul_then_add(self, lead):
        rng = np.random.default_rng(47)
        arrays = [rng.normal(size=lead + (6, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)]
        self._assert_same_as_chain(T.linear, lambda x, w, b: T.add(T.matmul(x, w), b),
                                   arrays, rng.normal(size=lead + (6, 3)))

    def test_linear_with_a_shape_equals_matmul_reshape_then_add(self):
        # the attention head: a (B, n, 1) product read as (B, n) logits, one shared bias
        rng = np.random.default_rng(48)
        arrays = [rng.normal(size=(5, 7, 4)), rng.normal(size=(4, 1)), rng.normal(size=1)]
        self._assert_same_as_chain(
            lambda x, w, b: T.linear(x, w, b, shape=(5, 7)),
            lambda x, w, b: T.add(T.reshape(T.matmul(x, w), (5, 7)), b),
            arrays, rng.normal(size=(5, 7)))

    def test_grouped_matmul_with_bias_equals_grouped_matmul_then_add(self):
        rng = np.random.default_rng(49)
        group = np.array([2, 0, 2, 3, 0, 2, 0, 0, 3])
        arrays = [rng.normal(size=(9, 5)), rng.normal(size=(5, 4, 3)), rng.normal(size=3)]
        self._assert_same_as_chain(
            lambda x, t, b: T.grouped_matmul(x, group, t, b),
            lambda x, t, b: T.add(T.grouped_matmul(x, group, t), b),
            arrays, rng.normal(size=(9, 3)), constants=(group,))

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "3d"])
    def test_attention_weights_equal_matmul_mul_add_softmax(self, lead):
        arrays, mask, probe = _attention_case(lead)
        self._assert_same_as_chain(
            lambda q, k: T.attention_weights(q, k, self.SCALE, mask),
            lambda q, k: T.softmax_last(T.add(T.mul(T.matmul(q, T.swap_last_axes(k)),
                                                    self.SCALE), mask)),
            arrays, probe, constants=(mask,))

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "3d"])
    def test_scaled_masked_softmax_equals_mul_add_softmax(self, lead):
        (scores, _), mask, probe = _attention_case(lead, d=6)
        self._assert_same_as_chain(
            lambda a: T.softmax_last(a, self.SCALE, mask),
            lambda a: T.softmax_last(T.add(T.mul(a, self.SCALE), mask)),
            [scores], probe, constants=(mask,))

    def test_masked_pairs_get_zero_weight_and_zero_gradient(self):
        arrays, mask, probe = _attention_case((3,))
        weights, (gq, gk) = _forward_and_grads(
            lambda q, k: T.attention_weights(q, k, self.SCALE, mask), arrays, probe)
        assert not weights[..., mask == -np.inf].any()
        assert np.allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        assert np.isfinite(gq).all() and np.isfinite(gk).all()


class TestGraphRelease:
    def test_interior_gradients_are_released_and_leaves_keep_theirs(self):
        rng = np.random.default_rng(50)
        x, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in ((4, 6, 5), (5, 3), (3,)))
        h = T.linear(x, w, b)
        g = T.gelu(h)
        loss = _loss_of(g, rng.normal(size=(4, 6, 3)))
        loss.backward()
        assert h.grad is None and g.grad is None and loss.grad is None
        assert [t.grad.shape for t in (x, w, b)] == [(4, 6, 5), (5, 3), (3,)]

    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_every_parameter_keeps_its_gradient(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=51)
        training_step(model, SCHED74, 16, make_rng(51))
        for name, p in model.params.items():
            assert p.grad is not None and p.grad.shape == p.data.shape, name

    def test_warm_masked_attention_step_peak_memory(self, ham74):
        # Hamming(7,4), d = 32, 2 layers, batch 128: 29.4 MiB while backward kept
        # every interior gradient and the bias, scale and mask adds had arrays of
        # their own; 20.7 MiB without them; 17.4 MiB once the last block carried
        # the bit tokens alone
        model = DenoiserModel.create(
            ham74, ArchConfig("masked_attention", embed_dim=32, layers=2), seed=0)
        schedule = NoiseSchedule.constant(0.25, 3)
        rng = make_rng(52)
        training_step(model, schedule, 128, rng)  # warm: the parameters hold gradients
        tracemalloc.start()
        try:
            training_step(model, schedule, 128, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestBce:
    def test_zero_logits_cost_ln2(self):
        logits = Tensor(np.zeros(10))
        loss = bce_with_logits_mean(logits, np.zeros(10))
        assert float(loss.data) == pytest.approx(np.log(2), rel=1e-12)

    def test_saturated_correct_logits_vanish(self):
        logits = Tensor(np.array([50.0, -50.0]))
        loss = bce_with_logits_mean(logits, np.array([1.0, 0.0]))
        assert float(loss.data) < 1e-20

    def test_gradient_at_zero_logit_target_one(self):
        n = 7
        logits = Tensor(np.zeros(n), requires_grad=True)
        loss = bce_with_logits_mean(logits, np.ones(n))
        loss.backward()
        assert np.allclose(logits.grad, -0.5 / n, atol=1e-15)


class TestBackward:
    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_every_parameter_matches_central_differences(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=10)
        feats, e, targets = _random_case(ham74, np.random.default_rng(11))
        model.zero_grad()
        loss = bce_with_logits_mean(model.forward(feats, e), targets)
        loss.backward()
        worst = 0.0
        for name, p in model.params.items():
            grads = p.grad if p.grad is not None else np.zeros_like(p.data)
            for index in np.ndindex(*p.data.shape):
                fd = finite_diff_param_grad(model, feats, e, targets, name, index)
                err = abs(fd - grads[index]) / max(abs(fd), abs(grads[index]), 1e-6)
                worst = max(worst, err)
        assert worst < 1e-4

    def test_unused_parameter_has_no_gradient(self, ham74):
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=12)
        feats, e, targets = _random_case(ham74, np.random.default_rng(13))
        model.zero_grad()
        loss = bce_with_logits_mean(model.forward(feats, e), targets)
        loss.backward()
        # the folded matrices are built only for the counts in the batch
        other = [r for r in range(4) if r != e]
        table_grad = model.params["cond.table"].grad
        assert not table_grad[other].any()
        assert table_grad[e].any()

    @pytest.mark.parametrize("sum_first", [True, False])
    def test_gradient_shared_by_add_is_not_added_into(self, sum_first):
        # add hands one gradient array to both parents; a later gradient into
        # one of them must not reach the other, whichever branch runs first
        rng = np.random.default_rng(16)
        a, b, c = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3))
        targets = (rng.random((2, 3)) < 0.5).astype(float)
        branches = [T.mul(T.add(a, b), c), T.mul(a, c)]
        logits = T.add(*(branches if sum_first else branches[::-1]))
        bce_with_logits_mean(logits, targets).backward()
        g = (1 / (1 + np.exp(-logits.data)) - targets) / targets.size
        assert np.allclose(a.grad, 2 * g * c.data, atol=1e-15)
        assert np.allclose(b.grad, g * c.data, atol=1e-15)
        assert np.allclose(c.grad, g * (2 * a.data + b.data), atol=1e-15)

    def test_linear_layer_gradient_is_outer_product(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = rng.normal(size=(1, 4))
        targets = np.array([[1.0, 0.0, 1.0]])
        from diffdec.nn.tensor import matmul
        logits = matmul(Tensor(x), w)
        loss = bce_with_logits_mean(logits, targets)
        loss.backward()
        sig = 1 / (1 + np.exp(-(x @ w.data)))
        expected = np.outer(x[0], (sig - targets)[0] / targets.size)
        assert np.allclose(w.grad, expected, atol=1e-12)

    def test_graph_reuse_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        loss = bce_with_logits_mean(t, np.zeros(3))
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_no_grad_in_another_thread_leaves_this_one_recording(self):
        inside, release = threading.Event(), threading.Event()

        def hold():
            with T.no_grad():
                inside.set()
                release.wait(5)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert inside.wait(5)
            assert T.mul(Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad
        finally:
            release.set()
            thread.join(5)
        assert not thread.is_alive()


def _reference_case_grads(backbone: str) -> dict[str, np.ndarray]:
    """Every parameter gradient of the BCE loss on one fixed 16-word Hamming(7,4) batch."""
    H = builtin_code("hamming74")
    model = DenoiserModel.create(H, ArchConfig(backbone, embed_dim=4, layers=2, hidden_mult=2),
                                 seed=21)
    rng = np.random.default_rng(22)
    for t in model.params.values():  # off the initial point: nonzero biases, uneven gains
        t.data += rng.normal(0, 0.3, t.data.shape)
    feats, e = preprocess_batch(rng.normal(1, 0.8, (16, H.n)), H)
    targets = (rng.random((16, H.n)) < 0.3).astype(np.float64)
    model.zero_grad()
    bce_with_logits_mean(model.forward(feats, e), targets).backward()
    return {f"{backbone}/{name}": p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("backbone", list(ARCHS))
def test_parameter_gradients_match_the_saved_reference(backbone):
    with np.load(GRAD_REFERENCE) as saved:
        want = {name: saved[name] for name in saved.files if name.startswith(backbone + "/")}
    got = _reference_case_grads(backbone)
    assert sorted(got) == sorted(want)
    for name, grad in got.items():
        scale = np.abs(want[name]).max()
        assert scale > 0, name
        assert np.abs(grad - want[name]).max() <= 1e-12 * scale, name


class TestMaskedAttention:
    def test_mask_structure_follows_the_code(self, ham74):
        mask = attention_mask(ham74.matrix)
        n, m = 7, 3
        h = ham74.matrix.astype(bool)
        # magnitude <-> syndrome exactly at H support
        assert np.array_equal(mask[:n, n:], h.T)
        assert np.array_equal(mask[n:, :n], h)
        # syndrome tokens only self-attend
        assert np.array_equal(mask[n:, n:], np.eye(m, dtype=bool))
        # magnitude pairs share a check
        share = (h.T.astype(int) @ h.astype(int)) > 0
        np.fill_diagonal(share, True)
        assert np.array_equal(mask[:n, :n], share)

    def test_masked_positions_get_exactly_zero_gradient(self, ham74):
        arch = ArchConfig("masked_attention", embed_dim=8, layers=1)
        model = DenoiserModel.create(ham74, arch, seed=15)
        mask = model.mask
        blocked = np.argwhere(~mask)
        rng = np.random.default_rng(16)
        feats = rng.normal(0, 1, 10) ** 2 + 0.1
        from diffdec.nn.tensor import bce_with_logits_mean as bce
        from diffdec.nn.tensor import mul
        checked = 0
        for i, j in blocked:
            if i >= ham74.n or checked >= 8:
                continue  # logits read only the first n tokens
            feats_t = Tensor(feats, requires_grad=True)
            out = model.forward(feats_t, 1)
            probe = np.zeros(ham74.n)
            probe[i] = 1.0
            loss = bce(mul(out, probe), probe)  # depends on logit i alone
            loss.backward()
            assert feats_t.grad is not None
            assert feats_t.grad[i] != 0.0
            assert feats_t.grad[j] == 0.0
            checked += 1
        assert checked == 8


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor(np.zeros(5), requires_grad=True)
        p.grad = np.full(5, 3.7)
        opt = Adam({"p": p})
        opt.step(lr=0.01)
        assert np.allclose(np.abs(p.data), 0.01, rtol=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.ones(4), requires_grad=True)
        p.grad = np.zeros(4)
        Adam({"p": p}).step(lr=0.1)
        assert np.array_equal(p.data, np.ones(4))

    def test_seeded_training_is_reproducible(self, rep31):
        from diffdec.training import training_step

        def run():
            model = DenoiserModel.create(rep31, ArchConfig("mlp", 8, 1), seed=21)
            opt = Adam(model.params)
            rng = make_rng(22)
            sched = NoiseSchedule.constant(0.2, 2)
            losses = []
            for _ in range(5):
                losses.append(training_step(model, sched, 32, rng))
                opt.step(1e-3)
            return losses, model.params["head.weight"].data.copy()

        la, wa = run()
        lb, wb = run()
        assert la == lb
        assert np.array_equal(wa, wb)


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100) == pytest.approx(1e-4)
        assert cosine_lr(100, 100) == pytest.approx(5e-6)
        assert cosine_lr(50, 100) == pytest.approx((1e-4 + 5e-6) / 2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4)


def _record(raw: bytes, name: str) -> tuple[int, int, int]:
    """Start, first-value offset and end of array record ``name`` in checkpoint bytes."""
    head = struct.pack("<H", len(name)) + name.encode()
    start = raw.index(head)
    rank = raw[start + len(head)]
    dims_at = start + len(head) + 1
    dims = struct.unpack(f"<{rank}I", raw[dims_at:dims_at + 4 * rank])
    values_at = dims_at + 4 * rank
    return start, values_at, values_at + 8 * int(np.prod(dims))


def _sealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _other_matrix(H: ParityCheckMatrix) -> ParityCheckMatrix:
    """A full-rank matrix of H's shape that differs from H in one bit of row 0."""
    for j in range(H.n):
        flipped = H.matrix.copy()
        flipped[0, j] ^= 1
        try:
            return ParityCheckMatrix(flipped)
        except ValueError:
            continue
    raise AssertionError("some single flip in row 0 keeps full rank when n >= 2")


class TestCheckpoint:
    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_roundtrip_reproduces_forward_bit_exactly(self, tmp_path, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, SCHED74, path, {"seed": "17"})
        loaded = load_checkpoint(path, code=ham74)
        assert loaded.metadata["seed"] == "17"
        rng = np.random.default_rng(18)
        for _ in range(100):
            feats = rng.normal(0, 1, 10) ** 2
            e = int(rng.integers(0, 4))
            assert np.array_equal(model.forward(feats, e).data,
                                  loaded.model.forward(feats, e).data)

    def test_truncated_file_is_rejected(self, tmp_path, ham74):
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=19)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, SCHED74, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bitflip_corruption_is_rejected(self, tmp_path, ham74):
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=19)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, SCHED74, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_code_dimensions_rejected(self, tmp_path, ham74):
        from diffdec.gf2 import ParityCheckMatrix
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=20)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, SCHED74, path)
        mat = np.zeros((4, 15), dtype=np.uint8)
        mat[:, :11] = np.random.default_rng(0).integers(0, 2, (4, 11))
        mat[:, 11:] = np.eye(4, dtype=np.uint8)
        other = ParityCheckMatrix(np.maximum(mat, 0))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, code=other)

    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_another_matrix_of_the_same_dimensions_rejected(self, tmp_path, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=20)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, SCHED74, path)
        reversed_code = ParityCheckMatrix(ham74.matrix[:, ::-1])
        assert not np.array_equal(reversed_code.matrix, ham74.matrix)
        with pytest.raises(CheckpointError, match="parity-check matrix"):
            load_checkpoint(path, code=reversed_code)

    @pytest.mark.parametrize("name,value", [("code.H", None), ("schedule.betas", None),
                                            ("code.H", 0.5), ("schedule.betas", -0.01)])
    def test_missing_or_malformed_code_or_schedule_rejected(self, tmp_path, ham74, name, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(DenoiserModel.create(ham74, ARCHS["mlp"], seed=19), SCHED74, path)
        body = path.read_bytes()[:-4]
        start, values_at, end = _record(body, name)
        if value is None:  # drop the record and decrement the array count
            count_at = 16 + struct.unpack("<I", body[12:16])[0]
            (count,) = struct.unpack("<I", body[count_at:count_at + 4])
            body = (body[:count_at] + struct.pack("<I", count - 1)
                    + body[count_at + 4:start] + body[end:])
        else:  # overwrite the record's first value
            body = body[:values_at] + struct.pack("<d", value) + body[values_at + 8:]
        path.write_bytes(_sealed(body))
        with pytest.raises(CheckpointError, match=name if value is None else "record"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, ham74, value):
        # the CRC holds for a value written on purpose
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=19)
        model.params["head.bias"].data[3] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, SCHED74, path)
        with pytest.raises(CheckpointError, match="head.bias"):
            load_checkpoint(path)

    @settings(max_examples=25, deadline=None)
    @given(code_and_rng=codes(), backbone=st.sampled_from(["mlp", "masked_attention"]),
           data=st.data())
    def test_round_trip_binds_code_and_schedule(self, tmp_path_factory, code_and_rng,
                                                backbone, data):
        H, _ = code_and_rng
        model = DenoiserModel.create(H, ArchConfig(backbone, embed_dim=4, layers=1,
                                                   hidden_mult=2), seed=3)
        betas = data.draw(st.lists(st.floats(1e-4, 1.0), min_size=H.num_checks,
                                   max_size=H.num_checks))
        path = tmp_path_factory.getbasetemp() / "property.ckpt"
        save_checkpoint(model, NoiseSchedule(betas), path)

        loaded = load_checkpoint(path, code=H)
        assert np.array_equal(loaded.model.code.matrix, H.matrix)
        assert np.array_equal(loaded.schedule.betas, betas)
        assert loaded.model.params.keys() == model.params.keys()
        for name, p in model.params.items():
            assert np.array_equal(loaded.model.params[name].data, p.data)

        with pytest.raises(CheckpointError):
            load_checkpoint(path, code=_other_matrix(H))

        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
