import struct
import threading
import tracemalloc
import weakref
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
from diffdec.nn.tensor import _BLOCK_FLOATS
from diffdec.nn.tensor import Tensor
from diffdec.training import training_step
from oracles import codes, finite_diff_param_grad, pseudo_ldpc_49_24

# Parameter gradients of _reference_case_grads as computed before the weight
# gradient of a batched input took one GEMM and GELU, softmax and layer norm
# ran in place; regenerate only for a deliberate change of the arithmetic.
GRAD_REFERENCE = Path(__file__).parent / "data" / "grad_reference.npz"
# Losses and parameters of _reference_training as computed when Adam stepped one
# flat vector of every parameter; regenerate only for a deliberate change of the
# arithmetic.
TRAIN_REFERENCE = Path(__file__).parent / "data" / "train_reference.npz"
SCHED74 = NoiseSchedule.constant(0.01, 3)
ARCHS = {
    "mlp": ArchConfig("mlp", embed_dim=8, layers=2),
    "masked_attention": ArchConfig("masked_attention", embed_dim=8, layers=2),
}
DENOISE_CODES = {"rep31": lambda: builtin_code("rep31"),
                 "hamming74": lambda: builtin_code("hamming74"), "ldpc49": pseudo_ldpc_49_24}
# (backbone, code, layers, hidden_mult, rows): row counts whose MLP hidden layers
# straddle GELU's flat block of _BLOCK_FLOATS floats; masked attention at 64 rows
DENOISE_CASES = (
    [("mlp", code, layers, mult, rows) for code in DENOISE_CODES for layers in (0, 1, 2)
     for mult in (1, 4) for rows in ("1", "block-1", "block", "block+1", "3.5 blocks")]
    + [("masked_attention", code, 2, 4, "64") for code in DENOISE_CODES])


def _row_sums(x):
    return np.einsum("...i->...", x)[..., None]


def _row_dots(x, y):
    return np.einsum("...i,...i->...", x, y)[..., None]


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
        att = T.attention(h, p[pre + "wq"], p[pre + "wk"], p[pre + "wv"],
                          np.where(model.mask, 0.0, -np.inf))
        x = T.add(x, T.matmul(att, p[pre + "wo"]))
        h2 = T.layer_norm(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        f = T.gelu(T.matmul(h2, p[pre + "ffn1.weight"], p[pre + "ffn1.bias"]))
        x = T.add(x, T.matmul(f, p[pre + "ffn2.weight"], p[pre + "ffn2.bias"]))
    x = T.layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])
    head = T.matmul(T.slice_leading(x, model.n), p["head.weight"])
    return T.add(T.reshape(head, (b, model.n)), p["head.bias"]).data


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

    def test_parity_counts_must_be_integers(self, ham74):
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=0)
        feats = np.random.default_rng(1).normal(0, 1, (2, 10)) ** 2
        with pytest.raises(ValueError, match="integers"):
            model.forward(feats, np.array([1.7, 2.9]))
        with pytest.raises(ValueError, match="integers"):
            model.forward(feats[0], 1.0)
        assert model.forward(feats[0], 1).shape == (7,)  # preprocess's Python int

    @pytest.mark.parametrize("backbone", list(ARCHS))
    def test_denoise_rejects_words_and_syndromes_of_the_wrong_width(self, ham74, backbone):
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=0)
        Y = np.random.default_rng(1).normal(1, 1, (4, 8))
        for y, s in ((Y, np.zeros((4, 2))), (Y[:, :7], np.zeros((4, 4))),
                     (Y[:, :7], np.zeros((3, 3))), (Y[0, :7], np.zeros(3))):
            with pytest.raises(ValueError, match="syndrome bits"):
                model.denoise(y, s)
        assert model.denoise(Y[:, :7], np.zeros((4, 3))).shape == (4, 7)

    @pytest.mark.parametrize("backbone", list(ARCHS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_denoise_rejects_non_finite_words(self, ham74, backbone, bad):
        # as every decoder does: a nan or inf entry gave NaN logits
        model = DenoiserModel.create(ham74, ARCHS[backbone], seed=0)
        Y = np.ones((3, 7))
        Y[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            model.denoise(Y, np.zeros((3, 3), dtype=np.uint8))

    @pytest.mark.parametrize("syndrome", [[[0.5, 0.5, 0], [2, 0, 0]], [[0, 1, 0], [2, 0, 0]],
                                          [[0, -1, 0], [0, 0, 1]]],
                             ids=["halves", "two", "negative"])
    def test_denoise_rejects_syndrome_entries_other_than_bits(self, ham74, syndrome):
        # a half-valued entry would enter the features as 0.5 and the parity count as a
        # fraction; 2 and -1 would count as two and minus one unsatisfied checks
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=0)
        with pytest.raises(ValueError, match="syndrome bits must be 0 or 1"):
            model.denoise(np.ones((2, 7)), np.array(syndrome))

    @pytest.mark.parametrize("backbone,layers", [("mlp", 0), ("mlp", 2), ("masked_attention", 2)])
    def test_forward_without_graph_writes_only_into_its_own_products(self, ham74, backbone, layers):
        arch = ArchConfig(backbone, embed_dim=8, layers=layers)
        model = DenoiserModel.create(ham74, arch, seed=2)
        # 1500 rows: the hidden layers span several GELU blocks
        feats, e = preprocess_batch(np.random.default_rng(3).normal(0.5, 1, (1500, 7)), ham74)
        before = [feats.copy()] + [t.data.copy() for t in model.params.values()]
        with T.no_grad():
            model.forward(feats, e)
            model.forward(Tensor(feats), e)
        after = [feats] + [t.data for t in model.params.values()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_codeword_invariance_of_full_input_bit_exact(self, ham74, ham74_gen):
        model = DenoiserModel.create(ham74, ARCHS["masked_attention"], seed=6)
        rng = make_rng(7)
        y = rng.normal(0, 1, 7)
        feats, e = preprocess(y, ham74)
        base = model.forward(feats, e).data
        for cw in ham74_gen.codebook():
            feats_m, e_m = preprocess(y * bpsk(Codeword(cw)), ham74)
            assert np.array_equal(model.forward(feats_m, e_m).data, base)

    @pytest.mark.parametrize("backbone,code,layers,hidden_mult,rows", DENOISE_CASES)
    def test_denoise_from_syndrome_bits_equals_forward_of_preprocess(
            self, backbone, code, layers, hidden_mult, rows):
        H = DENOISE_CODES[code]()
        arch = ArchConfig(backbone, embed_dim=8, layers=layers, hidden_mult=hidden_mult)
        model = DenoiserModel.create(H, arch, seed=10)
        rng = np.random.default_rng(11)
        for t in model.params.values():  # off the initial point: nonzero biases
            t.data += rng.normal(0, 0.1, t.data.shape)
        block = _BLOCK_FLOATS // (arch.embed_dim * hidden_mult)  # rows per GELU block
        count = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
                 "3.5 blocks": 7 * block // 2, "64": 64}[rows]
        Y = rng.normal(0.5, 1, (count, H.n))
        S = H.syndrome_bits(hard_decision(Y))
        want = model.forward(*preprocess_batch(Y, H)).data
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
        names = {id(p): name for name, p in model.params.items()}
        rows = {}  # weight name -> the (batch, token) rows it multiplies
        matmul, attention = T.matmul, T.attention

        def recording_matmul(a, b, *rest):
            if id(b) in names:
                rows[names[id(b)]] = np.shape(a.data if isinstance(a, Tensor) else a)[:-1]
            return matmul(a, b, *rest)

        def recording_attention(h, wq, wk, wv, bias):
            out = attention(h, wq, wk, wv, bias)
            rows[names[id(wq)]] = out.data.shape[:-1]  # one output row per query
            rows[names[id(wk)]] = rows[names[id(wv)]] = h.data.shape[:-1]
            return out

        monkeypatch.setattr(T, "matmul", recording_matmul)
        monkeypatch.setattr(T, "attention", recording_attention)
        model.forward(feats, e)
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


def _groups(group: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each of ``count`` groups in batch order, and the bounds of each group in them."""
    order = np.argsort(group, kind="stable")
    return order, np.searchsorted(group[order], np.arange(count + 1))


class TestGroupedMatmul:
    def test_matches_per_row_products_and_central_differences(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(9, 5)), requires_grad=True)
        tables = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
        group = np.array([2, 0, 2, 3, 0, 2, 0, 0, 3])  # group 1 has no rows
        probe = rng.normal(size=(9, 3))
        order, bounds = _groups(group, 4)
        out = T.grouped_matmul(x, order, bounds, tables)
        want = np.stack([x.data[b] @ tables.data[:, g] for b, g in enumerate(group)])
        assert np.allclose(out.data, want, rtol=0, atol=1e-14)
        T.matmul(T.reshape(T.mul(out, probe), (1, -1)), np.ones((probe.size, 1))).backward()
        h = 1e-6
        for t in (x, tables):
            for index in np.ndindex(*t.data.shape):
                saved = t.data[index]
                t.data[index] = saved + h
                up = (T.grouped_matmul(x.data, order, bounds, tables.data).data * probe).sum()
                t.data[index] = saved - h
                down = (T.grouped_matmul(x.data, order, bounds, tables.data).data * probe).sum()
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
        # the MLP's folded front end: 3-D @ 3-D, one product per feature position
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

    # one GELU block, and several with a ragged tail (77,000 floats)
    GELU_SHAPES = [(32, 10, 64), (7, 11, 1000)]

    @pytest.mark.parametrize("shape", GELU_SHAPES)
    def test_gelu_forward_and_backward(self, shape):
        x, probe = self._inputs(shape)  # large enough for the cube's rounding to show
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

    @pytest.mark.parametrize("shape", GELU_SHAPES)
    def test_gelu_into_out_equals_gelu(self, shape):
        x, _ = self._inputs(shape)
        want = T.gelu(x).data
        out = np.empty_like(x)
        assert T.gelu(x, out=out).data is out
        assert np.array_equal(out, want)
        a = x.copy()
        T.gelu(a, out=a)  # overwrites its operand
        assert np.array_equal(a, want)

    def test_gelu_into_out_refused_while_a_graph_is_recorded(self):
        x, _ = self._inputs((4, 3, 5))
        t = Tensor(x, requires_grad=True)
        with pytest.raises(RuntimeError, match="no_grad"):
            T.gelu(t, out=np.empty_like(x))
        with T.no_grad():
            assert np.array_equal(T.gelu(t, out=np.empty_like(x)).data, T.gelu(x).data)

    def test_softmax_forward_and_backward(self):
        x, probe = self._inputs((6, 5, 8))
        x[..., 1] = -np.inf  # a masked position
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        s = e / _row_sums(e)
        t = Tensor(x, requires_grad=True)
        out = T.softmax_last(t)
        assert np.array_equal(out.data, s)
        _loss_of(out, probe).backward()
        assert np.array_equal(t.grad, s * (probe - _row_dots(probe, s)))

    def test_layer_norm_forward_and_backward(self):
        d = 12  # not a power of two, so that every division by d rounds
        x, probe = self._inputs((6, 5, d))
        rng = np.random.default_rng(45)
        gain = Tensor(rng.normal(size=d), requires_grad=True)
        bias = Tensor(rng.normal(size=d), requires_grad=True)
        xc = x - _row_sums(x) / d
        inv = 1.0 / np.sqrt(_row_dots(xc, xc) / d + 1e-5)
        xhat = xc * inv
        t = Tensor(x, requires_grad=True)
        out = T.layer_norm(t, gain, bias)
        assert np.array_equal(out.data, xhat * gain.data + bias.data)
        _loss_of(out, probe).backward()
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = probe * gain
        mean_dxhat = _row_dots(probe, gain.data / d)
        mean_dot = _row_dots(probe * xhat, gain.data / d)
        assert np.array_equal(t.grad, (probe * gain.data - mean_dxhat - xhat * mean_dot) * inv)
        for p, want in ((gain, (probe * xhat).sum(axis=(0, 1))), (bias, probe.sum(axis=(0, 1)))):
            assert np.abs(p.grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [12, 32])
    def test_each_row_of_a_batch_equals_its_one_row_call(self, d):
        # softmax and layer norm sum each row on its own: a word's logits do
        # not depend on the batch it is decoded or trained in
        x, probe = self._inputs((64, 10, d))
        rng = np.random.default_rng(54)
        gain, bias = rng.normal(size=d), rng.normal(size=d)
        for op in (T.softmax_last, lambda t: T.layer_norm(t, gain, bias)):
            out, (grad,) = _forward_and_grads(op, [x], probe)
            for b, j in np.ndindex(x.shape[:2]):
                row, (row_grad,) = _forward_and_grads(op, [x[b:b + 1, j:j + 1]],
                                                      probe[b:b + 1, j:j + 1])
                assert np.array_equal(row[0, 0], out[b, j]), (b, j)
                assert np.array_equal(row_grad[0, 0], grad[b, j]), (b, j)


def _forward_and_grads(build, arrays, probe):
    """build(*tensors) over leaves that share the caller's arrays, and each leaf's gradient."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    _loss_of(out, probe).backward()
    return out.data, [t.grad for t in leaves]


class TestFusedOps:
    """The fused ops equal the chains of plain ops they replace bit for bit, in the
    forward and in every gradient, and leave every array they are handed unchanged."""

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
    def test_matmul_with_bias_equals_matmul_then_add(self, lead):
        rng = np.random.default_rng(47)
        arrays = [rng.normal(size=lead + (6, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)]
        self._assert_same_as_chain(T.matmul, lambda x, w, b: T.add(T.matmul(x, w), b),
                                   arrays, rng.normal(size=lead + (6, 3)))

    def test_matmul_with_bias_is_one_node_over_its_three_operands(self):
        rng = np.random.default_rng(48)
        x, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in ((6, 5), (5, 3), (3,)))
        out = T.matmul(x, w, b)
        assert out._record.parents == (x._record, w._record, b._record)
        assert all(not p.parents for p in out._record.parents)

    def test_grouped_matmul_with_bias_equals_grouped_matmul_then_add(self):
        rng = np.random.default_rng(49)
        order, bounds = _groups(np.array([2, 0, 2, 3, 0, 2, 0, 0, 3]), 4)
        arrays = [rng.normal(size=(9, 5)), rng.normal(size=(5, 4, 3)), rng.normal(size=3)]
        self._assert_same_as_chain(
            lambda x, t, b: T.grouped_matmul(x, order, bounds, t, b),
            lambda x, t, b: T.add(T.grouped_matmul(x, order, bounds, t), b),
            arrays, rng.normal(size=(9, 3)), constants=(order, bounds))


def _swap_last_axes(a: Tensor) -> Tensor:
    """a^T over the last two axes as a graph op, for the reference chain's k^T."""
    return T._make(a.data.swapaxes(-1, -2), (a._record,),
                   lambda grad: a._record.accumulate(grad.swapaxes(-1, -2)))


def _unfused_attention(h, wq, wk, wv, bias):
    """The chain of plain ops the attention node replaces: the first len(bias)
    tokens query, every token is a key and a value, and the scores are scaled
    by 1/sqrt(d) and masked before the softmax."""
    queries = T.slice_leading(h, len(bias)) if len(bias) < h.data.shape[1] else h
    scores = T.matmul(T.matmul(queries, wq), _swap_last_axes(T.matmul(h, wk)))
    scores = T.add(T.mul(scores, 1 / np.sqrt(h.data.shape[-1])), bias)
    return T.matmul(T.softmax_last(scores), T.matmul(h, wv))


class TestAttention:
    @staticmethod
    def _case(queries, b=3, s=6, d=4):
        rng = np.random.default_rng(46)
        arrays = [rng.normal(0, 2, (b, s, d))] + [rng.normal(size=(d, d)) for _ in range(3)]
        allow = rng.random((s, s)) < 0.5
        np.fill_diagonal(allow, True)  # every row keeps a partner, as in attention_mask
        return arrays, np.where(allow, 0.0, -np.inf)[:queries], rng.normal(size=(b, queries, d))

    @pytest.mark.parametrize("queries, d", [(6, 4), (4, 4), (6, 6)],
                             ids=["every-token", "first-tokens", "d6"])
    def test_equals_the_unfused_chain(self, queries, d):
        # d = 6: a scale of 1/sqrt(6), which no other simple formula of d gives
        # (at d = 4, 1/sqrt(d) = 2/d = 0.5)
        arrays, mask, probe = self._case(queries, d=d)
        before = [a.tobytes() for a in (*arrays, mask)]
        want, want_grads = _forward_and_grads(
            lambda *t: _unfused_attention(*t, mask), arrays, probe)
        got, got_grads = _forward_and_grads(lambda *t: T.attention(*t, mask), arrays, probe)
        assert got.shape == probe.shape and np.array_equal(got, want)
        # h's gradient adds the q, k and v paths inside one product: equal to rounding
        for g, w in zip(got_grads, want_grads, strict=True):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
        with T.no_grad():
            out = T.attention(*(Tensor(a, requires_grad=True) for a in arrays), mask)
        assert not out.requires_grad and np.array_equal(out.data, want)
        assert [a.tobytes() for a in (*arrays, mask)] == before

    def test_masked_pairs_get_zero_weight_and_zero_gradient(self):
        (h, *weights), mask, probe = self._case(6)
        out = T.attention(h, *weights, mask).data
        checked = 0
        for i, row in enumerate(mask):
            blocked = row == -np.inf
            if not blocked.any():
                continue
            moved = h.copy()
            moved[:, blocked] += 1.0  # the tokens query i may not see
            assert np.array_equal(T.attention(moved, *weights, mask).data[:, i],
                                  out[:, i])
            only_i = np.zeros_like(probe)
            only_i[:, i] = probe[:, i]
            _, (grad_h, *_) = _forward_and_grads(
                lambda *t: T.attention(*t, mask), [h, *weights], only_i)
            assert not grad_h[:, blocked].any() and grad_h[:, ~blocked].all()
            checked += 1
        assert checked > 2


class TestGraphRelease:
    def test_interior_gradients_are_released_and_leaves_keep_theirs(self):
        rng = np.random.default_rng(50)
        x, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
                   for shape in ((4, 6, 5), (5, 3), (3,)))
        h = T.matmul(x, w, b)
        g = T.gelu(h)
        loss = _loss_of(g, rng.normal(size=(4, 6, 3)))
        loss.backward()
        assert h.grad is None and g.grad is None and loss.grad is None
        assert [t.grad.shape for t in (x, w, b)] == [(4, 6, 5), (5, 3), (3,)]

    def test_backward_needs_a_graph_not_yet_consumed(self):
        w = Tensor(np.ones((3, 1)), requires_grad=True)
        with T.no_grad():
            untracked = T.matmul(np.ones((1, 3)), w)
        loss = T.matmul(np.ones((1, 3)), w)
        loss.backward()
        for root, message in ((Tensor(1.0), "outside any graph"),
                              (untracked, "outside any graph"), (loss, "already consumed")):
            with pytest.raises(RuntimeError, match=message):
                root.backward()
        assert untracked.grad is None and np.array_equal(w.grad, np.ones((3, 1)))

    def test_graph_keeps_no_array_its_backward_does_not_read(self):
        # GELU's backward reads its derivative, not its operand: once the caller
        # drops the product, nothing holds its array
        rng = np.random.default_rng(53)
        arrays = [rng.normal(size=shape) for shape in ((4, 6, 5), (5, 3), (3,))]
        probe = rng.normal(size=(4, 6, 3))
        grads = []
        for drop in (False, True):
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            u = T.matmul(x, w, b)
            ref = weakref.ref(u.data)
            g = T.gelu(u)
            if drop:
                del u
                assert ref() is None
            _loss_of(g, probe).backward()
            grads.append([t.grad for t in (x, w, b)])
        for got, want in zip(*grads, strict=True):
            assert np.array_equal(got, want)

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
        # the bit tokens alone; 15.7 MiB with one attention node per block, whose
        # q, k and v share one array and whose gradients share another; 11.1 MiB
        # once each backward kept only the arrays it reads, not its operands
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
        assert peak < 12.5 * 2**20, f"{peak / 2**20:.1f} MiB"


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


def _reference_training(backbone: str) -> dict[str, np.ndarray]:
    """The 10 losses and every parameter after 10 training steps at batch 32 on
    Hamming(7,4), each followed by ``Adam.step(1e-2)``; the noise flips 1-10 %
    of the bits, so the losses stay away from 0."""
    model = DenoiserModel.create(builtin_code("hamming74"), ARCHS[backbone], seed=23)
    opt = Adam(model.params)
    rng = make_rng(24, stream=1)
    schedule = NoiseSchedule.constant(0.2, 3)
    losses = []
    for _ in range(10):
        losses.append(training_step(model, schedule, 32, rng))
        opt.step(1e-2)
    got = {f"{backbone}/{name}": p.data for name, p in model.params.items()}
    got[f"{backbone}/losses"] = np.array(losses)
    return got


@pytest.mark.parametrize("backbone", list(ARCHS))
def test_training_matches_the_saved_reference(backbone):
    with np.load(TRAIN_REFERENCE) as saved:
        want = {name: saved[name] for name in saved.files if name.startswith(backbone + "/")}
    got = _reference_training(backbone)
    assert sorted(got) == sorted(want)
    for name, value in got.items():
        scale = np.abs(want[name]).max()
        assert scale > 0, name
        assert np.abs(value - want[name]).max() <= 1e-12 * scale, name


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

    def test_steps_equal_the_per_parameter_rule(self):
        rng = np.random.default_rng(53)
        # "big" holds more than _BLOCK_FLOATS floats
        shapes = {"w": (4, 3), "b": (3,), "t": (2, 3, 2), "big": (3, _BLOCK_FLOATS // 2),
                  "s": (1,)}
        params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                  for name, shape in shapes.items()}
        # each parameter's value and moments, stepped by the plain formulas
        ref = {name: (p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape))
               for name, p in params.items()}
        opt = Adam(params)
        for t in range(1, 6):
            lr = 1e-2 / t
            for name, p in params.items():
                # "s" has no gradient in steps 3 and 4: its value and moments rest
                idle = name == "s" and t in (3, 4)
                p.grad = None if idle else rng.normal(size=p.data.shape[::-1]).T  # strided
            opt.step(lr)
            for name, p in params.items():
                value, m, v = ref[name]
                if p.grad is not None:
                    g = p.grad
                    m[...] = 0.9 * m + (1 - 0.9) * g
                    v[...] = 0.999 * v + (1 - 0.999) * g * g
                    value -= lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
                assert np.array_equal(p.data, value), (name, t)

    def test_parameters_keep_their_own_arrays(self):
        arrays = {"w": np.ones((2, 3)), "b": np.zeros(3)}
        params = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
        opt = Adam(params)
        for name, p in params.items():
            assert p.data is arrays[name]
            p.grad = np.full(p.data.shape, 0.5)
        opt.step(0.1)
        assert all(p.data is arrays[name] for name, p in params.items())
        assert np.allclose(arrays["w"], 0.9) and np.allclose(arrays["b"], -0.1)

    def test_a_rebound_parameter_is_stepped(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"p": p})
        p.data = np.ones(3)
        p.grad = np.full(3, 2.0)
        opt.step(0.01)
        assert np.allclose(p.data, 0.99, rtol=1e-6)

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
        assert cosine_lr(0, 100, 1e-4, 5e-6) == pytest.approx(1e-4)
        assert cosine_lr(100, 100, 1e-4, 5e-6) == pytest.approx(5e-6)
        assert cosine_lr(50, 100, 1e-4, 5e-6) == pytest.approx((1e-4 + 5e-6) / 2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 1e-4, 5e-6)


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

    def test_schedule_shorter_than_n_minus_k_rejected(self, tmp_path, ham74):
        path = tmp_path / "model.ckpt"
        model = DenoiserModel.create(ham74, ARCHS["mlp"], seed=19)
        save_checkpoint(model, NoiseSchedule.constant(0.1, 2), path)
        with pytest.raises(CheckpointError, match=r"bad code or schedule record: .*T=2 < n-k=3"):
            load_checkpoint(path)
        save_checkpoint(model, NoiseSchedule.constant(0.1, 4), path)  # longer is accepted
        assert load_checkpoint(path, code=ham74).schedule.T == 4

    @pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**31, 2**31, 2)])
    def test_array_dims_past_int64_rejected(self, tmp_path, ham74, dims):
        # 2^64 and 2^63 floats: an int64 product reads them as 0 and as -2^63
        path = tmp_path / "model.ckpt"
        save_checkpoint(DenoiserModel.create(ham74, ARCHS["mlp"], seed=19), SCHED74, path)
        body = path.read_bytes()[:-4]
        start, values_at, _ = _record(body, "head.bias")
        rank_at = start + 2 + len("head.bias")
        body = body[:rank_at] + struct.pack("<B3I", 3, *dims) + body[values_at:]
        path.write_bytes(_sealed(body))
        with pytest.raises(CheckpointError, match="truncated"):
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
