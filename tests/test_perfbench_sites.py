"""The benchmark in perfbench/ patches diffdec by attribute name.  A rename in
src/ must fail here rather than only as a failed benchmark run."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import diffdec.bp
from diffdec.channel import awgn_batch, make_rng
from diffdec.decoding import DecodeConfig, decode_batch
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import (ParityCheckMatrix, builtin_code, encode_batch, hard_decision,
                         systematic_generator)
from diffdec.nn import ArchConfig, DenoiserModel
from diffdec.nn.model import syndrome_features
from diffdec.nn import tensor as nn_tensor
from oracles import regular_ldpc

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import workloads  # noqa: F401  (its imports from diffdec must resolve)
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


def test_every_trace_site_resolves(tracer):
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.TRACE_SITES
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("make", ["Tracer", "Probe"])
def test_patches_install_and_restore(tracer, make):
    # Patches.wrap looks each site up by name: a missing one raises KeyError here
    with getattr(tracer, make)().installed() as patches:
        saved = list(patches.saved)
    assert saved and all(vars(owner)[attr] is original for owner, attr, original in saved)


@pytest.mark.parametrize("mode", ["regular", "line_search"])
def test_mlp_decode_calls_gelu_and_matmul_through_the_module(tracer, monkeypatch, mode):
    # the tracer sees nn.op.gelu, nn.op.matmul and nn.matmul.mflop only through these
    # module attributes; each denoiser call runs a GELU and a GEMM per layer after the first
    calls, flops = Counter(), Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "matmul":
                flops[name] += tracer._matmul_flops(args, kwargs)
            return original(*args, **kwargs)
        return counted

    for owner, name in ((nn_tensor, "gelu"), (nn_tensor, "matmul"), (DenoiserModel, "denoise")):
        monkeypatch.setattr(owner, name, counting(name, vars(owner)[name]))
    H = builtin_code("hamming74")
    model = DenoiserModel.create(H, ArchConfig("mlp", embed_dim=8, layers=2), seed=1)
    Y = np.random.default_rng(2).normal(1.0, 1.0, (256, H.n))
    decode_batch(model, H, NoiseSchedule.constant(0.25, 3), Y, DecodeConfig(mode=mode))
    assert calls["denoise"] > 0
    assert calls["gelu"] == 2 * calls["denoise"]  # one per layer after the first, however many rows
    assert calls["matmul"] >= 3 * calls["denoise"]  # the fold, the hidden layer and the head
    S = H.syndrome_bits(hard_decision(Y))
    flops.clear()
    model.denoise(Y, S)
    denoise_flops = flops["matmul"]
    flops.clear()
    with nn_tensor.no_grad():
        model.forward(*syndrome_features(Y, S))
    assert denoise_flops == flops["matmul"] > 0  # the same nn.matmul.mflop as forward


def test_bp_calls_check_update_through_the_module_once_per_iteration(monkeypatch):
    # bp.check_update.self_s and bp.edge_msgs read these calls, gf2.syndrome the syndrome ones
    widths, syndromes = [], []
    check_update, syndrome_bits = diffdec.bp.check_update, ParityCheckMatrix.syndrome_bits

    def counted_check_update(messages, graph, *args, **kwargs):
        assert messages.flags.c_contiguous and messages.shape[0] == graph.num_slots
        widths.append(messages.shape[1])
        return check_update(messages, graph, *args, **kwargs)

    def counted_syndrome_bits(self, bits):
        syndromes.append(np.shape(bits))
        return syndrome_bits(self, bits)

    monkeypatch.setattr(diffdec.bp, "check_update", counted_check_update)
    monkeypatch.setattr(ParityCheckMatrix, "syndrome_bits", counted_syndrome_bits)
    H = regular_ldpc(24, 3, 6, seed=1)
    G = systematic_generator(H)
    rng = make_rng(4)
    Y = awgn_batch(encode_batch(G, rng.integers(0, 2, (200, G.k), dtype=np.uint8)), 0.7, rng)
    syndromes.clear()  # the code's construction may compute syndromes of its own
    _, converged, iters, _ = diffdec.bp.bp_decode_batch(H, Y, 0.7, max_iters=20)
    assert syndromes == [Y.shape]  # once, on the channel decisions
    # one call per iteration, on the words still alive: the width falls as words leave
    assert widths == [int((iters >= it).sum()) for it in range(1, iters.max() + 1)]
    assert len(set(widths)) > 2 and not converged.all()
