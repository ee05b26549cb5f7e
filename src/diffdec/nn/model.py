"""Parity-conditioned denoiser.

Input is the codeword-invariant feature vector [|y|, s(y)] of length 2n-k;
output is one logit per code bit predicting whether that bit's sign was
flipped by the channel (the binarized multiplicative noise).

Each of the 2n-k scalar features is embedded by scaling a learned
position-specific d-vector, then every embedding is multiplied elementwise
by a learned conditioning row indexed by the parity-error count e in
{0, ..., n-k}.  Two backbones share that front end:

* ``mlp`` - flatten the conditioned embeddings and run a GELU MLP.  For a
  fixed count e the chain embedding -> conditioning row -> first dense
  layer W1 (the head when layers = 0) is linear in the features, so the
  forward folds it into one (2n-k, width) matrix per count
  ``M[e][i, :] = sum_j embed[i, j] * cond[e, j] * W1[(i, j), :]``, built
  from the parameters on every call for the u distinct counts of the batch
  (training and decoding share it, so nothing goes stale after an optimizer
  step).  Each feature row is multiplied by the matrix of its own count.
  Per row the first layer then costs (2n-k)*width multiply-adds instead of
  (2n-k)*d*width, whatever n-k is, and building the matrices costs
  u(2n-k)*d*width per call, with u <= min(batch, n-k+1).  So the folded
  layer costs at most (1 + 1/d) times the unfolded one (every row with its
  own count), and about 1/d of it when the batch is much larger than u.
  When no graph is recorded, each GELU overwrites the fresh product of the
  layer before it, which nothing else reads.  ``denoise``, the decoder's
  entry point, is ``forward`` under ``no_grad`` for both backbones;
* ``masked_attention`` - treat the 2n-k embeddings as tokens and run
  pre-norm self-attention blocks whose attention is restricted to pairs of
  positions that share a parity check (magnitude i <-> syndrome r iff
  H[r,i]=1, magnitude i <-> magnitude j iff some check contains both,
  syndrome tokens only attend to themselves), plus self-connections.
  A block's queries, keys, values, masked softmax and value product are
  one ``tensor.attention`` node.  Logits are read off the first n tokens
  with a shared linear head, so the last block computes only those bit
  tokens: its keys and values come from every token, its queries,
  attention output, feed-forward and the final layer norm from the first
  n alone (with no block, the n tokens go straight to the final layer
  norm).  The logits equal those of running every token through every
  block and slicing at the end, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import check_count, make_rng
from ..gf2 import ParityCheckMatrix, as_bits, hard_decision, word_batch
from . import tensor as T
from .tensor import Tensor

BACKBONES = ("mlp", "masked_attention")


@dataclass(frozen=True)
class ArchConfig:
    backbone: str = "mlp"
    embed_dim: int = 32
    layers: int = 2
    hidden_mult: int = 4

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        check_count(embed_dim=self.embed_dim, hidden_mult=self.hidden_mult)
        check_count(0, layers=self.layers)


def attention_mask(H: np.ndarray) -> np.ndarray:
    """Boolean (2n-k, 2n-k) mask of allowed attention pairs for a code."""
    m, n = H.shape
    h = H.astype(bool)
    s = n + m
    allow = np.zeros((s, s), dtype=bool)
    allow[:n, :n] = (h.T.astype(np.int64) @ h.astype(np.int64)) > 0
    allow[:n, n:] = h.T
    allow[n:, :n] = h
    np.fill_diagonal(allow, True)
    return allow


def preprocess(y: np.ndarray, H: ParityCheckMatrix) -> tuple[np.ndarray, int]:
    """Map one finite length-n received word to ([|y|, s(y)], parity-error count)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (H.n,):
        raise ValueError(f"expected a length-{H.n} word, got shape {y.shape}")
    feats, e = preprocess_batch(word_batch(y[None, :], H.n), H)
    return feats[0], int(e[0])


def preprocess_batch(Y: np.ndarray, H: ParityCheckMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Batched preprocess: (B, n) -> ((B, 2n-k), (B,) parity counts)."""
    return syndrome_features(Y, H.syndrome_bits(hard_decision(Y)))


def syndrome_features(Y: np.ndarray, syndrome: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The feature layout [|y|, s(y)] and parity counts of words with known syndrome bits."""
    feats = np.concatenate([np.abs(np.asarray(Y, dtype=np.float64)),
                            syndrome.astype(np.float64)], axis=-1)
    return feats, syndrome.sum(axis=-1).astype(np.int64)


class DenoiserModel:
    """Flip-probability predictor bound to one code; n, k and the attention mask come from it."""

    def __init__(self, arch: ArchConfig, code: ParityCheckMatrix, params: dict[str, Tensor]):
        self.arch = arch
        self.code = code
        self.n = code.n
        self.k = code.k
        self.params = params
        self.mask = attention_mask(code.matrix) if arch.backbone == "masked_attention" else None
        self._mask_bias = None if self.mask is None else np.where(self.mask, 0.0, -np.inf)

    @property
    def widest_activation(self) -> int:
        """Floats of the widest activation one word holds in a forward pass:
        the MLP's 2n-k input features or a hidden layer; masked attention's
        feed-forward hidden layer over all 2n-k tokens or its (2n-k)^2
        attention scores."""
        s, width = 2 * self.n - self.k, self.arch.hidden_mult * self.arch.embed_dim
        return max(s, width) if self.arch.backbone == "mlp" else s * max(s, width)

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, code: ParityCheckMatrix, arch: ArchConfig, seed: int) -> "DenoiserModel":
        n, k = code.n, code.k
        s = 2 * n - k
        d = arch.embed_dim
        rng = make_rng(seed)
        params: dict[str, Tensor] = {}

        def param(name, array):
            t = Tensor(array, requires_grad=True)
            params[name] = t
            return t

        param("embed.weight", rng.standard_normal((s, d)))
        # ones + small noise: conditioning starts as a near-identity gate
        param("cond.table", 1.0 + 0.02 * rng.standard_normal((n - k + 1, d)))
        if arch.backbone == "mlp":
            width = arch.hidden_mult * d
            fan_in = s * d
            for i in range(arch.layers):
                param(f"hidden.{i}.weight", rng.standard_normal((fan_in, width)) / np.sqrt(fan_in))
                param(f"hidden.{i}.bias", np.zeros(width))
                fan_in = width
            param("head.weight", 0.1 * rng.standard_normal((fan_in, n)) / np.sqrt(fan_in))
            param("head.bias", np.zeros(n))
        else:
            width = arch.hidden_mult * d
            for i in range(arch.layers):
                pre = f"blocks.{i}."
                param(pre + "ln1.gain", np.ones(d))
                param(pre + "ln1.bias", np.zeros(d))
                for w in ("wq", "wk", "wv", "wo"):
                    param(pre + w, rng.standard_normal((d, d)) / np.sqrt(d))
                param(pre + "ln2.gain", np.ones(d))
                param(pre + "ln2.bias", np.zeros(d))
                param(pre + "ffn1.weight", rng.standard_normal((d, width)) / np.sqrt(d))
                param(pre + "ffn1.bias", np.zeros(width))
                param(pre + "ffn2.weight", rng.standard_normal((width, d)) / np.sqrt(width))
                param(pre + "ffn2.bias", np.zeros(d))
            param("final_ln.gain", np.ones(d))
            param("final_ln.bias", np.zeros(d))
            param("head.weight", 0.1 * rng.standard_normal((d, 1)) / np.sqrt(d))
            param("head.bias", np.zeros(1))
        return cls(arch, code, params)

    # -- forward ----------------------------------------------------------

    def _folded_first_layer(self, feats, e: np.ndarray) -> Tensor:
        """The MLP's first dense layer (the head when layers = 0) with its bias,
        through the folded front end of the module docstring: M[c] =
        folded[:, g] for the g-th count c present, one (u, d) @ (d, width)
        product per position."""
        s, d = 2 * self.n - self.k, self.arch.embed_dim
        first = "hidden.0" if self.arch.layers else "head"
        w1 = self.params[first + ".weight"]
        order = np.argsort(e, kind="stable")  # each count's rows, in batch order
        counts, starts = np.unique(e[order], return_index=True)
        gate = T.mul(T.reshape(self.params["embed.weight"], (s, 1, d)),
                     T.reshape(T.gather_rows(self.params["cond.table"], counts),
                               (1, len(counts), d)))
        folded = T.matmul(gate, T.reshape(w1, (s, d, w1.data.shape[1])))
        return T.grouped_matmul(feats, order, np.append(starts, len(e)), folded,
                                self.params[first + ".bias"])

    def forward(self, features, e) -> Tensor:
        """Logits for one feature vector or a (B, 2n-k) batch."""
        feats = features if isinstance(features, Tensor) else Tensor(features)
        single = feats.data.ndim == 1
        if single:
            feats = T.reshape(feats, (1, -1))
        e_arr = np.atleast_1d(np.asarray(e))
        b, s = feats.data.shape
        if s != 2 * self.n - self.k:
            raise ValueError(f"expected feature length {2 * self.n - self.k}, got {s}")
        if not np.issubdtype(e_arr.dtype, np.integer):
            raise ValueError(f"parity counts must be integers, got dtype {e_arr.dtype}")
        if ((e_arr < 0) | (e_arr > self.n - self.k)).any():
            raise ValueError(f"parity count outside 0..{self.n - self.k}")
        if len(e_arr) != b:
            raise ValueError(f"{b} feature rows but {len(e_arr)} parity counts")
        if self.arch.backbone == "mlp":
            logits = self._folded_first_layer(feats, e_arr)
            tail = [f"hidden.{i}" for i in range(1, self.arch.layers)] + ["head"]
            for name in tail[:self.arch.layers]:  # none when the first layer is the head
                # a product no graph reads takes its GELU in place
                out = None if logits.requires_grad else logits.data
                logits = T.matmul(T.gelu(logits, out=out), self.params[name + ".weight"],
                                  self.params[name + ".bias"])
        else:
            emb = T.mul(T.reshape(feats, (b, s, 1)), self.params["embed.weight"])
            psi = T.gather_rows(self.params["cond.table"], e_arr)
            x = T.mul(emb, T.reshape(psi, (b, 1, -1)))
            layers = self.arch.layers
            if not layers:
                x = T.slice_leading(x, self.n)
            for i in range(layers):
                pre = f"blocks.{i}."
                h = T.layer_norm(x, self.params[pre + "ln1.gain"], self.params[pre + "ln1.bias"])
                if i == layers - 1:  # the head reads the bit tokens alone: only they query
                    x = T.slice_leading(x, self.n)
                att = T.attention(h, *(self.params[pre + w] for w in ("wq", "wk", "wv")),
                                  self._mask_bias[:x.data.shape[1]])
                x = T.add(x, T.matmul(att, self.params[pre + "wo"]))
                h2 = T.layer_norm(x, self.params[pre + "ln2.gain"], self.params[pre + "ln2.bias"])
                f = T.gelu(T.matmul(h2, self.params[pre + "ffn1.weight"],
                                    self.params[pre + "ffn1.bias"]))
                x = T.add(x, T.matmul(f, self.params[pre + "ffn2.weight"],
                                      self.params[pre + "ffn2.bias"]))
            x = T.layer_norm(x, self.params["final_ln.gain"], self.params["final_ln.bias"])
            # the bias goes on after the reshape: inside matmul, the (1,) bias would sum
            # its gradient over (B, n, 1), in another order
            logits = T.add(T.reshape(T.matmul(x, self.params["head.weight"]), (b, self.n)),
                           self.params["head.bias"])
        return T.reshape(logits, (-1,)) if single else logits

    def denoise(self, Y: np.ndarray, syndrome: np.ndarray) -> np.ndarray:
        """Inference entry point: (B, n) finite words and their (B, n-k)
        syndrome bits (0 or 1) -> flip logits, ``forward`` of their features
        under ``no_grad``."""
        Y, syndrome = np.asarray(Y), as_bits(syndrome, "syndrome bits")
        if Y.ndim != 2 or Y.shape[1] != self.n or syndrome.shape != (len(Y), self.n - self.k):
            raise ValueError(f"expected (B, {self.n}) words and (B, {self.n - self.k}) "
                             f"syndrome bits, got {Y.shape} and {syndrome.shape}")
        Y = word_batch(Y, self.n)  # refuses inf and nan, which would give NaN logits
        with T.no_grad():
            return self.forward(*syndrome_features(Y, syndrome)).data

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
