"""Span tracing and output probes for the diffdec benchmark.

Nothing here edits diffdec.  The benchmark replaces public callables at the
site where diffdec looks them up (a module attribute or a class method) with
a wrapper, and puts the original back afterwards.  Two kinds of wrapper
exist:

* trace wrappers record one span per call (layer name, start, end, parent
  span, round/step id, and a work count taken from the arguments);
* check wrappers see every decoder batch and training step of a phase and
  verify its output; they run in untraced and traced runs alike, and the time
  they take is kept apart so it can be taken out of the phase's wall time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import diffdec.bench
import diffdec.bp
import diffdec.decoding
import diffdec.training
from diffdec.gf2 import ParityCheckMatrix
from diffdec.nn import Adam, DenoiserModel, Tensor
from diffdec.nn import tensor as nn_tensor


class Patches:
    """Replace attributes on modules or classes; restore them on exit."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self.saved.append((owner, attr, original))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _shape(x) -> tuple:
    return x.data.shape if isinstance(x, Tensor) else np.shape(x)


def _matmul_flops(args, _kwargs) -> int:
    a, b = _shape(args[0]), _shape(args[1])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return 2 * math.prod(batch) * a[-2] * a[-1] * b[-1]


# (owner, attribute, layer, work count taken from (args, kwargs)).  Methods
# receive ``self`` as args[0].
TRACE_SITES = (
    (diffdec.bench, "run_ber", "bench", None),
    (diffdec.bench, "encode_batch", "gf2.encode", None),
    (diffdec.bench, "awgn_batch", "channel.awgn", None),
    (diffdec.bench, "ml_decode_batch", "gf2.ml", None),
    (diffdec.bench, "bp_decode_batch", "bp", None),
    (diffdec.bp, "check_update", "bp.check_update", lambda a, k: np.size(a[0])),
    (diffdec.bench, "decode_batch", "decoding", None),
    (diffdec.decoding, "noise_coefficients", "diffusion", None),
    # leading dims of the bit array: (words,) or, from the line search, (words, grid)
    (ParityCheckMatrix, "syndrome_bits", "gf2.syndrome", lambda a, k: np.shape(a[1])[:-1]),
    (DenoiserModel, "denoise", "nn.denoise", lambda a, k: len(a[1])),
    (nn_tensor, "gelu", "nn.op.gelu", None),
    (nn_tensor, "matmul", "nn.op.matmul", _matmul_flops),
    (nn_tensor, "mul", "nn.op.mul", None),
    (nn_tensor, "add", "nn.op.add", None),
    (nn_tensor, "layer_norm", "nn.op.layer_norm", None),
    (nn_tensor, "softmax_last", "nn.op.softmax", None),
    (Tensor, "backward", "nn.backward", None),
    (Adam, "step", "nn.adam", None),
    (diffdec.training, "train", "training", None),
)

# A decode round starts with its encode call; a training step ends with Adam.
ROUND_START = "gf2.encode"
STEP_END = "nn.adam"


class Tracer:
    """In-memory spans: [layer, start, end, parent index or -1, round id, count].

    A count is a number, or a shape whose product is the number of rows.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round = 0

    def enter(self, layer: str, count: int = 0) -> int:
        if layer == ROUND_START:
            self.round += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.round, count])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if self.spans[index][0] == STEP_END:
            self.round += 1

    @contextmanager
    def span(self, layer: str, count: int = 0):
        index = self.enter(layer, count)
        try:
            yield
        finally:
            self.exit(index)

    def installed(self) -> Patches:
        """Patch every site with a span-recording wrapper (a context manager)."""
        patches = Patches()
        for owner, attr, layer, count in TRACE_SITES:
            patches.wrap(owner, attr, lambda orig, layer=layer, count=count:
                         self._wrapper(orig, layer, count))
        return patches

    def _wrapper(self, orig, layer, count):
        def traced(*args, **kwargs):
            index = self.enter(layer, count(args, kwargs) if count else 0)
            try:
                return orig(*args, **kwargs)
            finally:
                self.exit(index)
        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self time, call count and summed work count."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "count": 0})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["self_s"] += own
            entry["calls"] += 1
            entry["count"] += math.prod(span[5]) if isinstance(span[5], tuple) else span[5]
        return dict(out)


class Probe:
    """Output checks on every decoder batch and training step of a phase.

    ``attempted`` counts batches and steps that returned, ``failed`` those
    whose output failed its check.  ``check_s`` is the time spent checking,
    which the phase subtracts from its wall time.  When a tracer is attached
    the checks also run inside a ``check`` span so that the harness's self
    time excludes them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.tracer: Tracer | None = None
        self.H_T: np.ndarray | None = None  # float H transposed, set by the phase
        self.reset_stats()

    def reset_stats(self) -> None:
        self.words = 0
        self.iters = 0
        self.converged = 0

    def installed(self) -> Patches:
        patches = Patches()
        patches.wrap(diffdec.bench, "decode_batch",
                     lambda orig: self._wrapper(orig, self._check_decode))
        patches.wrap(diffdec.bench, "bp_decode_batch",
                     lambda orig: self._wrapper(orig, self._check_bp))
        patches.wrap(diffdec.bench, "ml_decode_batch",
                     lambda orig: self._wrapper(orig, self._check_ml))
        patches.wrap(diffdec.training, "training_step",
                     lambda orig: self._wrapper(orig, self._check_step))
        return patches

    def _wrapper(self, orig, check):
        def checked(*args, **kwargs):
            out = orig(*args, **kwargs)  # a raise fails the whole repeat, counted there
            self.attempted += 1
            start = time.perf_counter()
            if self.tracer is None:
                ok = check(out)
            else:
                with self.tracer.span("check"):
                    ok = check(out)
            self.check_s += time.perf_counter() - start
            if not ok:
                self.failed += 1
            return out
        return checked

    def _codewords(self, bits: np.ndarray) -> bool:
        """Independent parity check: H @ bits % 2 == 0 for every row."""
        return not (np.asarray(bits, dtype=np.float64) @ self.H_T % 2).any()

    def _count(self, iters, converged) -> None:
        self.words += len(iters)
        self.iters += int(np.sum(iters))
        self.converged += int(np.sum(converged))

    def _check_decode(self, result) -> bool:
        self._count(result.iters, result.converged)
        return self._codewords(result.bits[result.converged])

    def _check_bp(self, out) -> bool:
        bits, done, iters, _ = out
        self._count(iters, done)
        return self._codewords(bits[done])

    def _check_ml(self, bits) -> bool:
        return self._codewords(bits)

    def _check_step(self, loss) -> bool:
        return bool(np.isfinite(loss))
