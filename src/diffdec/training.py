"""Training loop for the denoiser.

Because the decoder's input features are invariant to the transmitted
codeword, training uses a single codeword (all-zeros, modulated to all +1).
Each sample draws a uniform step t, jumps the forward process to
x_t = x0 + sqrt(beta_bar_t) * eps, conditions on the realized parity-error
count of x_t and regresses the binarized multiplicative noise
bin(x0 * x_t) with BCE.  Adam with cosine learning-rate decay drives the
updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import make_rng
from .diffusion import NoiseSchedule
from .gf2 import ParityCheckMatrix, builtin_code
from .nn import Adam, ArchConfig, DenoiserModel, bce_with_logits_mean, cosine_lr, preprocess_batch


@dataclass(frozen=True)
class TrainConfig:
    code: str = "hamming74"
    epochs: int = 200
    batches_per_epoch: int = 100
    batch_size: int = 128
    lr0: float = 1e-4
    lr_min: float = 5e-6
    seed: int = 0
    beta: float = 0.01  # constant step variance; T is bound to n-k
    backbone: str = "mlp"
    embed_dim: int = 32
    layers: int = 2
    hidden_mult: int = 4

    def __post_init__(self):
        if min(self.epochs, self.batches_per_epoch, self.batch_size) < 0 or \
                self.batches_per_epoch == 0 or self.batch_size == 0:
            raise ValueError("epochs must be >= 0 and batch counts positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @property
    def arch(self) -> ArchConfig:
        return ArchConfig(self.backbone, self.embed_dim, self.layers, self.hidden_mult)


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    final_loss: float | None = None
    wall_seconds: float = 0.0
    seed: int = 0
    schedule: NoiseSchedule | None = None  # the one trained with; checkpoints store it


def training_step(model: DenoiserModel, schedule: NoiseSchedule,
                  batch_size: int, rng: np.random.Generator,
                  t: np.ndarray | None = None, eps: np.ndarray | None = None) -> float:
    """One batch on ``model.code``: sample (t, eps), build x_t, regress bin(eps_mul).

    Gradients (averaged over the batch) are left on ``model.params``;
    ``t``/``eps`` can be injected for tests.
    """
    n = model.n
    x0 = np.ones(n)  # BPSK of the all-zeros codeword
    if t is None:
        t = rng.integers(1, schedule.T + 1, size=batch_size)
    else:
        t = np.asarray(t, dtype=np.int64)
    if eps is None:
        eps = rng.standard_normal((batch_size, n))
    else:
        eps = np.asarray(eps, dtype=np.float64)
    x_t = x0 + np.sqrt(schedule.beta_bars[t - 1])[:, None] * eps
    targets = (x0 * x_t < 0).astype(np.float64)  # bin of the multiplicative noise
    feats, e = preprocess_batch(x_t, model.code)
    model.zero_grad()
    loss = bce_with_logits_mean(model.forward(feats, e), targets)
    loss.backward()
    return float(loss.data)


def train(config: TrainConfig, code: ParityCheckMatrix | None = None
          ) -> tuple[DenoiserModel, TrainReport]:
    """Run the full loop; returns the model and its report (per-epoch losses, schedule)."""
    H = code if code is not None else builtin_code(config.code)
    schedule = NoiseSchedule.constant(config.beta, H.n - H.k)
    model = DenoiserModel.create(H, config.arch, seed=config.seed)
    rng = make_rng(config.seed, stream=1)
    opt = Adam(model.params)
    report = TrainReport(seed=config.seed, schedule=schedule)
    start = time.perf_counter()
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.lr0, config.lr_min)
        total = 0.0
        for _ in range(config.batches_per_epoch):
            loss = training_step(model, schedule, config.batch_size, rng)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss in epoch {epoch}")
            opt.step(lr)
            total += loss
        report.epoch_losses.append(total / config.batches_per_epoch)
    report.final_loss = report.epoch_losses[-1] if report.epoch_losses else None
    report.wall_seconds = time.perf_counter() - start
    return model, report
