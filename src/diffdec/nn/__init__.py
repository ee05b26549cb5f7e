"""Numpy autograd engine, the parity-conditioned denoiser and its tooling."""

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .model import ArchConfig, DenoiserModel, attention_mask, preprocess, preprocess_batch
from .optim import Adam, cosine_lr
from .tensor import Tensor, bce_with_logits_mean, no_grad

__all__ = [
    "Adam", "ArchConfig", "Checkpoint", "CheckpointError", "DenoiserModel",
    "Tensor", "attention_mask", "bce_with_logits_mean", "cosine_lr",
    "load_checkpoint", "no_grad", "preprocess", "preprocess_batch",
    "save_checkpoint",
]
