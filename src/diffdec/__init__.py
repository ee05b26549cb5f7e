"""Diffusion-based iterative decoding of linear block codes.

Modules: GF(2) code algebra (:mod:`diffdec.gf2`), channel simulation
(:mod:`diffdec.channel`), the unscaled diffusion process
(:mod:`diffdec.diffusion`), a numpy autograd engine with the
parity-conditioned denoiser (:mod:`diffdec.nn`), training
(:mod:`diffdec.training`) and decoding (:mod:`diffdec.decoding`) loops, a
belief-propagation baseline (:mod:`diffdec.bp`), a Monte-Carlo BER harness
(:mod:`diffdec.bench`) and the CLI (:mod:`diffdec.cli`).

Importing the package tunes glibc's allocator once; see
:func:`_keep_freed_heap_pages`.
"""

import ctypes
import sys

from .bench import BerReport, StopRule, run_ber
from .channel import EbN0Point, bpsk, ebn0_to_sigma, make_rng
from .decoding import DecodeConfig, DecodeOutcome, decode_batch
from .diffusion import NoiseSchedule, PosteriorCoefficients, forward_sample, mul_to_add_noise, \
    posterior_coefficients
from .gf2 import Codeword, GeneratorMatrix, ParityCheckMatrix, builtin_code, load_alist, \
    systematic_generator
from .nn import ArchConfig, DenoiserModel, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainReport, train


def _keep_freed_heap_pages() -> None:
    """Have glibc's malloc keep freed memory for reuse instead of handing it back.

    A training step builds and frees a graph of arrays of up to a few MB each
    (about 35 MB at peak for attention at batch 128).  By default glibc maps
    each large array on its own and unmaps it when freed, and trims the top of
    the heap, so every step faults all its pages in again: 2.7k-7.9k minor
    faults per attention step on Hamming(7,4).  Here arrays below 32 MiB come
    from the heap, and the heap is trimmed only when more than 256 MiB at its
    top is free.  Numpy has no allocator hook for this, and where ``mallopt``
    is missing (not Linux, or not glibc) nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD; glibc's largest allowed value on 64-bit
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap_pages()

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "BerReport", "Codeword", "DecodeConfig", "DecodeOutcome",
    "DenoiserModel", "EbN0Point", "GeneratorMatrix", "NoiseSchedule",
    "ParityCheckMatrix", "PosteriorCoefficients", "StopRule", "TrainConfig",
    "TrainReport", "bpsk", "builtin_code", "decode_batch", "ebn0_to_sigma",
    "forward_sample", "load_alist", "load_checkpoint", "make_rng",
    "mul_to_add_noise", "posterior_coefficients", "run_ber",
    "save_checkpoint", "systematic_generator", "train",
]
