"""Diffusion-based iterative decoding of linear block codes.

Modules: GF(2) code algebra (:mod:`diffdec.gf2`), channel simulation
(:mod:`diffdec.channel`), the unscaled diffusion process
(:mod:`diffdec.diffusion`), a numpy autograd engine with the
parity-conditioned denoiser (:mod:`diffdec.nn`), training
(:mod:`diffdec.training`) and decoding (:mod:`diffdec.decoding`) loops, a
belief-propagation baseline (:mod:`diffdec.bp`), a Monte-Carlo BER harness
(:mod:`diffdec.bench`) and the CLI (:mod:`diffdec.cli`).
"""

from .bench import BerReport, StopRule, run_ber
from .channel import ChannelOutput, EbN0Point, awgn_transmit, bpsk, ebn0_to_sigma, make_rng, \
    multiplicative_noise, rayleigh_transmit
from .decoding import DecodeConfig, DecodeOutcome, decode, decode_batch, line_search
from .diffusion import NoiseSchedule, PosteriorCoefficients, forward_sample, mul_to_add_noise, \
    posterior_coefficients
from .gf2 import Codeword, GeneratorMatrix, ParityCheckMatrix, Syndrome, builtin_code, encode, \
    load_alist, ml_decode, syndrome, systematic_generator
from .nn import ArchConfig, DenoiserModel, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "BerReport", "ChannelOutput", "Codeword", "DecodeConfig",
    "DecodeOutcome", "DenoiserModel", "EbN0Point", "GeneratorMatrix",
    "NoiseSchedule", "ParityCheckMatrix", "PosteriorCoefficients", "StopRule",
    "Syndrome", "TrainConfig", "TrainReport", "awgn_transmit", "bpsk",
    "builtin_code", "decode", "decode_batch", "ebn0_to_sigma", "encode",
    "forward_sample", "line_search", "load_alist", "load_checkpoint",
    "make_rng", "ml_decode", "mul_to_add_noise", "multiplicative_noise",
    "posterior_coefficients", "rayleigh_transmit", "run_ber",
    "save_checkpoint", "syndrome",
    "systematic_generator", "train",
]
