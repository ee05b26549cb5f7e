"""Importing diffdec keeps freed heap pages (glibc only): a training step
reuses the memory of the previous one instead of faulting it in again."""

import platform
import resource
import sys

import numpy as np
import pytest

import diffdec  # noqa: F401  the import sets the allocator up
from diffdec.channel import make_rng
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import builtin_code
from diffdec.nn import Adam, ArchConfig, DenoiserModel
from diffdec.training import training_step

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the allocator setting needs glibc's mallopt")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _touch_16_mib() -> None:
    np.empty(2 << 20).fill(1.0)  # 16 MiB of float64, freed on return


def test_freed_16_mib_array_is_reused_without_faults():
    _touch_16_mib()
    before = _minor_faults()
    _touch_16_mib()
    assert _minor_faults() - before < 64  # 4096 faults with 4 KiB pages if the pages went back


def test_warm_attention_training_step_takes_fewer_than_10_faults():
    H = builtin_code("hamming74")
    model = DenoiserModel.create(H, ArchConfig("masked_attention", embed_dim=32, layers=2), seed=0)
    opt = Adam(model.params)
    rng = make_rng(0, stream=1)
    schedule = NoiseSchedule.constant(0.01, H.n - H.k)

    def step():
        training_step(model, schedule, 128, rng)
        opt.step(1e-4)

    for _ in range(3):
        step()
    steps = 5
    before = _minor_faults()
    for _ in range(steps):
        step()
    assert (_minor_faults() - before) / steps < 10
