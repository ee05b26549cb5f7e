"""Binary model checkpoints: the parameters, the parity-check matrix H the
model is bound to and the noise schedule it was trained with.

Layout (all integers little-endian):

    8 bytes   magic  b"DFDCKPT1"
    u32       format version (currently 2)
    u32       length of the config block
    ...       config block: utf-8 "key = value" lines (one per ArchConfig
              field, plus ``meta.``-prefixed training metadata)
    u32       number of arrays
    per array u16 name length | name utf-8 | u8 rank | u32 dims... |
              raw float64 little-endian values
    u32       CRC32 of everything above

The arrays are the parameters in name order, then ``code.H`` (0/1 entries)
and ``schedule.betas``.  Version-1 files, which recorded only (n, k), and
arrays holding inf or nan are rejected.  A round trip reproduces forward
outputs bit-exactly on the same platform.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from ..diffusion import NoiseSchedule
from ..gf2 import ParityCheckMatrix
from .model import ArchConfig, DenoiserModel
from .tensor import Tensor

MAGIC = b"DFDCKPT1"
VERSION = 2


class CheckpointError(ValueError):
    """Raised for malformed, corrupt or incompatible checkpoint files."""


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: the rebuilt model, its schedule and its metadata strings."""

    model: DenoiserModel
    schedule: NoiseSchedule
    metadata: dict[str, str]


def _config_block(model: DenoiserModel, metadata: dict | None) -> str:
    lines = [f"{f.name} = {getattr(model.arch, f.name)}" for f in fields(ArchConfig)]
    for key in sorted(metadata or {}):
        lines.append(f"meta.{key} = {metadata[key]}")
    return "\n".join(lines) + "\n"


def save_checkpoint(model: DenoiserModel, schedule: NoiseSchedule, path,
                    metadata: dict | None = None) -> None:
    """Write the model, its code and schedule (and optional metadata) to ``path``."""
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    config = _config_block(model, metadata).encode()
    chunks.append(struct.pack("<I", len(config)))
    chunks.append(config)

    arrays: list[tuple[str, np.ndarray]] = [
        (name, model.params[name].data) for name in sorted(model.params)]
    arrays += [("code.H", model.code.matrix), ("schedule.betas", schedule.betas)]
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        blob = name.encode()
        chunks.append(struct.pack("<H", len(blob)))
        chunks.append(blob)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path, code: ParityCheckMatrix | None = None) -> Checkpoint:
    """Read a checkpoint; optionally require it to be bound to ``code``'s matrix."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic or truncated)")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError("checksum mismatch: file corrupt or truncated")

    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if n < 0 or pos + n > len(body):
            raise CheckpointError("checkpoint truncated")
        out = body[pos:pos + n]
        pos += n
        return out

    (version,) = struct.unpack("<I", take(4))
    if version == 1:
        raise CheckpointError(
            "checkpoint format version 1 records only the code's (n, k), not its "
            "parity-check matrix and schedule; rebuild it with "
            "`diffdec train --config <train report CSV>`")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    config: dict[str, str] = {}
    for line in take(cfg_len).decode().splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            config[key.strip()] = val.strip()
    try:
        types = get_type_hints(ArchConfig)
        arch = ArchConfig(**{f.name: types[f.name](config[f.name]) for f in fields(ArchConfig)})
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"bad config block: {exc}") from None
    metadata = {key[5:]: val for key, val in config.items() if key.startswith("meta.")}

    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode()
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = math.prod(dims)  # Python ints: np.prod would wrap in int64
        arr = np.frombuffer(take(8 * size), dtype="<f8").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise CheckpointError(f"array {name!r} holds inf or nan")
        arrays[name] = arr
    if pos != len(body):
        raise CheckpointError("trailing bytes after array section")

    try:
        stored = ParityCheckMatrix(arrays.pop("code.H"))
        schedule = NoiseSchedule(arrays.pop("schedule.betas"))
        if schedule.T < stored.num_checks:  # the decoder takes up to n-k steps
            raise ValueError(f"schedule has T={schedule.T} < n-k={stored.num_checks}")
    except KeyError as exc:
        raise CheckpointError(f"checkpoint lacks its {exc} record") from None
    except ValueError as exc:
        raise CheckpointError(f"bad code or schedule record: {exc}") from None
    if code is not None and not np.array_equal(code.matrix, stored.matrix):
        raise CheckpointError(
            f"checkpoint is bound to another parity-check matrix ({stored!r}) "
            f"than the code given ({code!r})")
    params = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
    model = DenoiserModel(arch, code or stored, params)

    reference = DenoiserModel.create(stored, arch, seed=0)
    expected = {name: p.data.shape for name, p in reference.params.items()}
    got = {name: p.data.shape for name, p in params.items()}
    if expected != got:
        raise CheckpointError(
            f"parameter shapes do not match a ({stored.n},{stored.k}) {arch.backbone} model")
    return Checkpoint(model, schedule, metadata)
