"""Command-line front end: train / decode / bench / oracle / study.

Settings come from flags or from a flat ``key = value`` config file
(``--config``); flags override file values.  Every artifact embeds its
effective configuration as ``# key = value`` comment lines, and such an
artifact can itself be passed back via ``--config`` to reproduce the run
byte for byte.  The flags that set a config dataclass field (TrainConfig,
StopRule, the DecodeConfig grid) take their name, type and default from
that field, and those of ``bench`` that pass a ``run_ber`` keyword take its
default.  ``bench --workers`` only sets how many rounds are decoded at
once: the artifact depends on the seed, not on the worker count.
"""

from __future__ import annotations

import argparse
import inspect
import math
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bench import DECODER_KINDS, StopRule, artifact, forward_process_trace, forward_trace_csv, \
    lambda_histogram, lambda_histogram_csv, parity_noise_csv, parity_noise_study, run_ber
from .channel import make_rng
from .decoding import DecodeConfig, decode_batch
from .diffusion import NoiseSchedule
from .gf2 import BUILTIN_CODES, ParityCheckMatrix, builtin_code, load_alist, ml_decode_batch, \
    systematic_generator
from .nn import load_checkpoint, save_checkpoint
from .nn.model import BACKBONES
from .training import TrainConfig, train

_CONFIG_LINE = re.compile(r"^#?\s*([A-Za-z0-9_.-]+)\s+=\s+(.*)$")


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; a leading '#' is stripped, so emitted
    artifacts double as config files.  Other lines are ignored."""
    values: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        match = _CONFIG_LINE.match(line.strip())
        if match:
            values[match.group(1).replace("-", "_")] = match.group(2).strip()
    return values


def _preload(parser: argparse.ArgumentParser, values: dict[str, str]) -> None:
    """Install config-file strings as parser defaults with matching types.

    A required flag that the file supplies is no longer required."""
    out = {}
    for action in parser._actions:  # argparse has no public default registry
        if action.dest in values:
            raw = values[action.dest]
            out[action.dest] = raw if action.type is None else action.type(raw)
            action.required = False
    parser.set_defaults(**out)


# Parsed values that are not settings of the run: replaying an artifact must
# not overwrite it (out, report) nor pin its input file (infile).
_NOT_ECHOED = frozenset({"func", "out", "report", "infile"})


def _echo(args) -> dict:
    """The run's effective settings: every parsed flag except _NOT_ECHOED."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _add_fields(p: argparse.ArgumentParser, cls, skip=(), choices: dict | None = None):
    """One ``--flag`` per field of the dataclass ``cls`` not in ``skip``, typed
    and defaulted by the field."""
    types = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in skip:
            p.add_argument("--" + f.name.replace("_", "-"), type=types[f.name],
                           default=f.default, choices=(choices or {}).get(f.name))


def _from_fields(cls, args, **given):
    """The ``cls`` of the parsed flags that _add_fields declared, plus ``given`` fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given},
               **given)


def _add_code_args(p: argparse.ArgumentParser):
    p.add_argument("--code", default="hamming74",
                   help=f"built-in code name ({', '.join(sorted(BUILTIN_CODES))})")
    p.add_argument("--alist", default="", help="path to an alist file (overrides --code)")


def _resolve_code(args) -> tuple[ParityCheckMatrix, str]:
    if args.alist:
        text = Path(args.alist).read_text()
        return load_alist(text, name=Path(args.alist).stem), args.alist
    return builtin_code(args.code), args.code


def _add_decode_args(p: argparse.ArgumentParser, max_iters: bool = True):
    """The line-search grid flags and, unless ``max_iters`` is False, the step cap."""
    lo, hi, count = DecodeConfig().ls_grid
    p.add_argument("--ls-lo", type=float, default=lo)
    p.add_argument("--ls-hi", type=float, default=hi)
    p.add_argument("--ls-count", type=int, default=count)
    if max_iters:
        p.add_argument("--max-iters", type=int, default=0, help="0 = n-k")


def _decode_config(args, mode: str = "line_search") -> DecodeConfig:
    """The DecodeConfig of the flags that _add_decode_args declared."""
    return DecodeConfig(mode=mode, max_iters=getattr(args, "max_iters", 0) or None,
                        ls_grid=(args.ls_lo, args.ls_hi, args.ls_count))


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write(path: str, payload: str):
    if path in ("", "-"):
        sys.stdout.write(payload)
    else:
        Path(path).write_text(payload)


def _read_words(path: str, n: int) -> np.ndarray:
    text = sys.stdin.read() if path in ("", "-") else Path(path).read_text()
    rows = []
    for ln, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        vals = [float(tok) for tok in line.split()]
        if len(vals) != n:
            raise ValueError(f"line {ln}: expected {n} soft values, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"line {ln}: soft values must be finite (found inf or nan)")
        rows.append(vals)
    if not rows:
        raise ValueError("no input words")
    return np.asarray(rows, dtype=np.float64)


def _bits_str(bits: np.ndarray) -> str:
    return "".join(str(int(b)) for b in bits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    code, code_id = _resolve_code(args)
    config = _from_fields(TrainConfig, args, code=code_id)
    model, report = train(config, code=code)
    metadata = {key: str(value) for key, value in asdict(config).items()}
    save_checkpoint(model, report.schedule, args.out, metadata)
    _write(args.report, artifact(
        "train", _echo(args), "epoch,mean_loss",
        [f"{i},{repr(loss)}" for i, loss in enumerate(report.epoch_losses)]))
    print(f"trained {code_id} ({config.backbone}) for {config.epochs} epochs; "
          f"final loss {report.final_loss}; wall {report.wall_seconds:.1f}s; "
          f"checkpoint {args.out}", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    code, _ = _resolve_code(args)
    ckpt = load_checkpoint(args.checkpoint, code=code)
    config = _decode_config(args, mode="line_search" if args.mode == "ls" else "regular")
    Y = _read_words(args.infile, code.n)
    result = decode_batch(ckpt.model, code, ckpt.schedule, Y, config)
    rows = []
    for w, outcome in enumerate(result.outcomes()):
        for i, step in enumerate(outcome.trace, 1):
            rows.append(f"{w},step,{i},{step.parity_errors},{repr(step.step_size)},"
                        f"{step.weight_after},,,")
        rows.append(f"{w},result,,,,,{_bits_str(outcome.bits)},"
                    f"{outcome.converged},{outcome.iters_used}")
    _write(args.out, artifact(
        "decode", _echo(args),
        "word,row,iteration,parity_errors,step_size,weight_after,bits,converged,iters_used",
        rows))
    return 0


def _cmd_bench(args) -> int:
    code, _ = _resolve_code(args)
    stop = _from_fields(StopRule, args)
    model = schedule = None
    if args.decoder in ("ddecc", "ddecc-ls"):
        if not args.checkpoint:
            raise ValueError(f"decoder {args.decoder!r} requires --checkpoint")
        ckpt = load_checkpoint(args.checkpoint, code=code)
        model, schedule = ckpt.model, ckpt.schedule
    report = run_ber(args.decoder, code, _float_list(args.ebn0), stop=stop,
                     seed=args.seed, workers=args.workers, model=model,
                     schedule=schedule, decode_config=_decode_config(args),
                     bp_iters=args.bp_iters, batch_size=args.batch_size,
                     config_echo=_echo(args))
    _write(args.out, report.to_csv())
    return 0


def _cmd_oracle(args) -> int:
    code, _ = _resolve_code(args)
    G = systematic_generator(code)
    Y = _read_words(args.infile, code.n)
    bits = ml_decode_batch(code, G, Y)
    _write(args.out, artifact("oracle", _echo(args), "word,bits",
                              [f"{w},{_bits_str(row)}" for w, row in enumerate(bits)]))
    return 0


def _cmd_study(args) -> int:
    code, _ = _resolve_code(args)
    echo = _echo(args)
    if args.kind == "parity-noise":
        rows = parity_noise_study(code, _float_list(args.sigmas), args.samples, args.seed)
        _write(args.out, parity_noise_csv(rows, echo))
    elif args.kind == "lambda-hist":
        if not args.checkpoint:
            raise ValueError("lambda-hist requires --checkpoint")
        ckpt = load_checkpoint(args.checkpoint, code=code)
        grid, counts = lambda_histogram(ckpt.model, code, ckpt.schedule, args.ebn0_point,
                                        args.samples, args.seed, _decode_config(args))
        _write(args.out, lambda_histogram_csv(grid, counts, echo))
    else:  # forward-trace
        schedule = NoiseSchedule.constant(args.beta, args.steps)
        rows = forward_process_trace(schedule, args.trajectories,
                                     make_rng(args.seed, stream=31), steps=args.steps)
        _write(args.out, forward_trace_csv(rows, echo))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="diffdec",
        description="diffusion decoding laboratory; pass --config FILE (a flat "
                    "'key = value' file or a previously emitted artifact) to "
                    "preload any subcommand's settings")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("train", help="train a denoiser and write a checkpoint")
    _add_code_args(p)
    _add_fields(p, TrainConfig, skip=("code",), choices={"backbone": BACKBONES})
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.add_argument("--report", default="-", help="loss-history CSV path ('-' = stdout)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="decode soft-value words from a file/stdin")
    _add_code_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", default="ls", choices=("regular", "ls"))
    _add_decode_args(p)
    p.add_argument("--in", dest="infile", default="-",
                   help="input words, one per line, space-separated reals")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("bench", help="Monte-Carlo BER/FER benchmark")
    _add_code_args(p)
    p.add_argument("--decoder", default="ml", choices=DECODER_KINDS)
    p.add_argument("--ebn0", default="4,5,6", help="comma-separated dB values")
    _add_fields(p, StopRule)
    run_ber_args = inspect.signature(run_ber).parameters
    p.add_argument("--seed", type=int, default=run_ber_args["seed"].default)
    p.add_argument("--workers", type=int, default=run_ber_args["workers"].default)
    p.add_argument("--checkpoint", default="")
    p.add_argument("--bp-iters", type=int, default=run_ber_args["bp_iters"].default)
    p.add_argument("--batch-size", type=int, default=run_ber_args["batch_size"].default)
    _add_decode_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="brute-force ML decoding of soft-value words")
    _add_code_args(p)
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("study", help="parity-noise, step-size and forward-walk studies")
    _add_code_args(p)
    p.add_argument("--kind", required=True,
                   choices=("parity-noise", "lambda-hist", "forward-trace"))
    p.add_argument("--sigmas", default="0,0.2,0.4,0.6,0.8,1.0,1.5,2.0")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default="")
    p.add_argument("--ebn0-point", type=float, default=4.0)
    _add_decode_args(p, max_iters=False)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--trajectories", type=int, default=32)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_study)

    for name, action in sub.choices.items():
        subparsers[name] = action
    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        if "--config" in argv:
            at = argv.index("--config")
            if at + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            file_values = read_config_file(argv[at + 1])
            rest = argv[:at] + argv[at + 2:]
            command = rest[0] if rest else file_values.get("command", "")
            if command not in subparsers:
                raise ValueError(f"--config file does not name a known command "
                                 f"(got {command!r})")
            if not rest:
                rest = [command]
            _preload(subparsers[command], file_values)
            args = parser.parse_args(rest)
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
