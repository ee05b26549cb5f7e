"""Command-line front end: train / decode / bench / oracle / study.

Settings come from flags or from a flat ``key = value`` config file
(``--config FILE`` or ``--config=FILE``).  The file's keys that name a flag
of the subcommand are replayed as those flags, ahead of the explicit ones:
file values are parsed and checked exactly like flags (a bad one is a usage
error, exit 2), explicit flags override them, and other keys are ignored.
Every artifact embeds its effective configuration as ``# key = value``
comment lines, so it can itself be passed back via ``--config`` to
reproduce the run byte for byte.

Each default is decided in one place.  The flags that set a config
dataclass field (TrainConfig, StopRule, DecodeConfig) take their name, type
and default from that field; those of ``bench`` that pass a ``run_ber``
keyword (``--seed``, ``--workers``, ``--bp-iters``, ``--batch-size``) take
its default; every subcommand's ``--code`` takes ``TrainConfig.code``.  The
``study`` flags declare their own defaults (``--samples``, ``--seed`` and the
rest); the study functions take the sample count and seed without defaults
of their own.  ``bench --workers`` only sets how many decoder calls run at
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

from .bench import DECODER_KINDS, StopRule, artifact, forward_process_trace, lambda_histogram, \
    parity_noise_study, run_ber
from .channel import make_rng
from .decoding import DecodeConfig, decode_batch
from .diffusion import NoiseSchedule
from .gf2 import BUILTIN_CODES, ParityCheckMatrix, builtin_code, load_alist, ml_decode_batch, \
    systematic_generator
from .nn import load_checkpoint, save_checkpoint
from .nn.model import BACKBONES
from .training import TrainConfig, train

_CONFIG_LINE = re.compile(r"^#?\s*([A-Za-z0-9_.-]+)\s*=\s*(.*)$")


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` (or ``key=value``) lines; a leading '#' is
    stripped, so emitted artifacts double as config files.  Other lines are
    ignored."""
    values: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        match = _CONFIG_LINE.match(line.strip())
        if match:
            values[match.group(1).replace("-", "_")] = match.group(2).strip()
    return values


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
    p.add_argument("--code", default=TrainConfig.code,
                   help=f"built-in code name ({', '.join(sorted(BUILTIN_CODES))})")
    p.add_argument("--alist", default="", help="path to an alist file (overrides --code)")


def _resolve_code(args) -> tuple[ParityCheckMatrix, str]:
    if args.alist:
        text = Path(args.alist).read_text()
        return load_alist(text, name=Path(args.alist).stem), args.alist
    return builtin_code(args.code), args.code


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
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
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
    _write(args.report, artifact("train", _echo(args), "epoch,mean_loss",
                                 enumerate(report.epoch_losses)))
    print(f"trained {code_id} ({config.backbone}) for {config.epochs} epochs; "
          f"final loss {report.final_loss}; wall {report.wall_seconds:.1f}s; "
          f"checkpoint {args.out}", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    code, _ = _resolve_code(args)
    ckpt = load_checkpoint(args.checkpoint, code=code)
    config = _from_fields(DecodeConfig, args,
                          mode="line_search" if args.mode == "ls" else "regular")
    Y = _read_words(args.infile, code.n)
    result = decode_batch(ckpt.model, code, ckpt.schedule, Y, config)
    rows = []
    for w, outcome in enumerate(result.outcomes()):
        rows += [(w, "step", t + 1, result.parity_errors[t, w], result.step_sizes[t, w],
                  result.weights_after[t, w], None, None, None)
                 for t in range(outcome.iters_used)]
        rows.append((w, "result", None, None, None, None, _bits_str(outcome.bits),
                     outcome.converged, outcome.iters_used))
    _write(args.out, artifact(
        "decode", _echo(args),
        "word,row,iteration,parity_errors,step_size,weight_after,bits,converged,iters_used",
        rows))
    return 0


def _cmd_bench(args) -> int:
    code, _ = _resolve_code(args)
    stop = _from_fields(StopRule, args)
    config = _from_fields(DecodeConfig, args, mode="line_search")  # run_ber sets each kind's mode
    model = schedule = None
    if args.checkpoint:
        ckpt = load_checkpoint(args.checkpoint, code=code)
        model, schedule = ckpt.model, ckpt.schedule
    report = run_ber(args.decoder, code, _float_list(args.ebn0), stop=stop,
                     seed=args.seed, workers=args.workers, model=model,
                     schedule=schedule, decode_config=config,
                     bp_iters=args.bp_iters, batch_size=args.batch_size)
    _write(args.out, report.to_csv(_echo(args)))
    return 0


def _cmd_oracle(args) -> int:
    code, _ = _resolve_code(args)
    G = systematic_generator(code)
    Y = _read_words(args.infile, code.n)
    bits = ml_decode_batch(code, G, Y)
    _write(args.out, artifact("oracle", _echo(args), "word,bits",
                              [(w, _bits_str(row)) for w, row in enumerate(bits)]))
    return 0


def _cmd_study(args) -> int:
    code, _ = _resolve_code(args)
    if args.kind == "parity-noise":
        columns = "sigma,mean_parity_errors,std_parity_errors"
        rows = parity_noise_study(code, _float_list(args.sigmas), args.samples, args.seed)
    elif args.kind == "lambda-hist":
        if not args.checkpoint:
            raise ValueError("lambda-hist requires --checkpoint")
        ckpt = load_checkpoint(args.checkpoint, code=code)
        config = _from_fields(DecodeConfig, args, mode="line_search", max_iters=0)
        columns = "step_size,count"
        rows = zip(*lambda_histogram(ckpt.model, code, ckpt.schedule, args.ebn0_point,
                                     args.samples, args.seed, config))
    else:  # forward-trace
        columns = "trajectory,t,x0,x1,x2"
        rows = forward_process_trace(NoiseSchedule.constant(args.beta, args.steps),
                                     args.trajectories, make_rng(args.seed, stream=31))
    _write(args.out, artifact(args.kind, _echo(args), columns, rows))
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with '-' and then a digit or '.' as a value.

    Plain argparse reads only a lone negative number as a value and stops
    ``--ebn0 -2,0`` or ``--lr0 -1e-3`` with "expected one argument".  No
    flag here looks like a number, so nothing is lost.  The sub-command
    parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")  # argparse's own hook


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="diffdec",
        description="diffusion decoding laboratory; pass --config FILE (a flat "
                    "'key = value' file or a previously emitted artifact) to "
                    "replay its settings as the subcommand's flags")
    sub = parser.add_subparsers(dest="command", required=True)

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
    _add_fields(p, DecodeConfig, skip=("mode",))
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
    _add_fields(p, DecodeConfig, skip=("mode",))
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
    _add_fields(p, DecodeConfig, skip=("mode", "max_iters"))
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--trajectories", type=int, default=32)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_study)

    return parser, dict(sub.choices)


def _replay_config(argv: list[str], subparsers: dict) -> list[str]:
    """``argv`` with its ``--config FILE`` (or ``--config=FILE``) replaced by
    a ``--flag=value`` token per file key that names a value-taking flag of
    the subcommand, placed before the explicit arguments so that argparse's
    last-wins rule lets those override them.  The ``=`` form keeps a value
    such as ``-2,0``, or an empty one, a value."""
    at = next((i for i, a in enumerate(argv) if a.split("=", 1)[0] == "--config"), None)
    if at is None:
        return argv
    if "=" in argv[at]:
        path, rest = argv[at].split("=", 1)[1], argv[:at] + argv[at + 1:]
    elif at + 1 < len(argv):
        path, rest = argv[at + 1], argv[:at] + argv[at + 2:]
    else:
        raise ValueError("--config needs a file path")
    values = read_config_file(path)
    if rest and not rest[0].startswith("-"):
        command, rest = rest[0], rest[1:]
    else:  # no subcommand given, only flags: the file's own command
        command = values.get("command", "")
    if command not in subparsers:
        raise ValueError(f"--config file does not name a known command (got {command!r})")
    flags = {a.dest: a.option_strings[0] for a in subparsers[command]._actions
             if a.option_strings and a.nargs != 0}
    return [command, *(f"{flags[k]}={v}" for k, v in values.items() if k in flags), *rest]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(_replay_config(argv, subparsers))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
