"""Benchmark entry point for diffdec.

    python3 perfbench/run.py --workload decoders-hamming74 --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) against the diffdec sources in
``src/`` next to this directory, checks the outputs, and prints as the last
line of standard output one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced repeat with ``--trace 1``).  The full record
(environment, code fingerprints, budgets, per-stream outcomes, and spans
when traced) goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "DIFFDEC_WORKERS")


def import_diffdec():
    """Import diffdec from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import diffdec
    if not Path(diffdec.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"diffdec imported from {diffdec.__file__}, not from {SRC}")
    return diffdec


def git_commit() -> str:
    """The checkout's commit from .git/HEAD, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_diffdec()
    except ImportError as exc:
        print(f"perfbench: cannot import diffdec from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    try:
        record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               import_s=import_s)
    except Exception:  # report any failure without a result line
        traceback.print_exc()
        return 1
    record["env"] = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for name, phase in record["phases"].items():
        print(f"# {name}: {phase['repeats']} x {phase['budget']} {phase['unit']}")
    failing = [k for k, ok in record["checks"].items() if not ok]
    print(f"# checks failing: {failing or 'none'}; record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
