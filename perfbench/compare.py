"""Summarize and compare benchmark records.

    python3 perfbench/compare.py .perfbench/*-trace0.json
    python3 perfbench/compare.py --base base/*.json --new new/*.json

Reads the records that run.py writes.  For each workload and metric it prints
the number of runs, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median.  With ``--base`` and ``--new`` it also
prints the change of the median and whether it stays within the metric's
bound in BENCHMARK.json (end-to-end metrics only).  Records whose code
fingerprints differ describe different inputs: the script refuses to
summarize or compare them together and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def fingerprint_conflicts(records: list[dict]) -> list[str]:
    """Code names whose fingerprint is not the same in every record."""
    seen: dict[str, set] = defaultdict(set)
    for rec in records:
        for name, digest in rec["fingerprints"].items():
            seen[name].add(digest)
    return sorted(name for name, digests in seen.items() if len(digests) > 1)


def summarize(records: list[dict]) -> dict[tuple[str, str], dict]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            values[(rec["workload"], name)].append(m["value"])
    out = {}
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[key] = {"n": len(vals), "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else float("nan")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    base = load(args.base or args.records)
    new = load(args.new)
    if not base:
        parser.error("no records given")
    conflicts = fingerprint_conflicts(base + new)
    if conflicts:
        print(f"refusing: code fingerprints differ for {', '.join(conflicts)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = summarize(base), summarize(new) if new else {}
    for (workload, name), s in sorted(a.items()):
        line = (f"{workload:20s} {name:34s} n={s['n']:2d} median={s['median']:.6g} "
                f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}")
        t = b.get((workload, name))
        if t is not None:
            change = t["median"] / s["median"] - 1 if s["median"] else float("nan")
            line += f" | new median={t['median']:.6g} spread={t['spread']:.4f} change={change:+.4f}"
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                line += " ok" if worse <= bounds[name]["bound"] else " WORSE"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
