"""Cross-check the tracer's self times against an independent cProfile.

    python3 perfbench/crosscheck.py

Runs one repeat of the ``ddecc-ls`` phase (Hamming(7,4)) and of the ``bp``
phase of ``bp-ldpc128``, once under cProfile and once under the tracer, and
compares the largest self-time entry of each.  cProfile charges time spent
in C functions to the Python function that called them, so its entries are
comparable to the tracer's spans.  The two must agree, and must name GELU for
``ddecc-ls`` and ``check_update`` for ``bp``.  Exits 1 when they do not.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from collections import defaultdict

from run import SRC, import_diffdec

EXPECTED = {("decoders-hamming74", "ddecc-ls"): "gelu",
            ("bp-ldpc128", "bp"): "check_update"}


def cprofile_self(fn) -> list[tuple[str, float]]:
    """diffdec functions by self time, C callees included, largest first."""
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    own: dict[tuple, float] = defaultdict(float)
    for func, (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        if func[0] == "~":  # a C function: charge each caller its share
            for caller, edge in callers.items():
                own[caller] += edge[2]
        else:
            own[func] += tottime
    src = str(SRC)
    ranked = sorted(((t, f[2]) for f, t in own.items() if f[0].startswith(src)), reverse=True)
    return [(name, t) for t, name in ranked]


def tracer_self(fn) -> list[tuple[str, float]]:
    """Traced layers by self time, named by the function each wraps."""
    from tracer import TRACE_SITES, Tracer
    tracer = Tracer()
    with tracer.installed():
        fn()
    function = {layer: attr for _, attr, layer, _ in TRACE_SITES}
    totals = tracer.totals()
    ranked = sorted(((v["self_s"], function[k]) for k, v in totals.items()), reverse=True)
    return [(name, t) for t, name in ranked]


def crosscheck(budgets=None) -> list[dict]:
    """Top self-time entries of both profilers for each phase in EXPECTED."""
    import workloads
    from tracer import Probe
    budgets = budgets or workloads.Budgets()
    rows = []
    for (workload, phase_name), expected in EXPECTED.items():
        setup = workloads.set_up(workloads.WORKLOADS[workload], budgets)
        phase = workloads.Phase(phase_name, setup, budgets, seed=0)
        probe = Probe()
        phase.once(0, probe)  # warm-up, untimed
        by_cprofile = cprofile_self(lambda: phase.once(0, probe))
        by_tracer = tracer_self(lambda: phase.once(0, probe))
        rows.append({"workload": workload, "phase": phase_name, "expected": expected,
                     "cprofile": by_cprofile[:3], "tracer": by_tracer[:3],
                     "agree": by_cprofile[0][0] == by_tracer[0][0] == expected})
    return rows


def main() -> int:
    import_diffdec()
    rows = crosscheck()
    for row in rows:
        print(f"{row['workload']} / {row['phase']}: expected {row['expected']}, "
              f"{'agree' if row['agree'] else 'DISAGREE'}")
        for label in ("cprofile", "tracer"):
            top = ", ".join(f"{name} {t:.3f}s" for name, t in row[label])
            print(f"  {label:8s} {top}")
    return 0 if all(row["agree"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
