"""The benchmark in perfbench/ patches diffdec by attribute name.  A rename in
src/ must fail here rather than only as a failed benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import workloads  # noqa: F401  (its imports from diffdec must resolve)
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


def test_every_trace_site_resolves(tracer):
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.TRACE_SITES
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("make", ["Tracer", "Probe"])
def test_patches_install_and_restore(tracer, make):
    # Patches.wrap looks each site up by name: a missing one raises KeyError here
    with getattr(tracer, make)().installed() as patches:
        saved = list(patches.saved)
    assert saved and all(vars(owner)[attr] is original for owner, attr, original in saved)
