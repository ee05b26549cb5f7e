"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py

Tiny budgets keep each workload run to a second or two; at that size the
set-up denoiser is barely trained, so these tests check the benchmark's
structure (names, spans, patching, fingerprints), not its quality gates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_diffdec  # noqa: E402

import_diffdec()

import compare  # noqa: E402
import crosscheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Budgets(words=1024, ldpc_words=1024, mlp=(1, 2), attn=(1, 2), setup=(1, 5),
                         min_repeats=workloads.STREAMS, setup_repeats=1)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_runs: dict[tuple, dict] = {}


def tiny_run(workload: str, seed: int, trace: bool) -> dict:
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = workloads.run(workload, seed, 0.0, trace, TINY)
    return _runs[key]


def all_sites():
    sites = [(owner, attr) for owner, attr, _, _ in tracer.TRACE_SITES]
    with tracer.Probe().installed() as patches:
        sites += [(owner, attr) for owner, attr, _ in patches.saved]
    return sites


def test_every_patched_attribute_is_restored():
    sites = all_sites()
    originals = [vars(owner)[attr] for owner, attr in sites]
    probe = tracer.Probe()
    with pytest.raises(KeyError):
        with probe.installed(), tracer.Tracer().installed():
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr), orig in zip(sites, originals))
            raise KeyError("leave the block by an exception")
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(sites, originals))


def test_spans_nest_and_self_times_fit_parents():
    spans = tiny_run("decoders-hamming74", 1, True)["spans"]
    assert set(spans) == set(workloads.PHASES)
    for phase_spans in spans.values():
        t = tracer.Tracer()
        t.spans = phase_spans
        own = t.self_times()
        for span, self_s in zip(phase_spans, own):
            _, start, end, parent, _, _ = span
            assert start <= end
            assert self_s >= -1e-9
            if parent >= 0:
                _, p_start, p_end, _, _, _ = phase_spans[parent]
                assert p_start <= start and end <= p_end
                assert self_s <= p_end - p_start


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_exactly_the_benchmark_metrics(workload, trace):
    result = tiny_run(workload, 1, trace)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_other_seed_changes_error_rates_not_names():
    one, two = (tiny_run("decoders-hamming74", seed, False) for seed in (1, 2))
    assert set(one["result"]["metrics"]) == set(two["result"]["metrics"])
    for name in workloads.DECODE_PHASES:
        assert one["phases"][name]["outcomes"] != two["phases"][name]["outcomes"]
    fers = [k for k in one["result"]["metrics"] if k.endswith(".fer")]
    assert len(fers) == 4
    assert [one["result"]["metrics"][k] for k in fers] != \
        [two["result"]["metrics"][k] for k in fers]


def test_ldpc128_is_deterministic_regular_and_fingerprinted():
    a, b = workloads.ldpc128(), workloads.ldpc128()
    assert (a.n, a.k) == (128, 64)
    assert (a.matrix.sum(axis=0) == 3).all() and (a.matrix.sum(axis=1) == 6).all()
    assert workloads.fingerprint(a) == workloads.fingerprint(b)
    record = tiny_run("bp-ldpc128", 1, False)
    assert record["fingerprints"]["ldpc128"] == workloads.fingerprint(a)


def test_compare_refuses_records_of_different_codes(tmp_path, capsys):
    record = tiny_run("bp-ldpc128", 1, False)
    other = dict(record, fingerprints=dict(record["fingerprints"], ldpc128="0" * 64))
    paths = []
    for i, rec in enumerate((record, other)):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(rec))
    assert compare.main([str(paths[0])]) == 0
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[1])]) == 2
    assert "fingerprints differ" in capsys.readouterr().err


def test_tracer_agrees_with_cprofile():
    budgets = workloads.Budgets(words=2048, ldpc_words=1024, setup=(1, 50))
    for row in crosscheck.crosscheck(budgets):
        assert row["agree"], row
