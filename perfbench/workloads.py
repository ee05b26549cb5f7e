"""The workloads of the diffdec benchmark and the metrics they report.

Every workload runs the same six phases:

* ``ddecc-ls``, ``ddecc``, ``bp``, ``ml``: ``run_ber`` on one EbN0 point with
  batch 1024.  The Hamming(7,4) phases decode the same seeded word streams,
  so their frame error rates compare word for word.  ``ddecc-ls``/``ddecc``
  use the MLP denoiser trained in set-up; ``ddecc`` skips the line search.
* ``mlp``, ``attn``: ``training.train`` at batch 128 with the acceptance MLP
  architecture and with masked attention.

Every workload reports every metric, so a metric that a change should not
move is always measured next to one it should.  The workloads differ in the
code the ``bp`` phase decodes, and a featured phase gets a larger share of
the measured time.

A phase repeats a fixed budget of words or steps.  Repeat ``r`` uses stream
``r % STREAMS``: the first ``STREAMS`` repeats see distinct seeded inputs and
give the error rate or loss; later repeats replay them for timing and must
reproduce the same counts.  Rates are the work of all repeats over their
summed wall time.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

import diffdec.bench
import diffdec.training
from diffdec.bench import StopRule
from diffdec.bp import TannerGraph
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import ParityCheckMatrix, RankDeficiencyError, builtin_code, \
    systematic_generator
from diffdec.training import TrainConfig

from tracer import Probe, Tracer

DECODE_PHASES = ("ddecc-ls", "ddecc", "bp", "ml")
TRAIN_PHASES = ("mlp", "attn")
PHASES = DECODE_PHASES + TRAIN_PHASES

BATCH = 1024
BP_ITERS = 50
EBN0_HAMMING = 2.0
EBN0_LDPC = 2.5
STREAMS = 3
FEATURED_WEIGHT = 3
# Training as in the acceptance Hamming(7,4) configuration; the set-up
# denoiser is the acceptance MLP trained from seed 5 on a short schedule.
TRAIN = dict(code="hamming74", batch_size=128, lr0=1e-3, lr_min=1e-5, beta=0.25)
TRAIN_ARCH = {"mlp": dict(backbone="mlp", embed_dim=48, layers=2),
              "attn": dict(backbone="masked_attention", embed_dim=32, layers=2)}
SETUP_SEED = 5
# ddecc-ls may lose at most this factor in frame errors against ML on the
# same words; with the set-up model the ratio was 1.56-1.65 over 20 seeds.
LS_FLOOR = 2.0


@dataclass(frozen=True)
class Budgets:
    """Work per repeat and repeat counts; the defaults are the benchmark's."""

    words: int = 16384  # each Hamming(7,4) decode phase
    ldpc_words: int = 8192  # bp on ldpc128
    mlp: tuple[int, int] = (2, 25)  # (epochs, batches per epoch)
    attn: tuple[int, int] = (2, 5)
    setup: tuple[int, int] = (4, 100)
    min_repeats: int = 2 * STREAMS
    setup_repeats: int = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bp_code: str
    featured: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload("decoders-hamming74",
             "paper operating point: Hamming(7,4) at 2 dB, about half the words reach the "
             "denoiser; every phase decodes or trains on Hamming(7,4)",
             "hamming74", ()),
    Workload("bp-ldpc128",
             "bp phase on a (3,6)-regular (128,64) code at 2.5 dB: multi-word syndromes, "
             "many BP iterations and no nn work; bp gets the time",
             "ldpc128", ("bp",)),
)}


def ldpc128() -> ParityCheckMatrix:
    """Deterministic (3,6)-regular (128,64) parity-check matrix of full rank.

    Check sockets are shuffled by a fixed-seed generator and dealt three per
    column; shuffles that put two sockets of one check in the same column, or
    that give dependent rows, are drawn again.
    """
    rng = np.random.default_rng(128)
    m, n, col_w, row_w = 64, 128, 3, 6
    while True:
        rows = np.sort(rng.permutation(np.repeat(np.arange(m), row_w)).reshape(n, col_w), axis=1)
        if (rows[:, 1:] == rows[:, :-1]).any():
            continue
        mat = np.zeros((m, n), dtype=np.uint8)
        mat[rows.T, np.arange(n)] = 1
        try:
            return ParityCheckMatrix(mat, name="ldpc128")
        except RankDeficiencyError:
            continue


def fingerprint(H: ParityCheckMatrix) -> str:
    """SHA-256 of the shape and the row-major 0/1 bytes of H."""
    m, n = H.matrix.shape
    return hashlib.sha256(f"{m}x{n}:".encode() + H.matrix.tobytes()).hexdigest()


def stream_seed(seed: int, stream: int) -> int:
    """The seed passed to run_ber/TrainConfig for one input stream."""
    return seed * STREAMS + stream


@dataclass
class Setup:
    hamming: ParityCheckMatrix
    bp_code: ParityCheckMatrix
    model: object
    schedule: NoiseSchedule


def set_up(workload: Workload, budgets: Budgets) -> Setup:
    """Codes, generators, Tanner graphs and the trained set-up denoiser."""
    H = builtin_code("hamming74")
    bp_code = ldpc128() if workload.bp_code == "ldpc128" else H
    for code in [H] if bp_code is H else [H, bp_code]:
        systematic_generator(code)
        TannerGraph(code)
    epochs, per_epoch = budgets.setup
    config = TrainConfig(epochs=epochs, batches_per_epoch=per_epoch, seed=SETUP_SEED,
                         **TRAIN, **TRAIN_ARCH["mlp"])
    model, _ = diffdec.training.train(config, code=H)
    return Setup(H, bp_code, model, NoiseSchedule.constant(config.beta, H.n - H.k))


class Phase:
    """One phase: its repeats, their outcomes and the checks on them."""

    def __init__(self, name: str, setup: Setup, budgets: Budgets, seed: int):
        self.name = name
        self.seed = seed
        self.setup = setup
        self.decode = name in DECODE_PHASES
        if self.decode:
            self.code = setup.bp_code if name == "bp" else setup.hamming
            self.ebn0 = EBN0_LDPC if self.code.n > 64 else EBN0_HAMMING
            self.budget = budgets.ldpc_words if self.code.n > 64 else budgets.words
        else:
            self.code = setup.hamming
            self.epochs = getattr(budgets, name)
            self.budget = self.epochs[0] * self.epochs[1]
        self.H_T = self.code.matrix.astype(np.float64).T
        self.walls: list[float] = []
        self.streams: list[int] = []  # the stream of each entry in walls
        self.attempts = 0
        self.busy = 0.0  # seconds spent in this phase's repeats
        # stream -> (words, frame errors, bit errors), or the final loss
        self.outcomes: dict[int, tuple | float] = {}
        self.mismatches = 0
        self.raised = 0

    def once(self, stream: int, probe: Probe) -> float:
        """Run the budget on one stream; returns wall seconds without checks."""
        seed = stream_seed(self.seed, stream)
        probe.H_T = self.H_T
        check_before = probe.check_s
        start = time.perf_counter()
        if self.decode:
            stop = StopRule(min_words=self.budget, min_error_frames=0, max_words=self.budget)
            report = diffdec.bench.run_ber(
                self.name, self.code, [self.ebn0], stop, seed=seed,
                model=self.setup.model, schedule=self.setup.schedule,
                bp_iters=BP_ITERS, batch_size=BATCH)
            wall = time.perf_counter() - start
            point = report.points[0]
            outcome = (point.words, point.frame_errors, point.bit_errors)
        else:
            epochs, per_epoch = self.epochs
            config = TrainConfig(epochs=epochs, batches_per_epoch=per_epoch, seed=seed,
                                 **TRAIN, **TRAIN_ARCH[self.name])
            _, report = diffdec.training.train(config, code=self.code)
            wall = time.perf_counter() - start
            outcome = report.final_loss
        if stream in self.outcomes and self.outcomes[stream] != outcome:
            self.mismatches += 1
        self.outcomes.setdefault(stream, outcome)
        return wall - (probe.check_s - check_before)

    def repeat(self, probe: Probe) -> None:
        """One repeat on the next stream; a raise is recorded and counted as failed."""
        start = time.perf_counter()
        stream = self.attempts % STREAMS
        try:
            self.walls.append(self.once(stream, probe))
            self.streams.append(stream)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.raised += 1
        self.attempts += 1
        self.busy += time.perf_counter() - start

    def traced(self, probe: Probe) -> tuple[Tracer, float]:
        """One more repeat of stream 0 under the tracer; returns the tracer and
        the traced wall time over the median untraced one of stream 0."""
        tracer = Tracer()
        probe.reset_stats()
        probe.tracer = tracer
        try:
            with tracer.installed():
                wall = self.once(0, probe)
        finally:
            probe.tracer = None
        untraced = statistics.median(w for w, s in zip(self.walls, self.streams) if s == 0)
        return tracer, wall / untraced

    def rate(self) -> float:
        """Words or steps over the phase's wall time, all repeats together."""
        return self.budget * len(self.walls) / sum(self.walls)

    def quality(self) -> float:
        """Frame error rate over the distinct streams, or their mean loss."""
        if self.decode:
            outs = [self.outcomes[s] for s in range(STREAMS)]
            return sum(o[1] for o in outs) / sum(o[0] for o in outs)
        return statistics.fmean(self.outcomes[s] for s in range(STREAMS))

    def frame_errors(self) -> int:
        return sum(self.outcomes[s][1] for s in range(STREAMS))


def end_to_end(phases: dict[str, Phase], setup_s: float) -> dict[str, dict]:
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for name in DECODE_PHASES:
        metrics[f"{name}.words_per_s"] = (phases[name].rate(), "words/s")
        metrics[f"{name}.fer"] = (phases[name].quality(), "ratio")
    for name in TRAIN_PHASES:
        metrics[f"{name}.steps_per_s"] = (phases[name].rate(), "steps/s")
        metrics[f"{name}.loss"] = (phases[name].quality(), "nats")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(name: str, tracer: Tracer, probe: Probe, overhead: float) -> dict[str, tuple]:
    """The traced repeat's per-layer metrics for one phase, as (value, unit)."""
    t = tracer.totals()

    def get(layer, key):
        return t.get(layer, {}).get(key, 0)

    out = {"tracing_overhead": (overhead, "ratio")}
    if name in DECODE_PHASES:
        out["bench.self_s"] = (get("bench", "self_s"), "s")
        out["bench.rounds"] = (get("gf2.encode", "calls"), "count")
        out["gf2.encode.self_s"] = (get("gf2.encode", "self_s"), "s")
        out["channel.awgn.self_s"] = (get("channel.awgn", "self_s"), "s")
    if name == "ml":  # ML computes no syndromes
        out["gf2.ml.self_s"] = (get("gf2.ml", "self_s"), "s")
    else:
        out["gf2.syndrome.calls"] = (get("gf2.syndrome", "calls"), "count")
        out["gf2.syndrome.rows"] = (get("gf2.syndrome", "count"), "count")
        out["gf2.syndrome.self_s"] = (get("gf2.syndrome", "self_s"), "s")
    if name == "bp":
        out["bp.check_update.self_s"] = (get("bp.check_update", "self_s"), "s")
        out["bp.self_s"] = (get("bp", "self_s"), "s")
        out["bp.edge_msgs"] = (get("bp.check_update", "count"), "count")
        out["bp.iters_mean"] = (probe.iters / probe.words, "iters")
        out["bp.converged_share"] = (probe.converged / probe.words, "ratio")
    if name not in ("bp", "ml"):
        ops = ("gelu", "matmul", "mul", "add")
        if name == "attn":
            ops += ("layer_norm", "softmax")
        for op in ops:
            out[f"nn.op.{op}.self_s"] = (get(f"nn.op.{op}", "self_s"), "s")
        out["nn.matmul.mflop"] = (get("nn.op.matmul", "count") / 1e6, "Mflop")
    if name in ("ddecc-ls", "ddecc"):
        out["nn.denoise.calls"] = (get("nn.denoise", "calls"), "count")
        out["nn.denoise.rows"] = (get("nn.denoise", "count"), "count")
        out["nn.denoise.self_s"] = (get("nn.denoise", "self_s"), "s")
        out["decoding.self_s"] = (get("decoding", "self_s"), "s")
        out["decoding.iters_mean"] = (probe.iters / probe.words, "iters")
        out["decoding.converged_share"] = (probe.converged / probe.words, "ratio")
        out["diffusion.self_s"] = (get("diffusion", "self_s"), "s")
    if name == "ddecc-ls":
        out["decoding.ls.candidate_rows"] = (
            sum(math.prod(s[5]) for s in tracer.spans if s[0] == "gf2.syndrome" and len(s[5]) == 2),
            "count")
    if name in TRAIN_PHASES:
        out["nn.backward.self_s"] = (get("nn.backward", "self_s"), "s")
        out["nn.adam.self_s"] = (get("nn.adam", "self_s"), "s")
        out["training.self_s"] = (get("training", "self_s"), "s")
        out["training.steps"] = (get("nn.adam", "calls"), "count")
    return {f"{name}.{k}": v for k, v in out.items()}


def weights(workload: Workload) -> dict[str, int]:
    """Share of the measured time per phase: featured phases weigh more."""
    return {p: FEATURED_WEIGHT if p in workload.featured else 1 for p in PHASES}


def measure(phases: dict[str, Phase], weight: dict[str, int], seconds: float,
            min_repeats: int, probe: Probe) -> None:
    """Interleave repeats until ``seconds`` have passed and every phase has
    made ``min_repeats`` repeats.

    The next repeat goes to the phase with the least time spent per unit of
    weight, so time divides in proportion to the weights and every phase's
    repeats spread over the whole run: episodes of a slower machine then
    reach all phases alike instead of one phase's whole sample.  A phase that
    raised gets no repeats beyond its minimum.
    """
    start = time.perf_counter()
    while True:
        short = [p for p in phases.values() if p.attempts < min_repeats]
        if time.perf_counter() - start < seconds:
            pool = [p for p in phases.values() if p in short or not p.raised]
        else:
            pool = short
        if not pool:
            return
        min(pool, key=lambda p: p.busy / weight[p.name]).repeat(probe)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        budgets: Budgets = Budgets(), import_s: float = 0.0) -> dict:
    """Set up, run every phase, check the outputs; returns the full record.

    ``record["result"]`` is the benchmark's result line; the rest describes
    the run (budgets, repeats, per-stream outcomes, spans when traced).
    """
    workload = WORKLOADS[workload_name]
    setup_walls = []
    for _ in range(budgets.setup_repeats):
        start = time.perf_counter()
        setup = set_up(workload, budgets)
        setup_walls.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_walls)

    probe = Probe()
    phases = {name: Phase(name, setup, budgets, seed) for name in PHASES}
    spans, layers = {}, {}
    with probe.installed():
        measure(phases, weights(workload), seconds, budgets.min_repeats, probe)
        for name, phase in phases.items():
            if trace and phase.walls:
                tracer, overhead = phase.traced(probe)
                layers.update(per_layer(name, tracer, probe, overhead))
                spans[name] = tracer.spans

    checks = check_phases(phases)
    raised = sum(p.raised for p in phases.values())
    attempted = probe.attempted + raised + len(checks)
    failed = probe.failed + raised + sum(not ok for ok in checks.values())
    if any(len(p.outcomes) < STREAMS for p in phases.values()):
        raise RuntimeError("a phase did not complete every stream; no result")
    metrics = end_to_end(phases, setup_s) if not trace else \
        {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    codes = {"hamming74": setup.hamming}
    if setup.bp_code is not setup.hamming:
        codes[setup.bp_code.name] = setup.bp_code
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprints": {name: fingerprint(H) for name, H in codes.items()},
        "budgets": asdict(budgets),
        "phases": {name: {"budget": p.budget, "unit": "words" if p.decode else "steps",
                          "repeats": len(p.walls), "raised": p.raised,
                          "mismatches": p.mismatches,
                          "walls_s": p.walls,
                          "outcomes": [p.outcomes.get(s) for s in range(STREAMS)]}
                   for name, p in phases.items()},
        "setup_walls_s": setup_walls, "import_s": import_s,
        "checks": checks,
        "spans": spans,
    }


def check_phases(phases: dict[str, Phase]) -> dict[str, bool]:
    """Phase-level checks; per-batch and per-step checks live in the Probe."""
    checks = {}
    for name, phase in phases.items():
        checks[f"{name}.repeats_reproduce"] = phase.mismatches == 0
    if any(len(p.outcomes) < STREAMS for p in phases.values()):
        return checks
    ml = phases["ml"].frame_errors()
    for name in ("ddecc-ls", "ddecc", "bp"):
        if phases[name].code is phases["ml"].code:
            checks[f"ml.fer<={name}.fer"] = ml <= phases[name].frame_errors()
    checks["ddecc-ls.fer<=floor*ml.fer"] = phases["ddecc-ls"].frame_errors() <= LS_FLOOR * ml
    for name in TRAIN_PHASES:
        loss = phases[name].quality()
        checks[f"{name}.loss<ln2"] = bool(np.isfinite(loss)) and loss < math.log(2)
    return checks
