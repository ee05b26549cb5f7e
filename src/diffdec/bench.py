"""Monte-Carlo BER/FER harness and the side studies.

Benchmarks transmit uniformly random codewords (exercising the decoders'
codeword invariance end to end), decode with a chosen decoder kind and
accumulate integer error counters until the stopping rule is met.  Each
EbN0 point draws its words from one Philox stream keyed by (seed, point
index), and rounds are folded in the order they were drawn, so a report is
byte-reproducible from its seed; the worker count only sets how many rounds
are decoded at once.

BER counts all n codeword bits, not only information bits; comparisons
between decoders run under the same convention.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bp import TannerGraph, bp_decode_batch
from .channel import EbN0Point, awgn_batch, bpsk, ebn0_to_sigma, make_rng
from .decoding import DecodeConfig, decode_batch
from .diffusion import NoiseSchedule
from .gf2 import GeneratorMatrix, ParityCheckMatrix, encode_batch, ml_decode_batch, \
    syndrome_weights, systematic_generator

DECODER_KINDS = ("ddecc", "ddecc-ls", "bp", "ml")


def artifact(report: str, config: dict | None, columns: str, rows) -> str:
    """CSV artifact text: a ``# diffdec.report = <report>`` line, one
    ``# key = value`` line per config entry (sorted by key), the column
    header and the data rows.  The comment lines let the artifact serve as
    a ``--config`` file that reproduces it."""
    config = config or {}
    lines = [f"# diffdec.report = {report}"]
    lines += [f"# {key} = {config[key]}" for key in sorted(config)]
    lines.append(columns)
    lines += rows
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StopRule:
    """Transmit until both minimums are met, capped by max_words."""

    min_words: int = 10_000
    min_error_frames: int = 100
    max_words: int = 100_000

    def __post_init__(self):
        if self.min_words < 1 or self.min_error_frames < 0 or self.max_words < self.min_words:
            raise ValueError(f"inconsistent stop rule {self}")

    def satisfied(self, words: int, error_frames: int) -> bool:
        if words >= self.max_words:
            return True
        return words >= self.min_words and error_frames >= self.min_error_frames


@dataclass
class BerPoint:
    decoder: str
    ebn0_db: float
    sigma: float
    words: int
    bits_sent: int
    bit_errors: int
    frame_errors: int
    iter_sum: int
    iter_sumsq: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent

    @property
    def fer(self) -> float:
        return self.frame_errors / self.words

    @property
    def neg_ln_ber(self) -> float | None:
        return -float(np.log(self.ber)) if self.bit_errors > 0 else None

    @property
    def ber_se(self) -> float:
        # iid-bit binomial approximation, reported for tolerance bookkeeping
        return float(np.sqrt(self.ber * (1.0 - self.ber) / self.bits_sent))

    @property
    def iter_mean(self) -> float:
        return self.iter_sum / self.words

    @property
    def iter_std(self) -> float:
        return float(np.sqrt(max(self.iter_sumsq / self.words - self.iter_mean**2, 0.0)))


CSV_COLUMNS = ("decoder", "ebn0_db", "sigma", "words", "bits_sent", "bit_errors",
               "frame_errors", "ber", "fer", "neg_ln_ber", "ber_se", "iter_mean", "iter_std")


@dataclass
class BerReport:
    points: list[BerPoint]
    seed: int
    workers: int
    stop: StopRule
    config: dict[str, object] = field(default_factory=dict)

    def to_csv(self) -> str:
        echo = {"seed": self.seed, "workers": self.workers,
                "min_words": self.stop.min_words,
                "min_error_frames": self.stop.min_error_frames,
                "max_words": self.stop.max_words}
        echo.update(self.config)
        rows = [",".join(_csv_field(getattr(p, c)) for c in CSV_COLUMNS) for p in self.points]
        return artifact("bench", echo, ",".join(CSV_COLUMNS), rows)


def _csv_field(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _make_decoder(kind: str, H: ParityCheckMatrix, G: GeneratorMatrix, sigma: float,
                  model=None, schedule: NoiseSchedule | None = None,
                  decode_config: DecodeConfig | None = None, bp_iters: int = 50,
                  graph: TannerGraph | None = None):
    """Returns batch decoder: Y -> (bits, iters)."""
    if kind == "ml":
        return lambda Y: (ml_decode_batch(H, G, Y), np.zeros(len(Y), dtype=np.int64))
    if kind == "bp":
        def run_bp(Y):
            bits, _, iters, _ = bp_decode_batch(H, Y, sigma, bp_iters, graph=graph)
            return bits, iters
        return run_bp
    if kind in ("ddecc", "ddecc-ls"):
        if model is None or schedule is None:
            raise ValueError(f"decoder {kind!r} needs a trained model and its schedule")
        mode = "line_search" if kind == "ddecc-ls" else "regular"
        config = replace(decode_config or DecodeConfig(), mode=mode)

        def run_dd(Y):
            res = decode_batch(model, H, schedule, Y, config, collect_traces=False)
            return res.bits, res.iters
        return run_dd
    raise ValueError(f"unknown decoder kind {kind!r}; choose from {DECODER_KINDS}")


def run_ber(decoder: str, code: ParityCheckMatrix, ebn0_list, stop: StopRule = StopRule(),
            seed: int = 0, workers: int = 1, model=None,
            schedule: NoiseSchedule | None = None,
            decode_config: DecodeConfig | None = None, bp_iters: int = 50,
            batch_size: int = 1024, config_echo: dict | None = None) -> BerReport:
    """Estimate BER/FER at each EbN0 point; deterministic given the seed.

    Rounds of ``batch_size`` words are drawn in turn from the point's
    stream and decoded ``workers`` at a time; rounds drawn after the stop
    rule is met are dropped, so every worker count gives the same report.
    """
    if workers < 1 or batch_size < 1:
        raise ValueError(f"workers and batch_size must be >= 1, got {workers} and {batch_size}")
    G = systematic_generator(code)
    graph = TannerGraph(code) if decoder == "bp" else None
    rate = code.k / code.n
    points = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        decode_rounds = map if workers == 1 else pool.map  # one worker: no thread hop
        for point_idx, db in enumerate(ebn0_list):
            sigma = ebn0_to_sigma(EbN0Point(db, rate))
            run = _make_decoder(decoder, code, G, sigma, model, schedule,
                                decode_config, bp_iters, graph)
            rng = make_rng(seed, stream=point_idx)
            point = BerPoint(decoder, float(db), sigma, 0, 0, 0, 0, 0, 0)
            while not stop.satisfied(point.words, point.frame_errors):
                Xs, Ys = [], []
                for _ in range(workers):
                    msgs = rng.integers(0, 2, size=(batch_size, G.k), dtype=np.uint8)
                    Xs.append(encode_batch(G, msgs))
                    Ys.append(awgn_batch(Xs[-1], sigma, rng))
                for X, (bits, iters) in zip(Xs, decode_rounds(run, Ys)):
                    if stop.satisfied(point.words, point.frame_errors):
                        break
                    wrong = bits != X
                    point.words += len(X)
                    point.bits_sent += X.size
                    point.bit_errors += int(wrong.sum())
                    point.frame_errors += int(wrong.any(axis=1).sum())
                    point.iter_sum += int(iters.sum())
                    point.iter_sumsq += int((iters**2).sum())
            points.append(point)
    return BerReport(points, seed, workers, stop, dict(config_echo or {}))


# ---------------------------------------------------------------------------
# Side studies
# ---------------------------------------------------------------------------

def parity_noise_study(code: ParityCheckMatrix, sigmas, samples: int = 1000,
                       seed: int = 0) -> list[tuple[float, float, float]]:
    """Mean/std of the parity-error count of noisy random codewords per sigma."""
    if samples < 1:
        raise ValueError("samples must be positive")
    sigmas = [float(sigma) for sigma in sigmas]
    if not all(np.isfinite(sigma) and sigma >= 0 for sigma in sigmas):
        raise ValueError(f"sigmas must be finite and >= 0 (0 is noiseless), got {sigmas}")
    G = systematic_generator(code)
    rows = []
    for idx, sigma in enumerate(sigmas):
        rng = make_rng(seed, stream=idx)
        msgs = rng.integers(0, 2, size=(samples, G.k), dtype=np.uint8)
        X = encode_batch(G, msgs)
        Y = bpsk(X) if sigma == 0 else awgn_batch(X, sigma, rng)
        e = syndrome_weights(code, Y)
        rows.append((sigma, float(e.mean()), float(e.std())))
    return rows


def parity_noise_csv(rows, config: dict | None = None) -> str:
    return artifact("parity-noise", config, "sigma,mean_parity_errors,std_parity_errors",
                    [f"{repr(s)},{repr(m)},{repr(d)}" for s, m, d in rows])


def lambda_histogram(model, code: ParityCheckMatrix, schedule: NoiseSchedule,
                     ebn0_db: float, samples: int = 1000, seed: int = 0,
                     config: DecodeConfig = DecodeConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of chosen line-search step sizes over the grid values."""
    if config.mode != "line_search":
        raise ValueError("step-size histograms require line-search mode")
    rng = make_rng(seed, stream=977)
    G = systematic_generator(code)
    sigma = ebn0_to_sigma(EbN0Point(ebn0_db, code.k / code.n))
    msgs = rng.integers(0, 2, size=(samples, G.k), dtype=np.uint8)
    Y = awgn_batch(encode_batch(G, msgs), sigma, rng)
    result = decode_batch(model, code, schedule, Y, config)
    grid = config.grid()
    chosen = np.array([step.step_size for trace in result.traces for step in trace])
    counts = np.array([(chosen == lam).sum() for lam in grid], dtype=np.int64)
    return grid, counts


def lambda_histogram_csv(grid, counts, config: dict | None = None) -> str:
    return artifact("lambda-hist", config, "step_size,count",
                    [f"{repr(float(g))},{int(c)}" for g, c in zip(grid, counts)])


def forward_process_trace(schedule: NoiseSchedule, trajectories: int,
                          rng: np.random.Generator, steps: int | None = None) -> list[tuple]:
    """Stepwise forward-walk coordinates of modulated (3,1) repetition codewords.

    Each trajectory starts at +-(1,1,1) (a random codeword) and follows the
    Markov chain x_t = x_{t-1} + sqrt(beta_t) z.  Rows: (traj, t, x, y, z).
    """
    steps = schedule.T if steps is None else int(steps)
    if not 0 <= steps <= schedule.T:
        raise ValueError(f"steps must lie in 0..{schedule.T}")
    rows = []
    for traj in range(trajectories):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        x = np.full(3, sign)
        rows.append((traj, 0, float(x[0]), float(x[1]), float(x[2])))
        for t in range(1, steps + 1):
            x = x + np.sqrt(schedule.beta(t)) * rng.standard_normal(3)
            rows.append((traj, t, float(x[0]), float(x[1]), float(x[2])))
    return rows


def forward_trace_csv(rows, config: dict | None = None) -> str:
    return artifact("forward-trace", config, "trajectory,t,x0,x1,x2",
                    [f"{tr},{t},{repr(a)},{repr(b)},{repr(c)}" for tr, t, a, b, c in rows])
