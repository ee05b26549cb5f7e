"""Monte-Carlo BER/FER harness and the side studies.

Benchmarks transmit uniformly random codewords (exercising the decoders'
codeword invariance end to end), decode with a chosen decoder kind and
accumulate integer error counters until the stopping rule is met.  Each
EbN0 point draws its words from one Philox stream keyed by (seed, point
index), and rounds are folded in the order they were drawn, so a report is
byte-reproducible from its seed; the worker count and the number of rounds
packed into one decoder call only set how many rounds are decoded at once.

BER counts all n codeword bits, not only information bits; comparisons
between decoders run under the same convention.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bp import bp_decode_batch
from .channel import EbN0Point, awgn_batch, bpsk, check_count, ebn0_to_sigma, make_rng
from .decoding import DecodeConfig, decode_batch
from .diffusion import NoiseSchedule
from .gf2 import CALL_FLOATS, GeneratorMatrix, ParityCheckMatrix, encode_batch, \
    ml_decode_batch, syndrome_weights, systematic_generator
from .nn import DenoiserModel

DECODER_KINDS = ("ddecc", "ddecc-ls", "bp", "ml")
# run_ber packs rounds into one decoder call up to gf2.CALL_FLOATS floats
# (4 MiB per float64 array as wide as the decoder's per-word working set).
# A call and each of its iterations have a fixed cost whatever the batch,
# so packed rounds share it, and the few words of a short code that run
# every iteration share it with the other rounds' stragglers.


def artifact(report: str, config: dict | None, columns: str, rows) -> str:
    """CSV artifact text: a ``# diffdec.report = <report>`` line, one
    ``# key = value`` line per config entry (sorted by key), the column
    header and one line per row of values.  A field is written by one rule:
    a float (numpy's too) as ``repr(float(v))``, None as an empty field and
    anything else with ``str``.  The comment lines let the artifact serve as
    a ``--config`` file that reproduces it."""
    config = config or {}
    lines = [f"# diffdec.report = {report}"]
    lines += [f"# {key} = {config[key]}" for key in sorted(config)]
    lines.append(columns)
    lines += [",".join("" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StopRule:
    """Transmit until both minimums are met, capped by max_words."""

    min_words: int = 10_000
    min_error_frames: int = 100
    max_words: int = 100_000

    def __post_init__(self):
        check_count(min_words=self.min_words, max_words=self.max_words)
        check_count(0, min_error_frames=self.min_error_frames)
        if self.max_words < self.min_words:
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

    def to_csv(self, config: dict | None = None) -> str:
        """The bench artifact; ``config`` is echoed over the seed, workers and stop rule."""
        echo = {"seed": self.seed, "workers": self.workers, **asdict(self.stop), **(config or {})}
        return artifact("bench", echo, ",".join(CSV_COLUMNS),
                        [[getattr(p, c) for c in CSV_COLUMNS] for p in self.points])


def _make_decoder(kind: str, H: ParityCheckMatrix, G: GeneratorMatrix, sigma: float,
                  model, schedule: NoiseSchedule | None,
                  decode_config: DecodeConfig | None, bp_iters: int):
    """Returns the batch decoder Y -> (bits, iters) and the floats it holds
    per word: the width ``run_ber`` sizes its calls by."""
    if kind == "ml":
        def run_ml(Y):
            return ml_decode_batch(H, G, Y), np.zeros(len(Y), dtype=np.int64)
        return run_ml, max(2**G.k, H.n)  # one score per codeword, or the received word
    if kind == "bp":
        def run_bp(Y):
            bits, _, iters, _ = bp_decode_batch(H, Y, sigma, bp_iters)
            return bits, iters
        return run_bp, H.check_cols.size  # one edge message per check slot
    if kind in ("ddecc", "ddecc-ls"):
        if model is None or schedule is None:
            raise ValueError(f"decoder {kind!r} needs a trained model and its schedule")
        mode = "line_search" if kind == "ddecc-ls" else "regular"
        config = replace(decode_config or DecodeConfig(), mode=mode)

        def run_dd(Y):
            res = decode_batch(model, H, schedule, Y, config, collect_traces=False)
            return res.bits, res.iters
        # the line search's candidates, or the denoiser's widest activation
        width = len(config.grid()) * H.n
        if isinstance(model, DenoiserModel):
            width = max(width, model.widest_activation)
        return run_dd, width
    raise ValueError(f"unknown decoder kind {kind!r}; choose from {DECODER_KINDS}")


def _rounds_to_draw(stop: StopRule, point: BerPoint, batch_size: int, most: int) -> int:
    """How many rounds the next pass of ``run_ber`` draws: at most ``most``,
    none past ``max_words``, and as few as the stop rule is likely to fold.
    Short of ``min_words`` only ``max_words`` can stop the point, so the draw
    ends at ``min_words``.  Past it, the draw ends where the frame error rate
    seen so far would bring the missing error frames; with none seen yet
    there is no estimate, and it ends at ``most``."""
    def rounds(words: int) -> int:
        return -(-words // batch_size)

    if point.words < stop.min_words:
        return min(most, rounds(stop.min_words - point.words))
    missing = stop.min_error_frames - point.frame_errors
    left = rounds(stop.max_words - point.words)
    if point.frame_errors == 0:
        return min(most, left)
    return min(most, left, rounds(missing * point.words // point.frame_errors))


def run_ber(decoder: str, code: ParityCheckMatrix, ebn0_list, stop: StopRule = StopRule(),
            seed: int = 0, workers: int = 1, model=None,
            schedule: NoiseSchedule | None = None,
            decode_config: DecodeConfig | None = None, bp_iters: int = 50,
            batch_size: int = 1024) -> BerReport:
    """Estimate BER/FER at each EbN0 point; deterministic given the seed.

    Rounds of ``batch_size`` words are drawn in turn from the point's
    stream, never past ``stop.max_words`` and no more than the stop rule is
    likely to fold (``_rounds_to_draw``); of the round that crosses
    ``max_words`` only the words up to it are folded.  A decoder call holds
    as many rounds as fit in ``CALL_FLOATS`` floats of the decoder's
    per-word width (``_make_decoder``), and at least one; calls run
    ``workers`` at a time.  Rounds are folded in the order drawn, and those
    after the stop rule is met are dropped, so every worker count and every
    number of rounds per call gives the same report.
    """
    check_count(workers=workers, batch_size=batch_size, bp_iters=bp_iters)
    ebn0_list = list(ebn0_list)
    if not ebn0_list:
        raise ValueError("ebn0_list names no EbN0 point")
    G = systematic_generator(code)
    rate = code.k / code.n
    points = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        decode_calls = map if workers == 1 else pool.map  # one worker: no thread hop
        for point_idx, db in enumerate(ebn0_list):
            sigma = ebn0_to_sigma(EbN0Point(db, rate))
            run, width = _make_decoder(decoder, code, G, sigma, model, schedule,
                                       decode_config, bp_iters)
            per_call = max(1, CALL_FLOATS // (batch_size * width))
            rng = make_rng(seed, stream=point_idx)
            point = BerPoint(decoder, float(db), sigma, 0, 0, 0, 0, 0, 0)
            while not stop.satisfied(point.words, point.frame_errors):
                Xs, Ys = [], []
                for _ in range(_rounds_to_draw(stop, point, batch_size, workers * per_call)):
                    msgs = rng.integers(0, 2, size=(batch_size, G.k), dtype=np.uint8)
                    Xs.append(encode_batch(G, msgs))
                    Ys.append(awgn_batch(Xs[-1], sigma, rng))
                size = -(-len(Ys) // workers)  # at most per_call rounds, spread over the workers
                groups = [Ys[i:i + size] for i in range(0, len(Ys), size)]
                calls = [g[0] if len(g) == 1 else np.concatenate(g) for g in groups]
                rounds = ((bits[i:i + batch_size], iters[i:i + batch_size])
                          for bits, iters in decode_calls(run, calls)
                          for i in range(0, len(bits), batch_size))
                for X, (bits, iters) in zip(Xs, rounds):
                    if stop.satisfied(point.words, point.frame_errors):
                        break
                    # the round that crosses max_words is folded up to it
                    fold = min(len(X), stop.max_words - point.words)
                    X, bits, iters = X[:fold], bits[:fold], iters[:fold]
                    wrong = bits != X
                    point.words += len(X)
                    point.bits_sent += X.size
                    point.bit_errors += int(wrong.sum())
                    point.frame_errors += int(wrong.any(axis=1).sum())
                    point.iter_sum += int(iters.sum())
                    point.iter_sumsq += int((iters**2).sum())
            points.append(point)
    return BerReport(points, seed, workers, stop)


# ---------------------------------------------------------------------------
# Side studies
# ---------------------------------------------------------------------------

def parity_noise_study(code: ParityCheckMatrix, sigmas, samples: int,
                       seed: int) -> list[tuple[float, float, float]]:
    """Mean/std of the parity-error count of noisy random codewords per sigma."""
    check_count(samples=samples)
    sigmas = [float(sigma) for sigma in sigmas]
    if not sigmas:
        raise ValueError("sigmas names no noise level")
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


def lambda_histogram(model, code: ParityCheckMatrix, schedule: NoiseSchedule,
                     ebn0_db: float, samples: int, seed: int,
                     config: DecodeConfig = DecodeConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of chosen line-search step sizes over the grid values."""
    if config.mode != "line_search":
        raise ValueError("step-size histograms require line-search mode")
    check_count(samples=samples)
    rng = make_rng(seed, stream=977)
    G = systematic_generator(code)
    sigma = ebn0_to_sigma(EbN0Point(ebn0_db, code.k / code.n))
    msgs = rng.integers(0, 2, size=(samples, G.k), dtype=np.uint8)
    Y = awgn_batch(encode_batch(G, msgs), sigma, rng)
    result = decode_batch(model, code, schedule, Y, config)
    grid = config.grid()
    counts = np.array([(result.step_sizes == lam).sum() for lam in grid], dtype=np.int64)
    return grid, counts


def forward_process_trace(schedule: NoiseSchedule, trajectories: int,
                          rng: np.random.Generator) -> list[tuple]:
    """Stepwise forward-walk coordinates of modulated (3,1) repetition codewords.

    Each trajectory starts at +-(1,1,1) (a random codeword) and follows the
    Markov chain x_t = x_{t-1} + sqrt(beta_t) z for t = 1..T.  Rows: (traj, t, x, y, z).
    """
    check_count(trajectories=trajectories)
    rows = []
    for traj in range(trajectories):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        x = np.full(3, sign)
        rows.append((traj, 0, float(x[0]), float(x[1]), float(x[2])))
        for t in range(1, schedule.T + 1):
            x = x + np.sqrt(schedule.beta(t)) * rng.standard_normal(3)
            rows.append((traj, t, float(x[0]), float(x[1]), float(x[2])))
    return rows

