import math

import numpy as np
import pytest

import diffdec.bench
from diffdec.bench import (StopRule, artifact, forward_process_trace, lambda_histogram,
                           parity_noise_study, run_ber)
from diffdec.channel import EbN0Point, ebn0_to_sigma, make_rng
from diffdec.decoding import DecodeConfig
from diffdec.diffusion import NoiseSchedule
from diffdec.nn import ArchConfig, DenoiserModel
from diffdec.bp import bp_decode_batch
from oracles import pseudo_ldpc_49_24, qfunc


class TestArtifact:
    def test_one_rule_per_field(self):
        # np.float64 is a float whose numpy-2 repr reads np.float64(...)
        row = (np.float64(0.1), 0.25, None, np.int64(7), True, "0101", np.float64(2.0))
        text = artifact("x", {"seed": 3, "a": "b"}, "c", [row])
        assert text == "# diffdec.report = x\n# a = b\n# seed = 3\nc\n0.1,0.25,,7,True,0101,2.0\n"


class TestStopRule:
    def test_both_thresholds_must_be_met(self):
        rule = StopRule(1000, 50, 10_000)
        assert not rule.satisfied(1000, 49)
        assert not rule.satisfied(999, 50)
        assert rule.satisfied(1000, 50)

    def test_max_words_caps_the_run(self):
        rule = StopRule(1000, 50, 2000)
        assert rule.satisfied(2000, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="inconsistent stop rule"):
            StopRule(1000, 10, 500)

    @pytest.mark.parametrize("kw, name", [
        (dict(min_words=1500.5, max_words=3000), "min_words"),
        (dict(min_words=1000, max_words=3000.0), "max_words"),
        (dict(min_words=0), "min_words"),
        (dict(min_error_frames=2.5), "min_error_frames"),
        (dict(min_error_frames=-1), "min_error_frames")])
    def test_counts_must_be_integers(self, kw, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            StopRule(**kw)


# Hamming(7,4) rows of run_ber at one worker, recorded before the worker
# count stopped keying the random streams; any change to a point's stream
# shows here.  The stop rule ends the points after 5, 13 (ml) and 11 (bp)
# rounds of 200 words, partway through a batch of 2 or 3 rounds.
PINNED_STOP = StopRule(1000, 40, 2600)
PINNED_ROWS = {
    "ml": ["ml,2.0,0.7430260267448032,1000,7000,216,68,0.030857142857142857,0.068,"
           "3.4783870203532854,0.0020669155623031536,0.0,0.0",
           "ml,4.0,0.5902065521783963,2600,18200,91,29,0.005,0.011153846153846153,"
           "5.298317366548036,0.0005228304202622953,0.0,0.0"],
    "bp": ["bp,2.0,0.7430260267448032,1000,7000,247,92,0.03528571428571429,0.092,"
           "3.3442770914094733,0.002205209178709786,2.812,10.050803748954609",
           "bp,4.0,0.5902065521783963,2200,15400,112,42,0.007272727272727273,"
           "0.019090909090909092,4.923623917106626,0.0006847046339572885,"
           "0.6763636363636364,3.879993609946174"],
}


@pytest.fixture
def bp_calls(monkeypatch):
    """Word counts of the bp_decode_batch calls run_ber makes, in call order."""
    calls = []

    def recording(H, Y, *args, **kwargs):
        calls.append(len(Y))
        return bp_decode_batch(H, Y, *args, **kwargs)

    monkeypatch.setattr(diffdec.bench, "bp_decode_batch", recording)
    return calls


class TestRunBer:
    def test_ml_repetition_matches_gaussian_tail_anchor(self, rep31):
        # a 2-codeword antipodal code: frame error prob is Q(sqrt(n)/sigma)
        db = 4.0
        report = run_ber("ml", rep31, [db], stop=StopRule(10_000, 100, 100_000), seed=7)
        point = report.points[0]
        sigma = ebn0_to_sigma(EbN0Point(db, 1 / 3))
        p_exact = qfunc(np.sqrt(3) / sigma)
        se = np.sqrt(p_exact * (1 - p_exact) / point.words)
        assert abs(point.fer - p_exact) < 3 * se
        assert point.ber == pytest.approx(point.fer)  # block flips entirely

    def test_noise_free_regime_reports_zero_ber_and_no_log(self, rep31):
        report = run_ber("ml", rep31, [20.0], stop=StopRule(10_000, 100, 10_000), seed=1)
        point = report.points[0]
        assert point.words == 10_000  # capped at max_words
        assert point.bit_errors == 0 and point.ber == 0.0
        assert point.neg_ln_ber is None
        last = report.to_csv().splitlines()[-1]
        assert ",," in last  # the -ln(BER) field is left empty

    def test_same_seed_byte_identical_reports(self, rep31):
        kw = dict(stop=StopRule(2000, 10, 4000), seed=9)
        a = run_ber("ml", rep31, [3.0, 5.0], **kw).to_csv()
        b = run_ber("ml", rep31, [3.0, 5.0], **kw).to_csv()
        assert a == b

    def test_accounting_invariants(self, ham74):
        report = run_ber("bp", ham74, [2.0], stop=StopRule(2000, 10, 4000), seed=3)
        p = report.points[0]
        assert p.frame_errors <= p.words
        assert p.bit_errors <= 7 * p.words
        assert p.bits_sent == 7 * p.words
        assert p.iter_mean >= 0

    def test_worker_partitioning_is_deterministic(self, rep31):
        kw = dict(stop=StopRule(2000, 10, 4000), seed=9)
        a = run_ber("ml", rep31, [4.0], workers=2, **kw).to_csv()
        b = run_ber("ml", rep31, [4.0], workers=2, **kw).to_csv()
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ml", "bp"])
    def test_rows_are_pinned_at_every_worker_count(self, ham74, kind, workers):
        report = run_ber(kind, ham74, [2.0, 4.0], PINNED_STOP, seed=11, workers=workers,
                         batch_size=200)
        assert report.to_csv().splitlines()[-2:] == PINNED_ROWS[kind]

    def test_diffusion_decoder_points_do_not_depend_on_workers(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=7)
        kw = dict(stop=PINNED_STOP, seed=11, batch_size=200, model=model,
                  schedule=NoiseSchedule.constant(0.25, 3))
        one, two, three = (run_ber("ddecc-ls", ham74, [2.0, 4.0], workers=w, **kw).points
                           for w in (1, 2, 3))
        assert one == two == three
        # the last round comes partway through a batch of 2 and of 3 rounds
        assert all((p.words // 200) % 6 in (1, 5) for p in one)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bp_points_do_not_depend_on_rounds_per_call(self, ham74, workers, monkeypatch,
                                                         bp_calls):
        # 2**17 // (256 words * 12 slots) = 42 rounds per call.  The 2 dB point
        # stops at min_words after 2 rounds.  The 4 dB point draws 8 more
        # rounds after those, at the frame error rate of the first 2, and stops
        # on its error frames after the 9th, partway through a call; the 6 dB
        # point stops at max_words after 16 rounds.
        stop = StopRule(512, 40, 256 * 16)
        kw = dict(seed=5, workers=workers, batch_size=256)
        packed = run_ber("bp", ham74, [2.0, 4.0, 6.0], stop, **kw).points
        assert [p.words // 256 for p in packed] == [2, 9, 16]
        assert sum(bp_calls) // 256 == 2 + 10 + 16 and max(bp_calls) > 256
        monkeypatch.setattr(diffdec.bench, "CALL_MESSAGES", 1)
        bp_calls.clear()
        one_per_call = run_ber("bp", ham74, [2.0, 4.0, 6.0], stop, **kw).points
        assert packed == one_per_call
        assert max(bp_calls) == 256

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_round_is_drawn_past_max_words(self, ham74, workers, bp_calls):
        stop = StopRule(1000, 10**6, 2600)  # never met by error frames
        report = run_ber("bp", ham74, [3.0], stop, seed=2, workers=workers, batch_size=200)
        assert report.points[0].words == 2600
        assert sum(bp_calls) <= math.ceil(stop.max_words / 200) * 200
        assert max(bp_calls) > 200  # rounds are packed

    def test_point_stops_at_max_words_inside_a_round(self, rep31):
        # one 1024-word round crosses the cap; only its first 200 words count
        # (`bench --min-words 100 --max-words 200` once reported 1024 words)
        report = run_ber("ml", rep31, [4.0, 5.0], StopRule(100, 100, 200), seed=0)
        assert [(p.words, p.bits_sent) for p in report.points] == [(200, 600)] * 2
        assert all(p.frame_errors <= 200 for p in report.points)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_stopped_at_min_words_decodes_no_later_round(self, rep31, workers, bp_calls):
        # rep31 packs 32 rounds of 1024 words per call; at 0 dB the default
        # stop rule has its error frames long before min_words, so the point
        # ends after ceil(10,000 / 1024) = 10 rounds and no 11th is decoded
        stop = StopRule()
        point = run_ber("bp", rep31, [0.0], stop, seed=3, workers=workers).points[0]
        assert point.frame_errors >= stop.min_error_frames
        assert point.words == sum(bp_calls) == math.ceil(stop.min_words / 1024) * 1024
        assert len(bp_calls) == workers

    def test_draws_past_min_words_follow_the_frame_error_rate(self, ham74, monkeypatch):
        # every frame is wrong, so 1000 words bring 1000 error frames and the
        # 2000 missing ones need 2000 more words: drawn in one pass of 20
        # rounds after the 10 up to min_words, and none of them dropped
        calls = []

        def all_wrong(H, Y, *args, **kwargs):
            calls.append(len(Y))
            B = len(Y)
            return (np.full((B, H.n), 2, dtype=np.uint8), np.zeros(B, dtype=bool),
                    np.zeros(B, dtype=np.int64), np.zeros((B, H.n)))

        monkeypatch.setattr(diffdec.bench, "bp_decode_batch", all_wrong)
        stop = StopRule(1000, 3000, 10**5)
        point = run_ber("bp", ham74, [3.0], stop, seed=2, batch_size=100).points[0]
        assert calls == [1000, 2000]
        assert point.words == point.frame_errors == 3000

    @pytest.mark.parametrize("bad", [dict(workers=0), dict(batch_size=0)])
    def test_non_positive_workers_or_batch_size_rejected(self, rep31, bad):
        with pytest.raises(ValueError):
            run_ber("ml", rep31, [4.0], **bad)

    @pytest.mark.parametrize("bp_iters", [0, -5, 2.5])
    def test_bp_iteration_cap_below_one_rejected(self, rep31, bp_iters):
        with pytest.raises(ValueError, match="bp_iters"):
            run_ber("bp", rep31, [4.0], bp_iters=bp_iters)

    def test_unknown_decoder_rejected(self, rep31):
        with pytest.raises(ValueError):
            run_ber("turbo", rep31, [4.0])

    def test_model_decoders_need_model(self, rep31):
        with pytest.raises(ValueError):
            run_ber("ddecc-ls", rep31, [4.0])


class TestParityNoiseStudy:
    def test_zero_noise_gives_zero_count(self, ham74):
        rows = parity_noise_study(ham74, [0.0], samples=500, seed=0)
        assert rows[0][1] == 0.0 and rows[0][2] == 0.0

    def test_mean_count_non_decreasing_within_2_stderr(self, ham74):
        sigmas = [0.1, 0.3, 0.5, 0.8, 1.2, 2.0]
        rows = parity_noise_study(ham74, sigmas, samples=4000, seed=1)
        for (s0, m0, d0), (s1, m1, d1) in zip(rows, rows[1:]):
            stderr = np.sqrt(d0**2 + d1**2) / np.sqrt(4000)
            assert m1 >= m0 - 2 * stderr

    def test_extreme_noise_approaches_half_the_checks(self, ham74):
        rows = parity_noise_study(ham74, [500.0], samples=20_000, seed=2)
        _, mean, _ = rows[0]
        assert mean == pytest.approx(1.5, abs=0.05)

    def test_also_runs_on_loaded_alist_code(self):
        H = pseudo_ldpc_49_24()
        rows = parity_noise_study(H, [0.2, 0.6, 1.0], samples=2000, seed=3)
        means = [m for _, m, _ in rows]
        assert means == sorted(means)

    @pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
    def test_negative_or_non_finite_sigma_rejected(self, ham74, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            parity_noise_study(ham74, [0.0, bad, 1.0], samples=10, seed=0)

    def test_empty_sigma_list_rejected(self, ham74):
        with pytest.raises(ValueError, match="names no noise level"):
            parity_noise_study(ham74, [], samples=10, seed=0)

    def test_csv_layout(self, ham74):
        rows = parity_noise_study(ham74, [0.0, 1.0], samples=100, seed=0)
        csv = artifact("parity-noise", {"code": "hamming74"},
                       "sigma,mean_parity_errors,std_parity_errors", rows)
        lines = csv.splitlines()
        assert lines[0].startswith("#") and "sigma,mean" in lines[2]
        assert len(lines) == 5


class TestLambdaHistogram:
    def test_single_point_grid_puts_all_mass_there(self, ham74, trained_ham74):
        model, schedule, _ = trained_ham74
        grid, counts = lambda_histogram(model, ham74, schedule, ebn0_db=4.0,
                                        samples=400, seed=4,
                                        config=DecodeConfig(ls_grid=(2.0, 2.0, 1)))
        assert len(grid) == 1 and grid[0] == 2.0
        assert counts[0] > 0

    def test_counts_sum_to_ls_invocations(self, ham74, trained_ham74):
        model, schedule, _ = trained_ham74
        grid, counts = lambda_histogram(model, ham74, schedule, ebn0_db=4.0,
                                        samples=400, seed=4)
        # reproduce the word stream and count line-search steps directly
        from diffdec.channel import awgn_batch
        from diffdec.decoding import decode_batch
        from diffdec.gf2 import encode_batch, systematic_generator
        rng = make_rng(4, stream=977)
        G = systematic_generator(ham74)
        sigma = ebn0_to_sigma(EbN0Point(4.0, 4 / 7))
        msgs = rng.integers(0, 2, size=(400, G.k), dtype=np.uint8)
        Y = awgn_batch(encode_batch(G, msgs), sigma, rng)
        res = decode_batch(model, ham74, schedule, Y)
        invocations = int(res.iters.sum())  # one line search per reverse step
        assert counts.sum() == invocations

    def test_regular_mode_rejected(self, ham74, trained_ham74):
        model, schedule, _ = trained_ham74
        with pytest.raises(ValueError):
            lambda_histogram(model, ham74, schedule, 4.0, 10, 0,
                             DecodeConfig(mode="regular"))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_fewer_than_one_sample_rejected(self, ham74, samples):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 8, 1), seed=0)
        with pytest.raises(ValueError, match="samples"):
            lambda_histogram(model, ham74, NoiseSchedule.constant(0.01, 3), 4.0, samples)


class TestForwardTrace:
    def test_start_rows_are_modulated_codewords(self):
        sched = NoiseSchedule.constant(0.05, 10)
        rows = forward_process_trace(sched, trajectories=20, rng=make_rng(5))
        starts = [r for r in rows if r[1] == 0]
        assert len(starts) == 20
        for _, _, a, b, c in starts:
            assert (a, b, c) in ((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0))

    def test_coordinate_variance_tracks_cumulative_schedule(self):
        sched = NoiseSchedule.constant(0.05, 12)
        rows = forward_process_trace(sched, trajectories=4000, rng=make_rng(6))
        coords = {(traj, t): (a, b, c) for traj, t, a, b, c in rows}
        for t in (4, 12):
            diffs = []
            for traj in range(4000):
                start = np.array(coords[(traj, 0)])
                diffs.append(np.array(coords[(traj, t)]) - start)
            var = np.concatenate(diffs).var()
            assert var == pytest.approx(sched.beta_bar(t), rel=0.1)

    @pytest.mark.parametrize("trajectories", [0, -2])
    def test_fewer_than_one_trajectory_rejected(self, trajectories):
        with pytest.raises(ValueError, match="trajectories"):
            forward_process_trace(NoiseSchedule.constant(0.05, 4), trajectories, make_rng(0))

    def test_row_count_matches_request(self):
        sched = NoiseSchedule.constant(0.05, 5)
        rows = forward_process_trace(sched, trajectories=7, rng=make_rng(7))
        assert len(rows) == 7 * 6
        csv = artifact("forward-trace", None, "trajectory,t,x0,x1,x2", rows)
        assert len(csv.splitlines()) == 2 + len(rows)
