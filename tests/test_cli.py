import struct
import zlib
from dataclasses import asdict, fields
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest

import diffdec.cli
import diffdec.training
from diffdec.cli import build_parser, main, read_config_file
from diffdec.decoding import DecodeConfig
from diffdec.diffusion import NoiseSchedule
from diffdec.gf2 import builtin_code
from diffdec.nn import ArchConfig, CheckpointError, DenoiserModel, load_checkpoint, \
    save_checkpoint
from diffdec.training import TrainConfig


def run(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def untrained_checkpoint(path):
    """An untrained MLP checkpoint bound to rep31."""
    model = DenoiserModel.create(builtin_code("rep31"), ArchConfig("mlp", 8, 1), seed=3)
    save_checkpoint(model, NoiseSchedule.constant(0.3, 3), path, {"code": "rep31"})
    return path


class TestDispatch:
    def test_unknown_subcommand_fails(self, capsys):
        assert main(["frobnicate"]) != 0

    def test_unknown_flag_fails(self, capsys):
        assert main(["bench", "--no-such-flag"]) != 0

    def test_missing_checkpoint_is_reported(self, tmp_path, capsys):
        code = main(["bench", "--decoder", "ddecc-ls", "--code", "rep31"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--batch-size"])
    def test_zero_workers_or_batch_size_is_reported(self, capsys, flag):
        assert main(["bench", "--code", "rep31", flag, "0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_bp_iteration_cap_below_one_is_reported(self, capsys, iters):
        # such a cap once printed the channel's hard decisions as a bp row
        assert main(["bench", "--decoder", "bp", "--code", "rep31", "--bp-iters", iters]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "bp" not in captured.out


class TestBench:
    def test_ml_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code = main(["bench", "--code", "rep31", "--decoder", "ml",
                     "--ebn0", "4,6", "--seed", "7", "--min-words", "2000",
                     "--min-error-frames", "10", "--max-words", "4000",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "decoder,ebn0_db" in text
        assert text.count("\nml,") == 2

    def test_ml_rows_do_not_depend_on_a_checkpoint(self, tmp_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        base = ["bench", "--decoder", "ml", "--ebn0", "4", "--seed", "2", "--min-words", "200",
                "--min-error-frames", "5", "--max-words", "400"]
        rows = []
        for given in ([], ["--checkpoint", str(ckpt)]):
            out = tmp_path / "ber.csv"
            assert main([*base, "--code", "rep31", *given, "--out", str(out)]) == 0
            rows.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert rows[0] == rows[1] and len(rows[0]) == 2
        # a checkpoint bound to another code is rejected whatever the decoder kind
        out = tmp_path / "other.csv"
        assert main([*base, "--code", "hamming74", "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_ebn0_list_parses_in_either_form(self, tmp_path, capsys):
        # argparse once took a value such as -2,0 for a flag: exit 2, "expected one argument"
        base = ["bench", "--code", "rep31", "--decoder", "ml", "--seed", "4",
                "--min-words", "200", "--min-error-frames", "5", "--max-words", "400"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(base + ["--ebn0", "-2,0", "--out", str(spaced)]) == 0
        assert main(base + ["--ebn0=-2,0", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        text = spaced.read_text()
        assert "# ebn0 = -2,0\n" in text
        assert "\nml,-2.0," in text and "\nml,0.0," in text

    @pytest.mark.parametrize("ebn0", ["-inf", "inf", "nan", "4,-inf"])
    def test_non_finite_ebn0_is_reported(self, tmp_path, capsys, ebn0):
        out = tmp_path / "ber.csv"
        assert main(["bench", "--code", "rep31", f"--ebn0={ebn0}", "--min-words", "100",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: ebn0_db must be a finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_ebn0_sweep_is_reported(self, tmp_path, capsys):
        # once exited 0 with a CSV holding only its header
        out = tmp_path / "ber.csv"
        assert main(["bench", "--code", "rep31", "--ebn0", "", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_after_a_flag_is_still_a_missing_value(self, capsys):
        assert main(["bench", "--code", "rep31", "--ebn0", "--seed", "3"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_model_decoder_and_bp_through_the_cli(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--code", "rep31", "--epochs", "2",
                     "--batches-per-epoch", "20", "--beta", "0.3",
                     "--embed-dim", "8", "--layers", "1", "--seed", "2",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0
        out = tmp_path / "dd.csv"
        assert main(["bench", "--code", "rep31", "--decoder", "ddecc-ls",
                     "--checkpoint", str(ckpt), "--ebn0", "4", "--seed", "1",
                     "--min-words", "1000", "--min-error-frames", "5",
                     "--max-words", "2000", "--out", str(out)]) == 0
        assert "\nddecc-ls," in out.read_text()
        out_bp = tmp_path / "bp.csv"
        assert main(["bench", "--code", "hamming74", "--decoder", "bp",
                     "--ebn0", "2", "--seed", "1", "--min-words", "1000",
                     "--min-error-frames", "5", "--max-words", "2000",
                     "--bp-iters", "5", "--out", str(out_bp)]) == 0
        assert "\nbp," in out_bp.read_text()

    def test_cli_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = bench\ncode = rep31\ndecoder = ml\nebn0 = 5\n"
                       "seed = 3\nmin_words = 1000\nmin_error_frames = 5\n"
                       "max_words = 2000\n")
        out = tmp_path / "c.csv"
        assert main(["bench", "--config", str(cfg), "--seed", "4",
                     "--out", str(out)]) == 0
        assert "# seed = 4" in out.read_text()


class TestTrainCli:
    def test_zero_epochs_writes_loadable_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        report = tmp_path / "r.csv"
        code = main(["train", "--code", "rep31", "--epochs", "0",
                     "--embed-dim", "8", "--layers", "1",
                     "--out", str(ckpt), "--report", str(report)])
        assert code == 0
        loaded = load_checkpoint(ckpt)
        assert loaded.model.n == 3 and loaded.model.k == 1
        assert loaded.metadata["epochs"] == "0"
        assert "epoch,mean_loss" in report.read_text()

    def test_negative_learning_rate_is_reported_before_training(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--code", "rep31", "--epochs", "1", "--lr0=-1e-3",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_negative_learning_rate_reads_the_same_in_either_form(self, tmp_path, capsys):
        errors = []
        for lr0 in (["--lr0", "-1e-3"], ["--lr0=-1e-3"]):
            ckpt = tmp_path / "m.ckpt"
            assert main(["train", "--code", "rep31", "--epochs", "1", *lr0,
                         "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 1
            assert not ckpt.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == "error: lr0 must be a positive finite number, got -0.001\n"

    def test_lr_min_above_lr0_reported(self, tmp_path, capsys):
        # the default lr_min (5e-6) is above this lr0, so --lr-min has to come down with it
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--code", "rep31", "--epochs", "1", "--lr0", "1e-6",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == ("error: lr_min must not exceed lr0, "
                                           "got lr_min 5e-06 > lr0 1e-06\n")
        assert not ckpt.exists()
        assert main(["train", "--code", "rep31", "--epochs", "1", "--batches-per-epoch", "1",
                     "--batch-size", "4", "--embed-dim", "4", "--layers", "1",
                     "--lr0", "1e-6", "--lr-min", "1e-7",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0

    def test_negative_seed_trains(self, tmp_path, capsys):
        # the initial weights once came from Philox(key=seed), which rejects a negative key
        assert main(["train", "--code", "rep31", "--epochs", "1", "--batches-per-epoch", "2",
                     "--batch-size", "8", "--embed-dim", "4", "--layers", "1", "--seed", "-3",
                     "--out", str(tmp_path / "m.ckpt"),
                     "--report", str(tmp_path / "r.csv")]) == 0

    def test_checkpoint_metadata_records_every_train_config_field(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--code", "rep31", "--epochs", "0", "--lr0", "0.003",
                     "--backbone", "masked_attention", "--embed-dim", "8", "--layers", "1",
                     "--hidden-mult", "2", "--beta", "0.3",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0
        config = TrainConfig(code="rep31", epochs=0, lr0=0.003, backbone="masked_attention",
                             embed_dim=8, layers=1, hidden_mult=2, beta=0.3)
        assert load_checkpoint(ckpt).metadata == {k: str(v) for k, v in asdict(config).items()}

    @pytest.mark.parametrize("field", [f.name for f in fields(ArchConfig)])
    def test_architecture_block_lacking_a_field_rejected(self, tmp_path, capsys, field):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--code", "rep31", "--epochs", "0", "--embed-dim", "8",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0
        body = ckpt.read_bytes()[:-4]
        (block_len,) = struct.unpack("<I", body[12:16])
        block = body[16:16 + block_len].decode()
        lines = [line for line in block.splitlines(keepends=True)
                 if not line.startswith(f"{field} = ")]
        assert len(lines) == len(block.splitlines()) - 1  # meta.<field> lines are kept
        new_block = "".join(lines).encode()
        body = body[:12] + struct.pack("<I", len(new_block)) + new_block + body[16 + block_len:]
        ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(ckpt)

    def test_checkpoint_stores_the_schedule_train_used(self, tmp_path, capsys, monkeypatch):
        reports = []

        def spy(config, code=None):
            model, report = diffdec.training.train(config, code=code)
            reports.append(report)
            return model, report

        # train builds a schedule the CLI could not rebuild from --beta alone
        monkeypatch.setattr(diffdec.training, "NoiseSchedule", SimpleNamespace(
            constant=lambda beta, T: NoiseSchedule.linear(beta / 2, beta, T)))
        monkeypatch.setattr(diffdec.cli, "train", spy)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--code", "hamming74", "--epochs", "1",
                     "--batches-per-epoch", "2", "--batch-size", "8",
                     "--embed-dim", "4", "--layers", "1", "--beta", "0.3",
                     "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0
        (report,) = reports
        assert np.allclose(report.schedule.betas, [0.15, 0.225, 0.3], rtol=0, atol=1e-15)
        assert np.array_equal(load_checkpoint(ckpt).schedule.betas, report.schedule.betas)


class TestDecodeCli:
    @pytest.fixture
    def rep31_ckpt(self, tmp_path):
        path = tmp_path / "rep31.ckpt"
        assert main(["train", "--code", "rep31", "--epochs", "4",
                     "--batches-per-epoch", "50", "--beta", "0.3",
                     "--lr0", "1e-3", "--embed-dim", "16", "--layers", "2",
                     "--seed", "5", "--out", str(path),
                     "--report", str(tmp_path / "rep31_loss.csv")]) == 0
        return path

    def test_decode_words_from_file(self, tmp_path, capsys, rep31_ckpt):
        words = tmp_path / "words.txt"
        words.write_text("1.0 1.0 1.0\n-0.9 0.2 -1.1\n")
        out = tmp_path / "dec.csv"
        code = main(["decode", "--code", "rep31", "--checkpoint", str(rep31_ckpt),
                     "--in", str(words), "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        results = [l for l in lines if ",result," in l]
        assert len(results) == 2
        assert results[0].split(",")[6] == "000"  # clean word decodes instantly

    def test_word_length_mismatch_reported(self, tmp_path, capsys, rep31_ckpt):
        words = tmp_path / "short.txt"
        words.write_text("1.0 1.0\n")
        assert main(["decode", "--code", "rep31", "--checkpoint", str(rep31_ckpt),
                     "--in", str(words)]) == 1

    def test_checkpoint_code_mismatch_reported(self, tmp_path, capsys, rep31_ckpt):
        words = tmp_path / "w.txt"
        words.write_text("1 1 1 1 1 1 1\n")
        assert main(["decode", "--code", "hamming74", "--checkpoint",
                     str(rep31_ckpt), "--in", str(words)]) == 1

    @pytest.mark.parametrize("line", ["inf -inf 1", "nan 1 1"])
    def test_non_finite_word_reported_with_line_number(self, tmp_path, capsys, rep31_ckpt, line):
        words = tmp_path / "w.txt"
        words.write_text(f"1 1 1\n{line}\n")
        assert main(["decode", "--code", "rep31", "--checkpoint", str(rep31_ckpt),
                     "--in", str(words)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_numeric_token_reported_with_line_number(self, tmp_path, capsys):
        ckpt, words = untrained_checkpoint(tmp_path / "m.ckpt"), tmp_path / "w.txt"
        words.write_text("1 1 1\n1 abc 1\n")
        assert main(["decode", "--code", "rep31", "--checkpoint", str(ckpt),
                     "--in", str(words)]) == 1
        assert capsys.readouterr().err == \
            "error: line 2: could not convert string to float: 'abc'\n"

    def test_v1_checkpoint_is_rejected_naming_its_version(self, tmp_path, capsys):
        rep31 = builtin_code("rep31")
        ckpt = tmp_path / "v1.ckpt"
        save_checkpoint(DenoiserModel.create(rep31, ArchConfig("mlp", 8, 1), seed=0),
                        NoiseSchedule.constant(0.3, 2), ckpt, {"code": "rep31"})
        body = bytearray(ckpt.read_bytes()[:-4])
        body[8:12] = struct.pack("<I", 1)  # the version word follows the 8-byte magic
        ckpt.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        words = tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n")
        assert main(["decode", "--code", "rep31", "--checkpoint", str(ckpt),
                     "--in", str(words)]) == 1
        err = capsys.readouterr().err
        assert "version 1" in err and "train --config" in err


    def test_max_iters_zero_is_the_default_n_minus_k_cap(self, tmp_path, capsys):
        ckpt, words = untrained_checkpoint(tmp_path / "m.ckpt"), tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n-0.9 0.2 -1.1\n0.2 -0.4 -0.1\n")
        texts = []
        for given in ([], ["--max-iters", "0"], ["--max-iters", "2"]):
            out = tmp_path / "dec.csv"
            assert main(["decode", "--code", "rep31", "--checkpoint", str(ckpt),
                         "--in", str(words), *given, "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert ",step,2," in texts[0]  # a word took n-k = 2 steps
        rows = [[l for l in text.splitlines() if not l.startswith("#")] for text in texts]
        assert rows[0] == rows[2]


class TestOracleCli:
    def test_ml_decisions(self, tmp_path, capsys):
        words = tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n-0.9 -0.1 -0.2\n")
        rc, out = run(capsys, "oracle", "--code", "rep31", "--in", str(words))
        assert rc == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows == ["0,000", "1,111"]

    def test_non_finite_word_reported_with_line_number(self, tmp_path, capsys):
        words = tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n# comment\nnan 0.1 0.2\n")
        assert main(["oracle", "--code", "rep31", "--in", str(words)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_non_numeric_token_reported_with_line_number(self, tmp_path, capsys):
        words = tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n# comment\n0.1 0.2 abc\n")
        assert main(["oracle", "--code", "rep31", "--in", str(words)]) == 1
        assert capsys.readouterr().err == \
            "error: line 3: could not convert string to float: 'abc'\n"


class TestStudyCli:
    def test_parity_noise(self, tmp_path, capsys):
        out = tmp_path / "pn.csv"
        assert main(["study", "--kind", "parity-noise", "--code", "hamming74",
                     "--sigmas", "0,0.5,1.0", "--samples", "500",
                     "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "sigma,mean_parity_errors,std_parity_errors"
        assert len(body) == 4

    def test_parity_noise_default_flags_echo_and_replay(self, tmp_path, capsys):
        # the sample count, seed and code defaults are the study flags' and
        # TrainConfig's; the study functions have none of their own
        first, replay = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["study", "--kind", "parity-noise", "--out", str(first)]) == 0
        echo = first.read_text().splitlines()
        assert {"# samples = 2000", "# seed = 0", "# code = hamming74"} <= set(echo)
        assert main(["study", "--config", str(first), "--out", str(replay)]) == 0
        assert replay.read_bytes() == first.read_bytes()

    def test_parity_noise_rejects_an_empty_sigma_list(self, tmp_path, capsys):
        # once exited 0 with a CSV holding only its header
        out = tmp_path / "pn.csv"
        assert main(["study", "--kind", "parity-noise", "--sigmas", "",
                     "--samples", "50", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["nan,-0.5,inf", "0,nan", "-0.5", "0.5,inf"])
    def test_parity_noise_rejects_bad_sigmas(self, tmp_path, capsys, sigmas):
        out = tmp_path / "pn.csv"
        assert main(["study", "--kind", "parity-noise", "--sigmas", sigmas,
                     "--samples", "50", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_forward_trace(self, tmp_path, capsys):
        out = tmp_path / "ft.csv"
        assert main(["study", "--kind", "forward-trace", "--beta", "0.05",
                     "--steps", "6", "--trajectories", "3",
                     "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 3 * 7

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_lambda_hist_rejects_fewer_than_one_sample(self, tmp_path, capsys, samples):
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "lh.csv"
        assert main(["train", "--code", "rep31", "--epochs", "0", "--embed-dim", "8",
                     "--layers", "1", "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        assert main(["study", "--kind", "lambda-hist", "--code", "rep31", "--checkpoint",
                     str(ckpt), "--samples", samples, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ebn0", ["-inf", "inf", "nan"])
    def test_lambda_hist_rejects_non_finite_ebn0(self, tmp_path, capsys, ebn0):
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "lh.csv"
        assert main(["train", "--code", "rep31", "--epochs", "0", "--embed-dim", "8",
                     "--layers", "1", "--out", str(ckpt), "--report", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        assert main(["study", "--kind", "lambda-hist", "--code", "rep31", "--checkpoint",
                     str(ckpt), f"--ebn0-point={ebn0}", "--samples", "10",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: ebn0_db must be a finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("trajectories", ["0", "-2"])
    def test_forward_trace_rejects_fewer_than_one_trajectory(self, tmp_path, capsys,
                                                            trajectories):
        out = tmp_path / "ft.csv"
        assert main(["study", "--kind", "forward-trace", "--trajectories", trajectories,
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_hist_requires_checkpoint(self, capsys):
        assert main(["study", "--kind", "lambda-hist", "--code", "rep31"]) == 1


class TestArtifactEcho:
    def test_every_artifact_echoes_every_flag_of_its_subcommand(self, tmp_path, capsys):
        ckpt, words = tmp_path / "m.ckpt", tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n")
        small = ["--code", "rep31"]
        runs = [
            ("train", ["--epochs", "0", "--embed-dim", "8", "--layers", "1",
                       "--out", str(ckpt), "--report"]),
            ("decode", ["--checkpoint", str(ckpt), "--in", str(words), "--out"]),
            ("bench", ["--decoder", "ml", "--ebn0", "4", "--min-words", "64",
                       "--max-words", "64", "--batch-size", "64", "--out"]),
            ("oracle", ["--in", str(words), "--out"]),
            ("study", ["--kind", "parity-noise", "--samples", "50", "--out"]),
            ("study", ["--kind", "lambda-hist", "--checkpoint", str(ckpt),
                       "--samples", "50", "--out"]),
            ("study", ["--kind", "forward-trace", "--steps", "2", "--trajectories", "2",
                       "--out"]),
        ]
        _, subparsers = build_parser()
        for i, (command, args) in enumerate(runs):
            artifact = tmp_path / f"{i}.csv"
            assert main([command, *small, *args, str(artifact)]) == 0
            header = [l[2:].split(" = ", 1) for l in artifact.read_text().splitlines()
                      if l.startswith("# ")]
            echoed = dict(header)
            flags = {a.dest for a in subparsers[command]._actions if a.option_strings} \
                - {"help", "out", "report", "infile"}
            assert flags <= set(echoed), (command, flags - set(echoed))
            assert echoed["command"] == command
            assert "out" not in echoed and "report" not in echoed


# Column header and data rows of the decode, oracle and study artifacts on
# Hamming(7,4), with an untrained checkpoint and fixed seeds: step rows leave
# the result cells empty, result rows the step cells, and `converged` reads
# True or False.  Recorded before one writer formatted every artifact's rows.
PINNED_WORDS = "0.9 1.1 -0.2 0.8 1.0 0.7 1.2\n-0.3 0.4 0.9 -1.1 0.2 -0.8 0.5\n1 1 1 1 1 1 1\n"
PINNED_ARTIFACTS = {
    "decode-regular": (
        ["decode", "--mode", "regular", "--checkpoint", "{ckpt}", "--in", "{words}"],
        ["word,row,iteration,parity_errors,step_size,weight_after,bits,converged,iters_used",
         "0,step,1,2,1.0,2,,,", "0,step,2,2,1.0,2,,,", "0,step,3,2,1.0,1,,,",
         "0,result,,,,,1010001,False,3",
         "1,step,1,2,1.0,2,,,", "1,step,2,2,1.0,0,,,", "1,result,,,,,1001001,True,2",
         "2,result,,,,,0000000,True,0"]),
    "decode-ls": (
        ["decode", "--checkpoint", "{ckpt}", "--in", "{words}"],
        ["word,row,iteration,parity_errors,step_size,weight_after,bits,converged,iters_used",
         "0,step,1,2,2.0,0,,,", "0,result,,,,,1011010,True,1",
         "1,step,1,2,3.0,1,,,", "1,step,2,1,1.0,1,,,", "1,step,3,1,1.0,1,,,",
         "1,result,,,,,1100010,False,3",
         "2,result,,,,,0000000,True,0"]),
    "oracle": (
        ["oracle", "--in", "{words}"],
        ["word,bits", "0,0000000", "1,0101010", "2,0000000"]),
    "lambda-hist": (
        ["study", "--kind", "lambda-hist", "--checkpoint", "{ckpt}", "--samples", "40",
         "--seed", "2", "--ls-count", "4"],
        ["step_size,count", "1.0,7", "7.333333333333333,3", "13.666666666666666,1", "20.0,0"]),
    "parity-noise": (
        ["study", "--kind", "parity-noise", "--sigmas", "0,0.5,1.25", "--samples", "30",
         "--seed", "4"],
        ["sigma,mean_parity_errors,std_parity_errors", "0.0,0.0,0.0",
         "0.5,0.16666666666666666,0.521749194749951", "1.25,1.2,0.9797958971132713"]),
    "forward-trace": (
        ["study", "--kind", "forward-trace", "--steps", "2", "--trajectories", "2",
         "--beta", "0.05", "--seed", "6"],
        ["trajectory,t,x0,x1,x2",
         "0,0,1.0,1.0,1.0",
         "0,1,1.2651317124356058,1.1344239026765013,1.1808237340239889",
         "0,2,0.9957680000870506,0.7501228578864538,1.180862045827117",
         "1,0,-1.0,-1.0,-1.0",
         "1,1,-1.246226038827285,-0.7602159543707089,-0.927430594062721",
         "1,2,-1.6015612120335927,-0.8932274623070924,-0.41230507332472155"]),
}


class TestPinnedArtifactRows:
    @pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
    def test_rows(self, tmp_path, capsys, name):
        ckpt, words, out = tmp_path / "m.ckpt", tmp_path / "w.txt", tmp_path / "a.csv"
        model = DenoiserModel.create(builtin_code("hamming74"), ArchConfig("mlp", 8, 1), seed=3)
        save_checkpoint(model, NoiseSchedule.constant(0.3, 3), ckpt, {"code": "hamming74"})
        words.write_text(PINNED_WORDS)
        template, rows = PINNED_ARTIFACTS[name]
        args = [a.format(ckpt=ckpt, words=words) for a in template]
        assert main([args[0], "--code", "hamming74", *args[1:], "--out", str(out)]) == 0
        assert [l for l in out.read_text().splitlines() if not l.startswith("#")] == rows


@pytest.mark.parametrize("command, skip", [("decode", {"mode"}), ("bench", {"mode"}),
                                           ("study", {"mode", "max_iters"})],
                         ids=["decode", "bench", "study"])
def test_every_decode_config_field_is_a_flag_typed_and_defaulted_by_it(command, skip):
    actions = {a.dest: a for a in build_parser()[1][command]._actions}
    types = get_type_hints(DecodeConfig)
    for f in fields(DecodeConfig):
        if f.name in skip:
            continue
        action = actions[f.name]
        assert action.option_strings == ["--" + f.name.replace("_", "-")]
        assert (action.type, action.default) == (types[f.name], f.default), f.name
    assert ("max_iters" in actions) == ("max_iters" not in skip)


class TestConfigParsing:
    def test_reads_hash_prefixed_and_plain_lines(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("# code = rep31\nseed=9\nebn0 = 4,5\n# alist =\nnot a config line\n"
                       "a,b,c\n")
        values = read_config_file(str(cfg))
        assert values == {"code": "rep31", "seed": "9", "ebn0": "4,5", "alist": ""}


# One run per artifact kind on rep31; "{ckpt}" is an untrained checkpoint.
REPLAYED_RUNS = {
    "train": ["train", "--epochs", "2", "--batches-per-epoch", "5", "--batch-size", "16",
              "--embed-dim", "8", "--layers", "1", "--seed", "5", "--beta", "0.3"],
    "decode-ls": ["decode", "--checkpoint", "{ckpt}"],
    "decode-regular": ["decode", "--mode", "regular", "--checkpoint", "{ckpt}", "--ls-count", "4"],
    "oracle": ["oracle"],
    "bench": ["bench", "--decoder", "ml", "--ebn0=-2,5", "--seed", "3", "--min-words", "2000",
              "--min-error-frames", "5", "--max-words", "4000"],
    "parity-noise": ["study", "--kind", "parity-noise", "--sigmas", "0,0.5", "--samples", "40",
                     "--seed", "4"],
    "lambda-hist": ["study", "--kind", "lambda-hist", "--checkpoint", "{ckpt}", "--samples", "40",
                    "--seed", "2"],
    "forward-trace": ["study", "--kind", "forward-trace", "--beta", "0.05", "--steps", "4",
                      "--trajectories", "3", "--seed", "8"],
}


class TestConfigReplay:
    @pytest.mark.parametrize("name", sorted(REPLAYED_RUNS))
    def test_artifact_replays_byte_identically(self, tmp_path, capsys, name):
        ckpt, words = untrained_checkpoint(tmp_path / "m.ckpt"), tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n-0.9 0.2 -1.1\n")
        command, *args = [a.format(ckpt=ckpt) for a in REPLAYED_RUNS[name]]
        # the input path is not echoed, so a replay is given it again
        given = ["--in", str(words)] if command in ("decode", "oracle") else []

        def outputs(tag: str, argv: list[str]) -> list[bytes]:
            paths = {"--out": tmp_path / f"{tag}.csv"}
            if command == "train":
                paths = {"--out": tmp_path / f"{tag}.ckpt", "--report": tmp_path / f"{tag}.csv"}
            assert main([*argv, *given, *(t for flag, path in paths.items()
                                          for t in (flag, str(path)))]) == 0
            return [path.read_bytes() for path in paths.values()]

        first = outputs("a", [command, "--code", "rep31", *args])
        config = str(tmp_path / "a.csv")
        assert outputs("b", [command, "--config", config]) == first
        assert outputs("c", [command, f"--config={config}"]) == first

    @pytest.mark.parametrize("config, message", [
        ("mode = line_search", "argument --mode: invalid choice: 'line_search'"),
        ("kind = bogus", "argument --kind: invalid choice: 'bogus'"),
        ("workers = x", "argument --workers: invalid int value: 'x'"),
    ])
    def test_bad_file_value_is_a_usage_error(self, tmp_path, capsys, config, message):
        # file values were once installed as unchecked defaults: mode = line_search
        # decoded in regular mode and kind = bogus ran the forward-trace study
        ckpt, words = untrained_checkpoint(tmp_path / "m.ckpt"), tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n")
        command = {"mode": "decode", "kind": "study", "workers": "bench"}[config.split()[0]]
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(f"command = {command}\ncode = rep31\ncheckpoint = {ckpt}\n"
                       f"min_words = 64\nmax_words = 64\n{config}\n")
        given = ["--in", str(words)] if command == "decode" else []
        assert main([command, "--config", str(cfg), *given, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_reported(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "none.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_file_supplies_a_required_flag(self, tmp_path, capsys):
        ckpt, words = untrained_checkpoint(tmp_path / "m.ckpt"), tmp_path / "w.txt"
        words.write_text("0.9 -0.2 0.3\n")
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(f"checkpoint = {ckpt}\n")
        assert main(["decode", "--code", "rep31", "--config", str(cfg), "--in", str(words),
                     "--out", str(out)]) == 0
        assert f"# checkpoint = {ckpt}\n" in out.read_text()

    def test_negative_file_values_and_unknown_keys(self, tmp_path, capsys):
        base = ["bench", "--code", "rep31", "--min-words", "200", "--min-error-frames", "5",
                "--max-words", "400"]
        flagged, replayed = tmp_path / "flagged.csv", tmp_path / "replayed.csv"
        assert main([*base, "--ebn0=-2,0", "--seed=-3", "--out", str(flagged)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# diffdec.report = bench\nebn0 = -2,0\nseed=-3\nno_such_flag = 1\n")
        assert main([*base, "--config", str(cfg), "--out", str(replayed)]) == 0
        assert flagged.read_bytes() == replayed.read_bytes()
        assert "\nml,-2.0," in flagged.read_text()

    @pytest.mark.parametrize("form", ["spaced", "joined"])
    def test_file_names_the_command_when_only_flags_follow(self, tmp_path, capsys, form):
        # `diffdec --config ber.csv --out b.csv` once took '--out' for the command
        artifact, replayed = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*REPLAYED_RUNS["bench"], "--code", "rep31", "--out", str(artifact)]) == 0
        config = ["--config", str(artifact)] if form == "spaced" else [f"--config={artifact}"]
        assert main([*config, "--out", str(replayed)]) == 0
        assert replayed.read_bytes() == artifact.read_bytes()
