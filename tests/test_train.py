import numpy as np
import pytest

import diffdec.training as train_mod
from diffdec.channel import make_rng
from diffdec.diffusion import NoiseSchedule
from diffdec.nn import ArchConfig, DenoiserModel
from diffdec.training import TrainConfig, train, training_step


@pytest.fixture
def small_model(ham74):
    return DenoiserModel.create(ham74, ArchConfig("mlp", embed_dim=8, layers=1), seed=0)


class TestTrainingStep:
    def test_zero_noise_hook_gives_zero_targets_and_zero_count(self, ham74, small_model):
        sched = NoiseSchedule.constant(0.25, 3)
        # eps = 0: x_t = x0 exactly, every syndrome empty, loss ~ ln 2 at init
        loss = training_step(small_model, sched, 4, make_rng(0),
                             t=np.array([1, 2, 3, 1]), eps=np.zeros((4, 7)))
        assert loss == pytest.approx(np.log(2), rel=0.2)

    def test_targets_mark_exact_sign_disagreements(self, ham74, small_model):
        sched = NoiseSchedule.constant(0.25, 3)
        t = np.array([2])
        eps = np.zeros((1, 7))
        eps[0, 3] = -2.0 / np.sqrt(sched.beta_bar(2))  # drives x_t[3] to -1
        x_t = 1.0 + np.sqrt(sched.beta_bar(2)) * eps
        expected = (x_t < 0).astype(float)
        assert expected[0, 3] == 1.0 and expected.sum() == 1.0
        # spy on the loss target through a tiny closed form: with one flipped
        # coordinate the parity count equals that column's weight
        from diffdec.gf2 import syndrome_weights
        assert syndrome_weights(ham74, x_t).tolist() == [int(ham74.matrix[:, 3].sum())]
        loss = training_step(small_model, sched, 1, make_rng(0), t=t, eps=eps)
        assert np.isfinite(loss)

    def test_fixed_seed_is_bit_exact(self, ham74, small_model):
        sched = NoiseSchedule.constant(0.25, 3)
        a = training_step(small_model, sched, 64, make_rng(33))
        small_model.zero_grad()
        b = training_step(small_model, sched, 64, make_rng(33))
        assert a == b

    def test_loss_at_initialization_near_ln2(self, ham74):
        model = DenoiserModel.create(ham74, ArchConfig("mlp", 32, 2), seed=9)
        sched = NoiseSchedule.constant(0.25, 3)
        loss = training_step(model, sched, 256, make_rng(1))
        assert abs(loss - np.log(2)) < 0.2 * np.log(2)


class TestTrainConfig:
    @pytest.mark.parametrize("arch", [{"backbone": "bogus"}, {"embed_dim": 0},
                                      {"layers": -1}, {"hidden_mult": 0},
                                      {"embed_dim": 2.5}, {"layers": 1.5},
                                      {"hidden_mult": 2.5}, {"layers": np.float64(2.0)},
                                      {"layers": True}, {"embed_dim": True}])
    def test_bad_architecture_rejected_at_construction(self, arch):
        with pytest.raises(ValueError, match=next(iter(arch))):
            TrainConfig(code="rep31", **arch)

    @pytest.mark.parametrize("field,value", [
        ("lr0", -1e-3), ("lr0", 0.0), ("lr0", np.nan), ("lr0", np.inf),
        ("lr_min", -1e-6), ("lr_min", np.nan), ("lr_min", np.inf),
        ("beta", 0.0), ("beta", -0.1), ("beta", np.nan), ("beta", np.inf),
    ])
    def test_bad_learning_rate_or_beta_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_lr_min_accepted(self):
        assert TrainConfig(lr_min=0.0).lr_min == 0.0

    def test_lr_min_above_lr0_rejected_at_construction(self):
        # cosine_lr would carry the rate up from lr0 to lr_min over the run
        with pytest.raises(ValueError, match=r"lr_min 0\.01 > lr0 0\.0001"):
            TrainConfig(lr0=1e-4, lr_min=1e-2)

    def test_lr_min_equal_to_lr0_accepted(self):
        config = TrainConfig(lr0=1e-4, lr_min=1e-4)
        assert config.lr_min == config.lr0

    @pytest.mark.parametrize("field,value", [
        ("epochs", 1.5), ("epochs", -1), ("epochs", "3"),
        ("batches_per_epoch", 2.5), ("batches_per_epoch", 0), ("batches_per_epoch", -2),
        ("batch_size", 2.5), ("batch_size", 0), ("batch_size", np.float64(8.0)),
        ("epochs", False), ("batch_size", True),
    ])
    def test_non_integer_or_out_of_range_count_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(code="rep31", **{field: value})

    @pytest.mark.parametrize("seed", [2.5, np.float64(2.0), "2", None, False])
    def test_non_integer_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            TrainConfig(code="rep31", seed=seed)

    def test_negative_seed_accepted(self):
        assert TrainConfig(code="rep31", seed=-1).seed == -1

    def test_zero_epochs_and_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(code="rep31", epochs=0, batches_per_epoch=np.int64(3),
                          batch_size=np.int32(8))
        assert (cfg.epochs, cfg.batches_per_epoch, cfg.batch_size) == (0, 3, 8)


class TestTrain:
    def test_zero_epochs_returns_initialized_model_and_empty_history(self, rep31):
        cfg = TrainConfig(code="rep31", epochs=0, backbone="mlp", embed_dim=8, layers=1)
        model, report = train(cfg, code=rep31)
        assert report.epoch_losses == [] and report.final_loss is None
        fresh = DenoiserModel.create(rep31, cfg.arch, seed=cfg.seed)
        for name in fresh.params:
            assert np.array_equal(model.params[name].data, fresh.params[name].data)

    def test_divergence_guard_raises(self, rep31, monkeypatch):
        monkeypatch.setattr(train_mod, "training_step",
                            lambda *args, **kw: float("nan"))
        cfg = TrainConfig(code="rep31", epochs=1, batches_per_epoch=1,
                          embed_dim=8, layers=1)
        with pytest.raises(RuntimeError, match="diverged"):
            train(cfg, code=rep31)

    def test_toy_repetition_run_reaches_low_loss(self, trained_rep31):
        _, _, report = trained_rep31
        assert report.final_loss < 0.1 * np.log(2)

    def test_learning_happened_front_vs_back(self, trained_rep31):
        _, _, report = trained_rep31
        losses = report.epoch_losses
        tenth = max(1, len(losses) // 10)
        assert np.mean(losses[-tenth:]) < np.mean(losses[:tenth])
