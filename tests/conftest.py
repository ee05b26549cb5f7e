import pytest

from diffdec.gf2 import builtin_code, systematic_generator
from diffdec.training import TrainConfig, train

# Frozen toy training configurations used by the acceptance gate.  The
# constant-schedule form is kept but beta is raised so that the forward
# noise sqrt(beta_bar_t) covers the benchmarked EbN0 range; with only
# n-k in {2,3} steps the 0.01 default never flips a sign.
REP31_TRAIN = TrainConfig(code="rep31", epochs=20, batches_per_epoch=100,
                          batch_size=128, lr0=1e-3, lr_min=1e-5, seed=5,
                          beta=0.30, backbone="mlp", embed_dim=16, layers=2)
HAM74_TRAIN = TrainConfig(code="hamming74", epochs=80, batches_per_epoch=100,
                          batch_size=128, lr0=1e-3, lr_min=1e-5, seed=5,
                          beta=0.25, backbone="mlp", embed_dim=48, layers=2)


@pytest.fixture(scope="session")
def rep31():
    return builtin_code("rep31")


@pytest.fixture(scope="session")
def ham74():
    return builtin_code("hamming74")


@pytest.fixture(scope="session")
def ham74_gen(ham74):
    return systematic_generator(ham74)


@pytest.fixture(scope="session")
def rep31_gen(rep31):
    return systematic_generator(rep31)


@pytest.fixture(scope="session")
def trained_rep31(rep31):
    """(model, schedule, report) for the frozen rep31 acceptance config."""
    model, report = train(REP31_TRAIN, code=rep31)
    return model, report.schedule, report


@pytest.fixture(scope="session")
def trained_ham74(ham74):
    """(model, schedule, report) for the frozen Hamming(7,4) acceptance config."""
    model, report = train(HAM74_TRAIN, code=ham74)
    return model, report.schedule, report
