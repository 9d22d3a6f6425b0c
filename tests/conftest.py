import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "slow_ok",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("slow_ok")


@pytest.fixture
def tiny_env():
    from roommem.env import EnvConfig

    # 6 humans over 6 locations keeps every episode cheap but non-trivial
    return EnvConfig(
        n_humans=6,
        n_objects=5,
        n_object_locations=6,
        episode_length=16,
        seed=3,
        kb_seed=7,
    )


@pytest.fixture
def small_kb():
    from roommem.kb import generate_synthetic_kb

    return generate_synthetic_kb(7, 5, 6)


@pytest.fixture
def lstm_batch_sizes(monkeypatch):
    """The batch size of every LSTM stack that a Q-network runs from here on."""
    import roommem.qnet as qnet

    sizes = []
    inner = qnet.lstm_batch_forward

    def counted(X, pack, *args, **kwargs):
        sizes.append(pack.batch)
        return inner(X, pack, *args, **kwargs)
    monkeypatch.setattr(qnet, "lstm_batch_forward", counted)
    return sizes
