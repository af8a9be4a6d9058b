import pytest

from rotated_tcf.params import desk_preset, tiny_params
from rotated_tcf.sampling import master_stream

TEST_SEED = "7f3a9c51" * 8


@pytest.fixture
def stream(request):
    """Per-test deterministic stream (independent across tests by nodeid)."""
    return master_stream(TEST_SEED).derive(request.node.nodeid)


@pytest.fixture(scope="session")
def desk():
    return desk_preset()


@pytest.fixture(scope="session")
def tiny23():
    return tiny_params(1, 23)


@pytest.fixture(scope="session")
def tiny3001():
    return tiny_params(2, 3001)


@pytest.fixture(scope="session")
def mixed():
    """About 40 % of honest claws are single-preimage here (at desk, about
    7e-6), so both claw cases of the prover's turn run."""
    return tiny_params(2, 1048583, 2.0)
