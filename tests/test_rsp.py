import math

import numpy as np
import pytest

from rotated_tcf.ghz import PhaseQubit
from rotated_tcf.params import tiny_params
from rotated_tcf.rsp import (blindness_sampler, rsp_client_finish,
                             rsp_client_round1, rsp_server_round,
                             run_rsp_once, trace_distance)
from rotated_tcf.sampling import sample_uniform
from rotated_tcf.zq import matmul_mod


def test_trace_distance_examples():
    assert trace_distance(PhaseQubit(q=5, units=3), PhaseQubit(q=5, units=3)) == 0
    # opposite equator points (phase difference pi) are perfectly distinguishable
    assert abs(trace_distance(PhaseQubit(q=5, units=0),
                              PhaseQubit(q=5, units=5)) - 2) < 1e-12
    got = trace_distance(PhaseQubit(q=5, units=2), PhaseQubit(q=5, units=0))
    assert abs(got - 2 * math.sin(math.pi / 5)) < 1e-12


def test_trace_distance_validation():
    with pytest.raises(ValueError):
        trace_distance(PhaseQubit(q=5, basis=0), PhaseQubit(q=5, units=0))
    with pytest.raises(ValueError):
        trace_distance(PhaseQubit(q=5, units=0), PhaseQubit(q=7, units=0))


def test_client_round1_validation(stream, desk):
    with pytest.raises(ValueError):
        rsp_client_round1(desk, -1, stream)
    with pytest.raises(ValueError):
        rsp_client_round1(desk, desk.q, stream)
    with pytest.raises(ValueError):
        rsp_client_round1(desk, 5, stream, sign_convention="sideways")
    # tiny instances violate tau >= 2 m sigma and must be rejected
    with pytest.raises(ValueError):
        rsp_client_round1(tiny_params(2, 3001), 5, stream)


def test_client_message_is_encryption_of_alpha(stream, desk):
    alpha = 123456789
    state, ((A, v), (a, w)) = rsp_client_round1(desk, alpha, stream)
    lhs = (w - int(matmul_mod(a, state.keypair.s, desk.q))) % desk.q
    noise = int(matmul_mod(state.f, state.keypair.e, desk.q))
    assert lhs == (noise + alpha) % desk.q


def test_prepared_state_close_to_target(stream, desk):
    bound = 4 * math.pi * desk.m * desk.sigma / desk.q
    tds = []
    for i in range(60):
        alpha = int(stream.derive("alpha", i).gen.integers(0, desk.q))
        outcome, beta, _ = run_rsp_once(desk, alpha, stream.derive("run", i))
        if outcome.aborted:
            continue
        tds.append(trace_distance(beta, outcome.target))
    assert len(tds) > 40
    assert sum(tds) / len(tds) <= bound
    assert max(tds) <= 2 * math.pi * 2 * desk.m * desk.sigma / desk.q


def test_zero_noise_preparation_is_exact(stream, desk):
    for i in range(30):
        outcome, beta, _ = run_rsp_once(desk, 777, stream.derive("r", i),
                                        force_zero_noise=True)
        if outcome.aborted:
            continue
        assert trace_distance(beta, outcome.target) == 0


def test_target_encodes_alpha_and_flip_bit(stream, desk):
    outcome, beta, state = run_rsp_once(desk, 1000, stream)
    if not outcome.aborted:
        expect = (2 * 1000 + desk.q * outcome.b) % (2 * desk.q)
        assert outcome.target.units == expect


def test_subtractive_convention_misses_target(stream, desk):
    """The alternative sign convention is retained for comparison; it does
    not steer the qubit toward the target state."""
    tds = []
    for i in range(40):
        outcome, beta, _ = run_rsp_once(desk, 424242, stream.derive("r", i),
                                        sign_convention="subtractive")
        if not outcome.aborted:
            tds.append(trace_distance(beta, outcome.target))
    assert sum(tds) / len(tds) > 0.5


def test_finish_aborts_on_garbage_image(stream, desk):
    state, _ = rsp_client_round1(desk, 5, stream.derive("c"))
    y = sample_uniform(desk.m, desk.q, stream.derive("y"))
    assert rsp_client_finish(state, y, np.zeros(desk.nQ, dtype=np.int64)).aborted


def test_server_round_checks_witness(stream, desk):
    state, msg = rsp_client_round1(desk, 5, stream.derive("c"))
    bad = ((state.keypair.s + 1) % desk.q, state.keypair.e)
    with pytest.raises(ValueError):
        rsp_server_round(desk, msg, bad, stream.derive("s"))


def test_blindness_sampler_shapes(stream, desk):
    for which in ("D_x", "D_x_tilde", "D"):
        A, v, a, w = blindness_sampler(which, 17, desk, stream.derive(which))
        assert A.shape == (desk.m, desk.n)
        assert v.shape == (desk.m,)
        assert a.shape == (desk.n,)
        assert 0 <= w < desk.q
    with pytest.raises(ValueError):
        blindness_sampler("D_y", 17, desk, stream)


def test_blindness_sampler_deterministic(stream, desk):
    a = blindness_sampler("D_x", 3, desk, stream.derive("z"))
    b = blindness_sampler("D_x", 3, desk, stream.derive("z"))
    for lhs, rhs in zip(a, b):
        assert np.array_equal(lhs, rhs)
