import math

import numpy as np
import pytest

from rotated_tcf.ghz import (PhaseQubit, angle_sequence, equator_state,
                             oracle_equivalence_check,
                             simulate_basis_measurement,
                             simulate_ghz_measurement, statevector_oracle)
from rotated_tcf.params import tiny_params
from rotated_tcf.stats import wilson_ci


def test_phase_qubit_wraps_and_validates():
    qb = PhaseQubit(q=5, units=13)
    assert qb.units == 3
    with pytest.raises(ValueError):
        PhaseQubit(q=5, basis=2)


def test_rotate_z_adds_two_units_per_step():
    qb = PhaseQubit(q=5, units=1)
    qb.rotate_z(3)
    assert qb.units == 7
    qb.rotate_z(5)  # full turn in Z_q is half a turn in phase units
    assert qb.units == (7 + 10) % 10


def test_rotate_z_noop_on_basis_state():
    qb = PhaseQubit(q=5, basis=1)
    qb.rotate_z(3)
    assert qb.basis == 1
    with pytest.raises(ValueError):
        qb.angle()


def test_angle_sequence_example():
    p = tiny_params(1, 5)
    assert p.Q == 3
    out = angle_sequence(np.array([2], dtype=np.int64), p)
    assert out.tolist() == [4, 8, 6]  # 2a, 4a, 8a units mod 2q


def test_angle_sequence_doubles_within_block():
    p = tiny_params(2, 13)
    a = np.array([3, 11], dtype=np.int64)
    out = angle_sequence(a, p)
    Q, q = p.Q, p.q
    for i in range(2):
        blk = out[i * Q:(i + 1) * Q]
        assert blk[0] == (2 * a[i]) % (2 * q)
        for j in range(1, Q):
            assert blk[j] == (2 * blk[j - 1]) % (2 * q)
    with pytest.raises(ValueError):
        angle_sequence(np.array([1], dtype=np.int64), p)


def test_measure_xy_on_matching_angle(stream):
    # measuring an equator state exactly along its own angle gives 0
    qb = PhaseQubit(q=7, units=6)
    assert all(qb.measure_xy(qb.angle(), stream) == 0 for _ in range(50))


def test_measure_xy_quarter_rotation_statistics(stream):
    # |+> measured at gamma = pi/4: Pr[0] = cos^2(pi/8)
    n, ones = 20_000, 0
    for _ in range(n):
        qb = PhaseQubit(q=7, units=0)
        ones += qb.measure_xy(math.pi / 4, stream)
    lo, hi = wilson_ci(n - ones, n)
    assert lo <= math.cos(math.pi / 8) ** 2 <= hi


def test_measure_xy_basis_state_is_fair_coin(stream):
    n = 20_000
    qb = PhaseQubit(q=7, basis=1)
    ones = sum(qb.measure_xy(0.3, stream) for _ in range(n))
    lo, hi = wilson_ci(ones, n)
    assert lo <= 0.5 <= hi


def test_simulate_basis_measurement(stream):
    p = tiny_params(2, 13)
    r = angle_sequence(np.array([1, 2], dtype=np.int64), p)
    x = np.array([5, 6], dtype=np.int64)
    u, qb = simulate_basis_measurement(x, 1, r, p, stream)
    assert u.shape == (p.nQ,)
    assert set(np.unique(u)) <= {0, 1}
    assert qb.basis == 1


def test_ghz_phase_formula_against_statevector(stream):
    worst = 0.0
    for n, q in [(1, 3), (1, 5), (2, 3), (2, 5)]:
        p = tiny_params(n, q)
        gen = stream.derive("case", n, q).gen
        for _ in range(25):
            x_one = gen.integers(0, q, size=n)
            x_zero = gen.integers(0, q, size=n)
            a = gen.integers(0, q, size=n)
            ok, tvd = oracle_equivalence_check(x_one, x_zero, a, p)
            assert ok
            worst = max(worst, tvd)
    assert worst < 1e-9


def test_simulated_phase_matches_prediction(stream):
    """The simulator's phase against the module docstring's formula,
    sum_k (y_k - x_k) (r_k + q u_k) mod 2q in units of pi/q, summed qubit
    by qubit over the bits x of x_one and y of x_zero."""
    p = tiny_params(2, 5)
    gen = stream.gen
    for trial in range(20):
        x_one = gen.integers(0, 5, size=2)
        x_zero = gen.integers(0, 5, size=2)
        r = angle_sequence(gen.integers(0, 5, size=2), p)
        u, qb = simulate_ghz_measurement(x_one, x_zero, r, p,
                                         stream.derive("m", trial))
        phase = 0
        for i in range(p.n):
            for j in range(p.Q):
                k = i * p.Q + j
                x_k = (int(x_one[i]) >> j) & 1
                y_k = (int(x_zero[i]) >> j) & 1
                phase += (y_k - x_k) * (int(r[k]) + p.q * int(u[k]))
        assert qb.units == phase % (2 * p.q)


def test_identical_branches_give_zero_phase(stream):
    p = tiny_params(1, 5)
    x = np.array([3], dtype=np.int64)
    r = angle_sequence(np.array([2], dtype=np.int64), p)
    u, qb = simulate_ghz_measurement(x, x, r, p, stream)
    assert qb.units == 0  # equal branch strings: GHZ state is |x>|+>


def test_statevector_oracle_guardrails():
    p = tiny_params(2, 127)  # nQ = 14 qubits exceeds the dense-oracle cap
    r = np.zeros(p.nQ, dtype=np.int64)
    with pytest.raises(ValueError):
        statevector_oracle(np.zeros(p.n, dtype=np.int64),
                           np.zeros(p.n, dtype=np.int64), r, p)


def test_equator_state_is_normalized():
    v = equator_state(3, 5)
    assert abs(np.vdot(v, v) - 1) < 1e-12
    assert abs(v[1] / v[0] - np.exp(1j * math.pi * 3 / 5)) < 1e-12
