import math

import numpy as np
import pytest

from rotated_tcf.ghz import (PhaseQubit, angle_sequence, equator_state,
                             oracle_equivalence_check, predicted_phase_units,
                             simulate_basis_measurement,
                             simulate_ghz_measurement, statevector_oracle)
from rotated_tcf.params import next_prime, tiny_params
from rotated_tcf.protocol_q import HonestQuantumProver, run_experiment
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


@pytest.mark.parametrize("q", [3, 5, 23, 3001, "desk", (1 << 61) - 1])
def test_angle_sequence_equals_python_int_doubling(stream, desk, q):
    """Entry (i, j) is 2^(j+1) a_i mod 2q, exactly as Python ints give it,
    at the edges a = 0 and a = q - 1 and on random seeds."""
    p = desk if q == "desk" else tiny_params(3, q)
    a = stream.gen.integers(0, p.q, size=(20, p.n), dtype=np.int64)
    a[0], a[1] = 0, p.q - 1
    for row in a:
        expect = [(2 * int(a_i) << j) % (2 * p.q)
                  for a_i in row for j in range(p.Q)]
        assert angle_sequence(row, p).tolist() == expect


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
    u, (qb,) = simulate_basis_measurement([1], r[None], p, [stream])
    assert u.shape == (1, p.nQ)
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
        (u,), (qb,) = simulate_ghz_measurement(
            x_one[None], x_zero[None], r[None], p, [stream.derive("m", trial)])
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
    _, (qb,) = simulate_ghz_measurement(x[None], x[None], r[None], p, [stream])
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


# Moduli at which a row's phase sum passes 2^63: at 2^61 - 1 the wrap
# happened to be harmless (2^64 mod 2q = 8), at next_prime(3 << 59) not.
LARGE_Q = [next_prime(3 << 59), (1 << 61) - 1]


def _phase_reference(x_one, x_zero, r_units, u, q, Q):
    """sum_k (y_k - x_k) (r_k + q u_k) mod 2q in Python integers."""
    def bits(x):
        return [(v >> j) & 1 for v in x.tolist() for j in range(Q)]
    return sum((y - x) * (r + q * b) for x, y, r, b in
               zip(bits(x_one), bits(x_zero), r_units.tolist(),
                   u.tolist())) % (2 * q)


@pytest.mark.parametrize("q", [23, "desk"] + LARGE_Q)
def test_phase_equals_python_int_reference(stream, desk, q):
    """The simulator's phase is exact for every q < 2^61, on 1-D calls and
    on stacks, at the edge x_one = 0, x_zero = q - 1 too."""
    p = desk if q == "desk" else tiny_params(3, q)
    gen = stream.gen
    x_one, x_zero, a = gen.integers(0, p.q, size=(3, 12, p.n),
                                    dtype=np.int64)
    x_one[0], x_zero[0] = 0, p.q - 1
    r = angle_sequence(a, p)
    u = gen.integers(0, 2, size=r.shape, dtype=np.int64)
    want = [_phase_reference(*row, p.q, p.Q)
            for row in zip(x_one, x_zero, r, u)]
    assert predicted_phase_units(x_one, x_zero, r, u, p).tolist() == want
    assert [predicted_phase_units(*row, p) for row in zip(x_one, x_zero, r,
                                                          u)] == want


@pytest.mark.parametrize("q", LARGE_Q)
def test_honest_win_rate_at_a_large_modulus(stream, q):
    """An honest run at a 61-bit q wins at about cos^2(pi/8): before the
    phase was exact there, next_prime(3 << 59) read 0.567."""
    p = tiny_params(2, q)
    stats = run_experiment(p, HonestQuantumProver(), 200, stream)
    lo, hi = wilson_ci(stats.successes, stats.trials, z=5.0)
    assert lo <= math.cos(math.pi / 8) ** 2 - p.completeness_error() <= hi


def test_stacked_calls_equal_one_dimensional_calls(stream, desk):
    """Each ghz function on a stack of rows, with one stream per row,
    gives row by row what it gives on a stack of that one row, and the
    phase of each row what the 1-D phase call gives."""
    p = desk
    x_one, x_zero, a = stream.gen.integers(0, p.q, size=(3, 5, p.n),
                                           dtype=np.int64)
    c = np.array([0, 1, 1, 0, 1])
    r = angle_sequence(a, p)
    assert r.tolist() == [angle_sequence(row, p).tolist() for row in a]
    u, kept = simulate_ghz_measurement(
        x_one, x_zero, r, p, [stream.derive("ghz", i) for i in range(5)])
    u_b, kept_b = simulate_basis_measurement(
        c, r, p, [stream.derive("basis", i) for i in range(5)])
    for i in range(5):
        row = slice(i, i + 1)
        (u_i,), (qubit,) = simulate_ghz_measurement(
            x_one[row], x_zero[row], r[row], p, [stream.derive("ghz", i)])
        assert u[i].tolist() == u_i.tolist() and kept[i] == qubit
        assert predicted_phase_units(x_one[i], x_zero[i], r[i], u_i, p) \
            == qubit.units
        (u_i,), (qubit,) = simulate_basis_measurement(
            c[row], r[row], p, [stream.derive("basis", i)])
        assert u_b[i].tolist() == u_i.tolist() and kept_b[i] == qubit
    assert predicted_phase_units(x_one, x_zero, r, u, p).tolist() == \
        [qubit.units for qubit in kept]
    with pytest.raises(ValueError, match="one stream per row"):
        simulate_ghz_measurement(x_one, x_zero, r, p, [stream])
