"""Exact classical simulation of rotated XY-plane measurements on
generalized GHZ states (|x>|1> + |y>|0>)/sqrt(2).

Measurement angles arising in the protocols are integer multiples of pi/q,
so phases are tracked exactly as integers modulo 2q ("units" of pi/q).
Measuring qubit k in the eigenbasis of cos(r_k) X + sin(r_k) Y yields a
uniformly random outcome bit u_k, and the surviving qubit picks up the phase
sum((y_k - x_k) * (r_k + pi u_k)) over the measured positions.  A dense
statevector oracle (small instances only) recomputes the same joint
distribution from first principles.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sampling import RngStream, sample_bits
from .zq import bits_le_vec


@dataclass
class PhaseQubit:
    """Either an equator state (|0> + e^(i pi units/q) |1>)/sqrt(2), or a
    computational basis state when `basis` is set (units is then ignored)."""

    q: int
    units: int = 0
    basis: int | None = None

    def __post_init__(self):
        self.units %= 2 * self.q
        if self.basis is not None and self.basis not in (0, 1):
            raise ValueError("basis must be 0, 1 or None")

    def rotate_z(self, w: int) -> None:
        """Apply |1> -> e^(2 pi i w / q) |1>, i.e. add 2w phase units."""
        if self.basis is None:
            self.units = (self.units + 2 * int(w)) % (2 * self.q)

    def angle(self) -> float:
        if self.basis is not None:
            raise ValueError("basis state has no equator angle")
        return math.pi * self.units / self.q

    def measure_xy(self, gamma: float, stream: RngStream) -> int:
        """Measure in the eigenbasis of cos(gamma) X + sin(gamma) Y.

        Returns the outcome bit u with (-1)^u the observed eigenvalue."""
        if self.basis is not None:
            p_plus = 0.5
        else:
            p_plus = math.cos((gamma - self.angle()) / 2) ** 2
        return 0 if stream.gen.random() < p_plus else 1


def angle_sequence(a: np.ndarray, params) -> np.ndarray:
    """Per-qubit rotation angles, in units of pi/q modulo 2q.

    Qubit (i-1)Q + j is rotated by 2^j * pi * a_i / q, which is 2^j * a_i
    units; equivalently 2^(j-1) copies of theta_i = 2 pi a_i / q."""
    q, Q = params.q, params.Q
    a = np.asarray(a, dtype=np.int64)
    if a.shape != (params.n,):
        raise ValueError("angle seed must have length n")
    out = np.empty(params.n * Q, dtype=np.int64)
    for i in range(params.n):
        r = (2 * int(a[i])) % (2 * q)
        for j in range(Q):
            out[i * Q + j] = r
            r = (2 * r) % (2 * q)
    return out


def simulate_ghz_measurement(x_one: np.ndarray, x_zero: np.ndarray,
                             r_units: np.ndarray, params,
                             stream: RngStream):
    """Measure the first nQ qubits of (|[x_one]>|1> + |[x_zero]>|0>)/sqrt(2)
    in the bases given by r_units.  Returns (u, qubit) where u is the
    outcome string and qubit the exact state of the surviving qubit."""
    d = np.size(x_one) * params.Q
    if r_units.shape != (d,):
        raise ValueError("need one angle per measured qubit")
    u = sample_bits(d, stream)
    units = predicted_phase_units(x_one, x_zero, r_units, u, params)
    return u, PhaseQubit(q=params.q, units=units)


def simulate_basis_measurement(x: np.ndarray, c: int, r_units: np.ndarray,
                               params, stream: RngStream):
    """Measuring the basis state |[x]>|c> in XY-plane bases: outcomes are
    uniform and carry no information, the last qubit stays |c>."""
    del x  # the outcome distribution does not depend on the basis string
    u = sample_bits(len(r_units), stream)
    return u, PhaseQubit(q=params.q, basis=int(c))


def _eigvec(r: float, u: int) -> np.ndarray:
    """The (-1)^u eigenvector of cos(r) X + sin(r) Y."""
    sign = -1.0 if u else 1.0
    return np.array([1.0, sign * np.exp(1j * r)]) / math.sqrt(2)


def statevector_oracle(x_one: np.ndarray, x_zero: np.ndarray,
                       r_units: np.ndarray, params):
    """Brute-force the measurement cascade on a dense statevector.

    Returns {u: (probability, normalized final 2-vector)} over all outcome
    strings u.  Exponential in nQ; intended for cross-checks only."""
    q, Q = params.q, params.Q
    bx = bits_le_vec(np.asarray(x_one, dtype=np.int64), Q)
    by = bits_le_vec(np.asarray(x_zero, dtype=np.int64), Q)
    d = bx.shape[0]
    if d + 1 > 14:
        raise ValueError("statevector oracle limited to 14 qubits")
    psi = np.zeros((2,) * (d + 1), dtype=complex)
    psi[tuple(bx) + (1,)] += 1 / math.sqrt(2)
    psi[tuple(by) + (0,)] += 1 / math.sqrt(2)
    angles = [math.pi * int(r) / q for r in r_units]
    out = {}
    for u in itertools.product((0, 1), repeat=d):
        proj = psi
        for k in range(d):
            v = _eigvec(angles[k], u[k])
            # contract qubit k (always axis 0 after previous contractions)
            proj = np.tensordot(v.conj(), proj, axes=([0], [0]))
        prob = float(np.vdot(proj, proj).real)
        state = proj / math.sqrt(prob) if prob > 0 else proj
        out[u] = (prob, state)
    total = sum(p for p, _ in out.values())
    if not abs(total - 1.0) < 1e-9:
        raise AssertionError(f"oracle probabilities sum to {total}, not 1")
    return out


def equator_state(units: int, q: int) -> np.ndarray:
    """The 2-vector (|0> + e^(i pi units / q) |1>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * math.pi * units / q)]) / math.sqrt(2)


def predicted_phase_units(x_one, x_zero, r_units, u, params) -> int:
    """The analytic simulator's phase for a fixed outcome string u."""
    q = params.q
    bx = bits_le_vec(np.asarray(x_one, dtype=np.int64), params.Q)
    by = bits_le_vec(np.asarray(x_zero, dtype=np.int64), params.Q)
    phase = int(((by - bx) * (np.asarray(r_units) % (2 * q))).sum() % (2 * q))
    return (phase + q * int(((bx ^ by) & np.asarray(u)).sum())) % (2 * q)


def oracle_equivalence_check(x_one, x_zero, a, params,
                             atol: float = 1e-9):
    """Compare the dense statevector oracle against the analytic model
    (uniform outcomes plus the exact phase formula) for one triple.

    Returns (ok, tvd): whether every post-measurement state matched up to
    global phase, and the total variation distance between the oracle's
    outcome distribution and uniform."""
    r_units = angle_sequence(np.asarray(a, dtype=np.int64), params)
    oracle = statevector_oracle(x_one, x_zero, r_units, params)
    d = params.nQ
    tvd = 0.0
    for u, (prob, state) in oracle.items():
        tvd += abs(prob - 2.0 ** -d) / 2
        units = predicted_phase_units(x_one, x_zero, r_units, u, params)
        overlap = abs(np.vdot(equator_state(units, params.q), state))
        if abs(overlap - 1) > atol:
            return False, tvd
    return tvd < atol, tvd
