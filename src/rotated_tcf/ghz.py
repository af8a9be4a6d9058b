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

from .sampling import RngStream, fill_bits
from .zq import bits_le_vec, canonical, gadget_multiples


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
    """Per-qubit rotation angles, in units of pi/q modulo 2q; a stack of
    seeds, shape (..., n), gives one row of nQ angles per seed.

    Qubit (i-1)Q + j is rotated by 2^j * pi * a_i / q, which is 2^j * a_i
    units; equivalently 2^(j-1) copies of theta_i = 2 pi a_i / q."""
    a = np.asarray(a, dtype=np.int64)
    if a.shape[-1:] != (params.n,):
        raise ValueError("angle seed must have length n")
    # 2^(j+1) a mod 2q = 2 (2^j a mod q)
    return 2 * gadget_multiples(a % params.q, params.Q, params.q).reshape(
        a.shape[:-1] + (-1,))


def _outcomes(shape, streams) -> np.ndarray:
    """Uniform outcome bits of `shape`, each row of the stack from its own
    stream in the list `streams`."""
    if len(streams) != shape[0]:
        raise ValueError("need one stream per row")
    u = np.empty(shape, dtype=np.int64)
    for row, stream in zip(u, streams):
        fill_bits(stream.gen, row)      # sample_bits, drawn in place
    return u


def simulate_ghz_measurement(x_one: np.ndarray, x_zero: np.ndarray,
                             r_units: np.ndarray, params, streams):
    """For each row of x_one, x_zero and r_units, measured on its stream in
    the list `streams`: measure the first nQ qubits of
    (|[x_one]>|1> + |[x_zero]>|0>)/sqrt(2) in the bases given by r_units.
    Returns (u, qubits): the stacked outcome strings and the exact state
    of each row's surviving qubit."""
    shape = np.shape(x_one)
    if r_units.shape != shape[:-1] + (shape[-1] * params.Q,):
        raise ValueError("need one angle per measured qubit")
    u = _outcomes(r_units.shape, streams)
    units = predicted_phase_units(x_one, x_zero, r_units, u, params)
    return u, [PhaseQubit(q=params.q, units=k) for k in units.tolist()]


def simulate_basis_measurement(c, r_units: np.ndarray, params, streams):
    """Measuring each row's basis state |[x]>|c> in XY-plane bases, on its
    stream in the list `streams`: outcomes are uniform and carry no
    information, whatever x is, and the last qubit stays |c>.  Returns the
    stacked u and a list of qubits."""
    u = _outcomes(np.shape(r_units), streams)
    return u, [PhaseQubit(q=params.q, basis=b)
               for b in np.asarray(c).tolist()]


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


def predicted_phase_units(x_one, x_zero, r_units, u, params):
    """The analytic simulator's phase for a fixed outcome string u, an int:
    sum_k (y_k - x_k) (r_k + q u_k) mod 2q over the bits x of x_one and y
    of x_zero.  Stacks of x_one, x_zero, r_units and u give one phase per
    row.  Exact for every q < 2**MAX_Q_BITS (params.py): a term
    (y_k - x_k)((r_k + q u_k) mod 2q) is below 2q in size, so
    2^63 // 2q >= 2 of them sum within int64, and runs of that many are
    summed modulo 2q until one value is left (one run at desk).  The
    term's reduction is `canonical` mod 2q, since r_k mod 2q + q u_k is
    below 3q."""
    q2 = 2 * params.q
    # the bits of x_zero, then those of x_one, from one call
    bits = bits_le_vec(np.concatenate([x_zero, x_one], axis=-1), params.Q)
    nQ = bits.shape[-1] // 2
    step = bits[..., :nQ] - bits[..., nQ:]
    phase = step * canonical(np.asarray(r_units, dtype=np.int64) % q2
                             + params.q * np.asarray(u, dtype=np.int64), q2)
    span = (1 << 63) // q2
    while True:
        phase = np.add.reduceat(phase, np.arange(0, phase.shape[-1], span),
                                axis=-1) % q2
        if phase.shape[-1] == 1:
            break
    phase = phase[..., 0]
    return phase if phase.ndim else int(phase)


# oracle_equivalence_check's tolerance, on each state overlap's distance
# from 1 and on the outcome distribution's TVD from uniform.
ORACLE_ATOL = 1e-9


def oracle_equivalence_check(x_one, x_zero, a, params):
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
        if abs(overlap - 1) > ORACLE_ATOL:
            return False, tvd
    return tvd < ORACLE_ATOL, tvd
