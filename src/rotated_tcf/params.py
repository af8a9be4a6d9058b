"""Protocol parameter sets and their consistency constraints.

A parameter set fixes (lam, n, m, q, Q, sigma, tau) with
q an odd prime, Q = ceil(log2 q), m = n(2Q + 1) and tau = q/(4mQ).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Every modulus is below 2**MAX_Q_BITS, so that ghz's phase sums (terms
# below 2q) and zq's products stay exact in int64.
MAX_Q_BITS = 61
# The largest n, sigma and lambda of any parameter set, so that no input,
# a flag or a hostile verifier's setup frame, can size the work at will:
# far above the desk preset's (n = 4, sigma = 3, lambda = 4) and every
# test's.
MAX_N = 64
MAX_SIGMA = 2.0 ** 20
MAX_LAMBDA = 1024


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    c = max(n, 2)
    if c % 2 == 0 and c != 2:
        c += 1
    while not is_prime(c):
        c += 2 if c > 2 else 1
    return c


@dataclass(frozen=True)
class Params:
    lam: int
    n: int
    q: int
    sigma: float
    preset_name: str = "custom"
    Q: int = field(init=False)
    m: int = field(init=False)
    tau: Fraction = field(init=False)

    def __post_init__(self):
        # Size first: Miller-Rabin on a q of thousands of digits, say one
        # a hostile setup frame carries, takes seconds.
        if self.q.bit_length() > MAX_Q_BITS:
            raise ValueError(f"moduli >= 2**{MAX_Q_BITS} are not supported")
        if self.q < 3 or self.q % 2 == 0 or not is_prime(self.q):
            raise ValueError(f"q={self.q} must be an odd prime")
        if not 1 <= self.sigma <= MAX_SIGMA:  # NaN fails both comparisons
            raise ValueError(
                f"sigma must be finite and in [1, {MAX_SIGMA:.0f}]")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}]")
        if not 1 <= self.lam <= MAX_LAMBDA:
            raise ValueError(f"lam must be in [1, {MAX_LAMBDA}]")
        Q = (self.q - 1).bit_length()  # ceil(log2 q) for q >= 3, q not a power of 2
        m = self.n * (2 * Q + 1)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tau", Fraction(self.q, 4 * m * Q))

    @property
    def tau_floor(self) -> int:
        return self.tau.numerator // self.tau.denominator

    @property
    def nQ(self) -> int:
        return self.n * self.Q

    def completeness_error(self) -> float:
        """5*m*sigma^2/q^2 + m*sigma/(2*tau)."""
        return (5 * self.m * self.sigma**2 / self.q**2
                + self.m * self.sigma / (2 * float(self.tau)))

    def describe(self) -> dict:
        return {
            "preset": self.preset_name,
            "lambda": self.lam,
            "n": self.n,
            "m": self.m,
            "q": str(self.q),
            "Q": self.Q,
            "sigma": self.sigma,
            "tau": f"{self.tau.numerator}/{self.tau.denominator}",
            "completeness_error": self.completeness_error(),
            "security": "functional, not secure" if self.preset_name == "desk"
                        else "unvetted",
        }


def select_params(n: int, c: float, eps: float) -> Params:
    """sigma = n^c and q an odd prime in [n^(2+eps)*sigma, 2n^(2+eps)*sigma],
    drawn from default_rng(0), at the desk preset's lambda."""
    if n < 2 or not (0 < c < math.inf and 0 < eps < math.inf):
        raise ValueError("need n >= 2 and finite c > 0, eps > 0")
    # hi = 2 n^(2+eps+c), sized by its log so that no power below overflows
    if 1 + (2 + eps + c) * math.log2(n) >= MAX_Q_BITS:
        raise ValueError(f"n={n}, c={c} and eps={eps} put the range of q "
                         f"at or past 2**{MAX_Q_BITS}")
    sigma = float(n) ** c
    lo = math.ceil(n ** (2 + eps) * sigma)
    hi = math.floor(2 * n ** (2 + eps) * sigma)
    if hi - lo < 4:
        raise ValueError(f"n={n}, c={c} and eps={eps} leave the range of q "
                         "too narrow to search for a prime")
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        cand = int(rng.integers(lo, hi + 1)) | 1
        if lo <= cand <= hi and is_prime(cand):
            return Params(lam=desk_preset().lam, n=n, q=cand, sigma=sigma,
                          preset_name=f"selected-n{n}")
    raise AssertionError("no prime found in range (cannot occur for ranges this wide)")


@lru_cache(maxsize=None)
def desk_preset() -> Params:
    """Small-n, large-q preset: completeness error < 1e-4. Functional, not secure."""
    q = next_prime(1 << 42)
    return Params(lam=4, n=4, q=q, sigma=3.0, preset_name="desk")


# Bounded: the networked prover builds its Params from values the verifier
# picked, so a hostile verifier must not be able to grow this cache.
TINY_PARAMS_CACHE = 32


@lru_cache(maxsize=TINY_PARAMS_CACHE)
def tiny_params(n: int, q: int, sigma: float = 1.0,
                lam: int = desk_preset().lam) -> Params:
    """Deliberately tiny instances for exhaustive / oracle tests."""
    return Params(lam=lam, n=n, q=q, sigma=sigma, preset_name=f"tiny-n{n}-q{q}")

