"""Single-bit public-key encryption from LWE with a quarter-modulus offset.

Two key generators share the same Encrypt/Decrypt: gen_k uses a uniform
matrix A, gen_j draws A from the trapdoor sampler so the key holder can
invert LWE samples.  The message bit is encoded as b*floor(q/4) rather than
the decoding-optimal b*floor(q/2); the protocols built on top rely on the
quarter offset.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Params
from .sampling import RngStream, sample_bits, sample_noise, sample_uniform
from .stats import Stats
from .trapdoor import TrapdoorPair, gen_trap
from .zq import centered_abs, matmul_mod


@dataclass(frozen=True)
class PublicKey:
    params: Params
    A: np.ndarray   # m x n
    v: np.ndarray   # length m, v = A s + e


@dataclass(frozen=True)
class Ciphertext:
    a: np.ndarray   # length n
    w: int


@dataclass(frozen=True)
class KeypairK:
    pk: PublicKey
    s: np.ndarray
    e: np.ndarray   # retained for analysis and simulation, never sent


@dataclass(frozen=True)
class KeypairJ:
    pk: PublicKey
    s: np.ndarray
    e: np.ndarray
    trapdoor: TrapdoorPair


def _keygen_tail(params: Params, A: np.ndarray, stream: RngStream):
    s = sample_uniform(params.n, params.q, stream.derive("s"))
    e = sample_noise(params, stream.derive("e"))
    v = (matmul_mod(A, s, params.q) + e) % params.q
    return PublicKey(params=params, A=A, v=v), s, e


def gen_k(params: Params, stream: RngStream) -> KeypairK:
    A = stream.derive("A").gen.integers(0, params.q, size=(params.m, params.n),
                                        dtype=np.int64)
    pk, s, e = _keygen_tail(params, A, stream)
    return KeypairK(pk=pk, s=s, e=e)


def gen_j(params: Params, stream: RngStream) -> KeypairJ:
    pair = gen_trap(params, stream.derive("trap"))
    pk, s, e = _keygen_tail(params, pair.A, stream)
    return KeypairJ(pk=pk, s=s, e=e, trapdoor=pair)


def encrypt_zq(pk: PublicKey, value: int, stream: RngStream,
               force_f: np.ndarray | None = None):
    """ct = (f^T A, f^T v + value) for a fresh subset vector f.

    Returns (ct, f); callers that need the randomness (blind state
    preparation, tests) keep f, everyone else discards it."""
    p = pk.params
    f = sample_bits(p.m, stream) if force_f is None else np.asarray(force_f, dtype=np.int64)
    if f.shape != (p.m,) or not np.all((f == 0) | (f == 1)):
        raise ValueError("f must be a 0/1 vector of length m")
    a = matmul_mod(f, pk.A, p.q)
    w = (int(matmul_mod(f, pk.v, p.q)) + int(value)) % p.q
    return Ciphertext(a=a, w=w), f


def encrypt_bit(pk: PublicKey, b: int, stream: RngStream,
                force_f: np.ndarray | None = None) -> Ciphertext:
    if b not in (0, 1):
        raise ValueError("message must be a bit")
    ct, _ = encrypt_zq(pk, b * (pk.params.q // 4), stream, force_f=force_f)
    return ct


def decrypt_bit(s: np.ndarray, ct: Ciphertext, q: int) -> int:
    ell = (int(matmul_mod(ct.a, s, q)) - ct.w) % q
    shifted = (ell + q // 4) % q
    return 1 if int(centered_abs(shifted, q)) <= int(centered_abs(ell, q)) else 0


def distinguishing_game(params: Params, adversary, trials: int,
                        stream: RngStream, use_trapdoor_keys: bool = False,
                        mode: str = "real-b") -> Stats:
    """Estimate Pr[adversary(pk, ct) = b] over fresh keys and ciphertexts.

    The adversary is a callable (pk, ct) -> bit.  In mode "real-b" the
    ciphertext encrypts b; in mode "always-0" it encrypts 0 regardless, so
    every adversary lands at exactly 1/2 in expectation.  A blind adversary
    should land at 1/2 either way; the Wilson interval makes that checkable."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mode not in ("real-b", "always-0"):
        raise ValueError("mode must be real-b or always-0")
    wins = 0
    gen = gen_j if use_trapdoor_keys else gen_k
    for i in range(trials):
        trial = stream.derive("ind", i)
        kp = gen(params, trial.derive("key"))
        b = int(sample_bits(1, trial.derive("b"))[0])
        plaintext = b if mode == "real-b" else 0
        ct = encrypt_bit(kp.pk, plaintext, trial.derive("f"))
        if int(adversary(kp.pk, ct)) == b:
            wins += 1
    return Stats(successes=wins, trials=trials)


__all__ = [
    "PublicKey", "Ciphertext", "KeypairK", "KeypairJ",
    "gen_k", "gen_j", "encrypt_zq", "encrypt_bit", "decrypt_bit",
    "distinguishing_game",
]
