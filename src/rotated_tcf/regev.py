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
from .sampling import (RngStream, sample_bits, sample_noise_stacked,
                       sample_uniform, seed_streams)
from .stats import Stats
from .trapdoor import TrapdoorPair, gen_trap, gen_trap_stacked
from .zq import canonical, centered_abs, matmul_mod


@dataclass(frozen=True)
class PublicKey:
    params: Params
    A: np.ndarray   # m x n
    v: np.ndarray   # length m, v = A s + e


@dataclass(frozen=True)
class Ciphertext:
    a: np.ndarray   # length n
    w: int          # an int64 array for a stack of ciphertexts


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


# Keys, ciphertexts and trapdoor pairs also come stacked: every array with
# the same leading axes, one index per instance.  Draws are made per
# instance from its own streams; the arithmetic below takes either form.


def instance(pk: PublicKey, ct: Ciphertext, i: int):
    """Instance i of a stacked key and ciphertext, (pk, ct), as views."""
    return (PublicKey(params=pk.params, A=pk.A[i], v=pk.v[i]),
            Ciphertext(a=ct.a[i], w=int(ct.w[i])))


def _secrets(params: Params, s_streams, e_streams):
    """Each instance's s and e, stacked: s drawn from its stream of
    `s_streams`, e from its stream of `e_streams`."""
    return (np.array([sample_uniform(params.n, params.q, stream)
                      for stream in s_streams]),
            sample_noise_stacked(params, e_streams))


def _public_key(params: Params, A, s, e) -> PublicKey:
    As = matmul_mod(A, s[..., None], params.q)[..., 0]
    v = canonical(As + e, params.q)     # two canonical terms: in [0, 2q)
    return PublicKey(params=params, A=A, v=v)


def gen_k(params: Params, stream: RngStream) -> KeypairK:
    A = stream.derive("A").gen.integers(0, params.q, size=(params.m, params.n),
                                        dtype=np.int64)
    s, e = (x[0] for x in _secrets(params, [stream.derive("s")],
                                   [stream.derive("e")]))
    return KeypairK(pk=_public_key(params, A, s, e), s=s, e=e)


def gen_j(params: Params, stream: RngStream) -> KeypairJ:
    pair = gen_trap(params, stream.derive("trap"))
    s, e = (x[0] for x in _secrets(params, [stream.derive("s")],
                                   [stream.derive("e")]))
    return KeypairJ(pk=_public_key(params, pair.A, s, e), s=s, e=e,
                    trapdoor=pair)


def gen_j_stacked(params: Params, streams) -> KeypairJ:
    """gen_j for each of `streams`, stacked: the same draws from each
    stream, with every generator seeded in one call, e's table lookup and
    bound check once for the stack, and v = A s + e as one product."""
    trap, s_streams, e_streams = ([stream.derive(label) for stream in streams]
                                  for label in ("trap", "s", "e"))
    seed_streams(trap + s_streams + e_streams)
    pair = gen_trap_stacked(params, trap)
    s, e = _secrets(params, s_streams, e_streams)
    return KeypairJ(pk=_public_key(params, pair.A, s, e), s=s, e=e,
                    trapdoor=pair)


def encrypt_zq(pk: PublicKey, value: int, f: np.ndarray) -> Ciphertext:
    """ct = (f^T A, f^T v + value) for the subset vector f, a 0/1 vector of
    length m; callers draw it as sample_bits(m, stream), and those that
    need the randomness (blind state preparation, tests) keep it.  With a
    stacked key, f and value stack the same way."""
    p = pk.params
    f = np.asarray(f, dtype=np.int64)
    # read as uint64, a 0/1 entry is at most 1 and any other above it
    if f.shape[-1] != p.m or f.view(np.uint64).max(initial=0) > 1:
        raise ValueError("f must be a 0/1 vector of length m")
    row = f[..., None, :]
    a = matmul_mod(row, pk.A, p.q)[..., 0, :]
    w = (matmul_mod(row, pk.v[..., None], p.q)[..., 0, 0] + value) % p.q
    return Ciphertext(a=a, w=w if w.ndim else int(w))


def encrypt_bit(pk: PublicKey, b, f: np.ndarray) -> Ciphertext:
    if not {*np.ravel(b).tolist()} <= {0, 1}:
        raise ValueError("message must be a bit")
    return encrypt_zq(pk, b * (pk.params.q // 4), f)


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
        b = int(trial.derive("b").gen.integers(0, 2))
        plaintext = b if mode == "real-b" else 0
        ct = encrypt_bit(kp.pk, plaintext,
                         sample_bits(params.m, trial.derive("f")))
        if int(adversary(kp.pk, ct)) == b:
            wins += 1
    return Stats(successes=wins, trials=trials)
