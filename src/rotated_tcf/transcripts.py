"""Transcript records for protocol runs, JSON-lines persistence, CSV stats.

All Z_q values are serialized as decimal strings so the files stay exact for
any modulus (JSON numbers silently lose precision past 2^53).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .stats import Stats


@dataclass(frozen=True)
class Transcript:
    params_ref: str
    pk: dict | None        # {"A": [[...]], "v": [...]} decimal strings, optional
    ct: dict               # {"a": [...], "w": "..."}
    y: list
    u: list
    b: int
    b_prime: int
    d: int
    d_prime: int
    success: bool
    seed_info: str

    def recompute_success(self) -> bool:
        return (self.d ^ self.d_prime) == (self.b & self.b_prime)

    def __post_init__(self):
        if self.success != self.recompute_success():
            raise ValueError("success flag inconsistent with (d, d', b, b')")


def _zq_list(v) -> list:
    return list(map(str, np.asarray(v).tolist()))


def _bit_list(v) -> list:
    return np.asarray(v, dtype=np.int64).tolist()


def make_transcript(params, pk, ct, y, u, b, b_prime, d, d_prime, seed_info,
                    include_pk: bool = False) -> Transcript:
    pk_field = None
    if include_pk:
        pk_field = {"A": [_zq_list(row) for row in pk.A], "v": _zq_list(pk.v)}
    return Transcript(
        params_ref=params.preset_name,
        pk=pk_field,
        ct={"a": _zq_list(ct.a), "w": str(int(ct.w))},
        y=_zq_list(y),
        u=_bit_list(u),
        b=int(b),
        b_prime=int(b_prime),
        d=int(d),
        d_prime=int(d_prime),
        success=bool((int(d) ^ int(d_prime)) == (int(b) & int(b_prime))),
        seed_info=seed_info,
    )


def transcript_to_json(t: Transcript) -> str:
    return json.dumps(t.__dict__, separators=(",", ":"), sort_keys=True)


def transcript_from_dict(obj: dict) -> Transcript:
    try:
        return Transcript(**obj)
    except TypeError as exc:
        raise ValueError(f"bad transcript fields: {exc}") from None


def save_transcripts(path, transcripts: Iterable[Transcript]) -> int:
    count = 0
    with open(path, "w") as fh:
        for t in transcripts:
            fh.write(transcript_to_json(t) + "\n")
            count += 1
    return count


def load_transcripts(path) -> Iterator[Transcript]:
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                yield transcript_from_dict(obj)
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: corrupt transcript ({exc})") from None


def stats_csv_row(preset: str, prover: str, stats: Stats, seed: str) -> str:
    lo, hi = stats.ci
    return (f"{preset},{prover},{stats.trials},{stats.successes},"
            f"{stats.estimate:.6f},{lo:.6f},{hi:.6f},{seed}")


CSV_HEADER = "preset,prover,trials,successes,estimate,ci_lo,ci_hi,seed"
