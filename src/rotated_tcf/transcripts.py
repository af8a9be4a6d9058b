"""Transcript records for protocol runs, JSON-lines persistence, CSV stats.

In memory a transcript holds its Z_q values as Python ints.  In JSON they
are decimal strings, so the files stay exact for any modulus (JSON numbers
silently lose precision past 2^53).  A line is the compact, key-sorted
JSON of the record; `transcript_to_json` writes it in one formatting pass
and `transcript_from_dict` checks every field of a loaded record against
the run's Params: its form, each array's length and each value's range.
The verdict `success` is not stored: it is `accepts` of the record's bits,
and a line carries it for readers of the file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .stats import Stats


@dataclass(frozen=True)
class Transcript:
    params_ref: str
    pk: dict | None        # {"A": [[...]], "v": [...]} Z_q ints, optional
    ct: dict               # {"a": [...], "w": ...} Z_q ints
    y: list                # Z_q ints
    u: list                # bits, 0 or 1
    b: int
    b_prime: int
    d: int
    d_prime: int
    seed_info: str

    @property
    def success(self) -> bool:
        return accepts(self.b, self.b_prime, self.d, self.d_prime)


def accepts(b, b_prime, d, d_prime):
    """The verifier's rule: a trial is won exactly when d xor d' = b b'.
    Elementwise, so stacked arrays give one verdict per instance."""
    return (d ^ d_prime) == (b & b_prime)


def _ints(v) -> list:
    return np.asarray(v).tolist()


def make_transcript(pk, ct, y, u, b, b_prime, d, d_prime, seed_info,
                    include_pk: bool = False) -> Transcript:
    pk_field = None
    if include_pk:
        pk_field = {"A": _ints(pk.A), "v": _ints(pk.v)}
    return Transcript(
        params_ref=pk.params.preset_name,
        pk=pk_field,
        ct={"a": _ints(ct.a), "w": int(ct.w)},
        y=_ints(y),
        u=_ints(u),
        b=int(b),
        b_prime=int(b_prime),
        d=int(d),
        d_prime=int(d_prime),
        seed_info=seed_info,
    )


# The keys in sorted order, as json.dumps(sort_keys=True) writes them.
_LINE = ('{"b":%d,"b_prime":%d,"ct":{"a":%s,"w":"%d"},"d":%d,"d_prime":%d,'
         '"params_ref":%s,"pk":%s,"seed_info":%s,"success":%s,"u":%s,'
         '"y":%s}')


@lru_cache(maxsize=64)
def _array_template(n: int, quoted: bool) -> str:
    """A JSON array of n "%d" fields, each in quotes when `quoted`."""
    field = '"%d"' if quoted else "%d"
    return "[" + ",".join([field] * n) + "]"


def _array(values, quoted: bool = True) -> str:
    return _array_template(len(values), quoted) % tuple(values)


def transcript_to_json(t: Transcript) -> str:
    """The record's line: json.dumps of its fields, Z_q values as decimal
    strings, with separators (",", ":") and sorted keys."""
    pk = ("null" if t.pk is None else '{"A":[%s],"v":%s}'
          % (",".join(map(_array, t.pk["A"])), _array(t.pk["v"])))
    return _LINE % (t.b, t.b_prime, _array(t.ct["a"]), t.ct["w"], t.d,
                    t.d_prime, json.dumps(t.params_ref), pk,
                    json.dumps(t.seed_info),
                    "true" if t.success else "false", _array(t.u, False),
                    _array(t.y))


_FIELDS = frozenset(f.name for f in fields(Transcript)) | {"success"}


def _decimal(text, bound: int) -> int:
    """An integer in [0, bound) written as a canonical decimal string: a
    Z_q value as a transcript line or a peer's frame holds it."""
    if (not isinstance(text, str) or len(text) > len(str(bound))
            or not (text.isascii() and text.isdigit())
            or str(int(text)) != text or int(text) >= bound):
        raise ValueError(f"expected a decimal string in [0, {bound})"
                         f", got {text!r:.40}")
    return int(text)


def _number(value, kinds: tuple):
    """`value`, a JSON scalar read from outside the program, if its type is
    exactly one of `kinds` (JSON's true is not the integer 1); a float
    must be finite."""
    if type(value) not in kinds or (type(value) is float
                                    and not math.isfinite(value)):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"expected a JSON {names}, got {value!r:.40}")
    return value


class BitError(ValueError):
    """A JSON integer other than 0 or 1 where a bit belongs."""
    code = "bad-bit"            # the error code a session answers it with


def _bit(x) -> int:
    """`x`, a bit of a transcript line or a peer's frame, if it is 0 or 1."""
    if _number(x, (int,)) in (0, 1):
        return x
    raise BitError(f"bit {x!r:.40} is not the integer 0 or 1")


def _array_of(v, length: int, parse, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} {v!r:.40} is not an array")
    if len(v) != length:
        raise ValueError(f"{what} has {len(v)} entries, not {length}")
    return [parse(x) for x in v]


def _record(obj, keys, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is a {type(obj).__name__}, not an object")
    if obj.keys() != keys:
        raise ValueError(f"{what} has the keys {sorted(obj)}, not "
                         f"{sorted(keys)}")
    return obj


def _public_key(obj, params, zq) -> dict | None:
    if obj is None:
        return None
    _record(obj, {"A", "v"}, "pk")
    row = partial(_array_of, length=params.n, parse=zq, what="pk.A row")
    return {"A": _array_of(obj["A"], params.m, row, "pk.A"),
            "v": _array_of(obj["v"], params.m, zq, "pk.v")}


def transcript_from_dict(obj, params) -> Transcript:
    """The Transcript a parsed JSON line records of a run at `params`;
    ValueError unless every field has the form, length and range that
    transcript_to_json writes for such a run."""
    _record(obj, _FIELDS, "transcript")
    ct = _record(obj["ct"], {"a", "w"}, "ct")
    if _number(obj["params_ref"], (str,)) != params.preset_name:
        raise ValueError(f"params_ref {obj['params_ref']!r:.40} is not "
                         f"{params.preset_name!r}")
    _number(obj["success"], (bool,))
    zq = partial(_decimal, bound=params.q)
    t = Transcript(
        params_ref=obj["params_ref"],
        pk=_public_key(obj["pk"], params, zq),
        ct={"a": _array_of(ct["a"], params.n, zq, "ct.a"), "w": zq(ct["w"])},
        y=_array_of(obj["y"], params.m, zq, "y"),
        u=_array_of(obj["u"], params.nQ, _bit, "u"),
        b=_bit(obj["b"]),
        b_prime=_bit(obj["b_prime"]),
        d=_bit(obj["d"]),
        d_prime=_bit(obj["d_prime"]),
        seed_info=_number(obj["seed_info"], (str,)),
    )
    if obj["success"] != t.success:
        raise ValueError("success flag inconsistent with (d, d', b, b')")
    return t


def load_transcripts(path, params) -> Iterator[Transcript]:
    """The transcripts in the JSON-lines file `path` of a run at `params`;
    a line that transcript_from_dict refuses is a ValueError that names
    the file and the line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode()    # a bad byte is this line's error
                if text.strip():
                    yield transcript_from_dict(json.loads(text), params)
            except (ValueError, RecursionError) as exc:   # nesting too deep
                raise ValueError(f"{path}:{lineno}: corrupt transcript ({exc})") from None


def stats_csv_row(preset: str, prover: str, stats: Stats, seed: str) -> str:
    lo, hi = stats.ci
    return (f"{preset},{prover},{stats.trials},{stats.successes},"
            f"{stats.estimate:.6f},{lo:.6f},{hi:.6f},{seed}")


CSV_HEADER = "preset,prover,trials,successes,estimate,ci_lo,ci_hi,seed"
