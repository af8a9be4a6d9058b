import copy
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from rotated_tcf.params import tiny_params
from rotated_tcf.protocol_q import (BaselineProver, HonestQuantumProver,
                                    run_experiment)
from rotated_tcf.stats import Stats
from rotated_tcf.transcripts import (CSV_HEADER, Transcript, accepts,
                                     load_transcripts, make_transcript,
                                     stats_csv_row, transcript_from_dict,
                                     transcript_to_json)


def _collect(desk, stream, n=30, include_pk=False):
    out = []
    run_experiment(desk, BaselineProver(), n, stream,
                   transcript_sink=out.append, include_pk=include_pk)
    return out


def _write(path, transcripts):
    """`transcripts` as a JSON-lines file, one transcript_to_json line each."""
    path.write_text("".join(transcript_to_json(t) + "\n"
                            for t in transcripts))


def test_roundtrip_lossless(tmp_path, stream, desk):
    transcripts = _collect(desk, stream)
    path = tmp_path / "t.jsonl"
    _write(path, transcripts)
    loaded = list(load_transcripts(path, desk))
    assert loaded == transcripts


def test_roundtrip_with_public_key(tmp_path, stream, desk):
    transcripts = _collect(desk, stream, n=2, include_pk=True)
    assert transcripts[0].pk is not None
    path = tmp_path / "t.jsonl"
    _write(path, transcripts)
    assert list(load_transcripts(path, desk)) == transcripts


def test_json_is_exact_for_large_moduli(stream, desk):
    t = _collect(desk, stream, n=1)[0]
    obj = json.loads(transcript_to_json(t))
    # Z_q values travel as decimal strings, never floats
    assert all(isinstance(x, str) for x in obj["y"])
    assert all(isinstance(x, str) for x in obj["ct"]["a"])
    assert isinstance(obj["ct"]["w"], str)
    assert transcript_from_dict(obj, desk) == t


BITS = [(b, b_prime, d, d_prime) for b in (0, 1) for b_prime in (0, 1)
        for d in (0, 1) for d_prime in (0, 1)]


def test_accepts_is_the_papers_rule():
    """accepts(b, b', d, d') is d xor d' = b b' on all 16 bit patterns,
    on ints and elementwise on one stacked array of each."""
    want = [(d + d_prime) % 2 == b * b_prime for b, b_prime, d, d_prime
            in BITS]
    assert [accepts(*bits) for bits in BITS] == want
    stacked = accepts(*np.array(BITS, dtype=np.int64).T)
    assert stacked.shape == (16,) and stacked.tolist() == want


def test_success_flag_is_checked(tmp_path):
    """The verdict is derived, not stored; a loaded line's flag must agree
    with its (b, b', d, d')."""
    with pytest.raises(TypeError):
        Transcript(params_ref="x", pk=None, ct={"a": [], "w": 0}, y=[],
                   u=[], b=1, b_prime=1, d=0, d_prime=0, seed_info="",
                   success=False)
    good = _valid_record()
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({**good, "success": not good["success"]})
                    + "\n")
    with pytest.raises(ValueError, match=":1: .*success flag inconsistent"):
        list(load_transcripts(path, PARAMS))


def test_tampered_line_detected(tmp_path, stream, desk):
    transcripts = _collect(desk, stream, n=3)
    path = tmp_path / "t.jsonl"
    _write(path, transcripts)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["d_prime"] ^= 1  # flips the predicate but not the recorded flag
    lines[1] = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":2:"):
        list(load_transcripts(path, desk))


def test_corrupt_json_reports_line_number(tmp_path, stream, desk):
    transcripts = _collect(desk, stream, n=2)
    path = tmp_path / "t.jsonl"
    _write(path, transcripts)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValueError, match=":3:"):
        list(load_transcripts(path, desk))


def test_unknown_fields_rejected(tmp_path, desk):
    path = tmp_path / "t.jsonl"
    # an object without the fields, then records that are not objects,
    # the last nested past the parser's recursion limit
    for line in ('{"type": "bogus"}', "[]", '"x"', "5", "null",
                 "[" * 100_000):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1:"):
            list(load_transcripts(path, desk))


def test_empty_and_blank_lines(tmp_path, stream, desk):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert list(load_transcripts(path, desk)) == []
    transcripts = _collect(desk, stream, n=1)
    path.write_text("\n" + transcript_to_json(transcripts[0]) + "\n\n")
    assert list(load_transcripts(path, desk)) == transcripts


def _reference_json(t: Transcript) -> str:
    """The line as json.dumps writes it, Z_q values as decimal strings."""
    def decimal(values):
        return list(map(str, values))
    obj = dict(vars(t), ct={"a": decimal(t.ct["a"]), "w": str(t.ct["w"])},
               y=decimal(t.y), success=t.success)
    if t.pk is not None:
        obj["pk"] = {"A": [decimal(row) for row in t.pk["A"]],
                     "v": decimal(t.pk["v"])}
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _assert_written_exactly(t: Transcript, params) -> None:
    line = transcript_to_json(t)
    assert line == _reference_json(t)
    assert transcript_from_dict(json.loads(line), params) == t


@pytest.mark.parametrize("include_pk", [False, True])
def test_writer_matches_json_dumps(stream, mixed, include_pk):
    out = []
    run_experiment(mixed, HonestQuantumProver(), 4, stream,
                   transcript_sink=out.append, include_pk=include_pk)
    for t in out:
        assert (t.pk is not None) == include_pk
        _assert_written_exactly(t, mixed)


def test_writer_matches_json_dumps_at_61_bits():
    top = (1 << 61) - 2
    zq = np.array([top, 0, 1, top - 1], dtype=np.int64)
    params = SimpleNamespace(preset_name="q61", q=top + 1, m=4, n=4, nQ=3)
    t = make_transcript(
        SimpleNamespace(params=params, A=np.stack([zq, zq[::-1]] * 2), v=zq),
        SimpleNamespace(a=zq, w=np.int64(top)), zq, np.array([1, 0, 1]),
        1, 1, 0, 1, seed_info="", include_pk=True)
    assert t.y == [top, 0, 1, top - 1] and t.ct["w"] == top
    _assert_written_exactly(t, params)


@pytest.mark.parametrize("text", ['quote " here', "back\\slash",
                                  "bell \x07 tab \t", "caf\u00e9 \u2603",
                                  ""])
def test_writer_escapes_free_text(text):
    t = Transcript(params_ref=text, pk={"A": [], "v": []},
                   ct={"a": [], "w": 0}, y=[], u=[], b=0, b_prime=1, d=1,
                   d_prime=1, seed_info=text[::-1])
    _assert_written_exactly(t, SimpleNamespace(preset_name=text, q=2, m=0,
                                               n=0, nQ=0))


# A run's parameters small enough to write a record out by hand: n = 1,
# m = 9 and nQ = 4.
PARAMS = tiny_params(1, 13)


def _valid_record() -> dict:
    t = Transcript(params_ref=PARAMS.preset_name,
                   pk={"A": [[k] for k in range(9)], "v": list(range(9))},
                   ct={"a": [7], "w": 9}, y=list(range(2, 11)),
                   u=[0, 1, 1, 0], b=1, b_prime=1, d=0, d_prime=1,
                   seed_info="ab")
    return json.loads(transcript_to_json(t))


_GONE = object()    # the key or entry at the path is removed


def _changed(record: dict, path: tuple, value) -> dict:
    """A copy of `record` with the entry at `path` set to `value`, removed
    for _GONE, or appended when its index is the length of its list."""
    out = copy.deepcopy(record)
    *head, last = path
    parent = out
    for key in head:
        parent = parent[key]
    if value is _GONE:
        del parent[last]
    elif isinstance(parent, list) and last == len(parent):
        parent.append(value)
    else:
        parent[last] = value
    return out


# Each case sets one path of the valid record to a value of the wrong form.
MALFORMED = {
    "b=2": (("b",), 2),
    "b=true": (("b",), True),
    "b_prime string": (("b_prime",), "1"),
    "d float": (("d",), 1.0),
    "d_prime null": (("d_prime",), None),
    "u entry 7": (("u", -1), 7),
    "u entry string": (("u", -1), "q"),
    "u entry bool": (("u", -1), True),
    "u not array": (("u",), "0110"),
    "y entry word": (("y", -1), "x"),
    "y entry float": (("y", -1), 1.5),
    "y entry null": (("y", -1), None),
    "y entry int": (("y", -1), 10),
    "y leading zero": (("y", -1), "010"),
    "y sign": (("y", -1), "-10"),
    "y plus": (("y", -1), "+10"),
    "y space": (("y", -1), " 10"),
    "y empty string": (("y", -1), ""),
    "y non-ASCII digits": (("y", -1), "\u0661\u0660"),
    "y not array": (("y",), "10"),
    "ct junk": (("ct",), "junk"),
    "ct no w": (("ct", "w"), _GONE),
    "ct extra key": (("ct", "x"), "1"),
    "ct w int": (("ct", "w"), 9),
    "ct a string": (("ct", "a"), "7"),
    "pk number": (("pk",), 5),
    "pk array": (("pk",), []),
    "pk no v": (("pk", "v"), _GONE),
    "pk entry int": (("pk", "A", 0, 0), 0),
    "pk rows not arrays": (("pk", "A", 0), "0"),
    "pk ragged": (("pk", "A", -1), ["8", "8"]),
    "pk v length": (("pk", "v", -1), _GONE),
    "success 1": (("success",), 1),
    "success string": (("success",), "true"),
    "params_ref number": (("params_ref",), 5),
    "seed_info null": (("seed_info",), None),
    "extra field": (("note",), "x"),
}

# Each case is in the writer's form but does not fit the run's parameters
# (q = 13, n = 1, m = 9, nQ = 4); the loader names what is wrong.
MISFIT = {
    "params_ref of another run": (("params_ref",), "desk", "params_ref"),
    "y entry past 2^64": (("y", -1), "99999999999999999999", r"\[0, 13\)"),
    "y entry q": (("y", -1), "13", r"\[0, 13\)"),
    "y short": (("y", -1), _GONE, "y has 8 entries, not 9"),
    "y long": (("y", 9), "1", "y has 10 entries, not 9"),
    "u short": (("u", -1), _GONE, "u has 3 entries, not 4"),
    "u long": (("u", 4), 1, "u has 5 entries, not 4"),
    "ct.a long": (("ct", "a", 1), "1", "ct.a has 2 entries, not 1"),
    "ct.w q": (("ct", "w"), "13", r"\[0, 13\)"),
    "pk.A row missing": (("pk", "A", -1), _GONE, "pk.A has 8 entries"),
    "pk.A transposed": (("pk", "A"), [[str(k) for k in range(9)]],
                        "pk.A has 1 entries, not 9"),
    "pk.A entry q": (("pk", "A", 0, 0), "13", r"\[0, 13\)"),
    "pk.v long": (("pk", "v", 9), "1", "pk.v has 10 entries, not 9"),
    "pk.v entry q": (("pk", "v", 0), "13", r"\[0, 13\)"),
}


def _refused_on_line_2(tmp_path, change, message=""):
    good = _valid_record()
    assert transcript_from_dict(good, PARAMS) is not None
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(good) + "\n"
                    + json.dumps(_changed(good, *change)) + "\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:2: .*{message}"):
        list(load_transcripts(path, PARAMS))


@pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_record_refused_with_its_line(tmp_path, change):
    _refused_on_line_2(tmp_path, change)


@pytest.mark.parametrize("path, value, message", MISFIT.values(),
                         ids=MISFIT.keys())
def test_record_misfit_to_the_run_refused_with_its_line(tmp_path, path,
                                                         value, message):
    _refused_on_line_2(tmp_path, (path, value), message)


def test_csv_row_format():
    row = stats_csv_row("desk", "honest", Stats(853, 1000), "ab" * 32)
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "desk"
    assert fields[2] == "1000"
    assert fields[3] == "853"
    assert fields[4] == "0.853000"
