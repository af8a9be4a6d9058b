import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from rotated_tcf.protocol_q import (BaselineProver, HonestQuantumProver,
                                    run_experiment)
from rotated_tcf.stats import Stats
from rotated_tcf.transcripts import (CSV_HEADER, Transcript, load_transcripts,
                                     make_transcript, save_transcripts,
                                     stats_csv_row, transcript_from_dict,
                                     transcript_to_json)


def _collect(desk, stream, n=30, include_pk=False):
    out = []
    run_experiment(desk, BaselineProver(), n, stream,
                   transcript_sink=out.append, include_pk=include_pk)
    return out


def test_roundtrip_lossless(tmp_path, stream, desk):
    transcripts = _collect(desk, stream)
    path = tmp_path / "t.jsonl"
    assert save_transcripts(path, transcripts) == len(transcripts)
    loaded = list(load_transcripts(path))
    assert loaded == transcripts


def test_roundtrip_with_public_key(tmp_path, stream, desk):
    transcripts = _collect(desk, stream, n=2, include_pk=True)
    assert transcripts[0].pk is not None
    path = tmp_path / "t.jsonl"
    save_transcripts(path, transcripts)
    assert list(load_transcripts(path)) == transcripts


def test_json_is_exact_for_large_moduli(stream, desk):
    t = _collect(desk, stream, n=1)[0]
    obj = json.loads(transcript_to_json(t))
    # Z_q values travel as decimal strings, never floats
    assert all(isinstance(x, str) for x in obj["y"])
    assert all(isinstance(x, str) for x in obj["ct"]["a"])
    assert isinstance(obj["ct"]["w"], str)
    assert transcript_from_dict(obj) == t


def test_success_flag_is_checked():
    base = dict(params_ref="x", pk=None, ct={"a": [], "w": 0}, y=[], u=[],
                b=1, b_prime=1, d=0, d_prime=0, seed_info="")
    Transcript(**base, success=False)
    with pytest.raises(ValueError):
        Transcript(**base, success=True)


def test_tampered_line_detected(tmp_path, stream, desk):
    transcripts = _collect(desk, stream, n=3)
    path = tmp_path / "t.jsonl"
    save_transcripts(path, transcripts)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["d_prime"] ^= 1  # flips the predicate but not the recorded flag
    lines[1] = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":2:"):
        list(load_transcripts(path))


def test_corrupt_json_reports_line_number(tmp_path, stream, desk):
    transcripts = _collect(desk, stream, n=2)
    path = tmp_path / "t.jsonl"
    save_transcripts(path, transcripts)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValueError, match=":3:"):
        list(load_transcripts(path))


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    # an object without the fields, then records that are not objects
    for line in ('{"type": "bogus"}', "[]", '"x"', "5", "null"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=":1:"):
            list(load_transcripts(path))


def test_empty_and_blank_lines(tmp_path, stream, desk):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert list(load_transcripts(path)) == []
    transcripts = _collect(desk, stream, n=1)
    path.write_text("\n" + transcript_to_json(transcripts[0]) + "\n\n")
    assert list(load_transcripts(path)) == transcripts


def _reference_json(t: Transcript) -> str:
    """The line as json.dumps writes it, Z_q values as decimal strings."""
    def decimal(values):
        return list(map(str, values))
    obj = dict(vars(t), ct={"a": decimal(t.ct["a"]), "w": str(t.ct["w"])},
               y=decimal(t.y))
    if t.pk is not None:
        obj["pk"] = {"A": [decimal(row) for row in t.pk["A"]],
                     "v": decimal(t.pk["v"])}
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _assert_written_exactly(t: Transcript) -> None:
    line = transcript_to_json(t)
    assert line == _reference_json(t)
    assert transcript_from_dict(json.loads(line)) == t


@pytest.mark.parametrize("include_pk", [False, True])
def test_writer_matches_json_dumps(stream, mixed, include_pk):
    out = []
    run_experiment(mixed, HonestQuantumProver(), 4, stream,
                   transcript_sink=out.append, include_pk=include_pk)
    for t in out:
        assert (t.pk is not None) == include_pk
        _assert_written_exactly(t)


def test_writer_matches_json_dumps_at_61_bits():
    top = (1 << 61) - 2
    zq = np.array([top, 0, 1, top - 1], dtype=np.int64)
    t = make_transcript(
        SimpleNamespace(preset_name="q61"),
        SimpleNamespace(A=np.stack([zq, zq[::-1]]), v=zq[:2]),
        SimpleNamespace(a=zq, w=np.int64(top)), zq, np.array([1, 0, 1]),
        1, 1, 0, 1, seed_info="", include_pk=True)
    assert t.y == [top, 0, 1, top - 1] and t.ct["w"] == top
    _assert_written_exactly(t)


@pytest.mark.parametrize("text", ['quote " here', "back\\slash",
                                  "bell \x07 tab \t", "caf\u00e9 \u2603",
                                  ""])
def test_writer_escapes_free_text(text):
    t = Transcript(params_ref=text, pk={"A": [], "v": []},
                   ct={"a": [], "w": 0}, y=[], u=[], b=0, b_prime=1, d=1,
                   d_prime=1, success=True, seed_info=text[::-1])
    _assert_written_exactly(t)


def _valid_record() -> dict:
    t = Transcript(params_ref="desk", pk={"A": [[1, 2], [3, 4]], "v": [5, 6]},
                   ct={"a": [7, 8], "w": 9}, y=[10, 11], u=[0, 1], b=1,
                   b_prime=1, d=0, d_prime=1, success=True, seed_info="ab")
    return json.loads(transcript_to_json(t))


MALFORMED = {
    "b=2": {"b": 2},
    "b=true": {"b": True},
    "b_prime string": {"b_prime": "1"},
    "d float": {"d": 1.0},
    "d_prime null": {"d_prime": None},
    "u entry 7": {"u": [0, 7]},
    "u entry string": {"u": [0, "q"]},
    "u entry bool": {"u": [0, True]},
    "u not array": {"u": "01"},
    "y entry word": {"y": ["10", "x"]},
    "y entry float": {"y": ["10", 1.5]},
    "y entry null": {"y": ["10", None]},
    "y entry int": {"y": ["10", 11]},
    "y leading zero": {"y": ["10", "011"]},
    "y sign": {"y": ["10", "-11"]},
    "y plus": {"y": ["10", "+11"]},
    "y space": {"y": ["10", " 11"]},
    "y empty string": {"y": ["10", ""]},
    "y non-ASCII digits": {"y": ["10", "\u0661\u0661"]},
    "y not array": {"y": "10"},
    "ct junk": {"ct": "junk"},
    "ct no w": {"ct": {"a": ["7", "8"]}},
    "ct extra key": {"ct": {"a": ["7", "8"], "w": "9", "x": "1"}},
    "ct w int": {"ct": {"a": ["7", "8"], "w": 9}},
    "ct a string": {"ct": {"a": "78", "w": "9"}},
    "pk number": {"pk": 5},
    "pk array": {"pk": []},
    "pk no v": {"pk": {"A": [["1", "2"], ["3", "4"]]}},
    "pk entry int": {"pk": {"A": [["1", 2], ["3", "4"]], "v": ["5", "6"]}},
    "pk rows not arrays": {"pk": {"A": ["12", "34"], "v": ["5", "6"]}},
    "pk ragged": {"pk": {"A": [["1", "2"], ["3"]], "v": ["5", "6"]}},
    "pk v length": {"pk": {"A": [["1", "2"], ["3", "4"]], "v": ["5"]}},
    "success 1": {"success": 1},
    "success string": {"success": "true"},
    "params_ref number": {"params_ref": 5},
    "seed_info null": {"seed_info": None},
    "extra field": {"note": "x"},
}


@pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_record_refused_with_its_line(tmp_path, change):
    good = _valid_record()
    assert transcript_from_dict(good) is not None
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change})
                    + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        list(load_transcripts(path))


def test_csv_row_format():
    row = stats_csv_row("desk", "honest", Stats(853, 1000), "ab" * 32)
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "desk"
    assert fields[2] == "1000"
    assert fields[3] == "853"
    assert fields[4] == "0.853000"
