import json
import threading

import pytest

from rotated_tcf.cli import (ASSERT_EXIT, DEFAULT_SEED, USAGE_EXIT,
                             build_parser, main)

SEED = "3c" * 32


def test_params_command(capsys):
    assert main(["params", "--preset", "desk"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["preset"] == "desk"
    assert out["q"] == str((1 << 42) + 15)


def test_params_explicit_triplet(capsys):
    assert main(["params", "--n", "2", "--q", "3001", "--sigma", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 2


def test_params_incomplete_explicit():
    assert main(["params", "--n", "2"]) == USAGE_EXIT


def test_unknown_subcommand():
    assert main(["fly"]) == USAGE_EXIT
    assert main([]) == USAGE_EXIT


def test_poq_baseline_and_assert_range(capsys):
    assert main(["poq", "--prover", "classical-baseline", "--trials", "200",
                 "--seed", SEED]) == 0
    out = capsys.readouterr().out
    assert "classical-baseline" in out
    assert main(["poq", "--prover", "classical-baseline", "--trials", "200",
                 "--seed", SEED, "--assert-range", "0.60,0.90"]) == 0
    assert main(["poq", "--prover", "classical-baseline", "--trials", "200",
                 "--seed", SEED, "--assert-range", "0.95,1.0"]) == ASSERT_EXIT
    assert main(["poq", "--trials", "10", "--assert-range", "banana"]) == USAGE_EXIT


def test_poq_rejects_zero_trials():
    assert main(["poq", "--trials", "0"]) == USAGE_EXIT


def test_poq_outputs(tmp_path, capsys):
    csv = tmp_path / "stats.csv"
    jsonl = tmp_path / "t.jsonl"
    assert main(["poq", "--prover", "classical-baseline", "--trials", "20",
                 "--seed", SEED, "--out", str(csv),
                 "--emit-transcripts", str(jsonl)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("preset,prover,")
    assert lines[1].split(",")[1] == "classical-baseline"
    from rotated_tcf.transcripts import load_transcripts
    assert len(list(load_transcripts(jsonl))) == 20


def test_seed_validation_and_env_fallback(tmp_path, capsys, monkeypatch):
    assert main(["poq", "--trials", "5", "--seed", "zz"]) == USAGE_EXIT
    monkeypatch.setenv("ROTATED_TCF_SEED", SEED)
    csv = tmp_path / "a.csv"
    assert main(["poq", "--prover", "classical-baseline", "--trials", "5",
                 "--out", str(csv)]) == 0
    assert SEED in csv.read_text()
    monkeypatch.delenv("ROTATED_TCF_SEED")
    csv2 = tmp_path / "b.csv"
    assert main(["poq", "--prover", "classical-baseline", "--trials", "5",
                 "--out", str(csv2)]) == 0
    assert DEFAULT_SEED in csv2.read_text()


def test_cli_runs_are_reproducible(capsys):
    argv = ["poq", "--prover", "classical-random", "--trials", "50",
            "--seed", SEED]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_rsp_command(capsys):
    assert main(["rsp", "--trials", "5", "--alpha", "42", "--seed", SEED]) == 0
    out = capsys.readouterr().out
    assert "mean_trace_distance" in out
    assert main(["rsp", "--trials", "0"]) == USAGE_EXIT


def test_rsp_zero_noise(capsys):
    assert main(["rsp", "--trials", "3", "--alpha", "7", "--zero-noise",
                 "--seed", SEED]) == 0
    out = capsys.readouterr().out
    assert "mean_trace_distance=0.000e+00" in out


def test_puzzle_command(capsys):
    assert main(["puzzle", "--ell", "3", "--runs", "4", "--seed", SEED]) == 0
    assert "pass rate" in capsys.readouterr().out
    assert main(["puzzle", "--runs", "0"]) == USAGE_EXIT
    # alpha outside (3/4, cos^2(pi/8)) is a usage error
    assert main(["puzzle", "--ell", "3", "--runs", "1",
                 "--alpha", "0.95"]) == USAGE_EXIT


def test_entropy_command(capsys):
    assert main(["entropy", "--prover", "classical-baseline", "--trials", "50",
                 "--contexts", "3", "--replays", "10", "--seed", SEED]) == 0
    out = capsys.readouterr().out
    assert "h_min" in out
    assert "WARNING" not in out


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--triples", "5", "--seed", SEED]) == 0
    assert "oracle check passed" in capsys.readouterr().out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 7, "prover": "classical-baseline",
                               "seed": SEED}))
    assert main(["poq", "--config", str(cfg)]) == 0
    assert "/7 =" in capsys.readouterr().out
    assert main(["poq", "--config", str(tmp_path / "missing.json")]) == USAGE_EXIT


def test_config_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 7, "prover": "classical-baseline",
                               "seed": SEED}))
    assert main(["poq", "--config", str(cfg), "--trials", "9"]) == 0
    assert "9 = " in capsys.readouterr().out


def test_config_before_subcommand(tmp_path, capsys):
    """--config is a top-level flag, so it may precede the subcommand; a key
    that names no flag of the subcommand is a usage error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 7, "prover": "classical-baseline",
                               "seed": SEED}))
    assert main(["--config", str(cfg), "poq"]) == 0
    assert "/7 =" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trials": 7, "ell": 3}))
    assert main(["--config", str(bad), "poq"]) == USAGE_EXIT


def test_config_path_equal_to_a_flag_value(tmp_path, monkeypatch, capsys):
    """A config path that reads like another flag's value leaves that value
    in place."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "7").write_text(json.dumps({"prover": "classical-baseline",
                                            "seed": SEED}))
    assert main(["poq", "--config", "7", "--trials", "7"]) == 0
    assert "/7 =" in capsys.readouterr().out


def test_serve_and_connect_commands(capsys):
    import socket
    import time
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()
    codes = {}

    def run_server():
        codes["serve"] = main(["serve", "--port", str(port), "--sessions",
                               "3", "--seed", SEED])

    t = threading.Thread(target=run_server)
    t.start()
    # refused connections do not consume server sessions, so retry until
    # the listener is up and all three sessions run
    rc = None
    for _ in range(200):
        rc = main(["connect", "--port", str(port), "--sessions", "3",
                   "--strategy", "classical-baseline", "--seed", SEED])
        if rc == 0:
            break
        time.sleep(0.05)
    t.join()
    assert rc == 0
    assert codes["serve"] == 0
    out = capsys.readouterr().out
    assert "sessions complete" in out
    assert "classical-baseline: " in out


def test_parser_subcommands_exist():
    parser = build_parser()
    args = parser.parse_args(["poq", "--trials", "3"])
    assert args.command == "poq"
    args = parser.parse_args(["connect", "--strategy", "classical-baseline"])
    assert args.command == "connect"
