import argparse
import importlib.util
import json
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rotated_tcf.cli import (ASSERT_EXIT, DEFAULT_SEED, USAGE_EXIT,
                             build_parser, main)
from rotated_tcf.network import (connect_prover, open_server_socket,
                                 serve_verifier)
from rotated_tcf.protocol_q import BaselineProver, run_experiment
from rotated_tcf.sampling import RngStream
from rotated_tcf.transcripts import load_transcripts, transcript_to_json

SEED = "3c" * 32
ROOT = Path(__file__).resolve().parent.parent


def test_params_command(capsys):
    assert main(["params"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["preset"] == "desk"
    assert out["q"] == str((1 << 42) + 15)


def test_params_explicit_triplet(capsys):
    assert main(["params", "--n", "2", "--q", "3001", "--sigma", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 2


def test_params_incomplete_explicit():
    assert main(["params", "--n", "2"]) == USAGE_EXIT


@pytest.mark.parametrize("flags", [
    ["--q", "101", "--sigma", "2"], ["--q", "101"], ["--sigma", "2"],
    ["--c", "1.5", "--eps", "0.1"], ["--c", "1.5"], ["--eps", "0.1"]])
def test_explicit_parameters_without_n_are_refused(capsys, flags):
    """An explicit parameter without --n is a usage error, not the preset
    with that parameter left unread."""
    assert main(["params", *flags]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(--n --q --sigma) or (--n --c --eps)" in captured.err


@pytest.mark.parametrize("flags", [
    ["--n", "2", "--q", "3001", "--sigma", "1e300"],
    ["--n", "65", "--q", "3001", "--sigma", "1"],
    ["--n", "2", "--c", "2000", "--eps", "1"],
    ["--n", "2", "--c", "1", "--eps", "1e6"]],
    ids=["huge-sigma", "n-over-bound", "sigma-overflows", "q-overflows"])
def test_params_out_of_bounds_are_usage_errors(capsys, flags):
    """A parameter set outside Params' bounds, or one whose float powers
    overflow, is a usage error: exit 2 and a one-line message."""
    assert main(["params", *flags]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--c", "2000", "--eps", "1"], ["--c", "1", "--eps", "100"],
    ["--c", "1", "--eps", "1e6"], ["--c", "1e-9", "--eps", "1e-9"]])
def test_select_params_refusal_names_c_and_eps(capsys, flags):
    """c and eps whose float powers overflow, whose q range reaches
    2**MAX_Q_BITS, or whose q range is too narrow to search, are refused
    in one line that names them, before any prime search: no errno or
    numpy text."""
    assert main(["params", "--n", "2", *flags]) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "c=" in err and "eps=" in err
    assert "Errno" not in err and "int64" not in err


_INTS = st.one_of(st.integers(-3, 100), st.integers(-10**40, 10**40))
_FLOATS = st.one_of(st.floats(-10, 100), st.floats(),
                    st.sampled_from([5e-324, 1e-9]))


def test_params_command_never_crashes(capsys):
    """Drawn --n/--q/--sigma and --n/--c/--eps, huge, tiny, negative, inf
    and nan, print a parameter set or exit 2 with a message, never a
    traceback."""
    @settings(max_examples=200, deadline=None, database=None)
    @given(n=_INTS, triplet=st.one_of(
        st.tuples(st.just("q"), _INTS, st.just("sigma"), _FLOATS),
        st.tuples(st.just("c"), _FLOATS, st.just("eps"), _FLOATS)))
    def run(n, triplet):
        first, a, second, b = triplet
        code = main(["params", f"--n={n}", f"--{first}={a!r}",
                     f"--{second}={b!r}"])
        captured = capsys.readouterr()
        assert code in (0, USAGE_EXIT)
        if code == 0:
            assert json.loads(captured.out)["n"] == n
        else:
            assert captured.out == "" and "Traceback" not in captured.err

    run()


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


def test_assert_range_is_checked_before_the_run(tmp_path, monkeypatch):
    from rotated_tcf import protocol_q

    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(protocol_q, "run_experiment", no_run)
    out = tmp_path / "f.csv"
    # a range with LO > HI, or a NaN end, is one no estimate lands in
    for bounds in ("banana", "0.9,0.1", "nan,1", "0,nan"):
        assert main(["poq", "--assert-range", bounds,
                     "--out", str(out)]) == USAGE_EXIT
        assert not out.exists()


def test_poq_rejects_zero_trials(capsys):
    assert main(["poq", "--trials", "0"]) == USAGE_EXIT
    # a sigma that is not finite is refused before any sampler sizes a table
    assert main(["poq", "--n", "2", "--q", "3001", "--sigma", "inf",
                 "--trials", "1"]) == USAGE_EXIT
    assert "Traceback" not in capsys.readouterr().err


def test_refused_poq_keeps_its_transcript_file(tmp_path):
    """--trials below 1 is refused when the flags are parsed, before the
    --emit-transcripts file is opened for writing."""
    f = tmp_path / "t.jsonl"
    f.write_bytes(b"kept\n")
    assert main(["poq", "--trials", "0",
                 "--emit-transcripts", str(f)]) == USAGE_EXIT
    assert f.read_bytes() == b"kept\n"


def test_poq_outputs(tmp_path, capsys, desk):
    csv = tmp_path / "stats.csv"
    jsonl = tmp_path / "t.jsonl"
    assert main(["poq", "--prover", "classical-baseline", "--trials", "20",
                 "--seed", SEED, "--out", str(csv),
                 "--emit-transcripts", str(jsonl)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("preset,prover,")
    assert lines[1].split(",")[1] == "classical-baseline"
    assert len(list(load_transcripts(jsonl, desk))) == 20
    # written trial by trial, the file is what an in-process run saves
    held = []
    run_experiment(desk, BaselineProver(), 20,
                   RngStream(SEED).derive("poq", "classical-baseline"),
                   transcript_sink=held.append)
    assert jsonl.read_text() == "".join(transcript_to_json(t) + "\n"
                                        for t in held)


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


def test_rsp_sign_conventions(capsys, monkeypatch):
    """At the default seed the additive convention lands each qubit within
    the printed bound of its target, and the subtractive one, the record
    of a convention that does not steer the qubit, lands far outside."""
    monkeypatch.delenv("ROTATED_TCF_SEED", raising=False)

    def mean_and_bound(*flags):
        assert main(["rsp", "--trials", "20", *flags]) == 0
        out = capsys.readouterr().out
        mean = float(out.split("mean_trace_distance=")[1].split()[0])
        return mean, float(out.split("(bound ")[1].split(")")[0])

    mean, bound = mean_and_bound()
    assert mean < bound
    mean, bound = mean_and_bound("--sign-convention", "subtractive")
    assert mean > bound


def test_puzzle_command(capsys):
    assert main(["puzzle", "--ell", "3", "--runs", "4", "--seed", SEED]) == 0
    assert "pass rate" in capsys.readouterr().out
    assert main(["puzzle", "--runs", "0"]) == USAGE_EXIT
    # alpha outside (3/4, cos^2(pi/8)) is a usage error
    assert main(["puzzle", "--ell", "3", "--runs", "1",
                 "--alpha", "0.95"]) == USAGE_EXIT


def test_puzzle_offers_every_registered_solver(capsys):
    from rotated_tcf.cli import PROVERS
    for solver in PROVERS:
        assert build_parser().parse_args(
            ["puzzle", "--solver", solver]).solver == solver
    assert main(["puzzle", "--solver", "classical-random", "--ell", "3",
                 "--runs", "2", "--seed", SEED]) == 0
    assert "solver=classical-random" in capsys.readouterr().out


def test_entropy_command(capsys):
    assert main(["entropy", "--prover", "classical-baseline", "--trials", "50",
                 "--contexts", "3", "--replays", "10", "--seed", SEED]) == 0
    out = capsys.readouterr().out
    assert "h_min" in out
    assert "WARNING" not in out


@pytest.mark.parametrize("flags", [["--replays", "5"], ["--contexts", "0"]])
def test_entropy_refuses_its_battery_size_before_any_trial(monkeypatch,
                                                           flags):
    from rotated_tcf import randomness

    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(randomness, "run_experiment", no_run)
    assert main(["entropy", *flags]) == USAGE_EXIT


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--triples", "5", "--seed", SEED]) == 0
    assert "oracle check passed" in capsys.readouterr().out


@pytest.mark.parametrize("triples", ["0", "-5"])
def test_oracle_check_refuses_fewer_than_one_triple(capsys, triples):
    assert main(["oracle-check", "--triples", triples]) == USAGE_EXIT
    assert "oracle check passed" not in capsys.readouterr().out


def test_oracle_check_help_names_the_cap():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert "capped at 200" in subs.choices["oracle-check"].format_help()


@pytest.mark.parametrize("command", ["serve", "connect"])
@pytest.mark.parametrize("sessions", ["0", "-3"])
def test_sessions_below_one_are_refused_before_any_socket(
        monkeypatch, capsys, command, sessions):
    from rotated_tcf import cli

    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(cli, "open_server_socket", no_socket)
    monkeypatch.setattr(cli, "prover_session", no_socket)
    assert main([command, "--sessions", sessions]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sessions" in captured.err


def test_subcommands_refuse_flags_they_ignore(tmp_path):
    """Each subcommand accepts only the flags it reads."""
    assert main(["oracle-check", "--n", "4"]) == USAGE_EXIT
    assert main(["poq", "--lam", "4"]) == USAGE_EXIT
    assert main(["params", "--lam", "4"]) == USAGE_EXIT
    out = tmp_path / "rsp.csv"
    assert main(["rsp", "--trials", "1", "--out", str(out)]) == USAGE_EXIT
    assert not out.exists()


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


def test_config_null_leaves_the_flag_out(tmp_path, monkeypatch, capsys):
    """A JSON null reads like false: the flag is left out, not given the
    value "None"."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"trials": 3, "out": None}))
    assert main(["poq", "--config", "cfg.json", "--prover",
                 "classical-baseline", "--seed", SEED]) == 0
    assert "/3 =" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_true_is_a_bare_flag_and_a_list_is_refused(tmp_path,
                                                          capsys):
    """The README's form of a config: a key set to true is a bare flag, so
    {"trials": 3, "zero-noise": true} runs what --trials 3 --zero-noise
    runs.  A config that is not a JSON object is a usage error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "zero-noise": True}))
    assert main(["rsp", "--config", str(cfg), "--seed", SEED]) == 0
    from_config = capsys.readouterr().out
    assert "mean_trace_distance=0.000e+00" in from_config
    assert main(["rsp", "--trials", "3", "--zero-noise", "--seed", SEED]) == 0
    assert capsys.readouterr().out == from_config
    cfg.write_text(json.dumps([{"trials": 3}]))
    assert main(["rsp", "--config", str(cfg)]) == USAGE_EXIT
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_desk_battery_parses(tmp_path):
    """Every command that scripts/run_desk_experiments.py runs is one that
    the CLI's parser takes, so a renamed flag breaks this test and not
    only the battery."""
    spec = importlib.util.spec_from_file_location(
        "run_desk_experiments",
        ROOT / "scripts" / "run_desk_experiments.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argvs = script.battery(50, DEFAULT_SEED, str(tmp_path))
    assert {argv[0] for argv in argvs} == {"poq", "rsp", "puzzle", "entropy"}
    for argv in argvs:
        assert build_parser().parse_args(argv).command == argv[0]
    assert list(tmp_path.iterdir()) == []


def test_serve_and_connect_commands(tmp_path, capsys, desk):
    import socket
    import time
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()
    emitted = tmp_path / "t.jsonl"
    codes = {}

    def run_server():
        codes["serve"] = main(["serve", "--port", str(port), "--sessions",
                               "3", "--seed", SEED, "--emit-transcripts",
                               str(emitted)])

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
    # written session by session, the file is what serve_verifier's list
    # saves at the same seed
    network = RngStream(SEED).derive("network")
    box = {}
    with open_server_socket("127.0.0.1", 0) as ref:
        t = threading.Thread(target=lambda: box.update(
            result=serve_verifier(ref, desk, network, 3)), daemon=True)
        t.start()
        connect_prover("127.0.0.1", ref.getsockname()[1], BaselineProver(),
                       network, 3, timeout=10)
        t.join(timeout=60)
    assert not t.is_alive()
    assert emitted.read_text() == "".join(transcript_to_json(t) + "\n"
                                          for t in box["result"][1])


def test_failed_session_is_reported_not_raised(tmp_path, capsys):
    """A quantum prover against a verifier without the witness channel:
    `connect` names the failed session and its code and exits 1; `serve`
    goes on to its next session, prints its failures by code, writes only
    the completed transcript, counts the failure as a loss and exits 1."""
    import socket
    import time
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = str(srv.getsockname()[1])
    srv.close()
    out, emitted = tmp_path / "stats.csv", tmp_path / "transcripts.jsonl"
    codes = {}

    def run_server():
        codes["serve"] = main(["serve", "--port", port, "--sessions", "2",
                               "--seed", SEED, "--out", str(out),
                               "--emit-transcripts", str(emitted)])

    t = threading.Thread(target=run_server, daemon=True)
    t.start()
    # a refused connection is a usage error (2): retry until the listener
    # is up
    for _ in range(200):
        rc = main(["connect", "--port", port, "--sessions", "1",
                   "--strategy", "honest", "--seed", SEED])
        if rc != USAGE_EXIT:
            break
        time.sleep(0.05)
    assert rc == 1
    assert main(["connect", "--port", port, "--sessions", "1",
                 "--strategy", "classical-baseline", "--seed", SEED]) == 0
    t.join(timeout=60)
    assert not t.is_alive()
    assert codes["serve"] == 1
    captured = capsys.readouterr()
    assert "error: session 0 failed (no-witness)" in captured.err
    assert "Traceback" not in captured.err
    assert "sessions failed (no-witness): 1" in captured.out
    assert len(emitted.read_text().splitlines()) == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[2] == "2" and row[3] in ("0", "1")


def test_parser_subcommands_exist():
    parser = build_parser()
    args = parser.parse_args(["poq", "--trials", "3"])
    assert args.command == "poq"
    args = parser.parse_args(["connect", "--strategy", "classical-baseline"])
    assert args.command == "connect"


def test_flag_count_is_pinned():
    """Each settable value is one more configuration to test: a new flag
    updates this count in the same change."""
    parser = build_parser()
    top = [a.dest for a in parser._actions
           if not isinstance(a, (argparse._HelpAction,
                                 argparse._SubParsersAction))]
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = [a for sub in subs.choices.values() for a in sub._actions
             if not isinstance(a, argparse._HelpAction)]
    assert top == ["config"]
    assert len(flags) == 66
