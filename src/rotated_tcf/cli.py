"""Command-line harness: experiments, oracle checks, and network roles.

Exit codes: 0 success, 1 a session or check failed, 2 usage error, 3 a
--assert-range threshold failed.
The master seed comes from --seed, the ROTATED_TCF_SEED environment
variable, or a fixed default, in that order; every experiment is fully
determined by (arguments, seed).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter

import numpy as np

from . import params as params_mod
from . import protocol_q, puzzle, randomness, rsp
from .network import (SessionError, open_server_socket, prover_session,
                      serve_sessions)
from .protocol_q import PROVERS
from .sampling import RngStream
from .stats import Stats
from .transcripts import CSV_HEADER, stats_csv_row, transcript_to_json

DEFAULT_SEED = "8b9d5d0a" * 8

USAGE_EXIT = 2
ASSERT_EXIT = 3


def _resolve_seed(arg: str | None) -> str:
    """The master seed, lower-cased for the CSV; RngStream checks its form."""
    seed = arg or os.environ.get("ROTATED_TCF_SEED") or DEFAULT_SEED
    return seed.lower()


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_EXIT


def _resolve_params(args) -> params_mod.Params:
    """The desk preset, or an explicit parameter set at its lambda."""
    desk = params_mod.desk_preset()
    if args.n is None and {args.q, args.sigma, args.c, args.eps} == {None}:
        return desk
    if None not in (args.n, args.q, args.sigma):
        return params_mod.Params(lam=desk.lam, n=args.n, q=args.q,
                                 sigma=args.sigma)
    if None not in (args.n, args.c, args.eps):
        return params_mod.select_params(args.n, args.c, args.eps)
    raise ValueError(
        "explicit parameters need either (--n --q --sigma) or (--n --c --eps)")


def _add_params(sub):
    sub.add_argument("--n", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--c", type=float)
    sub.add_argument("--eps", type=float)


def float_pair(text: str) -> tuple:
    lo, hi = map(float, text.split(","))  # a ValueError is a usage error
    if not lo <= hi:  # NaN fails it too: no estimate lands in the range
        raise argparse.ArgumentTypeError(f"need LO <= HI, got {text}")
    return lo, hi


def positive_int(text: str) -> int:
    if int(text) < 1:  # a ValueError is a usage error too
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _add_seed(sub):
    sub.add_argument("--seed",
                     help="64 hex chars; env ROTATED_TCF_SEED is the fallback")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotated-tcf",
        description="Claw-state protocol experiments over LWE")
    parser.add_argument("--config", help="JSON file whose keys mirror the flags")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="print the resolved parameter set")
    _add_params(p)

    p = subs.add_parser("poq", help="run the two-round quantumness test")
    _add_params(p)
    _add_seed(p)
    p.add_argument("--out", help="append a stats CSV row to this file")
    p.add_argument("--emit-transcripts",
                   help="write JSON-lines transcripts here")
    p.add_argument("--trials", type=positive_int, default=2000)
    p.add_argument("--prover", choices=sorted(PROVERS), default="honest")
    p.add_argument("--assert-range", metavar="LO,HI", type=float_pair,
                   help="exit 3 unless the estimate lands in [LO, HI]")

    p = subs.add_parser("rsp", help="blind single-qubit preparation runs")
    _add_params(p)
    _add_seed(p)
    p.add_argument("--alpha", type=int, default=None,
                   help="fixed phase numerator; default draws fresh per run")
    p.add_argument("--trials", type=positive_int, default=2000)
    p.add_argument("--zero-noise", action="store_true",
                   help="force e = 0 (exactness check)")
    p.add_argument("--sign-convention", choices=["additive", "subtractive"],
                   default="additive")

    p = subs.add_parser("puzzle", help="threshold repetition of the 1-of-2 puzzle")
    _add_params(p)
    _add_seed(p)
    p.add_argument("--out", help="append a stats CSV row to this file")
    p.add_argument("--ell", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--solver", choices=sorted(PROVERS), default="honest")

    p = subs.add_parser("entropy", help="min-entropy diagnostics for a prover")
    _add_params(p)
    _add_seed(p)
    p.add_argument("--prover", choices=sorted(PROVERS), default="honest")
    p.add_argument("--trials", type=positive_int, default=2000)
    p.add_argument("--contexts", type=int, default=50)
    p.add_argument("--replays", type=int, default=100)

    p = subs.add_parser("serve", help="run the verifier over TCP")
    _add_params(p)
    _add_seed(p)
    p.add_argument("--out", help="append a stats CSV row to this file")
    p.add_argument("--emit-transcripts",
                   help="write JSON-lines transcripts here")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7877)
    p.add_argument("--sessions", type=positive_int, default=100)
    p.add_argument("--witness-channel", action="store_true",
                   help="ship the simulation witness (honest prover only)")

    p = subs.add_parser("connect", help="run a prover against a TCP verifier")
    _add_seed(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7877)
    p.add_argument("--sessions", type=positive_int, default=100)
    p.add_argument("--strategy", choices=sorted(PROVERS), default="classical-baseline")

    p = subs.add_parser("oracle-check",
                        help="cross-check the measurement simulator against "
                             "a dense statevector on tiny instances")
    _add_seed(p)
    p.add_argument("--triples", type=positive_int, default=50,
                   help="random triples per (n, q), capped at 200")
    return parser


def _write_outputs(args, params, prover_name, stats, seed):
    if args.out:
        new = not os.path.exists(args.out)
        with open(args.out, "a") as fh:
            if new:
                fh.write(CSV_HEADER + "\n")
            fh.write(stats_csv_row(params.preset_name, prover_name, stats,
                                   seed) + "\n")


def _transcript_file(args):
    """The --emit-transcripts file, open for writing, or a context of None
    without it.  `poq` and `serve` write each line as its trial or session
    ends, and keep no transcript."""
    return (open(args.emit_transcripts, "w") if args.emit_transcripts
            else contextlib.nullcontext())


def cmd_params(args) -> int:
    params = _resolve_params(args)
    print(json.dumps(params.describe(), indent=2))
    return 0


def cmd_poq(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("poq", args.prover)
    prover = PROVERS[args.prover]()
    with _transcript_file(args) as fh:
        sink = (None if fh is None else
                lambda t: fh.write(transcript_to_json(t) + "\n"))
        stats = protocol_q.run_experiment(params, prover, args.trials, stream,
                                          transcript_sink=sink)
    print(f"{params.preset_name} {args.prover}: {stats.summary()}")
    _write_outputs(args, params, args.prover, stats, seed)
    if args.assert_range:
        lo, hi = args.assert_range
        if not lo <= stats.estimate <= hi:
            print(f"ASSERT FAILED: {stats.estimate:.4f} outside [{lo}, {hi}]")
            return ASSERT_EXIT
    return 0


def cmd_rsp(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    aborts, distances, noise_l1 = rsp.run_rsp_experiment(
        params, args.trials, RngStream(seed).derive("rsp"), alpha=args.alpha,
        sign_convention=args.sign_convention,
        force_zero_noise=args.zero_noise)
    kept = args.trials - aborts
    mean_td = sum(distances) / kept if kept else float("nan")
    mean_l1 = sum(noise_l1) / kept if kept else float("nan")
    bound = 4 * np.pi * params.m * params.sigma / params.q
    print(f"runs={args.trials} aborts={aborts} "
          f"mean_trace_distance={mean_td:.3e} (bound {bound:.3e}) "
          f"mean_noise_l1={mean_l1:.1f} (bound {2 * params.m * params.sigma:.1f})")
    return 0


def cmd_puzzle(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("puzzle", args.solver)
    stats = puzzle.repetition_experiment(params, args.ell, args.alpha,
                                         args.runs, stream,
                                         solver=args.solver)
    print(f"ell={args.ell} alpha={args.alpha} solver={args.solver}: "
          f"pass rate {stats.summary()}")
    _write_outputs(args, params, f"puzzle-{args.solver}", stats, seed)
    return 0


def cmd_entropy(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("entropy", args.prover)
    prover = PROVERS[args.prover]()
    report = randomness.score_entropy_report(prover, params, args.trials,
                                             stream, contexts=args.contexts,
                                             replays=args.replays)
    for line in report.lines():
        print(line)
    return 0


def cmd_serve(args) -> int:
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("network")
    wins, failed = 0, Counter()
    with open_server_socket(args.host, args.port) as srv, \
            _transcript_file(args) as fh:
        host, port = srv.getsockname()
        print(f"verifier listening on {host}:{port} for {args.sessions} "
              "sessions")
        for result in serve_sessions(srv, params, stream, args.sessions,
                                     witness_channel=args.witness_channel):
            if isinstance(result, SessionError):
                failed[result.code] += 1
                continue
            wins += result.success
            if fh is not None:
                fh.write(transcript_to_json(result) + "\n")
    stats = Stats(successes=wins, trials=args.sessions)
    print(f"sessions complete: {stats.summary()}")
    for code, count in sorted(failed.items()):
        print(f"sessions failed ({code}): {count}")
    _write_outputs(args, params, "network-verifier", stats, seed)
    return 1 if failed else 0


def cmd_connect(args) -> int:
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("network")
    strategy = PROVERS[args.strategy]()
    wins = 0
    for i in range(args.sessions):
        try:
            result = prover_session(args.host, args.port, strategy,
                                    stream.derive("trial", i))
        except SessionError as exc:
            print(f"error: session {i} failed ({exc.code})", file=sys.stderr)
            return 1
        wins += result["success"]
    print(f"{args.strategy}: {wins}/{args.sessions} sessions succeeded")
    return 0


def cmd_oracle_check(args) -> int:
    from .ghz import oracle_equivalence_check
    seed = _resolve_seed(args.seed)
    gen = RngStream(seed).derive("oracle").gen
    triples = min(args.triples, 200)
    worst_tvd = 0.0
    for n, q in ((1, 3), (1, 5), (2, 3), (2, 5)):
        params = params_mod.tiny_params(n, q)
        for _ in range(triples):
            x_one = gen.integers(0, q, size=n)
            x_zero = gen.integers(0, q, size=n)
            a = gen.integers(0, q, size=n)
            ok, tvd = oracle_equivalence_check(x_one, x_zero, a, params)
            if not ok:
                print(f"FAIL: simulator/oracle mismatch at n={n} q={q}")
                return 1
            worst_tvd = max(worst_tvd, tvd)
    print(f"oracle check passed: {4 * triples} instances, "
          f"worst TVD {worst_tvd:.2e}")
    return 0


COMMANDS = {
    "params": cmd_params,
    "poq": cmd_poq,
    "rsp": cmd_rsp,
    "puzzle": cmd_puzzle,
    "entropy": cmd_entropy,
    "serve": cmd_serve,
    "connect": cmd_connect,
    "oracle-check": cmd_oracle_check,
}


def _apply_config(argv: list | None) -> list:
    """Take `--config PATH` out of argv (None: sys.argv[1:]) and splice
    the file's keys in as flags right after the subcommand, so flags on
    the command line, parsed later, still win.  Returns the new argv."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    flags = []
    for key, value in config.items():
        if value is True:
            flags.append(f"--{key}")
        elif value is not False and value is not None:
            flags.extend([f"--{key}", str(value)])
    # with --config taken out, the subcommand is argv's first element
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_apply_config(argv))
        return COMMANDS[args.command](args)
    except SystemExit as exc:   # argparse's own: 2, or 0 after --help
        return USAGE_EXIT if exc.code not in (0, None) else 0
    except (ValueError, OverflowError, OSError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
