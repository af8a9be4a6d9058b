"""Command-line harness: experiments, oracle checks, and network roles.

Exit codes: 0 success, 2 usage error, 3 a --assert-range threshold failed.
The master seed comes from --seed, the ROTATED_TCF_SEED environment
variable, or a fixed default, in that order; every experiment is fully
determined by (arguments, seed).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import params as params_mod
from . import protocol_q, puzzle, randomness, rsp
from .network import open_server_socket, serve_verifier, connect_prover
from .sampling import RngStream
from .transcripts import CSV_HEADER, save_transcripts, stats_csv_row

DEFAULT_SEED = "8b9d5d0a" * 8

USAGE_EXIT = 2
ASSERT_EXIT = 3

PROVERS = {
    "honest": protocol_q.HonestQuantumProver,
    "classical-baseline": protocol_q.BaselineProver,
    "classical-random": protocol_q.RandomProver,
}


def _resolve_seed(arg: str | None) -> str:
    seed = arg or os.environ.get("ROTATED_TCF_SEED") or DEFAULT_SEED
    if len(seed) != 64 or any(c not in "0123456789abcdefABCDEF" for c in seed):
        raise SystemExit(_usage_error("seed must be 64 hex characters"))
    return seed.lower()


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_EXIT


def _resolve_params(args) -> params_mod.Params:
    explicit = args.n is not None
    if explicit and args.q is not None and args.sigma is not None:
        return params_mod.Params(lam=args.lam, n=args.n, q=args.q,
                                 sigma=args.sigma)
    if explicit and args.c is not None and args.eps is not None:
        gen = np.random.default_rng(0)
        return params_mod.select_params(args.n, args.c, args.eps, gen,
                                        lam=args.lam)
    if explicit:
        raise SystemExit(_usage_error(
            "explicit parameters need either (--n --q --sigma) or (--n --c --eps)"))
    return params_mod.get_preset(args.preset)


def _add_common(sub):
    sub.add_argument("--preset", default="desk")
    sub.add_argument("--n", type=int)
    sub.add_argument("--q", type=int)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--c", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--lam", type=int, default=4)
    sub.add_argument("--seed", help="64 hex chars; env ROTATED_TCF_SEED is the fallback")
    sub.add_argument("--out", help="append a stats CSV row to this file")
    sub.add_argument("--emit-transcripts", help="write JSON-lines transcripts here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotated-tcf",
        description="Claw-state protocol experiments over LWE")
    parser.add_argument("--config", help="JSON file whose keys mirror the flags")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="print the resolved parameter set")
    _add_common(p)

    p = subs.add_parser("poq", help="run the two-round quantumness test")
    _add_common(p)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--prover", choices=sorted(PROVERS), default="honest")
    p.add_argument("--assert-range", metavar="LO,HI",
                   help="exit 3 unless the estimate lands in [LO, HI]")

    p = subs.add_parser("rsp", help="blind single-qubit preparation runs")
    _add_common(p)
    p.add_argument("--alpha", type=int, default=None,
                   help="fixed phase numerator; default draws fresh per run")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--zero-noise", action="store_true",
                   help="force e = 0 (exactness check)")
    p.add_argument("--sign-convention", choices=["additive", "subtractive"],
                   default="additive")

    p = subs.add_parser("puzzle", help="threshold repetition of the 1-of-2 puzzle")
    _add_common(p)
    p.add_argument("--ell", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--solver", choices=["honest", "classical-baseline"],
                   default="honest")

    p = subs.add_parser("entropy", help="min-entropy diagnostics for a prover")
    _add_common(p)
    p.add_argument("--prover", choices=sorted(PROVERS), default="honest")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--contexts", type=int, default=50)
    p.add_argument("--replays", type=int, default=100)

    p = subs.add_parser("serve", help="run the verifier over TCP")
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7877)
    p.add_argument("--sessions", type=int, default=100)
    p.add_argument("--witness-channel", action="store_true",
                   help="ship the simulation witness (honest prover only)")

    p = subs.add_parser("connect", help="run a prover against a TCP verifier")
    _add_common(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7877)
    p.add_argument("--sessions", type=int, default=100)
    p.add_argument("--strategy", choices=sorted(PROVERS), default="classical-baseline")

    p = subs.add_parser("oracle-check",
                        help="cross-check the measurement simulator against "
                             "a dense statevector on tiny instances")
    _add_common(p)
    p.add_argument("--triples", type=int, default=50)
    return parser


def _write_outputs(args, params, prover_name, stats, seed, transcripts=None):
    if args.out:
        new = not os.path.exists(args.out)
        with open(args.out, "a") as fh:
            if new:
                fh.write(CSV_HEADER + "\n")
            fh.write(stats_csv_row(params.preset_name, prover_name, stats,
                                   seed) + "\n")
    if getattr(args, "emit_transcripts", None) and transcripts is not None:
        save_transcripts(args.emit_transcripts, transcripts)


def cmd_params(args) -> int:
    params = _resolve_params(args)
    print(json.dumps(params.describe(), indent=2))
    return 0


def cmd_poq(args) -> int:
    if args.trials < 1:
        return _usage_error("--trials must be >= 1")
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("poq", args.prover)
    prover = PROVERS[args.prover]()
    transcripts = [] if args.emit_transcripts else None
    sink = transcripts.append if transcripts is not None else None
    stats = protocol_q.run_experiment(params, prover, args.trials, stream,
                                      transcript_sink=sink)
    print(f"{params.preset_name} {args.prover}: {stats.summary()}")
    _write_outputs(args, params, args.prover, stats, seed, transcripts)
    if args.assert_range:
        try:
            lo, hi = (float(x) for x in args.assert_range.split(","))
        except ValueError:
            return _usage_error("--assert-range wants LO,HI")
        if not lo <= stats.estimate <= hi:
            print(f"ASSERT FAILED: {stats.estimate:.4f} outside [{lo}, {hi}]")
            return ASSERT_EXIT
    return 0


def cmd_rsp(args) -> int:
    if args.trials < 1:
        return _usage_error("--trials must be >= 1")
    params = _resolve_params(args)
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("rsp")
    from .zq import centered_abs
    aborts = 0
    distances = []
    noise_l1 = []
    for i in range(args.trials):
        run = stream.derive("run", i)
        alpha = args.alpha if args.alpha is not None else \
            int(run.derive("alpha").gen.integers(0, params.q))
        outcome, beta, state = rsp.run_rsp_once(
            params, alpha, run, sign_convention=args.sign_convention,
            force_zero_noise=args.zero_noise)
        if outcome.aborted:
            aborts += 1
            continue
        distances.append(rsp.trace_distance(outcome.target, beta))
        noise_l1.append(int(centered_abs(state.keypair.e, params.q).sum()))
    kept = args.trials - aborts
    mean_td = sum(distances) / kept if kept else float("nan")
    mean_l1 = sum(noise_l1) / kept if kept else float("nan")
    bound = 4 * np.pi * params.m * params.sigma / params.q
    print(f"runs={args.trials} aborts={aborts} "
          f"mean_trace_distance={mean_td:.3e} (bound {bound:.3e}) "
          f"mean_noise_l1={mean_l1:.1f} (bound {2 * params.m * params.sigma:.1f})")
    return 0


def cmd_puzzle(args) -> int:
    if args.runs < 1:
        return _usage_error("--runs must be >= 1")
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
    srv = open_server_socket(args.host, args.port)
    host, port = srv.getsockname()
    print(f"verifier listening on {host}:{port} for {args.sessions} sessions")
    try:
        stats, transcripts = serve_verifier(
            srv, params, stream, args.sessions,
            witness_channel=args.witness_channel)
    finally:
        srv.close()
    print(f"sessions complete: {stats.summary()}")
    _write_outputs(args, params, "network-verifier", stats, seed, transcripts)
    return 0


def cmd_connect(args) -> int:
    seed = _resolve_seed(args.seed)
    stream = RngStream(seed).derive("network")
    strategy = PROVERS[args.strategy]()
    results = connect_prover(args.host, args.port, strategy, stream,
                             args.sessions)
    wins = sum(1 for r in results if r.get("success"))
    print(f"{args.strategy}: {wins}/{len(results)} sessions succeeded")
    return 0


def cmd_oracle_check(args) -> int:
    from .ghz import oracle_equivalence_check
    from .params import tiny_params
    seed = _resolve_seed(args.seed)
    gen = RngStream(seed).derive("oracle").gen
    worst_tvd = 0.0
    checked = 0
    for n in (1, 2):
        for q in (3, 5):
            params = tiny_params(n, q)
            for _ in range(min(args.triples, 200)):
                x_one = gen.integers(0, q, size=n)
                x_zero = gen.integers(0, q, size=n)
                a = gen.integers(0, q, size=n)
                ok, tvd = oracle_equivalence_check(x_one, x_zero, a, params)
                if not ok:
                    print(f"FAIL: simulator/oracle mismatch at n={n} q={q}")
                    return 1
                worst_tvd = max(worst_tvd, tvd)
                checked += 1
    print(f"oracle check passed: {checked} instances, worst TVD {worst_tvd:.2e}")
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


def _apply_config(parser, argv: list) -> list:
    """Take `--config PATH` out of argv, wherever it stands, and install the
    file's keys as defaults of the chosen subcommand, so flags given on the
    command line still win.  Returns the rest of argv."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read config: {exc}"))
    if not isinstance(config, dict):
        raise SystemExit(_usage_error("config must be a JSON object"))
    flags = []
    for key, value in config.items():
        if value is True:
            flags.append(f"--{key}")
        elif value is not False:
            flags.extend([f"--{key}", str(value)])
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[parser.parse_args(argv).command]
    # parsing the keys as flags checks names, types and choices
    sub.set_defaults(**vars(sub.parse_args(flags)))
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_apply_config(parser, argv))
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except (ValueError, OSError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
