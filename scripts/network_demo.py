#!/usr/bin/env python3
"""Loopback TCP demo: a verifier thread serves sessions while provers connect.

Usage: python scripts/network_demo.py [--sessions N] [--strategy NAME]

With the honest strategy the witness channel is enabled so the quantum
simulator can run on the prover side; classical strategies never see it.
Also cross-checks that the networked transcripts match an in-process rerun
with the same seeds.
"""
import argparse
import sys
import threading

from rotated_tcf.cli import DEFAULT_SEED, PROVERS
from rotated_tcf.network import (connect_prover, open_server_socket,
                                 serve_verifier)
from rotated_tcf.params import desk_preset
from rotated_tcf.protocol_q import run_single_trial
from rotated_tcf.sampling import master_stream
from rotated_tcf.transcripts import transcript_to_json


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sessions", type=int, default=20)
    ap.add_argument("--strategy", choices=sorted(PROVERS),
                    default="honest")
    ap.add_argument("--seed", default=DEFAULT_SEED)
    args = ap.parse_args()

    params = desk_preset()
    strategy = PROVERS[args.strategy]()
    witness = args.strategy == "honest"
    srv = open_server_socket("127.0.0.1", 0)
    port = srv.getsockname()[1]
    print(f"verifier on 127.0.0.1:{port}, {args.sessions} sessions, "
          f"strategy {args.strategy}")
    box = {}

    def serve():
        try:
            box["result"] = serve_verifier(
                srv, params, master_stream(args.seed).derive("net"),
                args.sessions, witness_channel=witness)
        finally:
            srv.close()

    t = threading.Thread(target=serve)
    t.start()
    connect_prover("127.0.0.1", port, strategy,
                   master_stream(args.seed).derive("net"), args.sessions)
    t.join()
    stats, transcripts = box["result"]
    print(f"network run: {stats.summary()}")

    local = [run_single_trial(params, strategy,
                              master_stream(args.seed).derive("net")
                              .derive("trial", i))
             for i in range(args.sessions)]
    matches = sum(transcript_to_json(a) == transcript_to_json(b)
                  for a, b in zip(transcripts, local))
    print(f"transcripts identical to in-process rerun: "
          f"{matches}/{args.sessions}")
    return 0 if matches == args.sessions else 1


if __name__ == "__main__":
    sys.exit(main())
