#!/usr/bin/env python3
"""Run the full desk-preset experiment battery through the CLI.

Usage: python scripts/run_desk_experiments.py [--trials N] [--outdir DIR]

Each experiment is one `rotated-tcf` command: the quantumness test for
every prover, blind state preparation, the puzzle repetition and the
min-entropy reports.  Writes stats.csv plus JSON-lines transcripts for the
quantumness test into DIR and prints each command's summary.  Everything
is determined by the seed, so reruns reproduce the numbers exactly.
"""
import argparse
import os
import sys

from rotated_tcf import cli


def battery(trials: int, seed: str, outdir: str) -> list[list[str]]:
    csv = os.path.join(outdir, "stats.csv")
    runs = [["poq", "--prover", name, "--trials", str(trials), "--out", csv,
             "--emit-transcripts", os.path.join(outdir, f"poq_{name}.jsonl")]
            for name in cli.PROVERS]
    runs.append(["rsp", "--trials", str(max(200, trials // 10))])
    runs += [["puzzle", "--solver", solver, "--ell", "50", "--alpha", "0.8",
              "--runs", "200", "--out", csv]
             for solver in ("honest", "classical-baseline")]
    runs += [["entropy", "--prover", name, "--trials", str(min(trials, 1000)),
              "--contexts", "20", "--replays", "50"]
             for name in ("honest", "classical-baseline")]
    return [run + ["--seed", seed] for run in runs]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", default=cli.DEFAULT_SEED)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    csv = os.path.join(args.outdir, "stats.csv")
    if os.path.exists(csv):
        os.remove(csv)      # --out appends; start the table afresh
    for argv in battery(args.trials, args.seed, args.outdir):
        print("$ rotated-tcf " + " ".join(argv), flush=True)
        rc = cli.main(argv)
        if rc:
            return rc
    print(f"wrote {csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
