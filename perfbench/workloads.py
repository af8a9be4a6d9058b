"""The benchmark's four workloads at the desk preset.

Each workload runs ops back to back (a closed loop with one client) until
its budget says stop, and reports every op to an `Ops` log: the op's
latency, its JSON-lines output, and whether its own correctness check
held.  Checks that need the whole run (win and pass rates) and checks too
costly to run inside the timed loop (replaying TCP sessions in process)
run after it, through `verify`.

All calls into the program go through module attributes
(`protocol_q.run_experiment`, `network.prover_session`, ...), so the
wrappers that the traced run installs see them.
"""
from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import Counter
from time import perf_counter

from rotated_tcf import network, protocol_q, puzzle, rsp, transcripts
from rotated_tcf.sampling import sample_bits
from rotated_tcf.stats import wilson_ci

COS2_PI_8 = math.cos(math.pi / 8) ** 2
# Width of the Wilson bands, in standard deviations: wide enough that a
# correct program fails a band about once in two million runs, narrow
# enough to tell the honest device (0.854) from the classical 3/4.
BAND_Z = 5.0
LOOPBACK = "127.0.0.1"
SESSION_TIMEOUT = 10.0


class Ops:
    """One window of ops: latencies, output digest and failures."""

    def __init__(self, tracer=None, gauge=None):
        self.tracer = tracer
        self.gauge = gauge                  # a hostspeed.Gauge, or None
        self.latencies: list[float] = []
        self.ends: list[float] = []
        self.failed = 0
        self.raised = 0
        self.errors: list[str] = []
        self.lines = 0
        self.out_bytes = 0
        self.tally: Counter = Counter()     # what the workload's checks count
        self.replay: list = []              # what verify() replays
        self._digest = hashlib.sha256()
        self._mark = 0.0

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return self.count + self.raised

    def start(self) -> None:
        self._mark = perf_counter()
        if self.tracer is not None:
            self.tracer.begin_op(self.count)

    def done(self) -> None:
        """The current op completed; the next one starts now, after the
        host-speed gauge's sample if one is due."""
        now = perf_counter()
        self.latencies.append(now - self._mark)
        self.ends.append(now)
        if self.tracer is not None:
            self.tracer.end_op()
        if self.gauge is not None:
            self.gauge.poll()
        self._mark = perf_counter()
        if self.tracer is not None:
            self.tracer.begin_op(self.count)

    def stop(self) -> None:
        if self.tracer is not None:
            self.tracer.discard_op()

    def emit(self, line: str, ok: bool = True) -> None:
        data = line.encode() + b"\n"
        self._digest.update(data)
        self.lines += 1
        self.out_bytes += len(data)
        if not ok:
            self.fail(f"check failed: {line}")

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why[:300])

    def error(self, exc: BaseException) -> None:
        """An op raised: it counts as attempted and failed."""
        self.raised += 1
        self.fail(f"{type(exc).__name__}: {exc}")

    def digest(self) -> str:
        return self._digest.hexdigest()


def limit(ops: Ops, count: int):
    """A budget of `count` ops in all."""
    return lambda: count - ops.count


def _band(successes: int, trials: int, target: float):
    lo, hi = wilson_ci(successes, trials, z=BAND_Z)
    return lo <= target <= hi, f"{successes}/{trials} vs {target:.6f}"


class Workload:
    name = ""
    warmup_ops = 1
    golden_ops = 1

    def __init__(self, params):
        self.params = params

    def golden_lines(self, stream, ops: Ops) -> None:
        """The output pinned by the golden digest: the first ops at the
        default seed."""
        self.run(stream, ops, limit(ops, self.golden_ops))

    def verify(self, ops: Ops) -> None:
        pass

    def close(self) -> None:
        pass


class PoqHonest(Workload):
    """`run_experiment` with the honest quantum prover; one op is one
    trial, serialised to a JSON line in memory."""

    name = "poq-honest"
    chunk = 256     # trials per run_experiment call
    warmup_ops = 4
    golden_ops = 16

    def __init__(self, params):
        super().__init__(params)
        self.prover = protocol_q.HonestQuantumProver()

    def run(self, stream, ops: Ops, budget) -> None:
        index = 0
        while (n := min(self.chunk, budget())) > 0:
            def sink(t):
                ops.emit(transcripts.transcript_to_json(t))
                ops.tally["wins"] += int(t.success)
                ops.done()
            before = ops.count
            try:
                protocol_q.run_experiment(self.params, self.prover, n,
                                          stream.derive("chunk", index),
                                          transcript_sink=sink)
            except Exception as exc:    # noqa: BLE001 - counted, reported
                ops.error(exc)
                if ops.count == before:
                    break
            index += 1

    def verify(self, ops: Ops) -> None:
        target = COS2_PI_8 - self.params.completeness_error()
        ok, detail = _band(ops.tally["wins"], ops.count, target)
        if not ok:
            ops.fail(f"honest win rate outside band: {detail}")


class PuzzleBaseline(Workload):
    """`threshold_repetition` (ell=50, alpha=0.8) with the classical
    baseline solver; one op is one repetition run of 50 instances."""

    name = "puzzle-baseline"
    ell = 50
    alpha = 0.8
    solver = "classical-baseline"
    warmup_ops = 1
    golden_ops = 4

    def _repetition(self, stream) -> bool:
        return puzzle.threshold_repetition(self.params, self.ell, self.alpha,
                                           stream, solver=self.solver)

    def run(self, stream, ops: Ops, budget) -> None:
        index = 0
        while budget() > 0:
            try:
                passed = self._repetition(stream.derive("run", index))
            except Exception as exc:    # noqa: BLE001 - counted, reported
                ops.error(exc)
                break
            ops.tally["passes"] += int(passed)
            ops.done()
            ops.emit(json.dumps({"run": index, "passed": bool(passed)}))
            index += 1

    def golden_lines(self, stream, ops: Ops) -> None:
        """The repetition verdicts plus each instance's ciphertext and
        verdict, replayed on the streams threshold_repetition uses, so the
        digest covers key generation and the shared challenge as well."""
        for index in range(self.golden_ops):
            rstream = stream.derive("run", index)
            passed = self._repetition(rstream)
            b_prime = int(sample_bits(1, rstream.derive("challenge"))[0])
            verified = 0
            for i in range(self.ell):
                inst = rstream.derive("instance", i)
                p, k, witness = puzzle.puzzle_G(self.params,
                                                inst.derive("gen"))
                verdict = puzzle.solve_one(p, k, witness, b_prime,
                                           inst.derive("solve"),
                                           solver=self.solver)
                verified += verdict
                ops.emit(json.dumps({"run": index, "instance": i,
                                     "w": str(p.ct.w), "verdict": verdict}))
            ok = passed == (verified >= self.alpha * self.ell)
            ops.tally["passes"] += int(passed)
            ops.done()
            ops.emit(json.dumps({"run": index, "passed": bool(passed),
                                 "verified": verified}), ok)

    def verify(self, ops: Ops) -> None:
        # b' = 0 makes every baseline instance verify, b' = 1 about half,
        # so a run passes about when the shared challenge bit is 0.
        ok, detail = _band(ops.tally["passes"], ops.count, 0.5)
        if not ok:
            ops.fail(f"baseline pass rate outside band: {detail}")


class RspBlind(Workload):
    """`run_rsp_once` with alpha drawn from each run's stream; one op is one
    client/server exchange."""

    name = "rsp-blind"
    warmup_ops = 4
    golden_ops = 16

    def __init__(self, params):
        super().__init__(params)
        self.bound = 4 * math.pi * params.m * params.sigma / params.q

    def run(self, stream, ops: Ops, budget) -> None:
        index = 0
        while budget() > 0:
            rstream = stream.derive("run", index)
            try:
                alpha = int(rstream.derive("alpha").gen.integers(
                    0, self.params.q))
                outcome, beta, _ = rsp.run_rsp_once(self.params, alpha,
                                                    rstream)
                if outcome.aborted:
                    line = {"run": index, "alpha": str(alpha),
                            "aborted": True}
                    ok = True
                else:
                    td = rsp.trace_distance(beta, outcome.target)
                    line = {"run": index, "alpha": str(alpha),
                            "aborted": False, "b": outcome.b,
                            "beta": str(beta.units),
                            "target": str(outcome.target.units),
                            "trace_distance": td}
                    ok = td <= self.bound
            except Exception as exc:    # noqa: BLE001 - counted, reported
                ops.error(exc)
                break
            ops.done()
            ops.emit(json.dumps(line), ok)
            index += 1


class TcpLoopback(Workload):
    """`serve_verifier` on one thread and sequential `prover_session` calls
    on this one, over 127.0.0.1, honest prover with the witness channel
    open; one op is one session on a fresh connection."""

    name = "tcp-loopback"
    chunk = 32      # sessions per serve_verifier call
    warmup_ops = 2
    golden_ops = 4

    def __init__(self, params):
        super().__init__(params)
        self.prover = protocol_q.HonestQuantumProver()
        self.server = network.open_server_socket(LOOPBACK, 0)
        self.port = self.server.getsockname()[1]

    def _serve(self, stream, sessions: int, box: dict) -> None:
        try:
            box["result"] = network.serve_verifier(
                self.server, self.params, stream, sessions,
                witness_channel=True, timeout=SESSION_TIMEOUT)
        except Exception as exc:        # noqa: BLE001 - reported by caller
            box["error"] = exc

    def run(self, stream, ops: Ops, budget) -> None:
        index = 0
        while (n := min(self.chunk, budget())) > 0:
            cstream = stream.derive("chunk", index)
            box: dict = {}
            server = threading.Thread(target=self._serve,
                                      args=(cstream, n, box),
                                      name=f"verifier-{index}")
            server.start()
            results = []
            try:
                for i in range(n):
                    results.append(network.prover_session(
                        LOOPBACK, self.port, self.prover,
                        cstream.derive("trial", i), timeout=SESSION_TIMEOUT))
                    ops.done()
            except Exception as exc:    # noqa: BLE001 - counted, reported
                ops.error(exc)
            server.join(timeout=2 * SESSION_TIMEOUT)
            if server.is_alive() or "error" in box or len(results) < n:
                # A half-served chunk leaves the listener in an unknown
                # state: close it, which also ends a blocked accept().
                if "error" in box:
                    ops.error(box["error"])
                self.close()
                server.join()
                return
            for i, (t, result) in enumerate(zip(box["result"][1], results)):
                line = transcripts.transcript_to_json(t)
                ops.emit(line)
                # replayed in process by verify()
                ops.replay.append((cstream.derive("trial", i),
                                   hashlib.sha256(line.encode()).digest(),
                                   result))
            index += 1

    def verify(self, ops: Ops) -> None:
        """Every session must equal run_single_trial on the same stream,
        and the client must have been told the verifier's verdict."""
        for tstream, digest, result in ops.replay:
            ref = protocol_q.run_single_trial(self.params, self.prover,
                                              tstream)
            line = transcripts.transcript_to_json(ref)
            if hashlib.sha256(line.encode()).digest() != digest:
                ops.fail(f"TCP transcript differs from in-process: {line}")
            elif (result.get("success") != ref.success
                  or result.get("d") != ref.d):
                ops.fail(f"client result {result} disagrees with {line}")

    def close(self) -> None:
        self.server.close()


WORKLOADS = {w.name: w for w in (PoqHonest, PuzzleBaseline, RspBlind,
                                 TcpLoopback)}
