"""rotated-tcf benchmark: one run of one workload.

    python3 perfbench/run.py --workload poq-honest --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the run times ops for `--seconds` and reports the
end-to-end metrics, its times scaled by host speed (see hostspeed.py).
With `--trace 1` it times the first half of the window as usual and the
second half with every layer's public functions wrapped in spans (see
layers.py), and reports the per-layer metrics, the share of op time the
spans leave unexplained, and the traced throughput against the untraced
one.  Either way it checks the outputs, including
the golden digest of each workload's output at the default seed, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else it prints, plus provenance, sample counts and (traced) the
spans, is written under perfbench/out/.  The exit code is 0 only when
every check held.
"""
import time

_T0 = time.perf_counter()   # setup_s counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
# setup_s is the median over this process and SETUP_SAMPLES - 1 fresh ones,
# each scaled by the kernel times KERNEL_SAMPLES taken right after it.
SETUP_SAMPLES = 7
KERNEL_SAMPLES = 5
CHILD_TIMEOUT = 60


def _import_program() -> None:
    pkg = ROOT / "src" / "rotated_tcf" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"perfbench: {pkg.relative_to(ROOT)} not found; "
                         "run from the root of a rotated-tcf checkout")
    sys.path.insert(0, str(ROOT / "src"))


_import_program()

from rotated_tcf.cli import DEFAULT_SEED  # noqa: E402
from rotated_tcf.params import desk_preset  # noqa: E402
from rotated_tcf.sampling import RngStream, gaussian_table  # noqa: E402

import numpy as np  # noqa: E402
import hostspeed  # noqa: E402
from layers import LAYER_UNITS, instrument, layer_metrics  # noqa: E402
from spans import Tracer, percentile  # noqa: E402
from workloads import WORKLOADS, Ops, limit  # noqa: E402

END_TO_END_UNITS = {
    "scaled_ops_per_s": "1/s", "scaled_op_p50_ms": "ms",
    "scaled_op_p90_ms": "ms", "scaled_cpu_ms_per_op": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# The same four figures unscaled: printed and kept in the report only,
# being as unsteady as the host (see hostspeed.py).
RAW_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "cpu_ms_per_op": "ms", "host_kernel_ms": "ms", "setup_s": "s"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print {"setup_s": ..., "kernel_ms": ...} and exit: the
    # extra set-up samples
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def seed_stream(seed: int) -> RngStream:
    """The workload inputs come from this stream and nothing else."""
    return RngStream(DEFAULT_SEED).derive("perfbench", seed)


def setup(args):
    """Everything before the first timed op; returns (workload, stream)."""
    params = desk_preset()
    gaussian_table(params.sigma)
    workload = WORKLOADS[args.workload](params)
    for _ in range(3):
        hostspeed.kernel()
    stream = seed_stream(args.seed).derive(args.workload)
    warm = Ops()
    workload.run(stream.derive("warmup"), warm,
                 limit(warm, workload.warmup_ops))
    workload.verify(warm)
    if warm.failed:
        workload.close()
        raise SystemExit(f"perfbench: warm-up failed: {warm.errors}")
    return workload, stream


def window(workload, stream, seconds: float, tracer=None) -> dict:
    """Run ops back to back for `seconds`, gauging host speed between
    them; returns the Ops log and the window's wall and CPU time, less
    the gauge's."""
    gauge = hostspeed.Gauge()
    ops = Ops(tracer, gauge)
    deadline = time.perf_counter() + seconds
    cpu0 = time.process_time()
    start = time.perf_counter()
    gauge.poll()
    ops.start()
    workload.run(stream, ops, lambda: 0 if time.perf_counter() >= deadline
                 else 1 << 30)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    ops.stop()
    return {"ops": ops, "gauge": gauge, "wall": wall - gauge.wall,
            "cpu": cpu - gauge.cpu}


def timings(w: dict) -> dict:
    """A window's throughput, latency percentiles and CPU per op, raw and
    scaled by host speed: each op by the gauge's samples around it, and
    the time between ops by the window's median sample."""
    ops, gauge = w["ops"], w["gauge"]
    n = ops.count
    lat_ms = [x * 1e3 for x in ops.latencies]
    scaled_ms = [x * hostspeed.REF_MS / gauge.local_ms(end)
                 for x, end in zip(lat_ms, ops.ends)]
    between_ms = w["wall"] * 1e3 - sum(lat_ms)
    scaled_wall_ms = (sum(scaled_ms) + between_ms * hostspeed.REF_MS
                      / gauge.median_ms())
    factor = scaled_wall_ms / (w["wall"] * 1e3)
    return {
        "ops_per_s": n / w["wall"],
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "cpu_ms_per_op": w["cpu"] * 1e3 / n,
        "host_kernel_ms": gauge.median_ms(),
        "scaled_ops_per_s": n * 1e3 / scaled_wall_ms,
        "scaled_op_p50_ms": percentile(scaled_ms, 50),
        "scaled_op_p90_ms": percentile(scaled_ms, 90),
        "scaled_cpu_ms_per_op": w["cpu"] * 1e3 * factor / n,
        "factor": factor,
    }


def kernel_ms() -> float:
    """Host speed right now: the median of KERNEL_SAMPLES kernel times."""
    times = []
    for _ in range(KERNEL_SAMPLES):
        start = time.perf_counter()
        hostspeed.kernel()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def setup_samples(args, own: dict) -> list[dict]:
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def golden(workload, tracer=None) -> dict:
    """Digest of the workload's output at the default seed; under tracing
    when `tracer` is given, which must not change it."""
    restore = instrument(tracer) if tracer is not None else None
    ops = Ops()
    try:
        workload.golden_lines(RngStream(DEFAULT_SEED).derive(workload.name),
                              ops)
    finally:
        if restore is not None:
            restore()
    workload.verify(ops)
    expected = json.loads(GOLDEN.read_text())["sha256"].get(workload.name)
    return {"ops": ops, "expected": expected, "observed": ops.digest(),
            "match": ops.digest() == expected}


def end_to_end(times: dict, n: int, setups: list[dict],
               rss_mb: float) -> dict:
    """The end-to-end metrics; setup_s is scaled by host speed like the
    times, each set-up by the kernel times taken right after it."""
    metrics = {k: (times[k], n) for k in END_TO_END_UNITS if k in times}
    metrics["setup_s"] = (statistics.median(
        s["setup_s"] * hostspeed.REF_MS / s["kernel_ms"] for s in setups),
        len(setups))
    metrics["peak_rss_mb"] = (rss_mb, 1)
    return metrics


def provenance(args) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit,
        "transport": "loopback (127.0.0.1), not a real link"
                     if args.workload == "tcp-loopback" else "in-process",
        "loop": "closed, one client",
    }


def write_spans(path: Path, tracer: Tracer, t0: float) -> None:
    """One JSON array per span: [thread, name, op, parent, start_us, end_us],
    times from the start of the traced window."""
    with open(path, "w") as fh:
        for log in tracer.threads():
            for name, op, parent, start, end in log.spans:
                fh.write(json.dumps([log.thread, name, op, parent,
                                     round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3)]) + "\n")


def traced_windows(args, workload, stream, report: dict):
    """An untraced half window, then a traced one; returns both windows and
    the per-layer metrics, and notes the span table and file in `report`."""
    plain = window(workload, stream.derive("timed"), args.seconds / 2)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        t0 = time.perf_counter()
        traced = window(workload, stream.derive("traced"), args.seconds / 2,
                        tracer)
    finally:
        restore()
    layers, table = layer_metrics(tracer)
    if plain["ops"].count and traced["ops"].count:
        times = timings(traced)
        layers["trace.ops_ratio"] = (times["scaled_ops_per_s"]
                                     / timings(plain)["scaled_ops_per_s"])
        # layer times scaled by host speed like the end-to-end ones
        for name, unit in LAYER_UNITS.items():
            if unit == "us":
                layers[name] *= times["factor"]
        report["host_speed_factor"] = times["factor"]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    write_spans(spans_path, tracer, t0)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["span_table"] = table
    metrics = {k: (v, traced["ops"].count) for k, v in layers.items()}
    return [plain, traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the whole run.  The TCP workload's two threads take turns
    # (each waits on the other's reply), and on a shared virtual machine
    # waking an idle second CPU for each turn takes as long as the host's
    # load makes it; on one CPU a turn is a local switch.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload, stream = setup(args)
    own_setup = {"setup_s": time.perf_counter() - _T0,
                 "kernel_ms": kernel_ms()}
    if args.setup_only:
        workload.close()
        print(json.dumps(own_setup))
        return 0

    report = {}
    try:
        if args.trace:
            windows, metrics = traced_windows(args, workload, stream, report)
        else:
            windows = [window(workload, stream.derive("timed"), args.seconds)]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for w in windows:
            workload.verify(w["ops"])
        gold = golden(workload, Tracer() if args.trace else None)
    finally:
        workload.close()
    if any(w["ops"].count == 0 for w in windows):
        raise SystemExit("perfbench: no op completed: "
                         f"{[e for w in windows for e in w['ops'].errors]}")
    raw = {}
    if not args.trace:
        times = timings(windows[0])
        setups = setup_samples(args, own_setup)
        metrics = end_to_end(times, windows[0]["ops"].count, setups, rss_mb)
        times["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        raw = {k: times[k] for k in RAW_UNITS}

    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    all_ops = [w["ops"] for w in windows] + [gold["ops"]]
    attempted = sum(w["ops"].attempted for w in windows)
    failed = sum(o.failed for o in all_ops) + (not gold["match"])
    correct = failed == 0

    report.update({
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": RAW_UNITS[k]}
                        for k, v in raw.items()},
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "errors": [e for o in all_ops for e in o.errors],
        "output": [{"lines": w["ops"].lines, "bytes": w["ops"].out_bytes,
                    "sha256": w["ops"].digest()} for w in windows],
        "golden": {k: gold[k] for k in ("expected", "observed", "match")},
    })
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {json.dumps(report['provenance'])}")
    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']} "
              f"(n={m['samples']})")
    for name, m in report["raw_metrics"].items():
        print(f"{args.workload} raw {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio {report['fail_ratio']:.6g} "
          f"(n={attempted}); golden digest "
          f"{'matches' if gold['match'] else 'DIFFERS: ' + gold['observed']}")
    for err in report["errors"]:
        print(f"# error: {err}")
    print(f"# report: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
