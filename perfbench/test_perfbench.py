"""Tests of the benchmark itself: span, percentile and host-speed
arithmetic, the layer wrappers, and a short run of every workload.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from rotated_tcf import network, protocol_q, sampling, trapdoor  # noqa: E402
from rotated_tcf.params import desk_preset  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
from layers import LAYER_UNITS, instrument, layer_metrics  # noqa: E402
from spans import OP, TAIL, Tracer, aggregate, percentile, self_times  # noqa: E402
from workloads import Ops  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# A synthetic op of 10 s:  op [0, 10] holds a [1, 4] and c [5, 9];
# a holds b [2, 3].  Self times: op 3, a 2, b 1, c 4.
TREE = [
    [OP, 0, -1, 0.0, 10.0],
    ["a", 0, 0, 1.0, 4.0],
    ["b", 0, 1, 2.0, 3.0],
    ["c", 0, 0, 5.0, 9.0],
]


def test_self_times_on_a_span_tree():
    assert self_times(TREE) == [3.0, 2.0, 1.0, 4.0]
    # self times partition the root's interval
    assert sum(self_times(TREE)) == TREE[0][4] - TREE[0][3]


def test_aggregate_sums_calls_self_and_inclusive_time_across_threads():
    other = [["a", 1, -1, 0.0, 2.0], ["b", 1, 0, 0.5, 1.0]]
    table = aggregate([TREE, other])
    assert table[OP] == [1, 3.0, 10.0]
    assert table["a"] == [2, 2.0 + 1.5, 3.0 + 2.0]
    assert table["b"] == [2, 1.5, 1.5]
    assert table["c"] == [1, 4.0, 4.0]


@pytest.mark.parametrize("values, p, expected", [
    ([1, 2, 3, 4], 50, 2.5),
    ([1, 2, 3, 4], 90, 3.7),
    ([4, 1, 3, 2], 0, 1),
    ([4, 1, 3, 2], 100, 4),
    ([7.5], 90, 7.5),
    (list(range(1, 12)), 90, 10.0),
])
def test_percentile_interpolates_between_ranks(values, p, expected):
    assert percentile(values, p) == pytest.approx(expected)


def test_percentile_matches_numpy_linear_method():
    rng = np.random.default_rng(5)
    xs = list(rng.exponential(size=257))
    for p in (1, 25, 50, 90, 99):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_percentile_rejects_empty_input_and_bad_p():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def _gauge(samples_ms):
    """A gauge holding one kernel sample per second, of the given ms."""
    gauge = hostspeed.Gauge()
    gauge.ends = [float(t) for t in range(len(samples_ms))]
    gauge.times = [x / 1e3 for x in samples_ms]
    return gauge


def test_gauge_local_speed_is_the_median_of_the_nearest_samples():
    k = hostspeed.NEAREST
    gauge = _gauge([1] * k + [9] + [2] * (2 * k))
    assert gauge.local_ms(0.0) == pytest.approx(1.0)        # the first k
    assert gauge.local_ms(k + 0.5) == pytest.approx(2.0)    # k, 9, 2...
    assert gauge.local_ms(99.0) == pytest.approx(2.0)       # the last k
    assert gauge.median_ms() == pytest.approx(2.0)
    assert _gauge([3, 5]).local_ms(0.5) == pytest.approx(4.0)


def test_gauge_poll_samples_at_most_once_per_interval():
    gauge = hostspeed.Gauge()
    gauge.every = 3600.0
    gauge.poll()
    gauge.poll()
    assert len(gauge.times) == 1 and gauge.wall == gauge.times[0] > 0
    assert hostspeed.kernel() == hostspeed.CHECKSUM


def test_timings_scale_each_op_by_the_host_speed_around_it():
    # Four 2 ms ops on a host twice as slow as REF_MS, then four 1 ms ops
    # at REF_MS: scaled, every op takes 1 ms.  The window's 2 ms outside
    # any op is scaled by the median sample.
    ops = Ops()
    ops.latencies = [2e-3] * 4 + [1e-3] * 4
    ops.ends = [0.0, 1.0, 2.0, 3.0, 20.0, 21.0, 22.0, 23.0]
    k = hostspeed.NEAREST
    gauge = _gauge([2 * hostspeed.REF_MS] * k + [hostspeed.REF_MS] * (k + 1))
    gauge.ends = ([float(t) for t in range(k)]
                  + [20.0 + t for t in range(k + 1)])
    wall = sum(ops.latencies) + 2e-3
    times = run.timings({"ops": ops, "gauge": gauge, "wall": wall,
                         "cpu": wall})
    assert times["ops_per_s"] == pytest.approx(8 / wall)
    assert times["op_p50_ms"] == pytest.approx(1.5)
    assert times["scaled_op_p50_ms"] == pytest.approx(1.0)
    assert times["scaled_op_p90_ms"] == pytest.approx(1.0)
    scaled_wall_ms = 8 * 1.0 + 2.0 * hostspeed.REF_MS / gauge.median_ms()
    assert times["scaled_ops_per_s"] == pytest.approx(8e3 / scaled_wall_ms)
    assert times["scaled_cpu_ms_per_op"] == pytest.approx(
        scaled_wall_ms / 8)


def test_tracer_nests_spans_under_the_op_and_closes_the_tail():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1,
                       observe=lambda counts, r: counts.update(leaf=r))
    outer = tracer.wrap("outer", lambda: leaf(leaf(0)))
    tracer.begin_op(0)
    assert outer() == 2
    tracer.end_op()
    tracer.begin_op(1)
    leaf(5)                        # work after the last completed op
    tracer.discard_op()
    tracer.begin_op(2)
    tracer.discard_op()            # an empty trailing op leaves nothing
    (log,) = tracer.threads()
    names = [s[0] for s in log.spans]
    assert names == [OP, "outer", "leaf", "leaf", TAIL, "leaf"]
    parents = [s[2] for s in log.spans]
    assert parents == [-1, 0, 1, 1, -1, 4]
    assert [s[1] for s in log.spans] == [0, 0, 0, 0, 1, 1]
    assert all(s[3] <= s[4] for s in log.spans)
    assert tracer.counts()["leaf"] == 1 + 2 + 6
    own = self_times(log.spans)
    assert sum(own[:4]) == pytest.approx(log.spans[0][4] - log.spans[0][3])


def test_layer_metrics_divide_by_calls_and_ops():
    tracer = Tracer()
    invert = tracer.wrap("trapdoor.invert", lambda: None)
    for op in range(3):
        tracer.begin_op(op)
        invert()
        invert()
        tracer.end_op()
    metrics, table = layer_metrics(tracer)
    assert metrics["trapdoor.invert_calls"] == 2.0
    assert metrics["trapdoor.invert_us"] == pytest.approx(
        table["trapdoor.invert"]["self_us_per_call"])
    assert metrics["wire.codec_us"] == 0.0       # a layer never entered
    assert 0 <= metrics["trace.unexplained_share"] <= 1
    assert set(metrics) | {"trace.ops_ratio"} == set(LAYER_UNITS)


def test_instrument_times_the_program_and_restores_every_name():
    before = (protocol_q.invert, trapdoor.invert, network.socket,
              sampling.RngStream.__dict__["gen"], network.verifier_session)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert protocol_q.invert is not before[0]
        stream = sampling.RngStream(b"\x01" * 32)
        tracer.begin_op(0)
        transcript = protocol_q.run_single_trial(
            desk_preset(), protocol_q.HonestQuantumProver(), stream)
        tracer.end_op()
    finally:
        restore()
    after = (protocol_q.invert, trapdoor.invert, network.socket,
             sampling.RngStream.__dict__["gen"], network.verifier_session)
    assert all(a is b for a, b in zip(before, after))
    assert transcript.success in (True, False)
    metrics, _ = layer_metrics(tracer)
    assert metrics["trapdoor.invert_calls"] == 2.0
    assert metrics["protocol_q.two_preimage_ratio"] == 1.0
    for name in ("regev.gen_j_us", "trapdoor.gen_trap_us", "ghz.cascade_us",
                 "protocol_q.verifier_score_us", "transcripts.make_us"):
        assert metrics[name] > 0, name


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_every_workload_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.4",
                "--trace", trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "poq-honest", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
