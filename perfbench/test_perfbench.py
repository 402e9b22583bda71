"""The benchmark's own tests: ``python3 -m pytest perfbench``.

A tiny pass of every workload must print every metric BENCHMARK.json
names, with its unit, and check its ops; traced spans must nest, with
every child inside its parent and no negative self time.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import harness
import hostspeed
import spans

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0.5", "--trace",
         str(trace), "--tiny"],
        cwd=str(harness.ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric(workload, trace):
    result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_no_sources_exits_nonzero_without_a_result():
    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp) / "perfbench"
        bench.mkdir()
        (bench / "run.py").write_bytes((harness.HERE / "run.py").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def traced_spans():
    """Spans of a tiny traced pass of each workload, run in-process."""
    harness.prepare_process()
    import inputs
    result = {}
    scratch = harness.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in WORKLOADS:
            ctx = harness.Context(seed=3, seconds=0.2, trace=True,
                                  size=inputs.TINY,
                                  scratch=Path(tmp))
            result[workload] = __import__(workload).run(ctx).spans
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(traced_spans, workload):
    recorded = traced_spans[workload]
    assert recorded
    by_id = {span.id: span for span in recorded}
    for span in recorded:
        assert span.end >= span.start
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, (
                span.name, parent.name)
    assert min(spans.self_times(recorded).values()) >= 0.0


def test_host_times_scale_by_the_median_reference_call():
    host = hostspeed.HostSpeed([0.3, 0.1, 0.2])
    assert host.scale == pytest.approx(hostspeed.REFERENCE_S / 0.2)


def test_self_time_subtracts_children_once():
    recorder = spans.Recorder()
    root = recorder.record("root", 0.0, 10.0)
    recorder.record("a", 1.0, 4.0, parent=root)
    recorder.record("b", 3.0, 6.0, parent=root)     # overlaps a
    own = spans.self_times(recorder.spans)
    assert own[root] == pytest.approx(5.0)
