"""cold_run: one fresh process per op, each calling ``run_scheme`` once.

The trace store is warm and the result store empty, which is how a new
CLI invocation, ``run_many`` worker or service worker starts its first
task: CFG build and layout, the trace-store load and the predecode
prewarm dominate, the engine loop is the smaller share.  Set-up fills
the trace store from separate processes, so the measured processes
start with empty memos; those processes then compute the generic-loop
reference digests, outside every timed phase.  Host speed is sampled in
the set-up processes and in every op's process, after its result line,
while the other slot is busy as it is during the ops.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
import layers
import spans
from hostspeed import HostSpeed
from harness import (Context, Outcome, finish, latency_metrics,
                     launch, peak_rss_mb, run_slots, speedup_geomean)

SLOTS = min(2, os.cpu_count() or 1)

#: (workload, ISA) programs and the ops whose references each computes.
PROGRAMS = (("web_apache", "baseline,sn4l_dis_btb"),
            ("oltp_db_a", "baseline,sn4l_dis_btb"),
            ("web_apache", inputs.VL_SCHEME))


def _setup(ctx: Context, cache: Path, recorder, host: HostSpeed
           ) -> Tuple[List[float], Dict[str, str]]:
    """Populate the trace store; returns set-up unit times and refs.
    The set-up processes' host-speed samples go to ``host``."""
    env = ctx.child_env(cache)
    units: List[float] = []
    refs: Dict[str, str] = {}

    def populate(workload: str, schemes: str) -> None:
        vl = schemes == inputs.VL_SCHEME
        label = f"setup:{workload}{'/vl' if vl else ''}"
        span_file = None
        if recorder is not None:
            span_file = ctx.scratch / f"spans-{label.replace('/', '-')}.jsonl"
        proc = launch(ctx.child_cmd(
            "populate", span_file, workload=workload,
            scheme=inputs.VL_SCHEME if vl else "baseline",
            records=ctx.size.records, scale=ctx.size.scale, refs=schemes,
            op=label), env, ctx.scratch / "children.log")
        start = time.perf_counter()
        ready = None
        try:
            for line in proc.stdout:
                msg = json.loads(line)
                if msg.get("ready"):
                    ready = time.perf_counter()
                    units.append(ready - start)
                elif "host" in msg:
                    host.samples.extend(msg["host"])
                else:
                    refs[msg["ref"]] = msg["sha"]
        finally:
            finish(proc, f"populate {label}")
        if recorder is not None:
            child = spans.load(span_file)
            parent = recorder.record("cold.setup", start, ready, op=label,
                                     attrs={"op_name": label})
            spans.adopt(child, {label: parent})
            recorder.spans.extend(child)

    run_slots([lambda w=w, s=s: populate(w, s) for w, s in PROGRAMS], SLOTS)
    return units, refs


def _cycle(ctx: Context, cache: Path, recorder, first: int
           ) -> Tuple[float, List[Tuple[inputs.Op, float, Dict]]]:
    """One closed-loop pass over the ops on ``SLOTS`` processes."""
    shutil.rmtree(cache / "results", ignore_errors=True)
    env = ctx.child_env(cache)
    done: List[Tuple[inputs.Op, float, Dict]] = []

    def one(index: int, op: inputs.Op) -> None:
        op_id = f"op{first + index}"
        span_file: Optional[Path] = None
        if recorder is not None:
            span_file = ctx.scratch / f"spans-{op_id}.jsonl"
        start = time.perf_counter()
        proc = launch(ctx.child_cmd(
            "cold-op", span_file, workload=op.workload, scheme=op.scheme,
            records=ctx.size.records, scale=ctx.size.scale, op=op_id),
            env, ctx.scratch / "children.log")
        line = proc.stdout.readline()
        result_at = time.perf_counter()
        host_line = proc.stdout.readline()
        try:
            finish(proc, f"cold op {op.name}")
            result = dict(json.loads(line), **json.loads(host_line))
        except (RuntimeError, ValueError) as exc:   # a failed op
            result = {"error": str(exc)}
        done.append((op, result_at - start, result))
        if recorder is not None:
            parent = recorder.record("cold.op", start, result_at, op=op_id,
                                     attrs={"op_name": op.name})
            child = spans.load(span_file)
            spans.adopt(child, {op_id: parent})
            recorder.spans.extend(child)

    ops = inputs.cold_ops()
    start = time.perf_counter()
    run_slots([lambda i=i, op=op: one(i, op) for i, op in enumerate(ops)],
              SLOTS)
    return time.perf_counter() - start, done


def _timed(ctx: Context, cache: Path, recorder):
    """Whole cycles, each on an empty result store, until
    ``ctx.seconds`` have passed."""
    wall, done = 0.0, []
    while not done or wall < ctx.seconds:
        cycle_wall, cycle = _cycle(ctx, cache, recorder, len(done))
        wall += cycle_wall
        done += cycle
    return wall, done


def run(ctx: Context) -> Outcome:
    out = Outcome()
    cache = ctx.scratch / "cache"
    recorder = spans.Recorder() if ctx.trace else None
    units, refs = _setup(ctx, cache, recorder, out.host)
    wall, done = _timed(ctx, cache, None)
    for _, _, result in done:
        out.host.samples.extend(result.get("host", ()))
    checked = list(done)
    if recorder is not None:
        traced_wall, traced = _timed(ctx, cache, recorder)
        out.trace_overhead = (traced_wall / len(traced)) / (wall / len(done))
        out.spans = recorder.spans
        checked += traced
        out.report.append(layers.cold_split(out.spans, "cold.op"))
        loads = [s.duration for s in out.spans if s.name == "store.load_trace"]
        gens = [s.duration for s in out.spans
                if s.name == "workloads.trace_generate"]
        if loads and gens:
            out.report.append(
                f"trace from the store: {statistics.fmean(loads):.3f} s "
                f"(n={len(loads)}); regenerated: {statistics.fmean(gens):.3f}"
                f" s (n={len(gens)})")

    for op, _, result in checked:
        out.check(result.get("sha") == refs.get(op.name),
                  f"{op.name}: " + result.get(
                      "error", "digest differs from the generic loop"))

    cycles = {(op.workload, op.scheme): r["cycles"] for op, _, r in done
              if "cycles" in r}
    walls = [d[1] for d in done]
    out.end_to_end = {
        "setup_s": statistics.median(units),
        "krec_per_s": len(done) * ctx.size.records / wall / 1e3,
        **latency_metrics(walls),
        "jobs_per_s": len(done) / wall,
        "peak_rss_mb": peak_rss_mb(),
        "sim_speedup": speedup_geomean(
            (cycles.get((w, "baseline")), cycles.get((w, "sn4l_dis_btb")))
            for w in inputs.FIXED_PROFILES),
    }
    out.report.append(
        "set-up units (s): " + ", ".join(f"{u:.3f}" for u in units))
    out.report.append("ops (s): " + ", ".join(
        f"{op.name}={t:.3f}" for op, t, _ in done))
    return out
