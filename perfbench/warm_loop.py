"""warm_loop: the engine loop in live worker processes.

Each of ``WORKERS`` processes (one per CPU, at most two) builds its own
three programs (Web Apache and OLTP DB A on the fixed ISA, Web Apache
on the variable-length ISA), walks their traces and does the fixed-ISA
predecode prewarm.  The timed phase then constructs and runs
``FrontendSimulator`` for every op of :func:`inputs.warm_ops`, in whole
cycles, so almost all of it is the engine loop; CFG, store and service
stay out.  The workers start every phase together; running one per CPU
averages the speed of the host's CPUs into each run, which a single
process, pinned by the scheduler to one of them, would not.  Worker
``i`` re-seeds its profiles with :func:`inputs.worker_seed`, so a run
averages two draws of the synthetic programs where one would do.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
import layers
import spans
from hostspeed import HostSpeed
from harness import (Context, Outcome, finish, latency_metrics, launch,
                     peak_rss_mb, speedup_geomean)

WORKERS = min(2, os.cpu_count() or 1)
PROGRAMS = (("web_apache", False), ("oltp_db_a", False),
            ("web_apache", True))
#: Each worker times at least this many cycles of the ops per phase.
MIN_CYCLES = 3


# -- worker process -----------------------------------------------------------

def _build(profile, vl: bool, size: inputs.Size):
    from repro.workloads import TraceGenerator
    gen = TraceGenerator(profile, scale=size.scale, variable_length=vl)
    trace = gen.generate(size.records)
    if not vl:
        gen.program.predecoder().prewarm_fixed()
    return gen.program, trace


def _setup(seed: int, size: inputs.Size, recorder) -> Tuple[Dict, List[float]]:
    """Build every program; returns them and each one's set-up time."""
    profiles = inputs.reseeded_profiles(seed)
    built, units = {}, []
    for name, vl in PROGRAMS:
        args = (profiles[name], vl, size)
        start = time.perf_counter()
        if recorder is None:
            built[(name, vl)] = _build(*args)
        else:
            label = f"{name}{'/vl' if vl else ''}"
            built[(name, vl)] = recorder.call(
                "warm.setup", _build, args, {}, op=f"setup:{label}",
                attrs_of=lambda a, k, r, label=label: {"op_name": label})
        units.append(time.perf_counter() - start)
    return built, units


def _simulate(op: inputs.Op, built, records: int, fast=None):
    from repro.frontend import FrontendConfig, FrontendSimulator
    program, trace = built[(op.workload, op.variable_length)]
    prefetcher, overrides = inputs.build_scheme(op)
    sim = FrontendSimulator(trace, config=FrontendConfig(**overrides),
                            prefetcher=prefetcher, program=program)
    return sim.run(warmup=records // 3, fast=fast)


def _timed(built, size: inputs.Size, seconds: float, recorder, tag: str,
           host: Optional[HostSpeed] = None) -> Tuple[float, List[List]]:
    """Whole cycles of the ops, at least ``MIN_CYCLES`` and at least
    ``seconds`` long; each op as ``[name, seconds, sha, cycles, error]``.
    ``host`` is sampled before each cycle, outside its time."""
    from repro.service.server import stats_digest

    ops = inputs.warm_ops()
    done: List[List] = []
    start = time.perf_counter()
    while len(done) < MIN_CYCLES * len(ops) \
            or time.perf_counter() - start < seconds:
        if host is not None:
            pause = time.perf_counter()
            host.sample(1)
            start += time.perf_counter() - pause
        for op in ops:
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    stats = _simulate(op, built, size.records)
                else:
                    stats = recorder.call(
                        "warm.op", _simulate, (op, built, size.records),
                        {}, op=f"{tag}op{len(done)}",
                        attrs_of=lambda a, k, r, name=op.name: {
                            "op_name": name})
            except Exception as exc:        # counted as a failed op
                done.append([op.name, time.perf_counter() - t0, None, None,
                             f"{type(exc).__name__}: {exc}"])
                continue
            elapsed = time.perf_counter() - t0
            done.append([op.name, elapsed, stats_digest(stats)[1],
                         stats.total_cycles, None])
    return time.perf_counter() - start, done


def worker(seed: int, size: inputs.Size, seconds: float, index: int,
           recorder) -> None:
    """One worker process.  It prints a JSON line after set-up and after
    each phase, and reads a line from stdin before each phase, so the
    parent starts every worker's phases together.

    Phases: the untraced timed phase; with a ``recorder``, the traced
    one; then the generic-loop reference digest of every op.  Set-up is traced when ``recorder`` is
    set; the untraced phase and the references never are.  Host speed
    (hostspeed.py) is sampled before set-up, between the cycles of the
    untraced phase and after it.
    """
    from repro.service.server import stats_digest

    def emit(payload) -> None:
        print(json.dumps(payload), flush=True)

    tag = f"w{index}:"
    host = HostSpeed()
    host.sample()
    built, units = _setup(inputs.worker_seed(seed, index), size, recorder)
    if recorder is not None:
        recorder.unwrap_all()
    emit({"units": units})
    sys.stdin.readline()
    wall, done = _timed(built, size, seconds, None, tag, host)
    host.sample()
    emit({"wall": wall, "done": done, "host": host.samples})
    if recorder is not None:
        sys.stdin.readline()
        layers.install(recorder)
        wall, done = _timed(built, size, seconds, recorder, tag)
        recorder.unwrap_all()
        emit({"wall": wall, "done": done})
    sys.stdin.readline()
    emit({"refs": {op.name: stats_digest(_simulate(
        op, built, size.records, fast=False))[1]
        for op in inputs.warm_ops()}})


# -- parent -------------------------------------------------------------------

class _Worker:
    def __init__(self, ctx: Context, index: int):
        self.span_file: Optional[Path] = \
            ctx.scratch / f"spans-warm-{index}.jsonl" if ctx.trace else None
        self.proc = launch(
            ctx.child_cmd("warm-worker", self.span_file, index=index,
                          size=ctx.size.name, seconds=ctx.seconds),
            ctx.child_env(None), ctx.scratch / "children.log", stdin=True)

    def read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a warm_loop worker ended early")
        return json.loads(line)

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()


def _phase(workers: List[_Worker]) -> List[Dict]:
    for w in workers:
        w.go()
    return [w.read() for w in workers]


def _cycles(done: List[List]) -> List[float]:
    """Wall of each whole cycle of the ops."""
    per_cycle = len(inputs.warm_ops())
    return [sum(d[1] for d in done[i:i + per_cycle])
            for i in range(0, len(done), per_cycle)]


def run(ctx: Context) -> Outcome:
    out = Outcome()
    workers: List[_Worker] = []
    try:
        for index in range(WORKERS):
            workers.append(_Worker(ctx, index))
        units = [u for w in workers for u in w.read()["units"]]
        timed = _phase(workers)
        traced = _phase(workers) if ctx.trace else []
        refs = [reply["refs"] for reply in _phase(workers)]
        for w in workers:
            w.proc.stdin.close()
            finish(w.proc, "warm_loop worker")
    finally:
        for w in workers:
            if w.proc.poll() is None:
                w.proc.kill()
                w.proc.wait()

    for reply in timed:
        out.host.samples.extend(reply["host"])
    if ctx.trace:
        for w in workers:
            out.spans.extend(spans.load(w.span_file))
        # Both phases run whole cycles: compare time per op.
        per_op = [sum(r["wall"] for r in phase)
                  / sum(len(r["done"]) for r in phase)
                  for phase in (traced, timed)]
        out.trace_overhead = per_op[0] / per_op[1]

    # Correctness: every op's digest against the generic reference loop
    # on the same worker's programs.
    for index, reply in [*enumerate(timed), *enumerate(traced)]:
        for name, _, sha, _, error in reply["done"]:
            if error is not None:
                out.check(False, f"{name}: {error}")
            else:
                out.check(sha == refs[index][name],
                          f"{name} digest differs from the generic loop")

    ops = {op.name: op for op in inputs.warm_ops()}
    cycles = {(index, ops[name].workload, ops[name].scheme): sim_cycles
              for index, reply in enumerate(timed)
              for name, _, _, sim_cycles, error in reply["done"]
              if error is None}
    # A whole cycle (the bag of nine engine runs) is the op of the
    # latency metrics: single runs swing with host noise far more.
    # Throughput is each worker's cycle over its median cycle time,
    # summed over the workers.
    walls = [_cycles(reply["done"]) for reply in timed]
    medians = [statistics.median(w) for w in walls]
    per_cycle = len(inputs.warm_ops()) * ctx.size.records
    out.end_to_end = {
        "setup_s": statistics.median(units),
        "krec_per_s": sum(per_cycle / m for m in medians) / 1e3,
        **latency_metrics([t for w in walls for t in w]),
        "jobs_per_s": sum(1 / m for m in medians),
        "peak_rss_mb": peak_rss_mb(),
        "sim_speedup": speedup_geomean(
            (cycles.get((i, w, "baseline")),
             cycles.get((i, w, "sn4l_dis_btb")))
            for i in range(len(timed)) for w in inputs.FIXED_PROFILES),
    }
    out.report.append(
        "set-up units (s): " + ", ".join(f"{u:.3f}" for u in units))
    for index, w in enumerate(walls):
        out.report.append(f"worker {index} cycles (s): "
                          + ", ".join(f"{t:.3f}" for t in w))
    return out
