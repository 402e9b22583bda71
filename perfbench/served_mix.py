"""served_mix: a closed loop of clients against ``repro serve``.

The server runs in its own process (so it does not share the clients'
interpreter lock) on a fresh store, and set-up preloads it with a
catalogue of small run jobs larger than the 256-entry ``run_scheme``
memo, so requests hit both the memo and the store.  Two client threads
then submit a seed-drawn, Zipf-skewed request sequence for
``--seconds``; a few percent are novel specs that simulate and write a
result beside the reads.  A fresh server is booted for every phase,
because the job table of a server is never pruned and a reused server's
per-request cost would drift as it grows.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import threading
import time
from typing import Dict, List, Tuple

import inputs
import spans
from harness import (Context, Outcome, finish, latency_metrics,
                     launch, peak_rss_mb, run_slots, speedup_geomean)

CLIENTS = 2
#: Client poll interval: at most 1 ms, so job latency is not quantised
#: by polling (``ServiceClient.wait`` defaults to 0.2 s).
POLL_S = 0.001
#: Requests run before the timed ones, so those do not start on a memo
#: that still holds the preload order (the first second of a run served
#: half the jobs of the later ones).
WARMUP_S = 2.0
#: Throughput is the median over this many equal windows of the timed
#: requests: the host's speed moves within a run.
WINDOWS = 10


class Server:
    """One ``repro serve`` child on a fresh store."""

    def __init__(self, ctx: Context, tag: str, traced: bool):
        self.ctx = ctx
        self.span_file = ctx.scratch / f"spans-server-{tag}.jsonl" \
            if traced else None
        ready = ctx.scratch / f"ready-{tag}.json"
        self.proc = launch(
            ctx.child_cmd("serve", self.span_file, ready=ready),
            ctx.child_env(ctx.scratch / f"cache-{tag}"),
            ctx.scratch / "children.log")
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not start")
            time.sleep(0.01)
        address = json.loads(ready.read_text())
        from repro.service import ServiceClient
        self.client = ServiceClient(address["host"], address["port"])

    def stop(self) -> List[spans.Span]:
        """Interrupt the server, wait for it; returns its spans."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        finish(self.proc, "repro serve", timeout=60.0)
        return spans.load(self.span_file) if self.span_file else []


def _job(client, spec: inputs.Spec, scale: float) -> Tuple[str, Dict]:
    workload, scheme, n_records = spec
    job_id = client.submit("run", workload=workload, scheme=scheme,
                           n_records=n_records, scale=scale, baseline=False)
    return job_id, client.wait(job_id, timeout=60.0, poll=POLL_S)


def _preload(server: Server, size: inputs.Size) -> Tuple[List[float], Dict]:
    """Submit the catalogue, one workload at a time; returns each
    workload's preload time and the finished jobs by spec."""
    by_workload: Dict[str, List[inputs.Spec]] = {}
    for spec in inputs.catalogue(size):
        by_workload.setdefault(spec[0], []).append(spec)
    units, results = [], {}

    def task(spec: inputs.Spec) -> None:
        results[spec] = _job(server.client, spec, size.served_scale)[1]

    for specs in by_workload.values():
        start = time.perf_counter()
        run_slots([lambda s=s: task(s) for s in specs], CLIENTS)
        units.append(time.perf_counter() - start)
    return units, results


def _timed(ctx: Context, server: Server, recorder,
           stream: inputs.RequestStream, seconds: float
           ) -> Tuple[float, List[Dict]]:
    """``CLIENTS`` closed-loop clients for ``seconds``; each record
    notes when its job ended, from the start of the loop."""
    done: List[Dict] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def client_loop() -> None:
        while time.perf_counter() < stop_at:
            spec, novel = stream.next()
            t0 = time.perf_counter()
            record: Dict = {"spec": spec, "novel": novel}
            try:
                if recorder is None:
                    job_id, job = _job(server.client, spec,
                                       ctx.size.served_scale)
                else:
                    job_id, job = recorder.call(
                        "served.job", _job,
                        (server.client, spec, ctx.size.served_scale), {},
                        attrs_of=lambda a, k, r: {
                            "job": r[0] if r else None,
                            "op_name": "/".join(map(str, a[1]))})
                record.update(job=job, job_id=job_id)
            except Exception as exc:        # counted as a failed op
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["client_s"] = time.perf_counter() - t0
            record["end_s"] = time.perf_counter() - start
            with lock:
                done.append(record)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, done


def _phase(ctx: Context, tag: str, recorder, before_timed=None,
           host=None) -> Dict:
    """One server's life: preload, warm-up requests, timed requests.
    ``host`` is sampled before the timed requests and after them, while
    the server is idle."""
    boot = time.perf_counter()
    server = Server(ctx, tag, traced=recorder is not None)
    booted = time.perf_counter() - boot
    try:
        units, preloaded = _preload(server, ctx.size)
        if before_timed is not None:
            before_timed()
        stream = inputs.RequestStream(ctx.seed, ctx.size)
        _, warmup = _timed(ctx, server, None, stream,
                           min(WARMUP_S, ctx.seconds))
        if host is not None:
            host.sample(5)
        wall, done = _timed(ctx, server, recorder, stream, ctx.seconds)
        if host is not None:
            host.sample(5)
    finally:
        server_spans = server.stop()
    return {"boot": booted, "units": units, "preloaded": preloaded,
            "warmup": warmup, "wall": wall, "done": done,
            "server_spans": server_spans}


def _window_median(done: List[Dict], wall: float, weight) -> float:
    """Median over :data:`WINDOWS` equal windows of ``wall`` of the
    summed ``weight`` of the jobs ending in each, per second."""
    width = wall / WINDOWS
    sums = [0.0] * WINDOWS
    for record in done:
        sums[min(WINDOWS - 1, int(record["end_s"] / width))] += weight(record)
    return statistics.median(sums) / width


def _catalogue_refs(ctx: Context) -> Tuple[subprocess.Popen, Dict]:
    """Start the process that digests the catalogue in-process while the
    server preloads; the returned dict fills when :func:`_collect` runs."""
    proc = launch(ctx.child_cmd("served-refs", size=ctx.size.name),
                  ctx.child_env(None), ctx.scratch / "children.log")
    return proc, {}


def _collect(proc: subprocess.Popen, refs: Dict) -> None:
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            refs[tuple(msg["spec"])] = msg["sha"]
    finally:
        finish(proc, "served-refs")


def _reference_digests(ctx: Context, specs) -> Dict[inputs.Spec, str]:
    """In-process digests of the served specs (no store, no service)."""
    from repro.experiments.runner import run_scheme
    from repro.service.server import stats_digest
    inputs.install_profiles(ctx.seed)
    return {spec: stats_digest(run_scheme(
        spec[0], spec[1], n_records=spec[2], scale=ctx.size.served_scale,
        persistent=False).stats)[1] for spec in sorted(specs)}


def run(ctx: Context) -> Outcome:
    out = Outcome()
    # Reference digests stay out of the timed phases: the catalogue's
    # are made beside the first preload (the clients wait for them
    # before timing), novel specs' after the last phase.
    refs_proc, reference = _catalogue_refs(ctx)
    try:
        plain = _phase(ctx, "plain", None,
                       before_timed=lambda: _collect(refs_proc, reference),
                       host=out.host)
    finally:
        if refs_proc.poll() is None:        # the phase failed early
            refs_proc.kill()
            refs_proc.wait()
    phases = [plain]
    if ctx.trace:
        recorder = spans.Recorder()
        from layers import install
        install(recorder)
        traced = _phase(ctx, "traced", recorder)
        recorder.unwrap_all()
        phases.append(traced)
        by_job = {s.attrs["job"]: s.id for s in recorder.spans
                  if s.name == "served.job" and s.attrs.get("job")}
        spans.adopt(traced["server_spans"], by_job)
        # Per-layer metrics describe the timed requests; the preload
        # is set-up and is left out.
        out.spans = spans.under(recorder.spans + traced["server_spans"],
                                "served.job")
        out.jobs = [dict(r["job"], client_s=r["client_s"])
                    for r in traced["done"] if "job" in r]
        # Both phases last ctx.seconds: compare time per job.
        out.trace_overhead = (traced["wall"] / len(traced["done"])) / (
            plain["wall"] / len(plain["done"]))

    served = [r for phase in phases for r in phase["warmup"] + phase["done"]]
    reference.update(_reference_digests(
        ctx, {r["spec"] for r in served if r["spec"] not in reference}))
    for r in served:
        job = r.get("job") or {}
        sha = (job.get("result") or {}).get("digest_sha")
        out.check("error" not in r and sha == reference.get(r["spec"]),
                  f"{r['spec']}: {r.get('error') or 'digest mismatch'}")

    done = plain["done"]
    wall = plain["wall"]
    ok = [r for r in done if "job" in r]
    novel = [r["client_s"] for r in ok if r["novel"]]
    latency = latency_metrics([r["client_s"] for r in ok])
    # Small programs make one pair's speedup seed-sensitive, so take
    # the geomean over every catalogue workload and trace length.
    cycles = {spec: job["result"]["summary"]["cycles"]
              for spec, job in plain["preloaded"].items()}
    speedups = [(cycles[(w, s, n)], cycles.get((w, "sn4l_dis_btb", n)))
                for (w, s, n) in cycles if s == "baseline"]
    out.end_to_end = {
        "setup_s": statistics.median(plain["units"]),
        "krec_per_s": _window_median(ok, wall, lambda r: r["spec"][2]) / 1e3,
        "run_p50_s": statistics.median(novel) if novel else 0.0,
        "job_p50_ms": latency["job_p50_ms"],
        "job_p99_ms": latency["job_p99_ms"],
        "jobs_per_s": _window_median(ok, wall, lambda r: 1),
        "peak_rss_mb": peak_rss_mb(),
        "sim_speedup": speedup_geomean(speedups),
    }
    out.report.append(
        f"server boot {plain['boot']:.3f} s; preload units (s): "
        + ", ".join(f"{u:.3f}" for u in plain["units"]))
    out.report.append(
        f"jobs {len(done)} ({len(novel)} novel, "
        f"{sum(1 for r in ok if r['job'].get('deduped'))} deduped) "
        f"in {wall:.3f} s")
    return out
