"""The traced run: which layer functions are wrapped, and what the
per-layer metrics are computed from.

Each entry wraps a layer's public function at the name its callers look
it up through, so the program itself is unchanged.  Nesting follows the
call structure: ``engine.init`` (``FrontendSimulator.__init__``) holds
``core.attach`` (the prefetcher's attach, i.e. hot-path compilation),
which holds ``isa.prewarm`` (``Predecoder.prewarm_fixed``), and
``engine.run`` holds ``workloads.engine_view``.  Self time is a span's
duration minus the part its children cover.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from spans import Recorder, Span, self_times

#: engine.run labels reported one by one (the warm_loop op schemes).
ENGINE_LABELS = ("baseline", "sn4l", "sn4l_dis", "sn4l_dis_btb",
                 "sn4l_dis_btb_vl")

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: Dict[str, str] = {
    "cfg.generate_s": "s",
    "cfg.layout_s": "s",
    "isa.prewarm_s": "s",
    "core.attach_s": "s",
    "engine.init_s": "s",
    "store.load_trace_s": "s",
    "store.trace_hit_ratio": "ratio",
    **{f"engine.run_s.{label}": "s" for label in ENGINE_LABELS},
    "workloads.engine_view_s": "s",
    "engine.lookups_per_krec": "1/krec",
    "isa.blocks_decoded_per_krec": "1/krec",
    "store.load_result_s": "s",
    "store.result_hit_ratio": "ratio",
    "runner.self_s": "s",
    "runner.memo_hit_ratio": "ratio",
    "service.submit_ms_p50": "ms",
    "jobs.queue_wait_ms_p50": "ms",
    "service.poll_gap_ms_p50": "ms",
    "jobs.dedup_ratio": "ratio",
    "jobs.run_ms_p99": "ms",
    "store.save_s": "s",
    "workloads.trace_generate_s": "s",
    "workloads.trace_generate_n": "count",
    "engine.l1i_mpki": "1/kinstr",
    "btb.mpki": "1/kinstr",
    "core.prefetch_accuracy": "ratio",
    "llc.avg_latency_cycles": "cycles",
    "trace_overhead_ratio": "ratio",
}


def engine_label(sim) -> str:
    """Scheme label of a simulator, read from its prefetcher."""
    prefetcher = sim.prefetcher
    if prefetcher is None:
        return "baseline"
    label = str(getattr(prefetcher, "name", type(prefetcher).__name__))
    label = label.replace("+", "_").lower()
    if getattr(prefetcher, "variable_length", False):
        label += "_vl"
    return label


def _run_attrs(args, kwargs, stats) -> Dict:
    sim = args[0]
    warmup = kwargs.get("warmup", args[1] if len(args) > 1 else 0)
    n = len(sim.trace.records)
    measured = n - warmup if 0 < warmup < n else n
    decoded = sim.predecoder().blocks_decoded if sim.program is not None \
        else 0
    attrs = {"label": engine_label(sim), "path": sim.engine_path,
             "records": n, "measured": measured,
             "blocks_decoded": decoded,
             "llc_latency_sum": sim.latency.llc_latency_sum,
             "llc_latency_count": sim.latency.llc_latency_count}
    if stats is not None:
        for name in ("instructions", "cache_lookups", "demand_misses",
                     "demand_late_prefetch", "btb_misses",
                     "prefetches_useful", "prefetches_useless"):
            attrs[name] = getattr(stats, name)
    return attrs


def _hit(args, kwargs, result) -> Dict:
    return {"hit": result is not None}


def _job_of(args) -> Optional[str]:
    return args[0].id


def _job_id(args, kwargs, result) -> Dict:
    return {"job": result}


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary of this process (harmless where unused)."""
    from repro.core import proactive
    from repro.experiments import parallel, runner, store
    from repro.frontend import engine
    from repro.isa import predecoder
    from repro.service import client, server
    from repro.workloads import tracegen

    wrap = recorder.wrap
    wrap(tracegen, "generate_cfg", "cfg.generate")
    wrap(tracegen, "layout_program", "cfg.layout")
    wrap(tracegen.TraceGenerator, "generate", "workloads.trace_generate")
    wrap(runner, "get_generator", "workloads.get_generator")
    wrap(runner, "get_trace", "workloads.get_trace")
    wrap(predecoder.Predecoder, "prewarm_fixed", "isa.prewarm")
    wrap(proactive.ProactivePrefetcher, "attach", "core.attach")
    wrap(engine.FrontendSimulator, "__init__", "engine.init")
    wrap(engine.FrontendSimulator, "run", "engine.run", attrs_of=_run_attrs)
    wrap(engine, "engine_view", "workloads.engine_view")
    wrap(store.ResultStore, "load_trace", "store.load_trace", attrs_of=_hit)
    wrap(store.ResultStore, "save_trace", "store.save_trace")
    wrap(store.ResultStore, "load_result", "store.load_result",
         attrs_of=_hit)
    wrap(store.ResultStore, "save_result", "store.save_result")
    wrap(store.ResultStore, "save_manifest", "store.save_manifest")
    wrap(runner, "run_scheme", "runner.run_scheme")
    wrap(parallel, "run_scheme", "runner.run_scheme")
    wrap(server, "run_many", "experiments.run_many")
    wrap(server, "execute_job", "service.execute_job", op_of=_job_of)
    wrap(client.ServiceClient, "submit", "service.submit", attrs_of=_job_id)
    wrap(client.ServiceClient, "job", "service.poll")


# -- metrics ------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: List[float], q: float) -> float:
    """Linearly interpolated q-quantile of the samples; 0 for none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(spans: List[Span], jobs: List[Dict],
              overhead: float) -> Dict[str, float]:
    """Every per-layer metric from merged spans and served job records.

    A layer a workload does not exercise reads 0 (no time, no calls).
    ``jobs`` are the finished served jobs the client saw, with their
    client-side latency under ``client_s``.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_s(name: str, label: Optional[str] = None) -> float:
        return float(sum(selfs[s.id] for s in by_name.get(name, ())
                         if label is None or s.attrs.get("label") == label))

    def hit_ratio(name: str) -> float:
        calls = by_name.get(name, [])
        return _ratio(sum(1 for s in calls if s.attrs.get("hit")),
                      len(calls))

    parents = {s.parent for s in spans if s.parent is not None}
    runs = by_name.get("runner.run_scheme", [])
    engine_runs = [s.attrs for s in by_name.get("engine.run", ())]

    def total(key: str) -> float:
        return float(sum(a.get(key, 0) for a in engine_runs))

    instructions = total("instructions")
    queue_wait = [(j["started_at"] - j["submitted_at"]) * 1e3 for j in jobs]
    lifetime = [j["finished_at"] - j["submitted_at"] for j in jobs]
    metrics = {
        "cfg.generate_s": self_s("cfg.generate"),
        "cfg.layout_s": self_s("cfg.layout"),
        "isa.prewarm_s": self_s("isa.prewarm"),
        "core.attach_s": self_s("core.attach"),
        "engine.init_s": self_s("engine.init"),
        "store.load_trace_s": self_s("store.load_trace"),
        "store.trace_hit_ratio": hit_ratio("store.load_trace"),
        **{f"engine.run_s.{label}": self_s("engine.run", label)
           for label in ENGINE_LABELS},
        "workloads.engine_view_s": self_s("workloads.engine_view"),
        "engine.lookups_per_krec": 1e3 * _ratio(total("cache_lookups"),
                                                total("measured")),
        "isa.blocks_decoded_per_krec": 1e3 * _ratio(total("blocks_decoded"),
                                                    total("records")),
        "store.load_result_s": self_s("store.load_result"),
        "store.result_hit_ratio": hit_ratio("store.load_result"),
        "runner.self_s": self_s("runner.run_scheme"),
        "runner.memo_hit_ratio": _ratio(
            sum(1 for s in runs if s.id not in parents), len(runs)),
        "service.submit_ms_p50": 1e3 * quantile(
            [s.duration for s in by_name.get("service.submit", ())], 0.5),
        "jobs.queue_wait_ms_p50": quantile(queue_wait, 0.5),
        "service.poll_gap_ms_p50": quantile(
            [(j["client_s"] - life) * 1e3 for j, life in zip(jobs, lifetime)],
            0.5),
        "jobs.dedup_ratio": _ratio(sum(1 for j in jobs if j["deduped"]),
                                   len(jobs)),
        "jobs.run_ms_p99": quantile([(j["finished_at"] - j["started_at"]) * 1e3
                               for j in jobs], 0.99),
        "store.save_s": self_s("store.save_result")
        + self_s("store.save_manifest"),
        "workloads.trace_generate_s": self_s("workloads.trace_generate"),
        "workloads.trace_generate_n": float(
            len(by_name.get("workloads.trace_generate", ()))),
        "engine.l1i_mpki": 1e3 * _ratio(
            total("demand_misses") + total("demand_late_prefetch"),
            instructions),
        "btb.mpki": 1e3 * _ratio(total("btb_misses"), instructions),
        "core.prefetch_accuracy": _ratio(
            total("prefetches_useful"),
            total("prefetches_useful") + total("prefetches_useless")),
        "llc.avg_latency_cycles": _ratio(total("llc_latency_sum"),
                                         total("llc_latency_count")),
        "trace_overhead_ratio": overhead,
    }
    return metrics


# -- tables -------------------------------------------------------------------

def layer_table(spans: List[Span]) -> str:
    """Calls, total and self seconds per span name, largest self first."""
    selfs = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += selfs[span.id]
    lines = [f"{'layer':<28} {'calls':>7} {'total_s':>9} {'self_s':>9}"]
    for name, (calls, dur, own) in sorted(rows.items(),
                                          key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<28} {calls:>7d} {dur:>9.3f} {own:>9.3f}")
    return "\n".join(lines)


def engine_paths(spans: List[Span]) -> str:
    """Which engine loop each scheme label ran (``stats.extra``)."""
    paths: Dict[str, set] = {}
    for span in spans:
        if span.name == "engine.run":
            paths.setdefault(span.attrs["label"], set()).add(
                span.attrs["path"])
    return "engine paths: " + ", ".join(
        f"{label}={'/'.join(sorted(p))}" for label, p in sorted(paths.items()))


#: Columns of the cold-op split: each is the self time of these spans
#: inside one op (the op span itself is launch -> result).
COLD_SPLIT: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("cfg", ("cfg.generate", "cfg.layout")),
    ("store", ("store.load_trace", "store.load_result", "store.save_result",
               "store.save_manifest")),
    ("prewarm", ("isa.prewarm",)),
    ("attach", ("core.attach",)),
    ("init", ("engine.init",)),
    ("engine", ("engine.run", "workloads.engine_view")),
)


def cold_split(spans: List[Span], op_span: str) -> str:
    """Per-op split of a cold run: the columns plus the residual
    (interpreter start, imports, runner glue) add up to the op's wall."""
    selfs = self_times(spans)
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def descendants(span: Span):
        for child in children.get(span.id, ()):
            yield child
            yield from descendants(child)

    header = [f"{'op':<28} {'wall_s':>7}"]
    header += [f"{col:>8}" for col, _ in COLD_SPLIT] + [f"{'resid':>8}"]
    lines = [" ".join(header)]
    sums = [0.0] * (len(COLD_SPLIT) + 2)
    for op in (s for s in spans if s.name == op_span):
        inner = list(descendants(op))
        cols = [sum(selfs[s.id] for s in inner if s.name in names)
                for _, names in COLD_SPLIT]
        resid = op.duration - sum(cols)
        values = [op.duration] + cols + [resid]
        sums = [a + b for a, b in zip(sums, values)]
        lines.append(f"{op.attrs.get('op_name', op.op):<28} " + " ".join(
            f"{v:>7.3f}" if i == 0 else f"{v:>8.3f}"
            for i, v in enumerate(values)))
    lines.append(f"{'total':<28} " + " ".join(
        f"{v:>7.3f}" if i == 0 else f"{v:>8.3f}" for i, v in enumerate(sums)))
    return "\n".join(lines)
