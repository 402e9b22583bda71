"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload warm_loop --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload end to end with tracing off and prints
every end-to-end metric; ``--trace 1`` also runs a traced phase that
wraps each layer's public function and prints every per-layer metric
(plus the layer tables).  Every op is checked for correctness; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("warm_loop", "cold_run", "served_mix")

#: End-to-end metric -> (unit, power of host time it scales with), in
#: the order BENCHMARK.json lists them; see hostspeed.py.
END_TO_END = {
    "setup_s": ("s", 1),
    "krec_per_s": ("krec/s", -1),
    "run_p50_s": ("s", 1),
    "job_p50_ms": ("ms", 1),
    "job_p99_ms": ("ms", 1),
    "jobs_per_s": ("1/s", -1),
    "peak_rss_mb": ("MB", 0),
    "sim_speedup": ("x", 0),
}
END_TO_END_UNITS = {name: unit for name, (unit, _) in END_TO_END.items()}

#: Fig. 16 average speedup of SN4L+Dis+BTB over the baseline.
PAPER_SPEEDUP = 1.19


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import harness
    harness.prepare_process()

    import inputs
    from harness import Context
    from hostspeed import REFERENCE_S
    from layers import PER_LAYER_UNITS, engine_paths, layer_table, per_layer

    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root))
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace),
                  size=inputs.TINY if args.tiny else inputs.FULL,
                  scratch=scratch)
    try:
        module = __import__(args.workload)
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for line in outcome.report:
        print(line)
    host = outcome.host
    if args.trace:
        print(layer_table(outcome.spans))
        print(engine_paths(outcome.spans))
        values = per_layer(outcome.spans, outcome.jobs,
                           outcome.trace_overhead)
        units = PER_LAYER_UNITS
    else:
        values = {name: outcome.end_to_end[name] * host.scale ** power
                  for name, (_, power) in END_TO_END.items()}
        units = END_TO_END_UNITS
        reference = statistics.median(host.samples)
        print(f"host speed: reference loop {reference:.4f} s "
              f"(n={len(host.samples)}), {REFERENCE_S} s on the reference "
              f"host; host times scaled by {host.scale:.4f}")
    for name, unit in units.items():
        note = ""
        if not args.trace and END_TO_END[name][1]:
            note = f"  (as measured {outcome.end_to_end[name]:.6f})"
        if name == "sim_speedup":
            note = (f"  (simulated time; paper Fig. 16 average "
                    f"{PAPER_SPEEDUP}; model not validated against hardware)")
        print(f"  {name:<32} {values[name]:>14.6f} {unit}{note}")
    print(f"ops attempted {outcome.attempted}, failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
