"""Child processes of the benchmark (run by ``run.py``, not by hand).

``populate``  fills a trace store for one program, prints ``ready``,
              then host-speed samples (hostspeed.py), then generic-loop
              reference digests for the ops that use the program
              (outside any timed phase).
``cold-op``   one cold_run op: a fresh process calling ``run_scheme``
              once; prints the result digest as one JSON line, then
              host-speed samples as another.
``served-refs`` prints the in-process digest of every served catalogue
              spec (no store, no service).
``serve``     ``repro serve`` on the seed's re-seeded profiles, until
              SIGINT.
``warm-worker`` one warm_loop worker (see ``warm_loop.worker``).

With ``--spans PATH`` the layer functions are wrapped and the spans are
written to PATH when the process ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import hostspeed
import inputs
import layers
import spans


def _emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def _populate(args) -> None:
    from repro.frontend import FrontendConfig, FrontendSimulator
    from repro.service.server import stats_digest
    from repro.workloads import get_generator, get_trace

    vl = args.scheme == inputs.VL_SCHEME
    trace = get_trace(args.workload, n_records=args.records,
                      scale=args.scale, variable_length=vl)
    _emit({"ready": True})
    _emit({"host": hostspeed.timed_calls(2)})
    # References run untraced: they check the op, they are not part of it.
    if args.recorder is not None:
        args.recorder.unwrap_all()
    gen = get_generator(args.workload, scale=args.scale, variable_length=vl)
    for scheme in args.refs.split(","):
        op = inputs.Op(args.workload, scheme)
        prefetcher, overrides = inputs.build_scheme(op)
        sim = FrontendSimulator(trace, config=FrontendConfig(**overrides),
                                prefetcher=prefetcher, program=gen.program)
        stats = sim.run(warmup=args.records // 3, fast=False)
        _emit({"ref": op.name, "sha": stats_digest(stats)[1]})


def _cold_op(args) -> None:
    from repro.experiments import runner
    from repro.service.server import stats_digest

    op = inputs.Op(args.workload, args.scheme)
    kwargs = {}
    if op.variable_length:
        kwargs = {"variable_length": True,
                  "prefetcher_factory": lambda: inputs.build_scheme(op),
                  "cache_key_extra": op.scheme}
    result = runner.run_scheme(op.workload, op.scheme.replace("_vl", ""),
                               n_records=args.records, scale=args.scale,
                               **kwargs)
    _emit({"op": args.op, "sha": stats_digest(result.stats)[1],
           "cycles": result.stats.total_cycles})
    # After the result line, so the op's time leaves the samples out;
    # the other slot is still busy, as it is during the ops.
    _emit({"host": hostspeed.timed_calls(1)})


def _served_refs(args) -> None:
    from repro.experiments.runner import run_scheme
    from repro.service.server import stats_digest

    size = inputs.SIZES[args.size]
    for spec in inputs.catalogue(size):
        stats = run_scheme(spec[0], spec[1], n_records=spec[2],
                           scale=size.served_scale, persistent=False).stats
        _emit({"spec": spec, "sha": stats_digest(stats)[1]})


def _warm_worker(args) -> None:
    import warm_loop
    warm_loop.worker(args.seed, inputs.SIZES[args.size], args.seconds,
                     args.index, args.recorder)


def _serve(args) -> None:
    from repro.cli import main as repro_main
    repro_main(["serve", "--port", "0", "--workers", "2",
                "--ready-file", args.ready])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("populate", "cold-op", "served-refs",
                                         "serve", "warm-worker"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", default="web_apache")
    parser.add_argument("--scheme", default="baseline")
    parser.add_argument("--records", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--refs", default="")
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full")
    parser.add_argument("--op", default=None)
    parser.add_argument("--ready", default="")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    inputs.install_profiles(args.seed)
    # Spans of this process carry the parent's op id, which is how the
    # parent hangs them under its own op span.
    spans.set_op(args.op)
    args.recorder = None
    if args.spans:
        args.recorder = spans.Recorder()
        layers.install(args.recorder)
    try:
        {"populate": _populate, "cold-op": _cold_op,
         "served-refs": _served_refs, "serve": _serve,
         "warm-worker": _warm_worker}[args.mode](args)
    finally:
        if args.recorder is not None:
            args.recorder.dump(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
