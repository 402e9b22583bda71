"""What every workload shares: the run's scratch space, child-process
launching, and the outcome a workload hands back to ``run.py``."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import inputs
from hostspeed import HostSpeed
from layers import quantile
from spans import Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment variables of the program that would change what a run
#: measures; children get them from :meth:`Context.child_env` only.
_PROGRAM_ENV = ("REPRO_CACHE_DIR", "REPRO_CACHE_DISABLE", "REPRO_CACHE_BUDGET",
                "REPRO_JOBS", "REPRO_TRACE_SAMPLE", "REPRO_NO_COMPILE",
                "REPRO_NO_NUMPY")


def prepare_process() -> None:
    """Make ``repro`` importable with its own span tracing and store off.

    Must run before ``repro`` is imported: the program samples
    ``REPRO_TRACE_SAMPLE`` at import.  Children get their store from
    :meth:`Context.child_env`.
    """
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_TRACE_SAMPLE"] = "0"
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    size: inputs.Size
    scratch: Path

    def child_env(self, cache_dir: Optional[Path]) -> Dict[str, str]:
        """A child's environment: program tracing off, and the store at
        ``cache_dir`` (``None`` turns the store off)."""
        env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_TRACE_SAMPLE"] = "0"
        if cache_dir is None:
            env["REPRO_CACHE_DISABLE"] = "1"
        else:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def child_cmd(self, mode: str, span_file: Optional[Path] = None,
                  **options) -> List[str]:
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--seed", str(self.seed)]
        for key, value in options.items():
            cmd += [f"--{key}", str(value)]
        if span_file is not None:
            cmd += ["--spans", str(span_file)]
        return cmd


@dataclass
class Outcome:
    """What one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Merged spans of the traced phase (empty when not tracing).
    spans: List[Span] = field(default_factory=list)
    #: Served jobs of the traced phase (served_mix only).
    jobs: List[Dict] = field(default_factory=list)
    trace_overhead: float = 0.0
    #: Reference-loop samples taken through the run (see hostspeed.py).
    host: HostSpeed = field(default_factory=HostSpeed)
    #: Human-readable lines printed before the result.
    report: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report.append(f"FAILED: {what}")


def run_slots(tasks: Sequence[Callable[[], None]], slots: int) -> None:
    """Run ``tasks`` as a closed loop on ``slots`` threads, in order.

    A task raising stops nothing else; the first error is re-raised
    once every thread has finished.
    """
    lock = threading.Lock()
    pending = list(tasks)
    errors: List[BaseException] = []

    def worker() -> None:
        while True:
            with lock:
                if not pending:
                    return
                task = pending.pop(0)
            try:
                task()
            except BaseException as exc:    # re-raised in the caller
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(slots)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def launch(cmd: List[str], env: Dict[str, str], log: Path,
           stdin: bool = False) -> subprocess.Popen:
    """Start a child with JSON lines on stdout and stderr to ``log``;
    with ``stdin``, the parent writes to the child's standard input."""
    with open(log, "ab") as err:
        return subprocess.Popen(
            cmd, env=env, cwd=str(ROOT), text=True,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err)


def finish(proc: subprocess.Popen, what: str, timeout: float = 120.0) -> None:
    """Wait for a child; a non-zero exit is an error."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{what} did not exit within {timeout:.0f}s")
    finally:
        if proc.stdout is not None:
            proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"{what} exited with code {code}")


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def speedup_geomean(pairs: Iterable[Tuple[Optional[int], Optional[int]]]
                    ) -> float:
    """Geomean of baseline over scheme cycles, skipping pairs a failed
    op left incomplete (0 when none is complete)."""
    ratios = [base / scheme for base, scheme in pairs
              if base is not None and scheme is not None]
    if not ratios:
        return 0.0
    return math.exp(statistics.fmean(math.log(r) for r in ratios))


def latency_metrics(walls_s: Sequence[float]) -> Dict[str, float]:
    """``run_p50_s``, ``job_p50_ms`` and ``job_p99_ms`` of op walls."""
    return {"run_p50_s": statistics.median(walls_s),
            "job_p50_ms": 1e3 * statistics.median(walls_s),
            "job_p99_ms": 1e3 * quantile(list(walls_s), 0.99)}
