"""Host speed, measured beside every timed phase.

The benchmark runs on shared virtual machines whose CPU speed changes
with the load of other guests, in stretches of minutes.  On the 2-vCPU
machine it was built on, the engine cycle of ``warm_loop`` took 3.1 s
in a fast stretch and 5.7 s in a slow one, with no steal time
accounted, and a run's own repeats cannot average a stretch away.

So every run also times :func:`reference_work` around its timed phase,
and its host-time metrics are scaled to a reference host, on which one
call takes ``REFERENCE_S``: a time ``t`` measured while the call took
``r`` (median of the run's samples) is reported as ``t * REFERENCE_S /
r``, a rate ``x`` as ``x * r / REFERENCE_S``.  The loop uses nothing of
the program, so a change to the program moves the scaled figures by the
same factor as the raw ones; the raw figures are printed beside them.

The loop has two halves because no single kind of code tracked the
program well.  Timed interleaved with three engine runs and a CFG build
for 16 minutes on the build host (135 rounds), medians over 35-second
windows of the engine runs spread by an IQR of 17% of their median raw
and 6% scaled by this loop, the CFG build 16% raw and 8% scaled.  The
dict half alone slowed 2.2x where the engine slowed 1.85x; the array
half alone tracked the engine (log-slope 1.1) but not the CFG build
(0.8).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import List

#: About one :func:`reference_work` call on the build host (2 vCPUs at
#: 2.1 GHz, Python 3.11, NumPy) in a fast stretch, where its halves took
#: 0.044 s and about 0.055 s; scaled and raw figures agree there.
REFERENCE_S = 0.1
_KEYS = list(range(0, 200_000, 7))


def reference_work() -> int:
    """A fixed loop: pure-Python integer arithmetic and dict traffic,
    then NumPy passes over 16 MB arrays, four times a core's L2."""
    import numpy as np

    table = {}
    acc = 0
    for rnd in range(10):
        for i, x in enumerate(_KEYS):
            k = (x * 2654435761 + rnd) & 0xFFFF
            v = table.get(k)
            if v is None:
                table[k] = i
            else:
                acc += v & 7
    base = np.arange(2_000_000, dtype=np.int64)
    for _ in range(3):
        mixed = ((base * 3) >> 2) ^ base
        acc += int(np.sort(mixed[:400_000])[-1]) + int(mixed.sum())
    return acc


def timed_calls(calls: int) -> List[float]:
    """Times of ``calls`` back-to-back :func:`reference_work` calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


@dataclass
class HostSpeed:
    """Times of :func:`reference_work` calls taken through one run."""

    samples: List[float] = field(default_factory=list)

    def sample(self, calls: int = 3) -> None:
        """Time ``calls`` calls in this process; call it where no other
        work of the run shares the CPU."""
        self.samples.extend(timed_calls(calls))

    @property
    def scale(self) -> float:
        """Factor from this run's host time to reference-host time."""
        return REFERENCE_S / statistics.median(self.samples)

