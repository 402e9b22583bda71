"""Seed-derived inputs for the three workloads.

Everything the program receives is made here from ``--seed``: workload
profiles re-seeded with ``dataclasses.replace(profile, seed=...)`` (which
changes the synthetic program, its layout and the fetch trace), and the
served request sequence.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Fixed-ISA profiles of warm_loop and cold_run: OLTP DB A has the
#: largest instruction footprint of the seven, Web (Apache) a mid-size one.
FIXED_PROFILES = ("web_apache", "oltp_db_a")
#: The Fig. 17 build-up of the paper's scheme.
WARM_SCHEMES = ("baseline", "sn4l", "sn4l_dis", "sn4l_dis_btb")
#: Scheme label of the variable-length-ISA op (Section VII-J build).
VL_SCHEME = "sn4l_dis_btb_vl"
VL_PROFILE = "web_apache"


@dataclass(frozen=True)
class Size:
    """How big one run is; ``FULL`` is the benchmark, ``TINY`` its tests."""

    name: str
    #: Fetch records per warm_loop/cold_run op (warm-up is a third).
    records: int
    #: Footprint scale of warm_loop/cold_run programs.
    scale: float
    #: Footprint scale and trace lengths of the served catalogue.
    served_scale: float
    served_records: Tuple[int, ...]
    served_schemes: Tuple[str, ...]
    #: One served request in this many is a novel spec (simulate + write).
    novel_every: int


FULL = Size(name="full", records=40_000, scale=1.0, served_scale=0.05,
            served_records=(1000, 1250, 1500, 1750, 2000),
            served_schemes=("baseline", "nl", "n2l", "n4l", "sn4l", "dis",
                            "sn4l_dis", "sn4l_dis_btb", "fdip"),
            novel_every=32)
TINY = Size(name="tiny", records=3000, scale=0.05, served_scale=0.05,
            served_records=(600, 800),
            served_schemes=("baseline", "n4l", "sn4l_dis_btb"),
            novel_every=10)


SIZES = {size.name: size for size in (FULL, TINY)}


def reseeded_profiles(seed: int) -> Dict[str, object]:
    """Every registered profile with its generator seed re-drawn."""
    from repro.workloads.profiles import ALL_PROFILES
    return {p.name: dataclasses.replace(
        p, seed=(p.seed * 1_000_003 + seed) % (2 ** 31 - 1))
        for p in ALL_PROFILES}


def worker_seed(seed: int, index: int) -> int:
    """The profile seed of warm_loop worker ``index`` of a run."""
    return 2 * seed + index


def install_profiles(seed: int) -> None:
    """Point the name-based entry points (``run_scheme``, the service)
    at the re-seeded profiles of this seed."""
    from repro.workloads import profiles
    profiles.PROFILES_BY_NAME.update(reseeded_profiles(seed))


@dataclass(frozen=True)
class Op:
    """One (profile, scheme) simulation of warm_loop or cold_run."""

    workload: str
    scheme: str

    @property
    def variable_length(self) -> bool:
        return self.scheme == VL_SCHEME

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.scheme}"


def warm_ops() -> List[Op]:
    ops = [Op(w, s) for w in FIXED_PROFILES for s in WARM_SCHEMES]
    return ops + [Op(VL_PROFILE, VL_SCHEME)]


def cold_ops() -> List[Op]:
    """Longest first, so two slots pack the same way on every run."""
    return [Op(VL_PROFILE, VL_SCHEME), Op("oltp_db_a", "sn4l_dis_btb"),
            Op("web_apache", "sn4l_dis_btb"), Op("oltp_db_a", "baseline"),
            Op("web_apache", "baseline")]


def build_scheme(op: Op):
    """(prefetcher, FrontendConfig overrides) for an op.

    The VL op is built the way Section VII-J does it, with
    ``sn4l_dis_btb(variable_length=True)`` on a DV-LLC: the registered
    ``sn4l_dis_btb`` factory raises ``EncodingError`` on a VL program.
    """
    if op.variable_length:
        from repro.core import sn4l_dis_btb
        return sn4l_dis_btb(variable_length=True), {"dv_llc": True}
    from repro.experiments.runner import build_scheme as registered
    return registered(op.scheme)


# -- served_mix -------------------------------------------------------------

Spec = Tuple[str, str, int]          # (workload, scheme, n_records)


def catalogue(size: Size) -> List[Spec]:
    """Run jobs preloaded into the server: more than the 256-entry
    ``run_scheme`` memo holds, so requests hit both memo and store."""
    from repro.workloads import workload_names
    return [(w, s, n) for w in workload_names()
            for s in size.served_schemes for n in size.served_records]


class RequestStream:
    """Endless, thread-safe request sequence drawn from ``seed``.

    Catalogue picks are Zipf-skewed (weight 1/rank over a seeded
    ranking).  Every ``novel_every``-th request is a spec never seen
    before, with a trace length inside the catalogue's range that the
    catalogue does not use, so the server simulates it and writes a
    result; a fixed share keeps the write load the same on every seed.
    """

    def __init__(self, seed: int, size: Size):
        self._rng = random.Random(seed)
        self._size = size
        from repro.workloads import workload_names
        self._names = workload_names()
        # Seed-shuffled (workload, scheme) pairs, with the trace lengths
        # rotated through the ranks so every stretch of ranks asks for
        # each length equally often: how much a run simulates then does
        # not hang on the lengths of a few hot specs.
        pairs = [(w, s) for w in self._names for s in size.served_schemes]
        self._rng.shuffle(pairs)
        lengths = size.served_records
        self._ranked = [
            (*pairs[r % len(pairs)],
             lengths[(r % len(pairs) + r // len(pairs)) % len(lengths)])
            for r in range(len(pairs) * len(lengths))]
        weights = [1.0 / rank for rank in range(1, len(self._ranked) + 1)]
        self._cum = list(itertools.accumulate(weights))
        self._seen = set(self._ranked)
        self._count = 0
        self._lock = threading.Lock()

    def next(self) -> Tuple[Spec, bool]:
        """The next request and whether it is novel."""
        rng, size = self._rng, self._size
        with self._lock:
            self._count += 1
            if self._count % size.novel_every == 0:
                lengths = size.served_records
                while True:
                    spec = (rng.choice(self._names),
                            rng.choice(size.served_schemes),
                            rng.randrange(min(lengths), max(lengths)))
                    if spec not in self._seen:
                        break
                self._seen.add(spec)
                return spec, True
            return rng.choices(self._ranked, cum_weights=self._cum)[0], False
