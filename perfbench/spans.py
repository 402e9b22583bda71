"""In-memory span recording around the simulator's layer boundaries.

The benchmark wraps each layer's public function at the name its
callers look it up through (a module global or a class attribute), so
the per-layer split is measured from outside the program.  Spans stay
in memory and are written once, as JSON lines, when a process ends;
spans from child processes are merged afterwards.

Times come from ``time.perf_counter``, which reads ``CLOCK_MONOTONIC``
on Linux, so spans recorded by different processes on one host share a
time base and can be nested across the process boundary.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

_CURRENT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_span", default=None)
_OP: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_op", default=None)


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's id (or None)."""

    id: str
    name: str
    start: float
    end: float
    parent: Optional[str]
    op: Optional[str]
    pid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one process and undoes its patches on demand."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------

    def record(self, name: str, start: float, end: float,
               parent: Optional[str] = None, op: Optional[str] = None,
               attrs: Optional[Dict[str, Any]] = None) -> str:
        """Add a span measured by the caller; returns its id."""
        with self._lock:
            span_id = f"{self._pid}:{next(self._ids)}"
            self.spans.append(Span(span_id, name, start, end, parent, op,
                                   self._pid, dict(attrs or {})))
        return span_id

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             op: Optional[str] = None,
             attrs_of: Optional[Callable] = None) -> Any:
        """Run ``fn`` inside a span parented on the current one."""
        with self._lock:
            span_id = f"{self._pid}:{next(self._ids)}"
        parent = _CURRENT.get()
        op_token = _OP.set(op) if op is not None else None
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            op_id = _OP.get()
            if op_token is not None:
                _OP.reset(op_token)
            attrs = attrs_of(args, kwargs, result) \
                if attrs_of is not None else {}
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       op_id, self._pid, attrs))

    # -- patching ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             op_of: Optional[Callable] = None,
             attrs_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``op_of(args)`` names the operation a call starts (e.g. a job
        id); ``attrs_of(args, kwargs, result)`` returns span attributes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = op_of(args) if op_of is not None else None
            return recorder.call(name, original, args, kwargs, op=op,
                                 attrs_of=attrs_of)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def dump(self, path: Path) -> None:
        with self._lock:
            recorded = list(self.spans)
        lines = [json.dumps(asdict(span), separators=(",", ":"))
                 for span in recorded]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))


def set_op(op: Optional[str]) -> None:
    """Mark the calling context as working on ``op``."""
    _OP.set(op)


def load(path: Path) -> List[Span]:
    """Read spans written by :meth:`Recorder.dump` (empty if absent)."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return []
    return [Span(**json.loads(line)) for line in text.splitlines() if line]


def adopt(spans: Iterable[Span], parent_of_op: Dict[str, str]) -> None:
    """Hang a child process's root spans under the parent's op spans."""
    for span in spans:
        if span.parent is None and span.op in parent_of_op:
            span.parent = parent_of_op[span.op]


def under(spans: List[Span], root_name: str) -> List[Span]:
    """The spans named ``root_name`` and everything nested below them."""
    by_id = {span.id: span for span in spans}
    kept: Dict[str, bool] = {}

    def keep(span: Span) -> bool:
        if span.id not in kept:
            parent = by_id.get(span.parent) if span.parent else None
            kept[span.id] = span.name == root_name or (
                parent is not None and keep(parent))
        return kept[span.id]

    return [span for span in spans if keep(span)]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result
