"""Spans recorded around the program's callables, from outside the program.

The traced run replaces public callables at class (or module) level with
wrappers that record one span per call: ``(id, parent id, name, thread,
start, end, op, n)``.  The parent is the innermost wrapped call still open
on the same thread, so a span's self time is its duration minus what its
children cover.  ``op`` is the wave index the call works on, read from
the packet it handles (see ``workloads``); a span without one inherits
its parent's.  ``n`` is a per-call size (bytes out of ``to_bytes``,
envelopes out of ``get_batch``, destinations of a multicast).

Wrappers must be installed before ``Network(...)`` is built: the node
loop binds ``inbox.get_batch`` once when it starts, and each node binds
``transport.multicast`` when it is constructed.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from dataclasses import dataclass
from threading import get_ident
from typing import Any, Callable, Iterable, NamedTuple

#: Marker attribute on every wrapper, naming the callable it replaced.
WRAPPED_ATTR = "__perfbench_wrapped__"


class Span(NamedTuple):
    sid: int
    parent: int  # 0 = none
    name: str
    thread: int
    t0: float
    t1: float
    op: int | None
    n: int | None


Extractor = Callable[[tuple, Any], Any]


class _Stack(threading.local):
    def __init__(self) -> None:
        self.ids: list[int] = []


class SpanRecorder:
    """Keeps spans in memory as plain tuples; one shared list, one id counter."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = _Stack()

    @property
    def spans(self) -> list[Span]:
        return [Span._make(t) for t in self._raw]

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        op_of: Extractor | None = None,
        n_of: Extractor | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._local.ids
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        clock = self.clock
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = clock()
            stack.pop()
            self._raw.append((
                sid, parent, name, get_ident(), t0, t1,
                None if op_of is None else op_of(args, result),
                None if n_of is None else n_of(args, result),
            ))

    def add(self, name: str, t0: float, t1: float, op: int | None = None) -> None:
        """Record a span measured elsewhere (no parent, no children)."""
        self._raw.append((next(self._ids), 0, name, get_ident(), t0, t1, op, None))

    def resolved(self) -> list[Span]:
        """Spans with ``op`` inherited from the nearest ancestor that has one."""
        spans = self.spans
        by_id = {s.sid: s for s in spans}
        memo: dict[int, int | None] = {}

        def op_of(s: Span) -> int | None:
            chain = []
            while s.op is None and s.parent and s.sid not in memo:
                chain.append(s.sid)
                parent = by_id.get(s.parent)
                if parent is None:
                    break
                s = parent
            op = memo.get(s.sid, s.op)
            for sid in chain:
                memo[sid] = op
            return op

        return [s if s.op is not None else s._replace(op=op_of(s)) for s in spans]

    def write(self, path: str, spans: Iterable[Span]) -> int:
        """Write spans as gzipped JSON lines, sorted by start; returns the count."""
        n = 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(spans, key=lambda s: s.t0):
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")
                n += 1
        return n


def self_times(spans: Iterable[Span], name: str) -> list[float]:
    """Self time of each ``name`` span: its duration minus what its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = []
    for s in spans:
        if s.name != name:
            continue
        covered = 0.0
        end = s.t0
        for c0, c1 in sorted(children.get(s.sid, ())):
            c0, c1 = max(c0, end), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((s.t1 - s.t0) - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr``, recorded as span ``name``.

    ``name`` may be a callable of the call's arguments, for spans named
    after the object called (a filter's registered name).
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    op_of: Extractor | None = None
    n_of: Extractor | None = None
    #: Wraps the callable instead of the generic span wrapper when set.
    custom: Callable[[SpanRecorder, Callable[..., Any]], Callable[..., Any]] | None = None


def _make_wrapper(rec: SpanRecorder, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
    if target.custom is not None:
        return target.custom(rec, fn)
    name, op_of, n_of = target.name, target.op_of, target.n_of
    if callable(name):
        name_of = name

        @functools.wraps(fn)
        def named(*args: Any, **kwargs: Any) -> Any:
            return rec.call(name_of(args), fn, args, kwargs, op_of, n_of)

        return named

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.call(name, fn, args, kwargs, op_of, n_of)

    return wrapper


class Instrumentation:
    """Installs span wrappers on ``targets`` and puts the originals back."""

    def __init__(self, rec: SpanRecorder, targets: Iterable[Target]) -> None:
        self.rec = rec
        self.targets = list(targets)
        self._saved: list[tuple[Target, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for t in self.targets:
            orig = t.owner.__dict__[t.attr]
            is_classmethod = isinstance(orig, classmethod)
            fn = orig.__func__ if is_classmethod else orig
            wrapper = _make_wrapper(self.rec, t, fn)
            setattr(wrapper, WRAPPED_ATTR, f"{t.owner.__name__}.{t.attr}")
            setattr(t.owner, t.attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._saved.append((t, orig))

    def restore(self) -> None:
        for t, orig in reversed(self._saved):
            setattr(t.owner, t.attr, orig)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def snapshot_originals(targets: Iterable[Target]) -> dict[tuple[int, str], Any]:
    """The callables ``targets`` name right now, keyed by (owner id, attr)."""
    return {(id(t.owner), t.attr): t.owner.__dict__[t.attr] for t in targets}


def assert_pristine(targets: Iterable[Target], originals: dict[tuple[int, str], Any]) -> None:
    """Raise unless every target attribute is the original callable.

    Untraced runs call this before measuring: a wrapper left behind would
    put its cost into the end-to-end metrics.
    """
    bad = []
    for t in targets:
        current = t.owner.__dict__[t.attr]
        inner = current.__func__ if isinstance(current, classmethod) else current
        if current is not originals[(id(t.owner), t.attr)] or hasattr(inner, WRAPPED_ATTR):
            bad.append(f"{t.owner.__name__}.{t.attr}")
    if bad:
        raise RuntimeError(f"wrapped attributes left in place: {', '.join(bad)}")
