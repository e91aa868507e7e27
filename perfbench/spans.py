"""Spans around calls into the package's layers, kept in memory, and self times.

The tracer replaces module attributes that callers look up at call time
(``cli.load_map``, ``sparsifier.solve`` ...) with wrappers that record one
span per call, and puts the originals back on ``restore``. Nothing in the
package is edited, and an untraced run never creates a tracer.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def maxrss_kib() -> int:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    job_id: int | None
    start: float = 0.0
    end: float = 0.0
    maxrss_start_kib: int = 0
    maxrss_end_kib: int = 0
    error: str | None = None  # exception type name, when the call raised
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job_id: int | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(name, len(self.spans) + 1, parent, self.job_id, maxrss_start_kib=maxrss_kib())
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            s.maxrss_end_kib = maxrss_kib()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs_of=None) -> bool:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``attrs_of(args, result)`` returns counts to store on the span; it
        runs after the span has ended. Returns False, wrapping nothing, when
        the module has no such attribute.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                s.attrs.update(attrs_of(args, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Spans of one job are strictly nested and sequential (one thread), so the
    children's durations are exactly the part of the parent they cover.
    """
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None:
            out[s.parent_id] -= s.duration
    return out


@dataclass
class JobSpans:
    """Sums over one job's spans, keyed by span name."""

    total_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    errors: dict = field(default_factory=lambda: defaultdict(int))  # (name, error type) -> calls
    attrs: dict = field(default_factory=lambda: defaultdict(int))  # (name, attr) -> sum


def by_job(spans: list[Span]) -> dict[int, JobSpans]:
    selfs = self_times(spans)
    jobs: dict[int, JobSpans] = defaultdict(JobSpans)
    for s in spans:
        j = jobs[s.job_id]
        j.total_s[s.name] += s.duration
        j.self_s[s.name] += selfs[s.span_id]
        j.calls[s.name] += 1
        if s.error:
            j.errors[(s.name, s.error)] += 1
        for k, v in s.attrs.items():
            j.attrs[(s.name, k)] += v
    return dict(jobs)


def maxrss_rise_mib(spans: list[Span], name: str) -> float:
    """How far the process high-water RSS rose while spans of ``name`` ran."""
    return sum(s.maxrss_end_kib - s.maxrss_start_kib for s in spans if s.name == name) / 1024.0
