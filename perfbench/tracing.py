"""Spans and per-call counters taken from outside failcover.

The tracer wraps the public names that failcover's modules look up at call
time (module globals and class attributes), so no program file changes. Coarse
boundaries become spans with a parent; hot leaf calls are aggregated into a
count, a total time and a self time per name, which keeps the overhead per
call to two clock reads and a few additions. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    #: Time covered by direct children: child spans and leaf calls.
    child_s: float = 0.0
    #: Inclusive time of leaf calls made while this was the innermost span.
    leaf_s: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: leaf name -> [calls, total seconds, self seconds]
        self.leaves: dict[str, list] = {}
        # Each open span or leaf call owns a one-element list: its children's time.
        self._stack: list[list[float]] = []
        self._span: Span | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._span
        s = Span(len(self.spans), name, None if parent is None else parent.id, 0.0, attrs=attrs)
        self.spans.append(s)
        frame = [0.0]
        self._stack.append(frame)
        self._span = s
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()
            s.child_s = frame[0]
            if self._stack:
                self._stack[-1][0] += s.duration
            self._span = parent

    def leaf(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the aggregated counters of ``name``."""
        stat = self.leaves.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                by_name = self._span.leaf_s
                by_name[name] = by_name.get(name, 0.0) + dt

        return wrapper

    def spanned(self, name: str, fn, attrs=None, after=None):
        """Wrap ``fn`` in a span; ``attrs(args)`` names it, ``after(span, args, result)``
        records counts once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(args) if attrs else {})) as s:
                result = fn(*args, **kwargs)
            if after is not None:
                after(s, args, result)
            return result

        return wrapper

    def total_self_s(self) -> float:
        """Sum of every span's and every leaf's self time."""
        return sum(s.self_s for s in self.spans) + sum(stat[2] for stat in self.leaves.values())

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


@contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set each ``(owner, attribute, value)`` and restore the originals on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """The replacements that trace the imported failcover package.

    Each name is patched where its caller looks it up: the harness's and the
    coverage module's imported globals, the algorithm modules' globals, and the
    two methods on their classes.
    """
    from failcover import core, coverage, harness
    from failcover.algorithms import nsga2, omopso

    def sample_count(span, args, batch):
        span.attrs["points"] = len(batch)

    def refset_count(span, args, refset):
        span.attrs["points"] = len(refset)
        span.attrs["sampled"] = refset.total_sampled

    def series_count(span, args, series):
        # Computed, not counted: each fresh failure is compared against every
        # reference point exactly once over the whole series.
        span.attrs["distance_evals"] = len(args[1]) * series.final().failures_so_far

    def run_count(span, args, history):
        span.attrs["evaluations"] = len(history)

    return [
        (harness, "build_reference_set",
         tracer.spanned("build_reference_set", harness.build_reference_set, after=refset_count)),
        (coverage, "sample_by_name",
         tracer.spanned("sample_by_name", coverage.sample_by_name, after=sample_count)),
        (harness, "run_algorithm",
         tracer.spanned("run_algorithm", harness.run_algorithm,
                        attrs=lambda args: {"algorithm": args[0]}, after=run_count)),
        (harness, "convergence_series",
         tracer.spanned("convergence_series", harness.convergence_series, after=series_count)),
        (harness, "compare_samples", tracer.spanned("compare_samples", harness.compare_samples)),
        (core.RunLog, "evaluate", tracer.leaf("evaluate", core.RunLog.evaluate)),
        (core.ProblemDefinition, "fitness", tracer.leaf("fitness", core.ProblemDefinition.fitness)),
        (omopso, "dominates", tracer.leaf("dominates", omopso.dominates)),
        (omopso, "crowding_distance", tracer.leaf("crowding", omopso.crowding_distance)),
        (nsga2, "crowding_distance", tracer.leaf("crowding", nsga2.crowding_distance)),
        (nsga2, "novelty_distance", tracer.leaf("novelty", nsga2.novelty_distance)),
        (nsga2, "fast_nondominated_sort", tracer.leaf("sort", nsga2.fast_nondominated_sort)),
    ]
