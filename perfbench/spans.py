"""Layer spans recorded from outside the program.

The benchmark times each layer of ``repro`` by replacing the attribute a
caller looks up (a class method, or a module-level name that another
module imported by name) with a thin wrapper that opens a span before
the call and closes it after.  Nothing under ``src/repro`` changes:
:func:`install` patches, :func:`uninstall` puts every original back.

A span carries a name, a start, an end and its parent (the span open
when it started).  Spans live in flat arrays while the workload runs and
are reduced to per-name counts, inclusive time and self time when it
ends.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Target", "SpanRecorder", "SpanStats", "install", "uninstall"]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``owner`` is a class or module; ``attr`` the name its callers look up.
    ``span`` is the span name, or ``None`` for a call counter without a
    span.  ``observe(args, result)`` runs after each call, for counts that
    need the arguments or the return value.
    """

    owner: Any
    attr: str
    span: Optional[str]
    observe: Optional[Callable[[tuple, Any], None]] = None


class SpanRecorder:
    """Keeps spans in memory: name id, parent index, start and end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        #: Call counts of counter-only targets (no span).
        self.counts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(
        self,
        func: Callable,
        name: str,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``func`` inside a span called ``name``."""
        nid = self.name_index(name)
        clock = self.clock
        name_ids, parents = self.name_id, self.parent
        starts, ends, open_spans = self.start, self.end, self._open

        def span(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = func
        return span

    def wrap_counter(
        self,
        func: Callable,
        name: str,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``func`` with its calls counted under ``name`` (no span)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            result = func(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        counted.__wrapped__ = func
        return counted

    def stats(self) -> "SpanStats":
        """Reduce the recorded spans; every span must be closed."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans are still open")
        return SpanStats(self)


def install(
    recorder: SpanRecorder, targets: Sequence[Target]
) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            own = vars(target.owner).get(target.attr, _MISSING)
            original = getattr(target.owner, target.attr)
            if target.span is None:
                wrapper = recorder.wrap_counter(
                    original, f"{target.owner.__name__}.{target.attr}",
                    target.observe,
                )
            else:
                wrapper = recorder.wrap(original, target.span, target.observe)
            undo.append((target.owner, target.attr, own))
            setattr(target.owner, target.attr, wrapper)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    """Restore every attribute :func:`install` replaced, newest first."""
    while undo:
        owner, attr, own = undo.pop()
        if own is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


class SpanStats:
    """Per-name aggregates of one recording."""

    def __init__(self, recorder: SpanRecorder):
        self.names = list(recorder.names)
        n_names = len(self.names)
        self.calls = [0] * n_names
        self.total = [0.0] * n_names
        self.self_time = [0.0] * n_names
        #: Inclusive time of spans with no parent (the top level).
        self.top_level = 0.0
        name_id, parent = recorder.name_id, recorder.parent
        start, end = recorder.start, recorder.end
        count = len(start)
        child_time = array("d", bytes(8 * count))
        for i in range(count):
            duration = end[i] - start[i]
            nid = name_id[i]
            self.calls[nid] += 1
            self.total[nid] += duration
            p = parent[i]
            if p < 0:
                self.top_level += duration
            else:
                child_time[p] += duration
        for i in range(count):
            self.self_time[name_id[i]] += (end[i] - start[i]) - child_time[i]
        self._recorder = recorder
        self.counts = dict(recorder.counts)

    def _index(self, name: str) -> Optional[int]:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls_of(self, name: str) -> int:
        index = self._index(name)
        return 0 if index is None else self.calls[index]

    def seconds(self, name: str) -> float:
        index = self._index(name)
        return 0.0 if index is None else self.total[index]

    def self_seconds(self, name: str) -> float:
        index = self._index(name)
        return 0.0 if index is None else self.self_time[index]

    def median_seconds(self, name: str) -> float:
        index = self._index(name)
        rec = self._recorder
        durations = [
            rec.end[i] - rec.start[i]
            for i in range(len(rec.start))
            if rec.name_id[i] == index
        ]
        return statistics.median(durations) if durations else 0.0

    def _below(self, ancestors: Sequence[str]) -> array:
        """Per span: 1 when a span named in ``ancestors`` encloses it."""
        rec = self._recorder
        wanted = {i for i in map(self._index, ancestors) if i is not None}
        below = array("b", bytes(len(rec.start)))
        for i in range(len(rec.start)):
            p = rec.parent[i]
            below[i] = p >= 0 and (below[p] or rec.name_id[p] in wanted)
        return below

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        target = self._index(name)
        below = self._below([ancestor])
        name_id = self._recorder.name_id
        return sum(
            1 for i in range(len(below)) if below[i] and name_id[i] == target
        )

    def seconds_within(
        self, names: Sequence[str], ancestors: Sequence[str] = ()
    ) -> float:
        """Inclusive time of the outermost spans in ``names``.

        With ``ancestors``, only spans that one of those encloses count.
        """
        rec = self._recorder
        wanted = {i for i in map(self._index, names) if i is not None}
        nested = self._below(names)
        inside = self._below(ancestors) if ancestors else None
        total = 0.0
        for i in range(len(nested)):
            if nested[i] or rec.name_id[i] not in wanted:
                continue
            if inside is None or inside[i]:
                total += rec.end[i] - rec.start[i]
        return total

    def table(self) -> str:
        """Human-readable per-name summary, slowest first."""
        rows = sorted(
            range(len(self.names)), key=lambda i: -self.total[i]
        )
        lines = [f"{'span':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for i in rows:
            lines.append(
                f"{self.names[i]:<40} {self.calls[i]:>9d} "
                f"{self.total[i]:>10.4f} {self.self_time[i]:>10.4f}"
            )
        for name, count in sorted(self.counts.items()):
            lines.append(f"{name:<40} {count:>9d} {'(count)':>10}")
        return "\n".join(lines)
