"""Outside-in tracing: spans and call counts around the library's public functions.

The tracer replaces module and class attributes with thin wrappers, so calls
made inside the library (learner -> translator.generate_topk, for example)
are seen as long as the caller looks the function up through its module at
call time, which every call site in the package does.  Nothing under src/
is edited; uninstall() restores the original attributes.

Spans are kept in memory as (name, start, end, parent, phase) records and
summarised once at the end.  Self time is a span's duration minus the
durations of its direct children.  Counters are bumped at the same
boundaries; the hottest functions (LanguageModel.sentence_prob,
mrl.serialize_mr) are counted but not timed, because a span per call would
cost more than the call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: Counter = Counter()  # (phase, name) -> calls
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def recording(self, phase: str):
        """Record spans and counts under `phase` for the duration of the block."""
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    @contextmanager
    def span(self, name: str):
        if self.phase is None:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.phase]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.counts[(self.phase, name + ".raised")] += 1
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_span(self, owner, attr: str, name) -> None:
        """Time every call of owner.attr as a span; `name` is the span name,
        or a function of the call's arguments that returns it."""
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return original(*args, **kwargs)

        self._patch(owner, attr, traced)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self.phase is not None:
                counts[(self.phase, name)] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def count(self, phase: str, name: str) -> int:
        """Calls of a counted function, or `<span>.raised` exits, in `phase`."""
        return self.counts[(phase, name)]

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls within `phase`."""
        child_time = defaultdict(float)
        for name, start, end, parent, span_phase in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for index, (name, start, end, parent, span_phase) in enumerate(self.spans):
            if span_phase != phase or end is None:
                continue
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        return dict(out)
