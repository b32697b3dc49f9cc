"""Spans and work counters of one benchmark repetition, kept in memory.

A span has a name, a start, an end and a parent, and every span of a run
carries the run's id.  With tracing off, `span` does nothing, so the
untraced repetitions time the program alone; `count` likewise.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool, run_id: str, origin: float):
        self.enabled = enabled
        self.run_id = run_id
        self.origin = origin  # time.monotonic() at process start
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = {
            "run_id": self.run_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.monotonic() - self.origin

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] += amount

    def wrap(self, module, attribute: str, name: str, on_result=None) -> None:
        """Route calls to module.attribute through a span of the given name.

        Used for layers the benchmark reaches only through another public
        function, such as the transversal inside `h1_of_surface`.
        """
        inner = getattr(module, attribute, None)
        if inner is None:
            return

        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attribute, traced)
