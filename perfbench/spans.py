"""In-memory span recorder for the benchmark's traced run.

A span brackets one call into the package made from the benchmark's own
code. It records a name, a start and an end (``time.perf_counter`` seconds)
and the span that was open when it began. Spans stay in memory and are
written out once the run ends.
"""

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(s["end"] - s["start"] for s in self._named(name))

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self._named(name)]

    def count(self, name: str) -> int:
        return len(self._named(name))


class NullTracer:
    """Stands in for :class:`Tracer` in untraced repeats; records nothing."""

    def span(self, name: str):
        return nullcontext()
