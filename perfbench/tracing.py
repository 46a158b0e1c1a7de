"""In-memory spans recorded around calls into the library's public functions.

A span is (name, start, end, parent).  Spans live in a list until the run
ends, when :meth:`Tracer.dump` writes them out as JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as one span; a span opened inside it is its child.

        ``probe=True`` marks a call the traced run makes only to time a step
        on its own (for example ``validate_mesh`` after ``triangulate``);
        probes are left out of the traced wall time.
        """
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": idx, "name": name, "parent": parent, **attrs}
        self.spans.append(record)
        self._open.append(idx)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def wall(self) -> float:
        """Duration of the top-level spans, less the probes (which have no
        children and are never nested in one another)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None) \
            - sum(s["end"] - s["start"] for s in self.spans if s.get("probe"))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
            fh.write("\n")
