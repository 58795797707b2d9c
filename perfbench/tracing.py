"""In-memory spans around the benchmark's calls into the package.

A span records name, start, end, parent span and run id.  Spans stay in
memory until the run ends; `write` then dumps them as JSON.  A disabled
tracer calls straight through and records nothing, which is how the traced
run measures its own overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def patched(self, module, spans: dict[str, str], inner: dict | None = None):
        """Within the block, each module.attr in spans runs inside a span
        named spans[attr], so calls the package makes internally are traced
        on their real path.  inner may replace an attribute's function under
        its span.  The module's own attributes are restored afterwards."""
        saved = {attr: getattr(module, attr) for attr in spans}

        def traced(name, fn):
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        try:
            for attr, name in spans.items():
                setattr(module, attr, traced(name, (inner or {}).get(attr, saved[attr])))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def subtree(self, name: str) -> Tracer:
        """A tracer holding the spans below the first span called name."""
        root = next(s["id"] for s in self.spans if s["name"] == name)
        below = Tracer(self.run_id)
        kept = {root}
        for s in self.spans:  # a parent is recorded before its children
            if s["parent"] in kept:
                kept.add(s["id"])
                below.spans.append(s)
        return below

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name, summed duration minus the time its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")
