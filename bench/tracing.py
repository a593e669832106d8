"""Spans and counters recorded around the benchmark's calls into the package.

The benchmark never instruments the package itself: every span starts and
ends in the benchmark's own code, around one call into a public function of
a layer. Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records spans (name, start, end, parent, item) when enabled.

    With tracing off every method is a pass-through, so the untraced run
    pays for one extra Python call per layer call and nothing else.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # (name, start, end, parent index or -1, item id)
        self.durations = defaultdict(lambda: array("d"))  # name -> per-call seconds
        self.counts = Counter()
        self._item = None
        self._parent = -1

    def begin_item(self, item_id: str):
        """Open the span that parents every layer call made for one item."""
        if self.enabled:
            self._item = item_id
            self._parent = len(self.spans)
            self.spans.append(["item", perf_counter(), None, -1, item_id])

    def end_item(self):
        if self.enabled:
            self.spans[self._parent][2] = perf_counter()
            self._item = None
            self._parent = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `<module>.<function>`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append((name, start, end, self._parent, self._item))
            self.durations[name].append(end - start)

    def hot(self, name: str, fn):
        """Wrap fn for a hot loop: per-call time and count, but no span.

        The loop's item span stands for the whole sequence.
        """
        if not self.enabled:
            return fn
        durations = self.durations[name]

        def timed(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                durations.append(perf_counter() - start)

        return timed

    def count(self, name: str, n: int = 1):
        if self.enabled:
            self.counts[name] += n

    def layer_metrics(self, functions, counters, scale) -> dict:
        """`.calls`, `.s` and `.p50_ms` for each function, plus the counters;
        times are multiplied by `scale`."""
        out = {}
        for name in functions:
            d = self.durations.get(name, ())
            out[f"{name}.calls"] = (len(d), "count")
            out[f"{name}.s"] = (scale * sum(d), "s")
            out[f"{name}.p50_ms"] = (scale * statistics.median(d) * 1e3 if d else 0.0, "ms")
        for name in counters:
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, item."""
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps([name, start, end, parent, item]) + "\n")
