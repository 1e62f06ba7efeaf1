"""In-memory spans for the traced run, written out when the run ends.

A span records a name, its start and end on the ``perf_counter_ns`` clock,
the index of the enclosing span (-1 at top level) and how many calls it
covers, so a span around a loop of n identical calls yields a per-call
time. Samples hold values measured some other way, such as the import
times a child interpreter reports, and totals hold counts of work done.
"""

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start_ns, end_ns, parent, calls]
        self.samples = {}     # name -> list of values
        self.totals = {}      # name -> running count
        self._stack = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, calls]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add(self, name: str, count: int) -> None:
        self.totals[name] = self.totals.get(name, 0) + count

    def per_call_ns(self, name: str) -> list:
        return [(end - start) / calls for span_name, start, end, _, calls in self.spans
                if span_name == name]

    def median_per_call_ns(self, name: str) -> float:
        values = self.per_call_ns(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, calls in self.spans:
                out.write(json.dumps({"span": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "calls": calls}) + "\n")
            for name, values in self.samples.items():
                out.write(json.dumps({"sample": name, "values": values}) + "\n")
            for name, count in self.totals.items():
                out.write(json.dumps({"total": name, "count": count}) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    _null = nullcontext()

    def span(self, name: str, calls: int = 1):
        return self._null

    def sample(self, name: str, value: float) -> None:
        pass

    def add(self, name: str, count: int) -> None:
        pass
