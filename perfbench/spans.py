"""In-memory spans recorded around calls into the program's modules.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or None, ``op`` the operation the span serves.  Spans
stay in memory until the run writes them out.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Spans:
    """Span recorder; while ``enabled`` is false, ``span`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: list[list] = []  # [name, start, end, parent, op]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        index = len(self.rows)
        parent = self._open[-1] if self._open else None
        self.rows.append([name, time.perf_counter(), None, parent, op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.rows[index][2] = time.perf_counter()

    def self_times(self) -> list[float]:
        out = [row[2] - row[1] for row in self.rows]
        for row in self.rows:
            if row[3] is not None:
                out[row[3]] -= row[2] - row[1]
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (row[2] - row[1]) for row in self.rows if row[0] == name]

    def self_ms(self, name: str) -> list[float]:
        return [1e3 * t for row, t in zip(self.rows, self.self_times()) if row[0] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, ((name, start, end, parent, op), own) in enumerate(
                zip(self.rows, self.self_times())
            ):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": own,
                }) + "\n")


def mean_p50(values) -> tuple[float, float]:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return float(statistics.fmean(values)), float(statistics.median(values))
