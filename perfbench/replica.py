"""Spans recorded from the benchmark's own code, and the in-process replica.

Nothing here changes the program.  Spans are taken around calls *into*
the program's layers: the client call (one per served operation), and on
an in-process replica database the ``EOSDatabase.op_*`` call and the
public methods of its ``BuddyManager``, ``BufferPool`` and ``SegmentIO``
(wrapped on the instance, so every internal caller that goes through
the attribute is seen).  Spans are kept in memory and written as JSON
lines at the end.

A layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from workloads import perform

#: Public calls wrapped on the replica, per layer.
LAYER_METHODS = {
    "buddy": ("allocate", "allocate_up_to", "free", "free_segment"),
    "buffer": ("fetch", "fetch_new", "put_new", "unpin", "mark_dirty",
               "flush_page", "flush_all", "drop"),
    "segio": ("view_run", "read_bytes", "read_span", "write_segment",
              "write_run_v", "read_page", "write_page", "patch_page"),
}


class Spans:
    """An in-memory span recorder with per-name totals and self times."""

    def __init__(self) -> None:
        # (name, start_ns, duration_ns, self_ns, parent_index)
        self.records: list[tuple] = []
        self._stack: list[list] = []  # [index, start_ns, child_ns]

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.records.append((name, 0, 0, 0, parent))
        self._stack.append([len(self.records) - 1, time.perf_counter_ns(), 0])

    def end(self) -> int:
        t1 = time.perf_counter_ns()
        index, t0, child = self._stack.pop()
        duration = t1 - t0
        name, _, _, _, parent = self.records[index]
        self.records[index] = (name, t0, duration, duration - child, parent)
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, obj, layer: str, methods) -> None:
        """Replace ``obj.<method>`` with a spanned call, on the instance."""
        for method in methods:
            inner = getattr(obj, method)
            name = f"{layer}.{method}"

            def spanned(*args, _inner=inner, _name=name, **kwargs):
                self.begin(_name)
                try:
                    return _inner(*args, **kwargs)
                finally:
                    self.end()

            setattr(obj, method, spanned)

    def durations_us(self, prefix: str, since: int = 0) -> list[float]:
        """Durations of the spans from record ``since`` on."""
        return [r[2] / 1000.0 for r in self.records[since:]
                if r[0].startswith(prefix)]

    def self_us(self, prefix: str, since: int = 0) -> float:
        """Summed self time of the spans from record ``since`` on."""
        return sum(r[3] for r in self.records[since:]
                   if r[0].startswith(prefix)) / 1000.0

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.records[0][1] if self.records else 0
        with open(path, "w") as f:
            for i, (name, t0, dur, self_ns, parent) in enumerate(self.records):
                f.write(json.dumps({
                    "span": i, "parent": parent, "name": name,
                    "start_us": round((t0 - origin) / 1000.0, 3),
                    "dur_us": round(dur / 1000.0, 3),
                    "self_us": round(self_ns / 1000.0, 3),
                }) + "\n")


def median_or_zero(values) -> float:
    """The median, or 0.0 when the run made no such call."""
    return statistics.median(values) if values else 0.0


def make_replica(pages: int, retain: int):
    """A database configured exactly as ``servectl serve`` configures one."""
    from repro.api import EOSDatabase
    from repro.core.config import EOSConfig

    config = EOSConfig(versioning=True, version_retain=retain) if retain else None
    db = EOSDatabase.create(num_pages=pages, config=config)
    db.obs.enable(sinks=[])  # a served database always keeps metrics on
    return db


def replay(pages: int, retain: int, preload: list[bytes], ops: list[tuple],
           *, spans: Spans | None = None, measure_from: int = 0) -> dict:
    """Replay the served run's preload and operations in process.

    Without ``spans`` every ``op_*`` call is timed alone; with ``spans``
    the layers' public calls are spanned too.  Returns the per-op times
    (ns, in stream order), the replay's total time, the copy ledger's
    bytes, the payload bytes the operations moved and ``phase_span``,
    the index of the first span recorded for ``ops[measure_from]``.  The
    replica must pass ``EOSDatabase.verify()`` at the end.
    """
    from repro.util import copytrace

    db = make_replica(pages, retain)
    try:
        if spans is not None:
            spans.wrap(db.buddy, "buddy", LAYER_METHODS["buddy"])
            spans.wrap(db.pool, "buffer", LAYER_METHODS["buffer"])
            spans.wrap(db.segio, "segio", LAYER_METHODS["segio"])
        oids = []
        for data in preload:
            if spans is not None:
                spans.begin("engine.create")
            oids.append(db.op_create(data))
            if spans is not None:
                spans.end()
        times: list[int] = []
        moved = 0
        phase_span = 0
        with copytrace.tracking() as ledger:
            t_start = time.perf_counter_ns()
            for i, op in enumerate(ops):
                if spans is not None:
                    if i == measure_from:
                        phase_span = len(spans.records)
                    spans.begin(f"engine.{op[0]}")
                t0 = time.perf_counter_ns()
                result = perform(db, oids, op)
                times.append(time.perf_counter_ns() - t0)
                if spans is not None:
                    spans.end()
                if op[0] in ("read", "sread"):
                    moved += len(result)
                elif op[4] is not None:
                    moved += len(op[4])
            total_ns = time.perf_counter_ns() - t_start
            copied = ledger.bytes_copied
        db.verify()
        sizes = [size for _, size in db.op_list()]
        return {"times": times, "total_ns": total_ns, "copied": copied,
                "moved": moved, "sizes": sizes, "phase_span": phase_span}
    finally:
        db.close()
