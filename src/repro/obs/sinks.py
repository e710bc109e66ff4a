"""Event sinks: where emitted records go.

A sink is anything with ``handle(record: dict)`` and ``close()``.  The
bus fans every event out to all attached sinks under its emission lock,
so sinks themselves need no locking.  A broken trace file must not kill
a sweep, so :class:`JsonlSink` turns an I/O error into one warning and
disables itself; a record that cannot be serialised is a schema bug in
the emitter and raises.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, List, Optional

__all__ = ["Sink", "MemorySink", "JsonlSink", "read_trace"]


class Sink:
    """Sink interface (structural; subclassing is optional)."""

    def handle(self, record: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemorySink(Sink):
    """Collect records in a list (tests, the benchmark guard)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self.closed = False

    def handle(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class JsonlSink(Sink):
    """Append one JSON line per event to a trace file.

    The file opens lazily on the first record (a traced run that emits
    nothing leaves nothing behind).  An I/O error warns once, naming the
    path and the error, and permanently disables the sink: tracing is an
    observer, never a failure mode, but a trace that cannot be written
    is not a silently missing file.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self._dead = False

    def handle(self, record: Dict[str, object]) -> None:
        if self._dead:
            return
        line = json.dumps(record, separators=(",", ":")) + "\n"
        try:
            if self._handle is None:
                parent = os.path.dirname(self.path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                self._handle = open(self.path, "w", encoding="utf-8")
            self._handle.write(line)
            # Line-buffered on purpose: the env-driven sink lives for
            # the whole process and traces must be tail-able mid-run.
            self._handle.flush()
        except OSError as error:
            self._dead = True
            self._close_handle()
            warnings.warn(
                f"cannot write trace file {self.path!r} ({error}); "
                f"tracing to it is off for the rest of the run",
                RuntimeWarning,
                stacklevel=2,
            )

    def close(self) -> None:
        self._close_handle()

    def _close_handle(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


def read_trace(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace back into records (blank lines skipped).

    Raises ``ValueError`` naming the offending line on malformed JSON —
    ``trace report``/``validate`` want a loud failure on a truncated or
    foreign file, not a silently partial report.
    """
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as error:
                raise ValueError(
                    f"{path}:{number}: not a JSON trace record ({error})"
                ) from None
    return records


def trace_metrics(records: List[Dict[str, object]]) -> Optional[Dict]:
    """The ``trace.metrics`` footer snapshot of a trace, if present."""
    for record in reversed(records):
        if record.get("name") == "trace.metrics":
            data = record.get("data")
            return data if isinstance(data, dict) else None
    return None
