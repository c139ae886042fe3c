"""In-memory spans, counters and a per-call watchdog for the benchmark.

Every call the benchmark makes into the system goes through
:meth:`Recorder.call`, which times it (latencies feed the end-to-end
metrics in both modes), arms the watchdog, and — in a traced run only —
records a span ``(id, name, layer, start, end, parent, run)``.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(
        self,
        run_id: str,
        *,
        traced: bool,
        call_timeout_s: float,
        run_deadline_s: float,
        on_timeout,
    ):
        self.run_id = run_id
        self.traced = traced
        self.lat: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.check_failed = 0
        self.failed_calls: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        # watchdog: one thread polls the armed call's deadline and the
        # whole-run deadline; a stuck call becomes a counted failure
        self._call_timeout_s = call_timeout_s
        self._run_deadline = time.monotonic() + run_deadline_s
        self._call_deadline: float | None = None
        self._current: str | None = None
        self._on_timeout = on_timeout
        self._stop = threading.Event()
        self._dog = threading.Thread(target=self._watch, daemon=True)
        self._dog.start()

    # ------------------------------------------------------------ watchdog
    def _watch(self) -> None:
        while not self._stop.wait(0.25):
            now = time.monotonic()
            late_call = self._call_deadline is not None and now > self._call_deadline
            if late_call or now > self._run_deadline:
                self.failed += 1
                self._on_timeout(self._current or "run")
                return

    def close(self) -> None:
        self._stop.set()
        self._dog.join(timeout=5)

    # --------------------------------------------------------------- spans
    def _open(self, name: str, layer: str) -> dict | None:
        if not self.traced:
            return None
        t = time.perf_counter()
        sp = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(sp)
        self._stack.append(sp["id"])
        self.overhead_s += time.perf_counter() - t
        return sp

    def _close(self, sp: dict | None) -> None:
        if sp is not None:
            t = time.perf_counter()
            sp["end"] = t - self._t0
            self._stack.pop()
            self.overhead_s += time.perf_counter() - t

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span around benchmark-side work (no watchdog, not a call)."""
        sp = self._open(name, layer)
        try:
            yield
        finally:
            self._close(sp)

    @contextmanager
    def call(self, name: str, layer: str):
        """Time one call into the system; it counts as attempted, and as
        failed if it raises or outlives the watchdog."""
        self.attempted += 1
        self._current = name
        self._call_deadline = time.monotonic() + self._call_timeout_s
        sp = self._open(name, layer)
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.failed += 1
            self.failed_calls[name] += 1
            raise
        finally:
            self.lat[name].append(time.perf_counter() - t0)
            self._call_deadline = None
            self._close(sp)

    @contextmanager
    def extra(self, name: str, layer: str):
        """Work done only to collect trace counters; it is charged to the
        tracing overhead (callers skip it in an untraced run)."""
        t0 = time.perf_counter()
        sp = self._open(name, layer)
        try:
            yield
        finally:
            self._close(sp)
            # _open and _close charge their own bookkeeping
            self.overhead_s += sp["end"] - sp["start"] if sp else time.perf_counter() - t0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """A correctness check: counts as attempted, and as failed if not ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failed += 1
            print(f"perfbench: CHECK FAILED {name}: {detail}", file=sys.stderr, flush=True)
        return ok

    # ------------------------------------------------------------- reports
    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp["parent"] is not None and sp["end"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            if sp["end"] is not None:
                out[sp["layer"]] += sp["end"] - sp["start"] - child[sp["id"]]
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans}, f)
