"""In-memory spans for the traced window.

Spans are recorded only by harness code, around the calls into each
layer's public functions; nothing inside ``src/`` is instrumented.  A
span is ``{id, name, layer, start_ns, end_ns, parent, op_id}``: ``parent``
is the id of the enclosing span (-1 for a root), ``op_id`` is shared
by every span of one op.  Spans stay in memory until the benchmark ends
and are then written in Chrome trace format (open in chrome://tracing
or https://ui.perfetto.dev).

A layer's *self time* is the sum, over its spans, of the span's duration
minus the part its direct children cover — so the self times of all
layers under a root span add up to that root's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class Tracer:
    """Collects spans when enabled; costs one ``nullcontext`` when not."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, layer: str, op_id: Optional[int] = None):
        if not self.enabled:
            return nullcontext()
        return self._span(name, layer, op_id)

    @contextmanager
    def _span(self, name: str, layer: str, op_id: Optional[int]):
        parent = self._stack[-1] if self._stack else -1
        if op_id is None and parent >= 0:
            op_id = self.spans[parent]["op_id"]
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "start_ns": time.perf_counter_ns(),
            "end_ns": 0,
            "parent": parent,
            "op_id": op_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def add_child(self, parent: dict, name: str, layer: str, duration_ns: int) -> None:
        """Attribute ``duration_ns`` of ``parent`` to a callee layer.

        For time the program itself reports (``RunResult.compile``, the
        CLI's ``--stats`` lines): the duration is measured, its position
        inside the parent is not, so children are packed back from the
        parent's end.  No-op when tracing is off (``parent`` is None).
        """
        if not self.enabled or duration_ns <= 0:
            return
        idx = parent["id"]
        used = sum(
            s["end_ns"] - s["start_ns"] for s in self.spans[idx + 1 :] if s["parent"] == idx
        )
        room = parent["end_ns"] - parent["start_ns"] - used
        duration_ns = min(int(duration_ns), max(room, 0))
        end = parent["end_ns"] - used
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "start_ns": end - duration_ns,
                "end_ns": end,
                "parent": idx,
                "op_id": parent["op_id"],
            }
        )

    def self_times_ms(self, root_name: str) -> Dict[str, float]:
        """Per-layer self time under the root spans called ``root_name``;
        sums to the total duration of those roots."""
        covered = [0] * len(self.spans)
        in_tree = [False] * len(self.spans)
        for s in self.spans:  # parents precede their children
            if s["parent"] < 0:
                in_tree[s["id"]] = s["name"] == root_name
            else:
                in_tree[s["id"]] = in_tree[s["parent"]]
                covered[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: Dict[str, float] = {}
        for s in self.spans:
            if in_tree[s["id"]]:
                self_ns = s["end_ns"] - s["start_ns"] - covered[s["id"]]
                out[s["layer"]] = out.get(s["layer"], 0.0) + self_ns / 1e6
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome trace format; ``args`` keeps the parent index and op id."""
        events = [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": s["start_ns"] / 1e3,
                "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": s["id"], "parent": s["parent"], "op_id": s["op_id"]},
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
