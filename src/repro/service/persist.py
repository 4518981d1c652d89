"""Crash durability: one append-only journal, committed in groups.

A spool directory holds exactly one file, ``journal.jsonl``: one JSON
object per line, opened by a ``layout`` record.  ``submit``, ``suspend``
and ``done`` records carry their payload inline, base64 inside the line
— the pickled JobSpec, the portable snapshot, the result arrays as
dtype/shape/bytes — so a state transition is wholly in the journal or
not there at all; there is no second file for a line to refer to and no
write order to keep.

:meth:`Spool.append` only buffers; :meth:`Spool.commit` is one write,
one flush, one ``fsync`` (nothing when nothing was appended).  The
service commits at exactly two points.  When ``submit()`` /
``submit_all()`` returns, the jobs it returned ids for — accepted and
shed alike — survive a crash.  When ``step()`` returns, every
transition the round made (attempt, suspend, done, failed) does; a
caller can see a result only after ``step()`` returns, so a result a
client saw is durable.

What a crash leaves after the last commit is a prefix of the bytes of
one commit.  Complete lines in it are transitions the service really
made and nobody was yet told about: replaying them resumes from a state
the service passed through.  A torn last line parses as nothing,
:meth:`Spool.scan` ignores it and the next open cuts it off before
appending, so it cannot swallow the record written after it.
:meth:`Spool.scan` replays the journal into the last known state of
every job — terminal jobs with their tenants' spent budget, everything
else in flight, restartable from its newest snapshot or from scratch —
which is what ``repro serve --resume <dir>`` feeds the scheduler.  A
journal that does not open with this build's layout record (a spool of
the older one-file-per-payload layout) is refused with
:class:`SpoolError`, not read.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from typing import Any, Dict, List, Tuple

import numpy as np

from ..interp.checkpoint import snapshot_from_bytes, snapshot_to_bytes
from .jobstate import TERMINAL

#: first line of every journal; bump the version when a record's shape changes
_LAYOUT = b'{"ev": "layout", "version": 2}\n'


class SpoolError(Exception):
    """The directory holds a journal this build does not read."""


def fingerprint_from_json(fp) -> Any:
    """Clock fingerprints are nested tuples; JSON hands back lists."""
    if isinstance(fp, list):
        return tuple(fingerprint_from_json(x) for x in fp)
    return fp


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _encode_result(run) -> Dict[str, list]:
    """A DONE job's final variables (arrays + scalars)."""
    arrays = ((var, np.asarray(run[var])) for var in run)
    return {var: [a.dtype.str, a.shape, _b64(a.tobytes())] for var, a in arrays}


def _decode_result(enc: Dict[str, list]) -> Dict[str, np.ndarray]:
    return {
        var: np.frombuffer(base64.b64decode(data), dtype).reshape(shape).copy()
        for var, (dtype, shape, data) in enc.items()
    }


#: payload key of a record -> (object -> JSON value, JSON value -> object)
_CODECS = {
    "spec": (
        lambda spec: _b64(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)),
        lambda enc: pickle.loads(base64.b64decode(enc)),
    ),
    "snapshot": (
        lambda snap: _b64(snapshot_to_bytes(snap)),
        lambda enc: snapshot_from_bytes(base64.b64decode(enc)),
    ),
    "result": (_encode_result, _decode_result),
}


class Spool:
    """One service's durable state: the journal of a single directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.journal_path = os.path.join(root, "journal.jsonl")
        self._journal = open(self.journal_path, "a+b")
        self._pending: List[bytes] = []
        self._journal.seek(0)
        #: bytes of complete lines; a torn tail (crash mid-write) is cut
        self.size = sum(len(ln) for ln in self._journal if ln.endswith(b"\n"))
        self._journal.truncate(self.size)
        self._journal.seek(0)
        if not self.size:
            self._pending.append(_LAYOUT)
        elif self._journal.readline() != _LAYOUT:
            self._journal.close()
            raise SpoolError(
                f"{self.journal_path}: journal does not open with {_LAYOUT.decode().strip()} "
                "(a spool of another build): finish it there or use a fresh directory"
            )

    def close(self) -> None:
        self.commit()
        self._journal.close()

    # -- journal ------------------------------------------------------------

    def append(self, event: Dict[str, Any], **payload: Any) -> None:
        """Buffer one record; ``payload`` objects (``spec=``, ``snapshot=``,
        ``result=``; None is skipped) ride inline, encoded by key."""
        for key, obj in payload.items():
            if obj is not None:
                event[key] = _CODECS[key][0](obj)
        self._pending.append(json.dumps(event).encode("ascii") + b"\n")

    def commit(self) -> bool:
        """Make everything appended durable: one write, one fsync.
        False (and no I/O) when nothing was appended."""
        if not self._pending:
            return False
        data = b"".join(self._pending)
        self._pending.clear()
        self._journal.write(data)
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self.size += len(data)
        return True

    def load(self, offset: int, key: str) -> Any:
        """Decode payload ``key`` of the record whose line starts at
        byte ``offset`` (as :meth:`scan` reported it)."""
        with open(self.journal_path, "rb") as f:
            f.seek(offset)
            return _CODECS[key][1](json.loads(f.readline())[key])

    # -- recovery -----------------------------------------------------------

    def scan(self) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float]]:
        """Replay the journal into per-job last-known state.

        Returns ``(records, spent_us)``: ``records[job_id]`` holds the
        decoded spec, attempt and preemption counters, the newest
        snapshot and — for finished jobs — the terminal event;
        ``spent_us`` is the per-tenant simulated time already charged by
        terminal jobs (budget reconstruction).  Payloads a resume may
        never need — snapshots (all but the newest are superseded) and
        results — are kept as the byte offset of their line, for
        :meth:`load`: memory is not proportional to the journal.
        """
        records: Dict[str, Dict[str, Any]] = {}
        spent: Dict[str, float] = {}
        end = 0
        with open(self.journal_path, "rb") as f:
            for raw in f:
                start, end = end, end + len(raw)
                try:
                    ev = json.loads(raw)
                except ValueError:
                    continue  # unreadable line: no transition
                job_id = ev.get("job")
                if job_id is None:
                    continue
                kind = ev["ev"]
                if kind == "submit":
                    records[job_id] = {
                        "spec": _CODECS["spec"][1](ev["spec"]),
                        "attempt": 1,
                        "snapshot": None,
                        "wall_used_s": 0.0,
                        "preemptions": 0,
                        "terminal": None,
                    }
                    continue
                rec = records.get(job_id)
                if rec is None:
                    continue  # its submit line was unreadable
                if kind == "attempt":
                    # a new attempt starts from scratch, not the old snapshot
                    rec.update(attempt=ev["attempt"], snapshot=None)
                elif kind == "suspend":
                    rec.update(
                        snapshot=start,
                        attempt=ev["attempt"],
                        wall_used_s=ev["wall_used_s"],
                        preemptions=ev["preemptions"],
                    )
                elif kind in TERMINAL:
                    if "result" in ev:
                        ev["result"] = start
                    rec["terminal"] = ev
                    tenant = rec["spec"].tenant
                    spent[tenant] = spent.get(tenant, 0.0) + ev["clock_us"]
        return records, spent
