"""Distributed campaign execution over TCP worker daemons.

This module extends the backend abstraction of :mod:`repro.engine.backend`
beyond one machine.  A :class:`DistributedBackend` is a coordinator: it
listens on a TCP port, accepts connections from worker daemons started as

.. code-block:: console

    python -m repro.engine.distributed worker --connect HOST:PORT --workers N

and feeds them the same two payload shapes every other backend evaluates —
:class:`~repro.engine.campaign.CampaignTask` work items and
``(ExploreKey, [states])`` exploration shards.  Workers rebuild transition
systems and reduction pipelines from the specs inside the payloads
(exactly like :data:`~repro.engine.pool.ExploreKey` rebuilding works for
pool workers today), evaluate them with the battle-tested worker functions
(:func:`~repro.engine.campaign.run_task`,
:func:`~repro.engine.pool.expand_shard`) against their process-persistent
:func:`~repro.engine.matcher.process_cache`, and stream the results back.

Wire protocol
=============
Every message is a **length-prefixed pickle**: an 8-byte big-endian
unsigned length followed by a one-byte encoding flag and the body —
``0x00`` for a raw ``pickle.dumps(obj, HIGHEST_PROTOCOL)``, ``0x01`` for
the same body zlib-compressed (bodies of ``COMPRESS_THRESHOLD`` bytes or
more, kept only when compression actually shrinks them).  Frames from
pre-compression peers — the bare pickle, no flag — still decode: a
protocol-2+ pickle always begins with ``0x80``, which collides with
neither flag.  Messages are tuples tagged by their first element:

=========================================  =======================================
worker -> coordinator                      coordinator -> worker
=========================================  =======================================
``("hello", info_dict)``                   ``("work", item_id, kind, payload)``
``("result", item_id, value)``             ``("shutdown",)``
``("error", item_id, traceback)``          ``("open", sid, key)``
``("heartbeat", item_id)``                 ``("wave", sid, wave, shard, entries)``
``("wave_result", sid, wave, shard,        ``("snapshot", sid, shard, table)``
rows, hm, red, watermark)``                ``("close", sid)``
=========================================  =======================================

``kind`` is ``"task"`` (evaluate with ``run_task``) or ``"shard"``
(evaluate with ``expand_shard``).  ``heartbeat`` frames are streamed while
a worker is evaluating a long item (every ``heartbeat_interval`` seconds),
so a coordinator running with a per-item deadline can tell *slow but
alive* from *wedged*.  Both the coordinator and the daemons are expected
to live inside one trust domain (pickle executes arbitrary code by design
— never expose the port to untrusted peers).

Stateful shard sessions
=======================
The ``open`` / ``snapshot`` / ``wave`` / ``close`` frames implement the
**stateful session** route behind
:meth:`DistributedBackend.open_exploration`.  One exploration opens a
session; each enrolled worker connection keeps a
:class:`~repro.engine.pool.ResidentShard` per logical shard it owns — the
shard's append-only intern table of every state it has ever exchanged —
mirrored coordinator-side by a :class:`_ShardMirror`.  Wave frames then
carry table *references* instead of full states wherever a state has been
exchanged before, so per-wave wire bytes track the cross-shard frontier
delta rather than the explored set.  ``snapshot`` frames (re)install a
shard's table on a worker: at session open (empty table), on worker
**join** (elastic rebalancing moves shards to the newcomer), and on
worker **leave** — where the shard is *restored* when the
:class:`~repro.engine.journal.ShardSnapshotStore` checkpoint is current
(its watermark, the table length, equals the mirror's) or
*re-partitioned* from the stale checkpoint prefix otherwise.  Either way
the exploration resumes mid-wave instead of restarting, and the merged
``Exploration`` stays byte-identical to the serial engine's (the
``advance_wave`` API speaks full states; compression is wire-internal).
See ``docs/architecture.md`` for the full protocol walk-through.

Scheduling, retries and determinism
===================================
The coordinator keeps one queue of outstanding items per job.  Each
connection is served by a thread that pulls an item, ships it, and blocks
for the reply — so a worker daemon started with ``--workers N`` (which
spawns N connections, each backed by its own OS process) pulls N items at
a time, and scheduling is naturally load-balanced: fast workers come back
for more.

Workers may join at any time (new connections start pulling from the
current queue) and die at any time: when a connection breaks with an item
in flight, the coordinator requeues that item for the next available
worker and drops the connection.  This is safe because both payload kinds
are **pure functions of their payload** — re-evaluating a task or a shard
on another worker yields the identical value, so at-least-once delivery
still produces exactly-once results.

Failure containment (PR 7)
==========================
Three resilience mechanisms bound how far a misbehaving item or worker can
propagate:

* **Per-item deadline** (``item_timeout=``): while an item is in flight,
  the coordinator expects *some* frame — heartbeat or result — within the
  deadline.  Silence retires the connection as *hung* (counted in
  :attr:`DistributedBackend.hung_retired`) and requeues the item, so a
  wedged-but-connected daemon can no longer stall a sweep forever.
* **Retry budget + poison quarantine** (``max_item_attempts=``): every
  requeue records an attempt (which worker, how it died).  An item whose
  attempts exhaust the budget is *quarantined* instead of requeued — a
  payload that deterministically kills its worker stops after N workers
  rather than cycling through the whole fleet.  Quarantined campaign
  tasks become structured failure reports naming the attempts (the rest
  of the job is unaffected); quarantined shards raise
  :class:`~repro.engine.backend.PoisonedItemError` (an exploration cannot
  proceed without its rows).
* **Structured fleet loss**: losing every worker mid-job raises
  :class:`~repro.engine.backend.FleetLostError` carrying the completed
  results and outstanding item ids, which is what lets the opt-in
  :class:`~repro.engine.backend.FallbackBackend` *finish* the job locally
  instead of recomputing it.

Deterministic fault injection for all of the above lives in
:mod:`repro.engine.faults` (``faults=`` on the backend, the daemon and the
campaign journal); the chaos parity suite and the ``chaos`` CLI
subcommand drive it.

Results are stored by item id and handed back in submission order, which
is the whole determinism story: the campaign engine's reports come back
in task order (identical to the serial engine's, because each report is a
pure function of its task), and the sharded explorer's rows come back in
shard order, after which the coordinator-side merge replays serial BFS
order exactly as it does for the in-process pool.  Which daemon evaluated
what, and in which order, is unobservable in the output.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import random
import socket
import struct
import sys
import threading
import time
import traceback
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .backend import FleetLostError, NoWorkersError, PoisonedItemError
from .campaign import CampaignTask, VerificationReport, run_task
from .journal import ShardSnapshotStore
from .pool import ExploreKey, ResidentShard, expand_shard
from .reduction import normalize_reduction
from .states import SchedulerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backend import ShardFrontier, ShardResult
    from .faults import FaultPlan

__all__ = [
    "DistributedBackend",
    "WorkerDaemon",
    "WorkerStatus",
    "send_message",
    "recv_message",
    "recv_message_sized",
    "run_worker",
    "main",
]

#: Frame header: 8-byte big-endian unsigned payload length.
_HEADER = struct.Struct("!Q")

#: Pickled bodies at or above this size are candidates for zlib
#: compression (small frames — acks, heartbeats, work headers — are not
#: worth the CPU or the flag-byte round trip through zlib).
COMPRESS_THRESHOLD = 1024

#: zlib level: 3 trades a few percent of ratio for ~3x faster compression
#: than the default 6 — successor rows are highly repetitive, so even
#: level 1-3 collapses them severalfold.
COMPRESS_LEVEL = 3

#: Body encoding flags (first byte after the length header).
_RAW, _ZLIB = b"\x00", b"\x01"

#: Refuse to allocate buffers for frames beyond this size (a corrupted or
#: hostile header would otherwise ask for up to 2**64 bytes).
MAX_FRAME_BYTES = 1 << 32


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_frame_info(obj: object) -> Tuple[bytes, int, int, bool]:
    """The wire form of one message plus its compression accounting.

    Returns ``(frame, raw_bytes, wire_bytes, compressed)``: the frame to
    send, the frame size had the body stayed uncompressed, the size
    actually hitting the wire, and whether the body was compressed.
    Callers that keep wire counters (the coordinator) record the sizes
    under their own locks; everyone else uses :func:`encode_frame`.
    """
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    payload = _RAW + body
    compressed = False
    if len(body) >= COMPRESS_THRESHOLD:
        packed = zlib.compress(body, COMPRESS_LEVEL)
        if len(packed) < len(body):
            payload = _ZLIB + packed
            compressed = True
    raw_bytes = _HEADER.size + 1 + len(body)
    return _HEADER.pack(len(payload)) + payload, raw_bytes, _HEADER.size + len(payload), compressed


def encode_frame(obj: object) -> bytes:
    """The wire form of one message: length header plus flagged body."""
    return encode_frame_info(obj)[0]


def decode_frame_body(body: bytes) -> object:
    """Decode one frame body, whichever encoding (or era) produced it."""
    flag = body[:1]
    if flag == _ZLIB:
        return pickle.loads(zlib.decompress(body[1:]))
    if flag == _RAW:
        return pickle.loads(body[1:])
    # A body starting with neither flag is a legacy bare pickle
    # (protocol >= 2 always leads with 0x80) from a pre-compression peer.
    return pickle.loads(body)


def send_message(sock: socket.socket, obj: object) -> None:
    """Send one length-prefixed pickle frame."""
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`ConnectionError` on EOF."""
    buffer = io.BytesIO()
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buffer.write(chunk)
        remaining -= len(chunk)
    return buffer.getvalue()


def recv_message(sock: socket.socket) -> object:
    """Receive one length-prefixed pickle frame (blocking)."""
    return recv_message_sized(sock)[0]


def recv_message_sized(sock: socket.socket) -> Tuple[object, int]:
    """Receive one frame and report its full wire size (header + body).

    The sized variant backs the coordinator's ``bytes_received`` counters —
    wire accounting wants the bytes actually read off the socket, not a
    re-serialization estimate of the decoded object.
    """
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    return decode_frame_body(_recv_exact(sock, length)), _HEADER.size + length


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
class _Job:
    """One in-flight batch: payloads out, results (by item id) back in."""

    def __init__(self, kind: str, payloads: Sequence[object]) -> None:
        self.kind = kind
        self.payloads = list(payloads)
        self.results: List[object] = [None] * len(self.payloads)
        self.remaining = len(self.payloads)
        self.failure: Optional[str] = None
        #: Item ids whose first attempt died with its worker; kept for
        #: observability (tests assert the retry path actually ran).
        self.retried: List[int] = []
        #: Per-item attempt log: "worker: how it died" per failed attempt.
        #: Feeds the retry budget and the structured quarantine errors.
        self.attempts: List[List[str]] = [[] for _ in self.payloads]
        #: Items with a collected result (drives FleetLostError.completed).
        self.done: List[bool] = [False] * len(self.payloads)
        #: Items quarantined after exhausting the retry budget.
        self.poisoned: List[int] = []


def _poison_report(task: CampaignTask, attempts: Sequence[str]) -> VerificationReport:
    """The structured failure report of a quarantined campaign task."""
    detail = "; ".join(attempts)
    return VerificationReport(
        algorithm=task.algorithm,
        model=task.model,
        m=task.m,
        n=task.n,
        seed=None if task.kind == "check" else (0 if task.seed is None else task.seed),
        ok=False,
        steps=0,
        moves=0,
        reason=(
            f"poison task: {len(attempts)} failed attempt(s) exhausted the retry budget"
            f" ({detail})"
        ),
        kind=task.kind,
        reduction=normalize_reduction(task.reduction) if task.kind == "check" else None,
    )


# ---------------------------------------------------------------------------
# Stateful shard sessions (coordinator side)
# ---------------------------------------------------------------------------
class _ShardMirror:
    """Coordinator-side mirror of one shard's worker-resident intern table.

    The mirror and the owning worker's
    :class:`~repro.engine.pool.ResidentShard` append states in the same
    deterministic order — per wave: every downlink full-state entry, in
    entry order, then every uplink new-state reference, in report order —
    so the two tables stay identical without ever being compared.

    Downlink appends are *two-phase*: :meth:`encode_entry` stages them in a
    pending overlay that :meth:`commit` folds into the table only when the
    shard's wave result is delivered.  A worker that dies mid-wave never
    delivered, so :meth:`rollback` discards the overlay and the mirror
    still equals the table as of the last *delivered* wave — which makes
    "is the snapshot current?" a plain watermark (length) comparison, and
    re-encoding the in-flight wave against the mirror reproduce the exact
    frame the dead worker would have processed.
    """

    def __init__(self, table: Optional[List[SchedulerState]] = None) -> None:
        self.table: List[SchedulerState] = list(table) if table else []
        self.seen: Dict[SchedulerState, int] = {s: i for i, s in enumerate(self.table)}
        self._pending: List[SchedulerState] = []
        self._pending_seen: Dict[SchedulerState, int] = {}

    def encode_entry(self, state: SchedulerState) -> object:
        """The downlink wire entry for one frontier state: ref or full."""
        ref = self.seen.get(state)
        if ref is None:
            ref = self._pending_seen.get(state)
        if ref is not None:
            return ref
        self._pending_seen[state] = len(self.table) + len(self._pending)
        self._pending.append(state)
        return ("f", state)

    def commit(self) -> None:
        """Fold staged downlink appends in: the wave result was delivered."""
        for state in self._pending:
            self.seen[state] = len(self.table)
            self.table.append(state)
        self._pending = []
        self._pending_seen = {}

    def rollback(self) -> None:
        """Discard staged appends: the in-flight wave was never delivered."""
        self._pending = []
        self._pending_seen = {}

    def append(self, state: SchedulerState) -> None:
        """One uplink ``("n", state)`` intern, replayed at decode time."""
        self.seen[state] = len(self.table)
        self.table.append(state)


class _SessionMember:
    """One worker connection enrolled in a session.

    The connection's serve thread drains :attr:`outbox` — ``(frame,
    expects_reply)`` pairs, appended and popped under the backend lock —
    and feeds replies back through :meth:`_CoordSession.deliver`.
    """

    def __init__(self, conn: socket.socket, peer: str) -> None:
        self.conn = conn
        self.peer = peer
        self.outbox: deque = deque()
        self.shards: set = set()
        self.lost = False


class _CoordSession:
    """Coordinator end of one stateful shard session (a ``ShardSession``).

    Owns the fixed logical shard count, the per-shard
    :class:`_ShardMirror`\\ s, the shard-to-member assignment, and the
    elastic recovery policy: a lost member's shards are **restored** onto
    survivors when the :class:`~repro.engine.journal.ShardSnapshotStore`
    checkpoint is current, **re-partitioned** from the stale checkpoint
    prefix otherwise; a joining member is given shards from the most
    loaded members (never one with a wave in flight).  All mutable state
    is guarded by the owning backend's condition lock.
    """

    def __init__(
        self,
        backend: "DistributedBackend",
        session_id: str,
        key: ExploreKey,
        n_shards: int,
        store: ShardSnapshotStore,
        snapshot_every: int,
    ) -> None:
        self._backend = backend
        self.session_id = session_id
        self.key = key
        self.n_shards = n_shards
        self._store = store
        self._snapshot_every = snapshot_every
        self._mirrors = [_ShardMirror() for _ in range(n_shards)]
        self._owner: List[Optional[_SessionMember]] = [None] * n_shards
        self._members: List[_SessionMember] = []
        self._started = False
        self._wave_index = -1
        #: The in-flight wave's frontier (shard -> full states), kept so a
        #: reassigned shard's slice can be re-encoded and re-sent.
        self._current: Optional[Dict[int, List[SchedulerState]]] = None
        self._delivered: Dict[int, "ShardResult"] = {}
        #: Shards whose current-wave frame has been encoded and enqueued.
        #: Each slice must be encoded exactly once per mirror state — the
        #: encode stages mirror appends — so dispatch and recovery re-sends
        #: coordinate through this set instead of racing.
        self._dispatched: set = set()
        #: Per-shard attempt log for the current wave ("peer: how it
        #: died"); feeds the same ``max_item_attempts`` retry budget the
        #: stateless route enforces, so a poison wave raises a structured
        #: :class:`~repro.engine.backend.PoisonedItemError` instead of
        #: burning through the whole fleet.
        self._attempts: Dict[int, List[str]] = {}
        self._poisoned: Optional[PoisonedItemError] = None
        self._failure: Optional[str] = None
        self._closed = False
        # Per-session wire counters (the backend accumulates its own).
        self.bytes_sent = 0
        self.bytes_received = 0
        #: What ``bytes_sent`` would have been without frame compression.
        self.bytes_sent_raw = 0
        #: Outbound frames whose bodies actually shipped zlib-compressed.
        self.frames_compressed = 0
        self.rows_exchanged = 0
        self.waves = 0

    # -- membership (backend lock held unless noted) --------------------
    def _enroll_locked(self, conn: socket.socket, peer: str) -> _SessionMember:
        member = _SessionMember(conn, peer)
        self._members.append(member)
        member.outbox.append((("open", self.session_id, self.key), False))
        if self._started:
            orphans = [s for s in range(self.n_shards) if self._owner[s] is None]
            if orphans:
                # The whole fleet died with these shards outstanding; the
                # newcomer picks them up through the recovery path.
                for shard in orphans:
                    self._assign_locked(shard, member, cause="lost")
            else:
                self._rebalance_locked(member)
        self._backend._lock.notify_all()
        return member

    def _rebalance_locked(self, member: _SessionMember) -> None:
        """Move shards from the most loaded members to a fresh joiner.

        Only shards with no wave in flight move (their mirrors are exactly
        the owner's table, so the move is a snapshot send, not a recovery).
        """
        fair = max(1, self.n_shards // len(self._members))
        while len(member.shards) < fair:
            donor = max(
                (m for m in self._members if m is not member),
                key=lambda m: len(m.shards),
                default=None,
            )
            if donor is None or len(donor.shards) <= len(member.shards) + 1:
                return
            movable = [s for s in sorted(donor.shards) if not self._in_flight_locked(s)]
            if not movable:
                return
            self._assign_locked(movable[0], member, cause="join")
            self._backend.shards_moved += 1

    def _in_flight_locked(self, shard: int) -> bool:
        return (
            self._current is not None
            and shard in self._current
            and shard not in self._delivered
        )

    def _assign_locked(self, shard: int, member: _SessionMember, *, cause: str) -> None:
        """Give ``shard`` to ``member``; re-send its in-flight wave slice.

        ``cause`` is ``"open"`` (initial distribution), ``"join"`` (a
        voluntary rebalancing move — the mirror is authoritative and
        current) or ``"lost"`` (recovery — restore from a current
        checkpoint, or re-partition from the stale prefix).
        """
        backend = self._backend
        mirror = self._mirrors[shard]
        if cause == "lost":
            mirror.rollback()
            if self._store.watermark(self.session_id, shard) == len(mirror.table):
                backend.snapshots_restored += 1
            else:
                # The checkpoint lags the shard's delivered state (a sparse
                # or disabled snapshot cadence): fall back to the
                # checkpointed prefix — worker and mirror restart the
                # shard's compression from there.  Only wire savings are
                # lost; re-shipped states re-intern identically.
                table = self._store.restore(self.session_id, shard) or []
                mirror = self._mirrors[shard] = _ShardMirror(table)
                backend.shards_repartitioned += 1
        previous = self._owner[shard]
        if previous is not None and previous is not member:
            previous.shards.discard(shard)
            if not previous.lost:
                previous.outbox.append((("snapshot", self.session_id, shard, None), False))
        self._owner[shard] = member
        member.shards.add(shard)
        member.outbox.append(
            (("snapshot", self.session_id, shard, list(mirror.table)), False)
        )
        if self._in_flight_locked(shard):
            entries = [mirror.encode_entry(s) for s in self._current[shard]]
            member.outbox.append(
                (("wave", self.session_id, self._wave_index, shard, entries), True)
            )
            self._dispatched.add(shard)

    def member_lost(self, member: _SessionMember, reason: str) -> None:
        """A member's connection died: recover its shards onto survivors."""
        backend = self._backend
        with backend._lock:
            if member.lost:
                return
            member.lost = True
            if member in self._members:
                self._members.remove(member)
            if self._closed:
                return
            shards = sorted(member.shards)
            member.shards = set()
            for shard in shards:
                self._owner[shard] = None
                if self._in_flight_locked(shard):
                    log = self._attempts.setdefault(shard, [])
                    log.append(f"{member.peer}: {reason}")
                    if self._poisoned is None and len(log) >= backend.max_item_attempts:
                        self._poisoned = PoisonedItemError(self._wave_index, log)
            if self._members and self._poisoned is None:
                for shard in shards:
                    target = min(self._members, key=lambda m: len(m.shards))
                    self._assign_locked(shard, target, cause="lost")
            # No survivors: the shards stay orphaned; the next enrolling
            # connection (or advance_wave's fleet-loss deadline) resolves it.
            backend._lock.notify_all()

    # -- wave delivery (called without the lock) -------------------------
    def deliver(self, member: _SessionMember, reply: object) -> None:
        backend = self._backend
        with backend._lock:
            if self._closed:
                return
            if isinstance(reply, tuple) and reply and reply[0] == "error":
                self._failure = f"worker failed on a session wave:\n{reply[2]}"
                backend._lock.notify_all()
                return
            if not (isinstance(reply, tuple) and len(reply) == 8 and reply[0] == "wave_result"):
                self._failure = f"malformed session reply: {reply!r}"
                backend._lock.notify_all()
                return
            _tag, sid, wave_index, shard, rows_wire, hit_miss, red_delta, watermark = reply
            if (
                sid != self.session_id
                or wave_index != self._wave_index
                or not self._in_flight_locked(shard)
                or self._owner[shard] is not member
            ):
                return  # stale reply from a retired assignment
            mirror = self._mirrors[shard]
            mirror.commit()
            rows: list = []
            exchanged = 0
            for row_wire in rows_wire:
                row = []
                for ref, token in row_wire:
                    if isinstance(ref, int):
                        state = mirror.table[ref]
                    else:
                        state = ref[1]
                        mirror.append(state)
                    row.append((state, token))
                exchanged += len(row)
                rows.append(row)
            if watermark != len(mirror.table):
                self._failure = (
                    f"shard {shard} watermark skew: worker reports {watermark},"
                    f" coordinator mirror has {len(mirror.table)}"
                )
                backend._lock.notify_all()
                return
            self._delivered[shard] = (rows, tuple(hit_miss), red_delta)
            self.rows_exchanged += exchanged
            backend.rows_exchanged += exchanged
            if self._snapshot_every and (wave_index + 1) % self._snapshot_every == 0:
                start = self._store.watermark(self.session_id, shard)
                if len(mirror.table) > start:
                    self._store.append(
                        self.session_id, shard, start, mirror.table[start:]
                    )
            backend._lock.notify_all()

    # -- ShardSession API (called by the sharded coordinator) ------------
    def advance_wave(self, frontier: "ShardFrontier") -> List["ShardResult"]:
        """Expand one BFS wave on the resident shards; results in order."""
        backend = self._backend
        frontier = [(shard, list(states)) for shard, states in frontier]
        with backend._lock:
            if self._closed:
                raise RuntimeError("ShardSession is closed")
            if self._poisoned is not None:
                raise self._poisoned
            if self._failure is not None:
                raise RuntimeError(f"stateful session failed: {self._failure}")
            self._wave_index += 1
            self.waves += 1
            self._current = {shard: states for shard, states in frontier}
            self._delivered = {}
            self._dispatched = set()
            self._attempts = {}
            deadline = time.monotonic() + backend.start_timeout
            while not self._members:
                if backend._closed:
                    raise RuntimeError("DistributedBackend closed mid-session")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._current = None
                    raise FleetLostError(
                        f"all worker daemons left the session at {backend.address}"
                        f" and none rejoined within {backend.start_timeout:.0f}s",
                        kind="session",
                        completed={},
                        pending=list(range(len(frontier))),
                    )
                backend._lock.wait(timeout=remaining)
            for shard, states in frontier:
                if shard in self._dispatched:
                    continue  # a recovery/enroll path already (re-)sent it
                member = self._owner[shard]
                assert member is not None  # members nonempty => no orphans
                entries = [self._mirrors[shard].encode_entry(s) for s in states]
                member.outbox.append(
                    (("wave", self.session_id, self._wave_index, shard, entries), True)
                )
                self._dispatched.add(shard)
            backend._lock.notify_all()
            while len(self._delivered) < len(self._current):
                if backend._closed:
                    raise RuntimeError("DistributedBackend closed mid-session")
                if self._poisoned is not None:
                    raise self._poisoned
                if self._failure is not None:
                    raise RuntimeError(f"stateful session failed: {self._failure}")
                if not self._members:
                    if not backend._lock.wait(timeout=backend.start_timeout):
                        if not self._members:
                            delivered = dict(self._delivered)
                            self._current = None
                            raise FleetLostError(
                                f"all worker daemons left the session at"
                                f" {backend.address} mid-wave and none rejoined"
                                f" within {backend.start_timeout:.0f}s",
                                kind="session",
                                completed={
                                    position: delivered[shard]
                                    for position, (shard, _) in enumerate(frontier)
                                    if shard in delivered
                                },
                                pending=[
                                    position
                                    for position, (shard, _) in enumerate(frontier)
                                    if shard not in delivered
                                ],
                            )
                else:
                    backend._lock.wait()
            results = [self._delivered[shard] for shard, _ in frontier]
            self._current = None
            self._delivered = {}
            return results

    def wire_stats(self) -> Dict[str, int]:
        with self._backend._lock:
            return {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "bytes_sent_raw": self.bytes_sent_raw,
                "frames_compressed": self.frames_compressed,
                "rows_exchanged": self.rows_exchanged,
                "waves": self.waves,
            }

    def close(self) -> None:
        backend = self._backend
        with backend._lock:
            if self._closed:
                return
            self._closed = True
            self._current = None
            for member in self._members:
                if not member.lost:
                    member.outbox.append((("close", self.session_id), False))
            if backend._session is self:
                backend._session = None
            backend._lock.notify_all()
        # The durable log (when configured) keeps history; the in-memory
        # tables of a finished session are dead weight.
        self._store.drop_session(self.session_id)


class DistributedBackend:
    """Coordinator end of the TCP worker protocol; an ``ExecutionBackend``.

    Binds ``host:port`` (``port=0`` picks an ephemeral port, published as
    :attr:`port`) and accepts worker-daemon connections in the background.
    ``min_workers`` is how many connections :meth:`run_tasks` /
    :meth:`map_shards` wait for before shipping work (daemons may be
    launched before or after the backend — workers retry connecting, the
    backend waits for registrations), and ``start_timeout`` bounds that
    wait plus any mid-job window in which every worker has died and no
    replacement joins.

    One job (one batch of tasks or one wave of shards) runs at a time;
    results return in submission order.  Items in flight on a connection
    that breaks are requeued for the remaining workers — see the module
    docstring for why retries cannot change results.

    ``item_timeout`` (seconds; ``None`` disables) is the per-item silence
    deadline: an in-flight item whose connection produces neither a
    heartbeat nor a result within it is retired as hung and re-executed
    elsewhere.  ``max_item_attempts`` is the per-item retry budget — an
    item whose attempts (worker deaths, hangs, undecodable replies) reach
    it is quarantined instead of requeued, so a poison payload stops after
    that many workers instead of consuming the fleet.  ``faults`` installs
    a :class:`~repro.engine.faults.FaultPlan` on the coordinator's frame
    path (test/chaos machinery; ``None`` in production).

    ``sessions`` enables the stateful shard-session route behind
    :meth:`open_exploration` (on by default; ``False`` pins every
    exploration to the stateless ``map_shards`` path, which the parity
    tests and benchmarks use as the comparison baseline).
    ``snapshot_store`` checkpoints each session shard's intern table — a
    :class:`~repro.engine.journal.ShardSnapshotStore`, a path (opens a
    durable store in the journal record format), or ``None`` for a fresh
    in-memory store — and ``snapshot_every`` is the checkpoint cadence in
    delivered waves (``1`` keeps every shard restorable at its latest
    watermark; ``0`` disables checkpointing, so a lost shard is always
    re-partitioned from scratch).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        min_workers: int = 1,
        start_timeout: float = 60.0,
        item_timeout: Optional[float] = None,
        max_item_attempts: int = 3,
        faults: Optional["FaultPlan"] = None,
        sessions: bool = True,
        snapshot_store=None,
        snapshot_every: int = 1,
    ) -> None:
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_item_attempts < 1:
            raise ValueError("max_item_attempts must be >= 1")
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.min_workers = min_workers
        self.start_timeout = start_timeout
        self.item_timeout = item_timeout
        self.max_item_attempts = max_item_attempts
        self.snapshot_every = snapshot_every
        self._sessions_enabled = bool(sessions)
        if isinstance(snapshot_store, ShardSnapshotStore):
            self._snapshot_store = snapshot_store
            self._owns_snapshot_store = False
        else:
            self._snapshot_store = ShardSnapshotStore(snapshot_store)
            self._owns_snapshot_store = True
        self._faults = faults
        self._lock = threading.Condition()
        self._queue: deque = deque()  # (job, item_id) pairs
        self._job: Optional[_Job] = None
        self._session: Optional[_CoordSession] = None
        self._session_counter = 0
        self._closed = False
        self._live_workers = 0
        self._workers_ever = 0
        #: Items requeued after their worker connection died mid-flight
        #: (observability: the smoke/regression tests assert on it).
        self.retries_total = 0
        #: Connections retired because an in-flight item produced neither
        #: a heartbeat nor a result within ``item_timeout``.
        self.hung_retired = 0
        #: Items quarantined after exhausting ``max_item_attempts``.
        self.poisoned_total = 0
        #: Wire-level accounting, both routes (stateless jobs and stateful
        #: sessions): bytes actually written to / read from worker sockets,
        #: and successor-row entries exchanged in shard results.
        self.bytes_sent = 0
        self.bytes_received = 0
        #: What ``bytes_sent`` would have been without frame compression,
        #: and how many outbound frames shipped compressed — together they
        #: put a number on what the zlib layer saves.
        self.bytes_sent_raw = 0
        self.frames_compressed = 0
        self.rows_exchanged = 0
        #: Session lifecycle counters: shards restored from a current
        #: checkpoint, re-partitioned from a stale one, and voluntarily
        #: moved to a joining worker.
        self.sessions_opened = 0
        self.snapshots_restored = 0
        self.shards_repartitioned = 0
        self.shards_moved = 0
        self._threads: List[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
            self.host, self.port = self._listener.getsockname()[:2]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="distributed-accept", daemon=True
            )
            self._accept_thread.start()
        except BaseException:
            # Partial construction must not leak the socket.
            self._listener.close()
            raise

    # -- introspection -------------------------------------------------
    @property
    def address(self) -> str:
        """The ``HOST:PORT`` string daemons should ``--connect`` to."""
        return f"{self.host}:{self.port}"

    @property
    def parallelism(self) -> int:
        """The backend's shard/fan-out width.

        At least ``min_workers`` even before any daemon has registered:
        stateless consumers read this *before* the first job ships (the
        sharded explorer's fallback route freezes its shard count up
        front, while the worker wait happens inside the first
        ``map_shards`` call), and partitioning for fewer shards than the
        promised workers would silently serialize the whole workload onto
        one connection.  The stateful route does not have that freeze:
        :meth:`open_exploration` re-reads the live connection count
        *after* its worker wait, so late-joining daemons are visible to
        session partitioning.
        """
        with self._lock:
            return max(1, self.min_workers, self._live_workers)

    @property
    def workers_ever(self) -> int:
        """Total worker connections accepted over the backend's lifetime."""
        with self._lock:
            return self._workers_ever

    @property
    def stats(self) -> Dict[str, int]:
        """Resilience + wire counters: retries, quarantines, bytes, shards."""
        with self._lock:
            return {
                "retries_total": self.retries_total,
                "hung_retired": self.hung_retired,
                "poisoned_total": self.poisoned_total,
                "workers_ever": self._workers_ever,
                "live_workers": self._live_workers,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "bytes_sent_raw": self.bytes_sent_raw,
                "frames_compressed": self.frames_compressed,
                "rows_exchanged": self.rows_exchanged,
                "sessions_opened": self.sessions_opened,
                "snapshots_restored": self.snapshots_restored,
                "shards_repartitioned": self.shards_repartitioned,
                "shards_moved": self.shards_moved,
            }

    # -- connection handling -------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), name="distributed-serve", daemon=True
            )
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            hello = recv_message(conn)
        except Exception:  # noqa: BLE001 - bad handshake, drop the connection
            conn.close()
            return
        if not (isinstance(hello, tuple) and hello and hello[0] == "hello"):
            conn.close()
            return
        info = hello[1] if len(hello) > 1 and isinstance(hello[1], dict) else {}
        try:
            peername = "%s:%s" % conn.getpeername()[:2]
        except OSError:  # pragma: no cover - racing close
            peername = "?"
        peer = f"worker {peername} (pid {info.get('pid', '?')}@{info.get('host', '?')})"
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._live_workers += 1
            self._workers_ever += 1
            self._lock.notify_all()
        try:
            self._pull_loop(conn, peer)
        finally:
            with self._lock:
                self._live_workers -= 1
                # Retired connections must not accumulate: a long-lived
                # coordinator sees arbitrarily many daemons come and go.
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:  # pragma: no cover - close() raced us
                    pass
                self._lock.notify_all()
            conn.close()

    def _pull_loop(self, conn: socket.socket, peer: str) -> None:
        """Pull items for one connection until shutdown or connection death."""
        # The per-item deadline rides on the socket: while an item is in
        # flight, every recv (heartbeat or result) must land within it.
        conn.settimeout(self.item_timeout)
        while True:
            with self._lock:
                while not self._queue and self._session is None and not self._closed:
                    self._lock.wait()
                if self._closed:
                    try:
                        send_message(conn, ("shutdown",))
                    except OSError:
                        pass
                    return
                session = self._session
                if session is not None:
                    # A stateful session is active: this connection enrolls
                    # as a member and serves session frames until the
                    # session ends (then resumes pulling ordinary items).
                    member = session._enroll_locked(conn, peer)
                else:
                    job, item_id = self._queue.popleft()
            if session is not None:
                self._session_serve(session, member, conn)
                if member.lost:
                    return  # the connection died inside the session
                continue
            try:
                # Serialize before touching the socket: an unpicklable
                # payload is a deterministic caller error, and requeueing
                # it would just kill every worker in turn.
                frame, raw_bytes, _, compressed = encode_frame_info(
                    ("work", item_id, job.kind, job.payloads[item_id])
                )
            except Exception:  # noqa: BLE001 - reported as the job's failure
                self._record_reply(
                    job,
                    item_id,
                    ("error", item_id, f"unpicklable payload:\n{traceback.format_exc()}"),
                )
                continue
            if self._faults is not None:
                frame = self._faults.frame_out("coordinator.send", frame, item=item_id)
            try:
                conn.sendall(frame)
                with self._lock:
                    self.bytes_sent += len(frame)
                    self.bytes_sent_raw += raw_bytes
                    self.frames_compressed += int(compressed)
                while True:
                    reply, frame_bytes = recv_message_sized(conn)
                    with self._lock:
                        self.bytes_received += frame_bytes
                    # Heartbeats only reset the silence deadline (the
                    # socket timeout re-arms per recv); the worker is slow
                    # but alive, so keep waiting for the real reply.
                    if isinstance(reply, tuple) and reply and reply[0] == "heartbeat":
                        continue
                    break
            except TimeoutError:
                # Neither a heartbeat nor a result within item_timeout:
                # the worker is wedged (or its network is).  Retire the
                # connection and hand the item to a live worker.
                self._retire_in_flight(
                    job, item_id, peer, f"no heartbeat within {self.item_timeout}s", hung=True
                )
                return
            except Exception:  # noqa: BLE001 - any transport/decode failure
                # The worker died — or sent something the coordinator
                # cannot deserialize (version skew raises AttributeError/
                # ImportError from pickle.loads, not just UnpicklingError).
                # Either way: hand the in-flight item to the surviving
                # workers and retire this connection, so the job can never
                # hang on an item nobody owns.
                reason = traceback.format_exception_only(*sys.exc_info()[:2])[-1].strip()
                self._retire_in_flight(job, item_id, peer, reason, hung=False)
                return
            self._record_reply(job, item_id, reply)

    def _session_serve(self, session: _CoordSession, member: _SessionMember, conn: socket.socket) -> None:
        """Serve one enrolled connection's session frames until the end.

        Drains the member's outbox (open / snapshot / wave / close frames,
        enqueued under the backend lock), waits for one reply per wave
        frame (heartbeats only re-arm the silence deadline), and feeds
        deliveries back into the session.  Any transport failure — or
        per-item-deadline silence — marks the member lost, which triggers
        the session's shard recovery.
        """
        try:
            while True:
                with self._lock:
                    while True:
                        if member.outbox:
                            frame_obj, expects_reply = member.outbox.popleft()
                            break
                        if member.lost or self._closed or session._closed:
                            return
                        self._lock.wait()
                frame, raw_bytes, _, compressed = encode_frame_info(frame_obj)
                if self._faults is not None and expects_reply:
                    # Wave frames count as coordinator.send events, keyed
                    # by wave index, so chaos plans target them the same
                    # way they target stateless work frames.
                    frame = self._faults.frame_out("coordinator.send", frame, item=frame_obj[2])
                conn.sendall(frame)
                with self._lock:
                    self.bytes_sent += len(frame)
                    self.bytes_sent_raw += raw_bytes
                    self.frames_compressed += int(compressed)
                    session.bytes_sent += len(frame)
                    session.bytes_sent_raw += raw_bytes
                    session.frames_compressed += int(compressed)
                if not expects_reply:
                    continue
                while True:
                    reply, frame_bytes = recv_message_sized(conn)
                    with self._lock:
                        self.bytes_received += frame_bytes
                        session.bytes_received += frame_bytes
                    if isinstance(reply, tuple) and reply and reply[0] == "heartbeat":
                        continue
                    break
                session.deliver(member, reply)
        except TimeoutError:
            with self._lock:
                self.hung_retired += 1
            session.member_lost(member, f"no heartbeat within {self.item_timeout}s")
        except Exception:  # noqa: BLE001 - any transport/decode failure
            reason = traceback.format_exception_only(*sys.exc_info()[:2])[-1].strip()
            session.member_lost(member, reason)

    def _retire_in_flight(self, job: _Job, item_id: int, peer: str, reason: str, *, hung: bool) -> None:
        """An in-flight item lost its connection: requeue or quarantine.

        Items of a job that has already been abandoned (failed and purged
        by ``_run_job``) are dropped instead — requeueing them would make
        the *next* job's workers evaluate stale payloads.
        """
        with self._lock:
            if self._job is not job:
                return
            job.attempts[item_id].append(f"{peer}: {reason}")
            if hung:
                self.hung_retired += 1
            if len(job.attempts[item_id]) >= self.max_item_attempts:
                # Retry budget exhausted: quarantine the item instead of
                # feeding it to yet another worker.
                self.poisoned_total += 1
                job.poisoned.append(item_id)
                if job.kind == "task":
                    # A campaign job survives a poison task — the item
                    # fails alone, with a structured report naming every
                    # attempt (shard jobs fail at _run_job instead).
                    job.results[item_id] = _poison_report(
                        job.payloads[item_id], job.attempts[item_id]
                    )
                job.done[item_id] = True
                job.remaining -= 1
            else:
                job.retried.append(item_id)
                self.retries_total += 1
                self._queue.append((job, item_id))
            self._lock.notify_all()

    def _record_reply(self, job: _Job, item_id: int, reply: object) -> None:
        with self._lock:
            if not (isinstance(reply, tuple) and len(reply) == 3 and reply[1] == item_id):
                job.failure = f"malformed reply for item {item_id}: {reply!r}"
            elif reply[0] == "error":
                job.failure = f"worker failed on item {item_id}:\n{reply[2]}"
            elif reply[0] == "result":
                job.results[item_id] = reply[2]
                job.done[item_id] = True
                if job.kind == "shard" and isinstance(reply[2], tuple) and reply[2]:
                    # Successor-row entries exchanged on the stateless
                    # route, for stateless-vs-stateful wire comparisons.
                    self.rows_exchanged += sum(len(row) for row in reply[2][0])
            else:
                job.failure = f"unknown reply tag {reply[0]!r} for item {item_id}"
            job.remaining -= 1
            self._lock.notify_all()

    # -- job execution -------------------------------------------------
    def _wait_for_workers(self, deadline: float) -> None:
        with self._lock:
            while self._live_workers < self.min_workers:
                if self._closed:
                    raise RuntimeError("DistributedBackend is closed")
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise NoWorkersError(
                        f"no {self.min_workers} worker daemon(s) connected to {self.address}"
                        f" within {self.start_timeout:.0f}s"
                        f" ({self._live_workers} currently connected)"
                    )
                self._lock.wait(timeout=timeout)

    def _run_job(self, kind: str, payloads: Sequence[object]) -> List[object]:
        if self._closed:
            raise RuntimeError("DistributedBackend is closed")
        payloads = list(payloads)
        if not payloads:
            return []
        deadline = time.monotonic() + self.start_timeout
        self._wait_for_workers(deadline)
        job = _Job(kind, payloads)
        with self._lock:
            if self._job is not None:
                raise RuntimeError("DistributedBackend runs one job at a time")
            self._job = job
            self._queue.extend((job, item_id) for item_id in range(len(payloads)))
            self._lock.notify_all()
            try:
                while job.remaining and job.failure is None:
                    if self._closed:
                        raise RuntimeError("DistributedBackend closed mid-job")
                    if self._live_workers == 0:
                        # Every worker is gone with work outstanding; allow
                        # the (re)connect window before declaring failure.
                        if not self._lock.wait(timeout=self.start_timeout):
                            if self._live_workers == 0:
                                # Quarantined campaign tasks carry a usable
                                # (synthesized) report and count as done;
                                # quarantined shards have no usable result,
                                # so they go back in pending for whoever
                                # finishes the job (FallbackBackend).
                                unusable = set() if kind == "task" else set(job.poisoned)
                                raise FleetLostError(
                                    f"all worker daemons disconnected from {self.address}"
                                    f" with {job.remaining} item(s) outstanding and none"
                                    f" rejoined within {self.start_timeout:.0f}s",
                                    kind=kind,
                                    completed={
                                        item_id: job.results[item_id]
                                        for item_id in range(len(payloads))
                                        if job.done[item_id] and item_id not in unusable
                                    },
                                    pending=[
                                        item_id
                                        for item_id in range(len(payloads))
                                        if not job.done[item_id] or item_id in unusable
                                    ],
                                )
                    else:
                        self._lock.wait()
            finally:
                self._job = None
                # Drop any unshipped items of an abandoned job so the next
                # job's queue starts clean.
                self._queue = deque(entry for entry in self._queue if entry[0] is not job)
        if job.failure is not None:
            raise RuntimeError(f"distributed {kind} execution failed: {job.failure}")
        if job.poisoned and kind != "task":
            # An exploration cannot proceed without its rows; campaign jobs
            # carry the quarantine inline as structured failure reports.
            item_id = job.poisoned[0]
            raise PoisonedItemError(item_id, job.attempts[item_id])
        return job.results

    # -- ExecutionBackend ----------------------------------------------
    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        """Evaluate campaign tasks on the worker daemons, in task order."""
        return self._run_job("task", tasks)  # type: ignore[return-value]

    def map_shards(self, payloads: Sequence[object]) -> List[object]:
        """Expand one BFS wave's shards on the worker daemons, in order."""
        return self._run_job("shard", payloads)

    def open_exploration(self, key: ExploreKey, n_shards: Optional[int] = None):
        """Open a stateful shard session for ``key`` on the live fleet.

        Waits for ``min_workers`` registrations (like the first job of the
        stateless route would), then fixes the logical shard count at
        ``max(n_shards, min_workers, live connections)`` — parallelism is
        re-read *here*, after the wait, so daemons that joined since the
        backend was constructed are visible to partitioning (the freeze
        footgun the stateless route's up-front ``parallelism`` read has).
        Idle connections enroll as session members and the shards are
        distributed round-robin; returns the session, or ``None`` when
        sessions are disabled (``sessions=False``).
        """
        if self._closed:
            raise RuntimeError("DistributedBackend is closed")
        if not self._sessions_enabled:
            return None
        self._wait_for_workers(time.monotonic() + self.start_timeout)
        with self._lock:
            if self._job is not None or self._session is not None:
                raise RuntimeError("DistributedBackend runs one job at a time")
            shards = max(1, n_shards or 1, self.min_workers, self._live_workers)
            self._session_counter += 1
            session_id = f"{self.host}:{self.port}/{os.getpid()}#{self._session_counter}"
            session = _CoordSession(
                self, session_id, key, shards, self._snapshot_store, self.snapshot_every
            )
            self._session = session
            self.sessions_opened += 1
            self._lock.notify_all()  # wake idle pull loops to enroll
            # Enrollment is just thread wakeup; wait briefly for the idle
            # connections so the initial distribution spans the fleet
            # (latecomers still join elastically mid-exploration).
            deadline = time.monotonic() + min(5.0, self.start_timeout)
            while len(session._members) < min(shards, self._live_workers):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._lock.wait(timeout=remaining)
            if not session._members:
                self._session = None
                raise NoWorkersError(
                    f"no worker connection enrolled in the session at {self.address}"
                )
            members = list(session._members)
            for shard in range(shards):
                session._assign_locked(shard, members[shard % len(members)], cause="open")
            session._started = True
            self._lock.notify_all()
        return session

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop accepting, tell connected daemons to shut down, free the port."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        # Connection threads are daemonic and exit on the closed flag (or
        # their socket erroring); give them a moment so well-behaved
        # daemons receive their shutdown frame before we return.
        for thread in list(self._threads):
            thread.join(timeout=1.0)
        if self._owns_snapshot_store:
            self._snapshot_store.close()

    def __enter__(self) -> "DistributedBackend":
        if self._closed:
            raise RuntimeError("DistributedBackend is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker daemon
# ---------------------------------------------------------------------------
def _backoff_delays(
    *, base: float = 0.05, cap: float = 1.0, rng: Optional[random.Random] = None
) -> Iterator[float]:
    """Full-jitter exponential backoff delays: ``uniform(0, min(cap, base*2^n)]``.

    A fleet of daemons launched side by side (CI starts them in a loop)
    would otherwise retry a not-yet-bound coordinator port in lockstep;
    jitter decorrelates the retry storms.  ``rng`` is injectable so tests
    can assert the sequence deterministically.
    """
    rng = rng or random.Random()
    ceiling = base
    while True:
        yield rng.uniform(0.0, ceiling) or ceiling * 0.5
        ceiling = min(ceiling * 2, cap)


def _connect_with_retry(
    host: str, port: int, timeout: float, *, rng: Optional[random.Random] = None
) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout`` elapses.

    Daemons may legitimately start before the coordinator binds its port
    (CI launches them side by side), so refused connections retry on a
    jittered exponential backoff instead of failing fast.
    """
    deadline = time.monotonic() + timeout
    delays = _backoff_delays(rng=rng)
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(next(delays))


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    item_id: int,
    interval: float,
    stop: threading.Event,
) -> None:
    """Stream ``("heartbeat", item_id)`` frames until ``stop`` is set.

    Runs beside the evaluation so a deadline-aware coordinator can tell a
    long evaluation (heartbeats flowing) from a wedged worker (silence).
    Send failures just end the loop — the coordinator owns the connection
    verdict, not the heartbeat.
    """
    while not stop.wait(interval):
        try:
            with send_lock:
                send_message(sock, ("heartbeat", item_id))
        except OSError:
            return


def worker_connection_loop(
    host: str,
    port: int,
    *,
    connect_timeout: float = 60.0,
    heartbeat_interval: Optional[float] = None,
    faults: Optional["FaultPlan"] = None,
    worker_index: int = 0,
) -> Tuple[int, bool]:
    """One worker connection: register, pull work, stream results back.

    Runs in its own process (one per ``--workers`` slot), so the matcher
    tables :func:`~repro.engine.matcher.process_cache` accumulates survive
    across every task and shard this connection ever evaluates — the
    distributed analogue of a pool worker's cache persistence.

    ``heartbeat_interval`` (seconds; ``None`` disables) streams
    ``heartbeat`` frames while an item is being evaluated.  ``faults`` and
    ``worker_index`` are the chaos hooks: the plan's ``worker.item`` site
    fires per pulled item (kill/hang/delay) and ``worker.result`` per
    outbound reply frame (corrupt).

    Returns ``(evaluated, orderly)``: the item count, and whether the loop
    ended via the coordinator's shutdown frame (``True``) or abnormally —
    connection loss, decode failure, injected wedge (``False``).
    """
    sock = _connect_with_retry(host, port, connect_timeout)
    send_lock = threading.Lock()
    evaluated = 0
    #: Resident session state: session id -> (ExploreKey, {shard: ResidentShard}).
    #: This is the whole point of the stateful route — the tables (and the
    #: process's matcher/system caches behind them) survive across waves.
    sessions: Dict[str, Tuple[ExploreKey, Dict[int, ResidentShard]]] = {}
    try:
        send_message(sock, ("hello", {"pid": os.getpid(), "host": socket.gethostname()}))
        while True:
            try:
                message = recv_message(sock)
            except Exception:  # noqa: BLE001 - treat any decode failure as loss
                return evaluated, False  # coordinator went away (or frame rot)
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "shutdown":
                return evaluated, True
            if message[0] == "open":
                sessions[message[1]] = (message[2], {})
                continue
            if message[0] == "snapshot":
                _tag, session_id, shard, table = message
                entry = sessions.get(session_id)
                if entry is not None:
                    if table is None:  # the shard moved away: drop it
                        entry[1].pop(shard, None)
                    else:
                        entry[1][shard] = ResidentShard(entry[0], table)
                continue
            if message[0] == "close":
                sessions.pop(message[1], None)
                continue
            if message[0] == "wave":
                _tag, session_id, wave_index, shard, entries = message
                fault = (
                    faults.fire("worker.item", item=wave_index, worker=worker_index)
                    if faults is not None
                    else None
                )
                if fault is not None and fault.action == "kill":
                    os._exit(17)  # the resident shard dies with the process
                if fault is not None and fault.action == "hang":
                    time.sleep(fault.seconds)
                    return evaluated, False
                stop = threading.Event()
                beat = None
                if heartbeat_interval is not None:
                    beat = threading.Thread(
                        target=_heartbeat_loop,
                        args=(sock, send_lock, wave_index, heartbeat_interval, stop),
                        name="worker-heartbeat",
                        daemon=True,
                    )
                    beat.start()
                try:
                    if fault is not None and fault.action == "delay":
                        time.sleep(fault.seconds)
                    try:
                        entry = sessions.get(session_id)
                        if entry is None:
                            raise ValueError(f"wave for unknown session {session_id!r}")
                        resident = entry[1].get(shard)
                        if resident is None:
                            raise ValueError(
                                f"wave for shard {shard} never installed by a snapshot frame"
                            )
                        rows, hit_miss, red_delta = resident.expand_wave(entries)
                    except Exception:  # noqa: BLE001 - shipped back, not swallowed
                        reply = ("error", wave_index, traceback.format_exc())
                    else:
                        reply = (
                            "wave_result",
                            session_id,
                            wave_index,
                            shard,
                            rows,
                            hit_miss,
                            red_delta,
                            resident.watermark,
                        )
                        evaluated += 1
                finally:
                    stop.set()
                    if beat is not None:
                        beat.join()
                frame = encode_frame(reply)
                if faults is not None:
                    frame = faults.frame_out(
                        "worker.result", frame, item=wave_index, worker=worker_index
                    )
                with send_lock:
                    sock.sendall(frame)
                continue
            if message[0] != "work":
                continue
            _tag, item_id, kind, payload = message
            fault = (
                faults.fire("worker.item", item=item_id, worker=worker_index)
                if faults is not None
                else None
            )
            if fault is not None and fault.action == "kill":
                os._exit(17)  # poison payload: die with the frame unflushed
            if fault is not None and fault.action == "hang":
                # A wedged worker from the coordinator's viewpoint: no
                # heartbeats, no result, connection still open.
                time.sleep(fault.seconds)
                return evaluated, False
            stop = threading.Event()
            beat: Optional[threading.Thread] = None
            if heartbeat_interval is not None:
                beat = threading.Thread(
                    target=_heartbeat_loop,
                    args=(sock, send_lock, item_id, heartbeat_interval, stop),
                    name="worker-heartbeat",
                    daemon=True,
                )
                beat.start()
            try:
                if fault is not None and fault.action == "delay":
                    # Slow but alive: heartbeats keep flowing through the
                    # sleep, so a deadline-aware coordinator must wait.
                    time.sleep(fault.seconds)
                try:
                    if kind == "task":
                        value = run_task(payload)
                    elif kind == "shard":
                        value = expand_shard(payload)
                    else:
                        raise ValueError(f"unknown work kind {kind!r}")
                except Exception:  # noqa: BLE001 - shipped back, not swallowed
                    reply = ("error", item_id, traceback.format_exc())
                else:
                    reply = ("result", item_id, value)
                    evaluated += 1
            finally:
                # The result frame must never interleave with a heartbeat:
                # stop the beat and join before taking the send lock.
                stop.set()
                if beat is not None:
                    beat.join()
            frame = encode_frame(reply)
            if faults is not None:
                frame = faults.frame_out("worker.result", frame, item=item_id, worker=worker_index)
            with send_lock:
                sock.sendall(frame)
    finally:
        sock.close()


def _worker_process_main(
    host: str,
    port: int,
    *,
    connect_timeout: float,
    heartbeat_interval: Optional[float],
    faults: Optional["FaultPlan"],
    worker_index: int,
) -> None:
    """Process target wrapping :func:`worker_connection_loop`.

    Maps the loop's ``orderly`` flag onto the process exit code (0 orderly
    shutdown, 1 abnormal end) so the parent daemon — and through it the
    ``worker`` CLI — can report connection loops that died without a
    shutdown frame.
    """
    _evaluated, orderly = worker_connection_loop(
        host,
        port,
        connect_timeout=connect_timeout,
        heartbeat_interval=heartbeat_interval,
        faults=faults,
        worker_index=worker_index,
    )
    raise SystemExit(0 if orderly else 1)


@dataclass(frozen=True)
class WorkerStatus:
    """One worker process's state as reported by :meth:`WorkerDaemon.join`."""

    pid: Optional[int]
    alive: bool
    exitcode: Optional[int]


class WorkerDaemon:
    """N worker connections to one coordinator, each in its own process.

    The object the ``worker`` CLI subcommand drives, and the in-process
    handle tests and benchmarks use.  Spawning is all-or-nothing: if the
    ``i``-th worker process fails to start, the ``i-1`` already running are
    terminated and joined before the error propagates — a partially
    started daemon never leaks processes.

    ``heartbeat_interval`` is threaded to every connection loop (see
    :func:`worker_connection_loop`); ``faults`` ships a pickled
    :class:`~repro.engine.faults.FaultPlan` into each worker process, with
    ``worker_index`` set to the process's slot so plans can target
    "worker 1" specifically.
    """

    def __init__(
        self,
        host: str,
        port: int,
        workers: int = 1,
        *,
        connect_timeout: float = 60.0,
        heartbeat_interval: Optional[float] = 5.0,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.host = host
        self.port = port
        self.workers = workers
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.faults = faults
        self.processes: list = []

    def start(self) -> "WorkerDaemon":
        import multiprocessing

        context = multiprocessing.get_context()
        try:
            for index in range(self.workers):
                process = context.Process(
                    target=_worker_process_main,
                    args=(self.host, self.port),
                    kwargs={
                        "connect_timeout": self.connect_timeout,
                        "heartbeat_interval": self.heartbeat_interval,
                        "faults": self.faults,
                        "worker_index": index,
                    },
                    daemon=True,
                )
                self.processes.append(process)
                process.start()
        except BaseException:
            self.terminate()
            raise
        return self

    def join(self, timeout: Optional[float] = None) -> List[WorkerStatus]:
        """Wait for the worker processes to exit (orderly shutdown).

        Returns the :class:`WorkerStatus` of every process that had not
        exited when the (optional) timeout ran out — an empty list means a
        clean join.  Callers shutting a fleet down can therefore *name*
        the stragglers (pid and aliveness) instead of hanging silently.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for process in self.processes:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            process.join(remaining)
        return [
            WorkerStatus(pid=process.pid, alive=process.is_alive(), exitcode=process.exitcode)
            for process in self.processes
            if process.is_alive()
        ]

    def statuses(self) -> List[WorkerStatus]:
        """A point-in-time status snapshot of every worker process."""
        return [
            WorkerStatus(pid=process.pid, alive=process.is_alive(), exitcode=process.exitcode)
            for process in self.processes
        ]

    def terminate(self) -> None:
        """Hard-stop every worker process that is still alive."""
        for process in self.processes:
            if process.pid is not None and process.is_alive():
                process.terminate()
        for process in self.processes:
            if process.pid is not None:
                process.join(timeout=5.0)
        self.processes = []

    @property
    def alive(self) -> int:
        return sum(1 for process in self.processes if process.is_alive())

    def __enter__(self) -> "WorkerDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()


def run_worker(
    host: str,
    port: int,
    workers: int = 1,
    *,
    connect_timeout: float = 60.0,
    heartbeat_interval: Optional[float] = 5.0,
) -> int:
    """Blocking daemon entry point: serve until the coordinator shuts us down.

    Exits 0 only if every connection loop ended on an orderly shutdown
    frame; a loop that died abnormally (connection loss, frame rot, crash)
    makes the daemon exit 1 and name the culprits on stderr, so a babysat
    fleet (systemd, CI) notices worker attrition instead of hiding it.
    """
    daemon = WorkerDaemon(
        host, port, workers, connect_timeout=connect_timeout, heartbeat_interval=heartbeat_interval
    )
    daemon.start()
    try:
        daemon.join()
        abnormal = [
            status for status in daemon.statuses() if status.exitcode not in (0, None)
        ]
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        daemon.terminate()
        return 130
    finally:
        daemon.terminate()
    if abnormal:
        detail = ", ".join(f"pid {s.pid} exit {s.exitcode}" for s in abnormal)
        print(f"worker daemon: {len(abnormal)} connection loop(s) died abnormally: {detail}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _parse_endpoint(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _smoke(daemons: int, workers_per_daemon: int, verbose: bool) -> int:
    """The CI smoke check: distributed vs serial verdict parity.

    Starts a coordinator on an ephemeral port, launches ``daemons`` worker
    daemons through the real CLI (``python -m repro.engine.distributed
    worker --connect ...``, each its own OS process tree), runs a tiny
    exhaustive sweep through the :class:`DistributedBackend`, and compares
    the reports against the serial engine's.  Exits nonzero on any
    divergence — this is the job CI runs on every push.
    """
    import subprocess

    from ..algorithms import get
    from .campaign import ParallelCampaignEngine

    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(2, 3), (3, 3), (3, 4)]
    serial = ParallelCampaignEngine(workers=1).exhaustive_sweep(
        algorithm, sizes=sizes, model="FSYNC", reduction="grid"
    )
    with DistributedBackend(min_workers=daemons) as backend:
        command = [
            sys.executable,
            "-m",
            "repro.engine.distributed",
            "worker",
            "--connect",
            backend.address,
            "--workers",
            str(workers_per_daemon),
        ]
        print(f"coordinator listening on {backend.address}")
        print(f"launching {daemons} daemon(s): {' '.join(command)}")
        procs = [subprocess.Popen(command) for _ in range(daemons)]
        try:
            distributed = ParallelCampaignEngine(backend=backend).exhaustive_sweep(
                algorithm, sizes=sizes, model="FSYNC", reduction="grid"
            )
        finally:
            backend.close()
            for proc in procs:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    if verbose:
        for serial_report, dist_report in zip(serial.reports, distributed.reports):
            marker = "==" if serial_report == dist_report else "!!"
            print(f"  {marker} {dist_report}")
    if distributed.reports != serial.reports:
        print("FAIL: distributed reports diverged from the serial engine", file=sys.stderr)
        return 1
    print(
        f"OK: {len(distributed.reports)} exhaustive-check reports identical to the serial"
        f" engine across {backend.workers_ever} worker connection(s)"
    )
    return 0


def _chaos(verbose: bool) -> int:
    """The CI chaos check: verdict parity under injected faults.

    Three scenarios, each compared against a serial baseline:

    1. **Worker kill mid-wave** — a 2-worker in-process daemon whose
       worker 0 hard-exits on the first item it pulls; the coordinator
       must retry the orphaned item on the survivor and still produce
       byte-identical reports.
    2. **Coordinator crash + journal resume** — a journalled sweep whose
       coordinator is killed after two durable appends; a second engine
       pointed at the same journal must resume and produce byte-identical
       reports without recomputing the journaled verdicts.
    3. **Session kill + restore from snapshot** — a stateful shard
       session whose worker 0 hard-exits on a wave frame; the dead
       worker's shard must be restored from its checkpointed snapshot
       onto the survivor mid-wave, and the merged exploration must stay
       byte-identical to the serial explorer's.
    """
    import tempfile

    from ..algorithms import get
    from .campaign import ParallelCampaignEngine
    from .faults import FaultInjected, FaultPlan
    from .journal import CampaignJournal

    algorithm = get("fsync_phi2_l2_chir_k2")
    sizes = [(2, 3), (3, 3), (3, 4), (4, 3)]
    sweep = dict(sizes=sizes, model="FSYNC", reduction="grid")
    serial = ParallelCampaignEngine(workers=1).exhaustive_sweep(algorithm, **sweep)

    def report_parity(label: str, campaign) -> bool:
        if verbose:
            for serial_report, chaos_report in zip(serial.reports, campaign.reports):
                marker = "==" if serial_report == chaos_report else "!!"
                print(f"  {marker} {chaos_report}")
        if campaign.reports != serial.reports:
            print(f"FAIL [{label}]: reports diverged from the serial engine", file=sys.stderr)
            return False
        print(f"OK [{label}]: {len(campaign.reports)} reports identical to the serial engine")
        return True

    # Scenario 1: worker 0 dies on its first pulled item; survivor finishes.
    plan = FaultPlan(seed=7).kill_worker(index=0, worker=0)
    with DistributedBackend(min_workers=2, item_timeout=30.0) as backend:
        with WorkerDaemon(
            backend.host, backend.port, workers=2, heartbeat_interval=0.5, faults=plan
        ).start():
            campaign = ParallelCampaignEngine(backend=backend).exhaustive_sweep(algorithm, **sweep)
        stats = backend.stats
    if not report_parity("worker-kill", campaign):
        return 1
    if stats["retries_total"] < 1:
        print("FAIL [worker-kill]: the injected kill never triggered a retry", file=sys.stderr)
        return 1
    print(f"OK [worker-kill]: backend stats {stats}")

    # Scenario 2: coordinator crashes after 2 journaled verdicts; resume.
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "chaos.journal")
        crash_plan = FaultPlan().crash_coordinator(after_records=2)
        try:
            with CampaignJournal(journal_path, faults=crash_plan) as journal:
                ParallelCampaignEngine(workers=1).exhaustive_sweep(
                    algorithm, journal=journal, **sweep
                )
        except FaultInjected:
            pass
        else:
            print("FAIL [journal-resume]: injected coordinator crash never fired", file=sys.stderr)
            return 1
        with CampaignJournal(journal_path) as journal:
            survived = len(journal)
            if survived < 1:
                print("FAIL [journal-resume]: no verdicts survived the crash", file=sys.stderr)
                return 1
            campaign = ParallelCampaignEngine(workers=1).exhaustive_sweep(
                algorithm, journal=journal, **sweep
            )
    if not report_parity("journal-resume", campaign):
        return 1
    print(f"OK [journal-resume]: resumed from {survived} journaled verdict(s)")

    # Scenario 3: stateful session — worker 0 dies on a wave frame; its
    # shard is restored from the checkpointed snapshot onto the survivor.
    from ..core.grid import Grid
    from .sharded import explore_sharded

    grid = Grid(4, 4)
    baseline = explore_sharded(algorithm, grid, "FSYNC", workers=1)
    plan = FaultPlan(seed=11).kill_worker(index=1, worker=0)
    with DistributedBackend(min_workers=2, item_timeout=30.0) as backend:
        with WorkerDaemon(
            backend.host, backend.port, workers=2, heartbeat_interval=0.5, faults=plan
        ).start():
            exploration = explore_sharded(algorithm, grid, "FSYNC", backend=backend)
        stats = backend.stats
    if (
        exploration.states != baseline.states
        or exploration.succ != baseline.succ
        or exploration.index != baseline.index
    ):
        print(
            "FAIL [session-restore]: stateful exploration diverged from the serial engine",
            file=sys.stderr,
        )
        return 1
    if stats["sessions_opened"] < 1:
        print("FAIL [session-restore]: the stateful session route never engaged", file=sys.stderr)
        return 1
    if stats["snapshots_restored"] + stats["shards_repartitioned"] < 1:
        print(
            "FAIL [session-restore]: the injected kill never triggered shard recovery",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK [session-restore]: {exploration.num_states} states identical to the serial"
        f" engine after shard recovery; backend stats {stats}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.distributed",
        description="TCP worker daemons for distributed verification campaigns.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    worker = subcommands.add_parser("worker", help="serve a coordinator until shut down")
    worker.add_argument(
        "--connect",
        type=_parse_endpoint,
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint (DistributedBackend.address)",
    )
    worker.add_argument(
        "--workers", type=int, default=1, help="worker processes (connections) to run"
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=60.0,
        help="seconds to keep retrying the initial connection",
    )

    worker.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between heartbeat frames while evaluating (0 disables)",
    )

    smoke = subcommands.add_parser(
        "smoke", help="launch local daemons and assert distributed == serial verdicts"
    )
    smoke.add_argument("--daemons", type=int, default=2, help="worker daemons to launch")
    smoke.add_argument("--workers", type=int, default=1, help="worker processes per daemon")
    smoke.add_argument("--verbose", action="store_true", help="print every report pair")

    chaos = subcommands.add_parser(
        "chaos",
        help="inject worker kills and a coordinator crash; assert verdict parity and resume",
    )
    chaos.add_argument("--verbose", action="store_true", help="print every report pair")

    args = parser.parse_args(argv)
    # Resolve entry points off the canonically imported module: under
    # ``python -m`` this file executes as ``__main__``, and spawned worker
    # processes must reference picklable, importable functions.
    from repro.engine import distributed as canonical

    if args.command == "worker":
        host, port = args.connect
        return canonical.run_worker(
            host,
            port,
            args.workers,
            connect_timeout=args.connect_timeout,
            heartbeat_interval=args.heartbeat or None,
        )
    if args.command == "chaos":
        return canonical._chaos(args.verbose)
    return canonical._smoke(args.daemons, args.workers, args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
