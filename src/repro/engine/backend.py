"""Pluggable execution backends for campaigns and sharded exploration.

Every parallel consumer in the engine funnels its work through two
primitive shapes, both picklable by construction since PR 3/4:

* **campaign tasks** — :class:`~repro.engine.campaign.CampaignTask` work
  items executed by :func:`~repro.engine.campaign.run_task`, each a pure
  function of the task (algorithms travel by registry name, runs are
  driven by explicit seeds);
* **shard payloads** — ``(ExploreKey, [states])`` slices of one BFS wave
  expanded by :func:`~repro.engine.pool.expand_shard`, which rebuilds the
  transition system and reduction pipeline from the specs in the key —
  including the successor-kernel slot added in PR 6 (``"object"`` /
  ``"packed"``; legacy five-slot keys still work and mean the object
  kernel, so a new coordinator can talk to old daemons and vice versa).

An :class:`ExecutionBackend` is anything that can evaluate those two
shapes and hand the results back *in submission order*:

* :class:`SerialBackend` — in the calling process, on one persistent
  :class:`~repro.engine.matcher.MatcherCache`;
* :class:`PoolBackend` — on a (possibly shared) long-lived
  :class:`~repro.engine.pool.ExplorationPool`, one machine;
* :class:`~repro.engine.distributed.DistributedBackend` — on TCP worker
  daemons that may live on other machines (see
  :mod:`repro.engine.distributed`).

Because the work shapes are pure functions of their payloads and every
backend returns results in submission order, swapping the backend never
changes a report or an exploration: the campaign engine merges reports by
task index and the sharded coordinator replays successor rows in serial
BFS order, so the output is the one the serial engine produces.  (The
only fields that may differ are the cache hit/miss counters, which are
excluded from report equality for exactly this reason.)

``backend=`` is accepted — and takes precedence over ``pool=`` /
``workers=`` — on :class:`~repro.engine.campaign.ParallelCampaignEngine`,
:func:`~repro.engine.sharded.explore_sharded`, the three
:mod:`repro.checking` entry points, the :mod:`repro.verification`
campaigns and the :mod:`repro.analysis.scaling` sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from .campaign import CampaignTask, VerificationReport, run_task
from .matcher import MatcherCache, process_cache
from .pool import ExploreKey, ExplorationPool, expand_shard
from .states import SchedulerState

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "FallbackBackend",
    "FleetLostError",
    "NoWorkersError",
    "PoisonedItemError",
    "ShardFrontier",
    "ShardPayload",
    "ShardResult",
    "ShardSession",
    "backend_cache",
]

#: One shard of a BFS wave: the exploration context plus the states to
#: expand (the input of :func:`repro.engine.pool.expand_shard`).
ShardPayload = Tuple[ExploreKey, List[SchedulerState]]

#: One expanded shard: successor rows in input order, the matcher
#: hit/miss delta, and the reduction-counter delta (the output of
#: :func:`repro.engine.pool.expand_shard`).
ShardResult = Tuple[list, Tuple[int, int], Dict[str, int]]

#: One wave's frontier for a stateful session: ``(shard_id, states)``
#: slices in shard-id order, occupied shards only.  Shard ids are the
#: coordinator's hash-partition indices in ``range(session.n_shards)``.
ShardFrontier = List[Tuple[int, List[SchedulerState]]]


@runtime_checkable
class ShardSession(Protocol):
    """A stateful exploration session: resident shards, delta-only waves.

    Returned by :meth:`ExecutionBackend.open_exploration` on backends that
    can keep per-shard state resident between BFS waves (today the TCP
    :class:`~repro.engine.distributed.DistributedBackend`).  The shard
    count is fixed at :attr:`n_shards` for the session's lifetime — hash
    partitioning bakes it into every wave — while *where* each logical
    shard lives may change underneath (worker leave/join; see
    :mod:`repro.engine.distributed`).

    :meth:`advance_wave` takes the wave's frontier as full states and
    returns one :data:`ShardResult` per frontier slice, in input order,
    with full-state successor rows — exactly the values
    :meth:`ExecutionBackend.map_shards` would produce for the equivalent
    ``(key, states)`` payloads.  Any wire-level compression (reference
    tables, watermarks) is internal to the session; the sharded
    coordinator merges both routes with the same code, which is the
    byte-identical-merge argument (see ``docs/architecture.md``).
    """

    #: The fixed logical shard count the coordinator must partition by.
    n_shards: int

    def advance_wave(self, frontier: ShardFrontier) -> List[ShardResult]:
        """Expand one BFS wave; results align with the frontier slices."""
        ...

    def wire_stats(self) -> Dict[str, int]:
        """Cumulative wire counters (``bytes_sent`` / ``bytes_received`` /
        ``rows_exchanged`` / ``waves``) for this session so far."""
        ...

    def close(self) -> None:
        """End the session and release its resident shard state."""
        ...


# ---------------------------------------------------------------------------
# Structured execution failures (raised by the distributed backend, handled
# by the fallback policy below)
# ---------------------------------------------------------------------------
class NoWorkersError(TimeoutError):
    """No worker ever registered within the start timeout.

    A :class:`TimeoutError` subclass (the exception this condition always
    raised), but now a *named* one so a fallback policy can catch "the
    fleet never showed up" without matching message strings.
    """


class FleetLostError(RuntimeError):
    """Every worker died mid-job and none rejoined within the grace window.

    Carries the partial progress so a fallback policy can *finish* the job
    instead of recomputing it: ``completed`` maps item id to the result
    already collected, ``pending`` lists the item ids still outstanding
    (in submission order), and ``kind`` is the job's work shape
    (``"task"`` / ``"shard"``).
    """

    def __init__(self, message: str, *, kind: str, completed: Dict[int, object], pending: List[int]) -> None:
        super().__init__(message)
        self.kind = kind
        self.completed = dict(completed)
        self.pending = list(pending)


class PoisonedItemError(RuntimeError):
    """An item exhausted its retry budget by killing every worker that took it.

    Raised for shard jobs (an exploration cannot proceed without the
    shard's rows); task jobs instead absorb the poison as a structured
    failure report for that one item.  ``attempts`` names every attempt —
    which worker took the item and how that attempt died.
    """

    def __init__(self, item_id: int, attempts: Sequence[str]) -> None:
        self.item_id = item_id
        self.attempts = tuple(attempts)
        detail = "; ".join(self.attempts)
        super().__init__(
            f"item {item_id} poisoned its workers: {len(self.attempts)} failed attempt(s)"
            f" exhausted the retry budget ({detail})"
        )


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where campaign tasks and exploration shards actually run.

    Implementations promise that :meth:`run_tasks` and :meth:`map_shards`
    return one result per submitted item, *in submission order*, each the
    value the corresponding worker function (``run_task`` /
    ``expand_shard``) produces for that item — regardless of which worker
    evaluated it, in which order, or how many times a failed attempt was
    retried.  That ordering contract is what lets every consumer stay
    byte-identical to the serial engine.
    """

    #: How many items the backend can usefully evaluate concurrently; the
    #: sharded explorer uses this as its wave shard count.
    parallelism: int

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        """Evaluate campaign tasks; reports come back in task order."""
        ...

    def map_shards(self, payloads: Sequence[ShardPayload]) -> List[ShardResult]:
        """Expand one BFS wave's shards; results come back in payload order."""
        ...

    def open_exploration(
        self, key: ExploreKey, n_shards: Optional[int] = None
    ) -> Optional[ShardSession]:
        """Open a stateful :class:`ShardSession` for ``key``, or ``None``.

        ``None`` means "this backend has no resident-state advantage" (the
        serial and pool backends: their workers already keep caches warm
        and pay no wire bytes) and the caller should stay on the stateless
        :meth:`map_shards` route.  ``n_shards`` is a floor on the logical
        shard count; a session may choose more (one per live worker).
        """
        ...

    def close(self) -> None:
        """Release workers/sockets; the backend cannot be used afterwards."""
        ...

    def __enter__(self) -> "ExecutionBackend": ...

    def __exit__(self, exc_type, exc, tb) -> None: ...


class SerialBackend:
    """Evaluate everything in the calling process, on one persistent cache.

    The reference implementation of the backend contract: tasks and shards
    run through the very same worker functions the parallel backends ship
    out (:func:`~repro.engine.campaign.run_task`,
    :func:`~repro.engine.pool.expand_shard`), so its results *are* the
    parity baseline the other backends are tested against.  Matching runs
    against this process's persistent
    :func:`~repro.engine.matcher.process_cache`, exactly as it would inside a
    pool worker — the backend equivalent of a one-worker pool that stays
    warm across workloads.
    """

    def __init__(self) -> None:
        self.parallelism = 1
        self._closed = False

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        self._check_open()
        return [run_task(task) for task in tasks]

    def map_shards(self, payloads: Sequence[ShardPayload]) -> List[ShardResult]:
        self._check_open()
        return [expand_shard(payload) for payload in payloads]

    def open_exploration(
        self, key: ExploreKey, n_shards: Optional[int] = None
    ) -> Optional[ShardSession]:
        # No wire to save bytes on: the serial route *is* the resident
        # state.  Callers fall back to map_shards.
        self._check_open()
        return None

    # -- lifecycle -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "SerialBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class PoolBackend:
    """Evaluate on a persistent :class:`~repro.engine.pool.ExplorationPool`.

    Wraps an existing pool (not closed with the backend — it may be shared
    with other consumers) or owns a fresh one built from ``workers=``
    (closed with the backend).  Tasks and shards run on the pool's
    long-lived workers, whose per-process matcher caches stay warm across
    workloads; ``pool.map`` preserves submission order, which discharges
    the ordering contract.
    """

    def __init__(
        self,
        pool: Optional[ExplorationPool] = None,
        *,
        workers: Optional[int] = None,
    ) -> None:
        if pool is not None and workers is not None and workers != pool.workers:
            raise ValueError("pass either an existing pool or a workers count, not both")
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ExplorationPool(workers=workers)
        self._closed = False

    @property
    def parallelism(self) -> int:
        return self.pool.workers

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        self._check_open()
        return self.pool.map(run_task, tasks, chunksize=4)

    def map_shards(self, payloads: Sequence[ShardPayload]) -> List[ShardResult]:
        self._check_open()
        return self.pool.map(expand_shard, payloads)

    def open_exploration(
        self, key: ExploreKey, n_shards: Optional[int] = None
    ) -> Optional[ShardSession]:
        # ``multiprocessing.Pool`` cannot pin work to a specific worker, so
        # per-shard resident state cannot live pool-side; the stateless
        # route already keeps the matcher caches warm per process.
        self._check_open()
        return None

    # -- lifecycle -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "PoolBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FallbackBackend:
    """Finish a job locally when the primary backend loses its fleet.

    The opt-in graceful-degradation policy: wraps a *primary* backend
    (typically the TCP :class:`~repro.engine.distributed.DistributedBackend`)
    and a local *fallback* (a fresh :class:`SerialBackend` by default; pass
    a :class:`PoolBackend` to degrade onto the local pool instead).  When
    the primary raises :class:`NoWorkersError` (the fleet never arrived) or
    :class:`FleetLostError` (the fleet died mid-job), the fallback
    evaluates only the *outstanding* items and the results are merged with
    whatever the primary completed — legal because both work shapes are
    pure functions of their payloads, so where an item ran is unobservable
    in the output.

    Degradations are counted in :attr:`stats` (``fallback_jobs`` /
    ``fallback_items``) rather than raised: a sweep that limps home on the
    local machine reports *that it did so*, but still reports.
    :class:`~PoisonedItemError` is deliberately **not** absorbed — a
    payload that killed every remote worker that touched it must not be
    handed to the local process.
    """

    def __init__(self, primary, fallback=None) -> None:
        self.primary = primary
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.stats: Dict[str, int] = {"fallback_jobs": 0, "fallback_items": 0}
        self._closed = False

    @property
    def parallelism(self) -> int:
        return self.primary.parallelism

    def _finish(self, kind: str, payloads: Sequence[object], exc) -> List[object]:
        completed = getattr(exc, "completed", {})
        pending = getattr(exc, "pending", None)
        if pending is None:  # NoWorkersError: nothing ever ran
            pending = list(range(len(payloads)))
        remainder = [payloads[item_id] for item_id in pending]
        if kind == "task":
            finished = self.fallback.run_tasks(remainder)
        else:
            finished = self.fallback.map_shards(remainder)
        self.stats["fallback_jobs"] += 1
        self.stats["fallback_items"] += len(remainder)
        results: List[object] = [None] * len(payloads)
        for item_id, value in completed.items():
            results[item_id] = value
        for item_id, value in zip(pending, finished):
            results[item_id] = value
        return results

    def run_tasks(self, tasks: Sequence[CampaignTask]) -> List[VerificationReport]:
        self._check_open()
        tasks = list(tasks)
        try:
            return self.primary.run_tasks(tasks)
        except (NoWorkersError, FleetLostError) as exc:
            return self._finish("task", tasks, exc)  # type: ignore[return-value]

    def map_shards(self, payloads: Sequence[ShardPayload]) -> List[ShardResult]:
        self._check_open()
        payloads = list(payloads)
        try:
            return self.primary.map_shards(payloads)
        except (NoWorkersError, FleetLostError) as exc:
            return self._finish("shard", payloads, exc)  # type: ignore[return-value]

    def open_exploration(
        self, key: ExploreKey, n_shards: Optional[int] = None
    ) -> Optional[ShardSession]:
        """Open a degradable session on the primary, or ``None``.

        A fleet that never arrives (:class:`NoWorkersError` at open) means
        no session — the caller takes the stateless route, whose every
        ``map_shards`` call this wrapper already degrades.  A session that
        *does* open is wrapped so a mid-exploration fleet loss switches
        the remaining waves onto the local fallback instead of raising:
        legal because :meth:`ShardSession.advance_wave` speaks full states
        at the API boundary (compression is wire-internal), so the wave
        the session could not finish is simply re-expanded locally.
        """
        self._check_open()
        opener = getattr(self.primary, "open_exploration", None)
        if opener is None:
            return None
        try:
            session = opener(key, n_shards)
        except (NoWorkersError, FleetLostError):
            return None
        if session is None:
            return None
        return _DegradingSession(self, key, session)

    # -- lifecycle -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.primary.close()
        finally:
            self.fallback.close()

    def __enter__(self) -> "FallbackBackend":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _DegradingSession:
    """A :class:`ShardSession` that finishes locally when the fleet dies.

    Wraps the primary backend's session for :class:`FallbackBackend`.
    While the primary is healthy every call passes straight through; the
    first :class:`FleetLostError`/:class:`NoWorkersError` out of
    ``advance_wave`` closes the remote session and pins this wrapper to
    the fallback backend's stateless ``map_shards`` for the rest of the
    exploration.  The shard count must not change on degradation — hash
    partitioning fixed it at open — so the fallback expands the same
    frontier slices the session would have.
    """

    def __init__(self, owner: FallbackBackend, key: ExploreKey, session: ShardSession) -> None:
        self._owner = owner
        self._key = key
        self._session = session
        self.n_shards = session.n_shards
        self._degraded = False
        self._wire: Dict[str, int] = {}

    def advance_wave(self, frontier: ShardFrontier) -> List[ShardResult]:
        if not self._degraded:
            try:
                return self._session.advance_wave(frontier)
            except (NoWorkersError, FleetLostError):
                self._degrade()
        self._owner.stats["fallback_items"] += len(frontier)
        return self._owner.fallback.map_shards(
            [(self._key, states) for _, states in frontier]
        )

    def _degrade(self) -> None:
        self._degraded = True
        self._owner.stats["fallback_jobs"] += 1
        try:
            self._wire = dict(self._session.wire_stats())
            self._session.close()
        except Exception:  # noqa: BLE001 - the fleet is already gone
            pass

    def wire_stats(self) -> Dict[str, int]:
        return dict(self._wire) if self._degraded else dict(self._session.wire_stats())

    def close(self) -> None:
        if not self._degraded:
            self._session.close()


def backend_cache(backend) -> Optional[MatcherCache]:
    """The in-process cache of ``backend``, when it has one.

    Serial fallbacks (unregistered ad-hoc algorithms cannot cross a
    process boundary) run in the calling process; routing them onto the
    backend's own cache — the pool's coordinator cache for
    :class:`PoolBackend`, this process's
    :func:`~repro.engine.matcher.process_cache` for :class:`SerialBackend`
    (whose "worker" *is* this process) — keeps them as warm as the
    backend's registered workloads.  Backends without an in-process cache
    (TCP daemons keep theirs remote) return ``None`` and the caller falls
    back to a fresh/explicit cache.
    """
    if isinstance(backend, SerialBackend):
        return process_cache()
    if isinstance(backend, FallbackBackend):
        # Serial fallbacks of a degradable backend should warm the cache
        # its local half would use, not a throwaway one.
        return backend_cache(backend.fallback)
    pool = getattr(backend, "pool", None)
    if isinstance(pool, ExplorationPool):
        return pool.cache
    return None
