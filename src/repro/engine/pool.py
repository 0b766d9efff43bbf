"""Persistent exploration worker pool with process-level matcher caches.

Before this module, every :func:`~repro.engine.sharded.explore_sharded`
call spawned — and tore down — its own ``multiprocessing`` pool.  Pool
startup is milliseconds-per-worker of pure overhead, which dominates the
wall clock below roughly :data:`SERIAL_THRESHOLD` (about 10^4) states, and
the per-worker :class:`~repro.engine.matcher.MatcherCache`\\ s died with the
pool: the second exploration of a campaign re-evaluated every guard the
first one had already memoized.

:class:`ExplorationPool` fixes both at once.  It is one long-lived process
pool that

* **amortises startup** — workers spawn lazily on the first parallel use
  and then serve every subsequent exploration *and* campaign task until
  the pool is closed (it is a context manager);
* **keeps worker caches warm** — each worker process owns a single
  :func:`process_cache` (a :class:`~repro.engine.matcher.MatcherCache`)
  shared by the sharded-exploration expander and the campaign task runner,
  so guard evaluations memoized during one exploration are served from
  cache in the next one, at any grid size of the same algorithm;
* **routes adaptively** — :meth:`ExplorationPool.explore` estimates the
  state count of the requested exploration and runs it serially (on the
  pool's own coordinator-side cache, also persistent) when the estimate is
  below ``serial_threshold``, sharded above; small grids no longer pay any
  inter-process traffic at all.

Both routes produce byte-identical :class:`~repro.engine.explorer.Exploration`
objects — same states in the same interned order, same successor rows and
edge labels, and the same :class:`StateSpaceLimitExceeded` message and
context when a state budget trips — because the sharded merge replays
serial BFS order and memoization never changes results.  Only
``matcher_stats`` reflects the route taken (aggregated per-worker deltas
when sharded, the coordinator cache's delta when serial).

The worker-side helpers (:func:`process_cache`, :func:`expand_shard`) are
module-level so ``multiprocessing`` can pickle references to them; their
mutable state is per-process by construction.
"""

from __future__ import annotations

import os
import threading
from math import comb
from typing import Dict, List, Optional, Tuple

from ..core.algorithm import Algorithm
from ..core.grid import Grid
from .explorer import Exploration
from .matcher import MatcherCache, process_cache
from .reduction import (
    ReductionPipeline,
    ReductionSpec,
    apriori_reduction_factor,
    normalize_reduction,
)
from .states import SchedulerState
from .transition import MODELS

__all__ = [
    "ExplorationPool",
    "PACKED_SERIAL_FACTOR",
    "SERIAL_THRESHOLD",
    "default_workers",
    "estimate_states",
    "process_cache",
]

#: Default adaptive-routing threshold: explorations whose estimated state
#: count falls below this run serially (pool spawn / IPC overhead dominates
#: there; see ``BENCH_engine.json``), larger ones are sharded.
SERIAL_THRESHOLD = 10_000

#: How much further the serial route stays competitive under the packed
#: kernel: its wave BFS expands an order of magnitude more states per
#: second than the object loop (see ``BENCH_engine.json``'s
#: ``packed_vs_object`` headlines), so the state count at which worker
#: spawn / IPC overhead starts to pay is correspondingly higher.
#: :meth:`ExplorationPool.explore` multiplies its ``serial_threshold`` by
#: this factor when ``kernel="packed"`` (or ``"auto"``) is requested.
PACKED_SERIAL_FACTOR = 10

#: Serializes process-pool construction across threads so the
#: failed-spawn cleanup in :meth:`ExplorationPool._ensure_pool` can
#: attribute every newly appeared pool-worker child to *its* spawn —
#: ``multiprocessing.active_children()`` is process-global and two pools
#: spawning concurrently would otherwise reap each other's workers.
_SPAWN_LOCK = threading.Lock()


def default_workers() -> int:
    """The default shard/worker count: one per *usable* core.

    ``os.cpu_count()`` reports the machine's cores even when the process is
    confined to fewer by a cgroup quota or CPU affinity mask (the normal
    situation in containers), which oversubscribes the pool.  Prefer the
    scheduling affinity of this process where the platform exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def registered(algorithm: Algorithm) -> bool:
    """Whether ``algorithm`` is the registry's object for its name.

    Only registered algorithms can cross a process boundary (rule sets
    close over lambdas and cannot be pickled; workers re-resolve the name).
    """
    from ..algorithms import registry  # local import: avoids a layering cycle

    return registry.all_algorithms().get(algorithm.name) is algorithm


def estimate_states(
    algorithm: Algorithm, grid: Grid, model: str, reduction: ReductionSpec = None
) -> int:
    """A cheap a-priori estimate of the reachable state count.

    Upper-bound-shaped heuristic, not a count: placements of the
    algorithm's ``k`` robots on the grid times the color assignments, with
    a branching multiplier for the richer scheduler state of SSYNC (subset
    activation) and ASYNC (per-robot Look/Compute/Move phases and stored
    snapshots).  A quotienting ``reduction`` divides the estimate by its
    a-priori factor (``|grid group| * |detected color group|``), so a
    reduced run is routed on the state count it can actually reach rather
    than the raw one.  The estimate only needs to order workloads around
    :data:`SERIAL_THRESHOLD` — small grids below, state-space-heavy runs
    above — which it does with orders of magnitude to spare.
    """
    nodes = grid.m * grid.n
    k = min(algorithm.k, nodes)
    estimate = comb(nodes, k) * (max(len(algorithm.colors), 1) ** k)
    if model == "SSYNC":
        estimate *= 4
    elif model == "ASYNC":
        estimate *= 32
    factor = apriori_reduction_factor(algorithm, grid, model, reduction)
    return max(1, estimate // factor)


# ---------------------------------------------------------------------------
# Worker side (module-level state is per-process by construction)
# ---------------------------------------------------------------------------
#: One exploration context, fully picklable: everything a worker needs to
#: rebuild the transition system (and reduction pipeline) it should expand
#: against.  The fifth slot is the normalized reduction spec string
#: (``"none"``, ``"grid"``, ``"grid+color+por"``, ...); the sixth is the
#: normalized successor-kernel spec (``"object"`` or ``"packed"``; see
#: :mod:`repro.engine.packed`).  Five-tuple keys from older callers keep
#: working and mean the object kernel.
ExploreKey = Tuple[str, int, int, str, str, str]  # (algorithm, m, n, model, reduction, kernel)

#: Transition systems this process has already configured, keyed by
#: :data:`ExploreKey` — kept so re-exploring the same workload skips even
#: the (cheap) system and pipeline construction.  Bounded; see
#: :data:`_MAX_SYSTEMS`.
_SYSTEMS: Dict[ExploreKey, Tuple[object, ReductionPipeline]] = {}
_MAX_SYSTEMS = 64


def _system(key: ExploreKey) -> Tuple[object, ReductionPipeline]:
    """The process-local transition system (+ reduction pipeline) for ``key``.

    Accepts legacy five-slot keys (no kernel) for backward compatibility
    with pre-kernel coordinators; they mean the object kernel.
    """
    entry = _SYSTEMS.get(key)
    if entry is None:
        from ..algorithms import registry  # local import: workers re-import lazily
        from .packed import build_transition_system  # local import: module cycle

        name, m, n, model, spec = key[:5]
        kernel = key[5] if len(key) > 5 else "object"
        algorithm = registry.get(name)
        grid = Grid(m, n)
        ts = build_transition_system(
            algorithm, grid, model, kernel,
            matcher=process_cache().matcher_for(algorithm, grid),
        )
        entry = (ts, ReductionPipeline(algorithm, grid, model, spec=spec))
        while len(_SYSTEMS) >= _MAX_SYSTEMS:  # matcher tables persist either way
            _SYSTEMS.pop(next(iter(_SYSTEMS)))
        _SYSTEMS[key] = entry
    return entry


#: One expanded row: a state's canonicalised successors, each paired with
#: the witness token of the collapsing symmetry (``None`` for
#: identity/unreduced; see :data:`repro.engine.reduction.WitnessToken`).
Row = List[Tuple[SchedulerState, object]]


def expand_shard(
    payload: Tuple[ExploreKey, List[SchedulerState]]
) -> Tuple[List[Row], Tuple[int, int], Dict[str, int]]:
    """Expand one shard's slice of a BFS wave; the worker map function.

    The payload carries the exploration context so one long-lived pool can
    serve any sequence of workloads; reconfiguration is a dict hit when the
    context repeats.  Returns the successor rows in input order, the
    matcher hit/miss delta this batch generated (aggregated by the
    coordinator into ``Exploration.matcher_stats``), and the reduction
    counter delta (aggregated into ``Exploration.reduction_stats``).
    """
    key, states = payload
    ts, pipeline = _system(key)
    stats_before = ts.matcher.stats.snapshot()
    counters_before = pipeline.counters_snapshot()
    rows: List[Row] = []
    for state in states:
        row: Row = []
        for raw in pipeline.successors(ts, state):
            rep, h = pipeline.canonicalize(raw)
            row.append((rep, pipeline.witness_token(h)))
        rows.append(row)
    delta = ts.matcher.stats.delta_since(stats_before)
    return rows, (delta.hits, delta.misses), pipeline.counters_delta(counters_before)


class ResidentShard:
    """Worker-resident state of one logical shard of a stateful session.

    The delta-wave protocol of :mod:`repro.engine.distributed` keeps the
    frontier *resident* worker-side: each logical shard owns an append-only
    **intern table** of every state it has ever exchanged with the
    coordinator, mirrored byte-for-byte on the coordinator end.  Wire
    traffic then names states by table index wherever possible:

    * a **downlink** frontier entry is either a plain ``int`` (a table
      index — the state was shipped before, usually as one of this shard's
      own reported successors) or ``("f", state)`` (a full state, appended
      to the table by both ends);
    * an **uplink** successor reference is either a plain ``int`` or
      ``("n", state)`` for a state this shard has never exchanged
      (appended by both ends, in report order).

    Both ends process entries in the same order — downlink appends first,
    then uplink appends — so the tables stay identical without ever being
    compared.  The table is also the shard's snapshot (see
    :class:`~repro.engine.journal.ShardSnapshotStore`): restoring it on a
    fresh worker resumes the compression exactly, and the **watermark**
    (table length) decides snapshot currency.

    Expansion itself reuses the exact machinery of :func:`expand_shard` —
    the process-local transition system, reduction pipeline and persistent
    :func:`process_cache` behind :func:`_system` — so a stateful wave
    produces the same rows, matcher deltas and reduction-counter deltas a
    stateless one would.
    """

    def __init__(self, key: ExploreKey, table: Optional[List[SchedulerState]] = None) -> None:
        self.key = key
        self.table: List[SchedulerState] = list(table) if table else []
        self.seen: Dict[SchedulerState, int] = {state: i for i, state in enumerate(self.table)}

    @property
    def watermark(self) -> int:
        """Exchange count of this shard: the length of its intern table."""
        return len(self.table)

    def _intern(self, state: SchedulerState) -> int:
        index = len(self.table)
        self.table.append(state)
        self.seen[state] = index
        return index

    def expand_wave(
        self, entries: List[object]
    ) -> Tuple[list, Tuple[int, int], Dict[str, int]]:
        """Expand one wave's frontier entries; returns wire-encoded rows.

        ``entries`` are downlink entries in BFS order; the result rows are
        aligned with them, each a list of ``(ref, witness-token)`` pairs
        using the uplink encoding above.  The matcher and reduction deltas
        are exactly those of the equivalent :func:`expand_shard` call.
        """
        ts, pipeline = _system(self.key)
        states: List[SchedulerState] = []
        for entry in entries:
            if isinstance(entry, int):
                states.append(self.table[entry])
            else:
                state = entry[1]
                self._intern(state)
                states.append(state)
        stats_before = ts.matcher.stats.snapshot()
        counters_before = pipeline.counters_snapshot()
        rows: list = []
        for state in states:
            row: list = []
            for raw in pipeline.successors(ts, state):
                rep, h = pipeline.canonicalize(raw)
                ref = self.seen.get(rep)
                if ref is None:
                    self._intern(rep)
                    row.append((("n", rep), pipeline.witness_token(h)))
                else:
                    row.append((ref, pipeline.witness_token(h)))
            rows.append(row)
        delta = ts.matcher.stats.delta_since(stats_before)
        return rows, (delta.hits, delta.misses), pipeline.counters_delta(counters_before)


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------
class ExplorationPool:
    """One long-lived worker pool for explorations and campaign tasks.

    Use as a context manager (or call :meth:`close` explicitly)::

        with ExplorationPool(workers=4) as pool:
            first = check_terminating_exploration(alg, grid, model="FSYNC", pool=pool)
            second = check_terminating_exploration(alg, grid, model="SSYNC", pool=pool)
            reports = ParallelCampaignEngine(pool=pool).grid_sweep(alg)

    The underlying process pool spawns lazily on the first sharded-routed
    workload and is reused by every later one — explorations (any
    algorithm/grid/model mix) and campaign task lists alike — so startup is
    paid at most once and each worker's :func:`process_cache` stays warm
    across workloads.  Serial-routed work runs in the calling process on
    :attr:`cache`, the pool's equally persistent coordinator-side
    :class:`MatcherCache`.

    ``serial_threshold`` tunes the adaptive routing of :meth:`explore`
    (estimated states below it run serially); pass ``0`` to force sharding,
    or a very large value to pin everything serial.  Routing, sharding and
    caching never change results — see the module docstring.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        serial_threshold: int = SERIAL_THRESHOLD,
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        self.serial_threshold = serial_threshold
        #: Coordinator-side cache backing serial-routed explorations (and the
        #: serial fallbacks of ``explore_sharded(pool=...)``); persists for
        #: the life of the pool, like the workers' :func:`process_cache`.
        self.cache = MatcherCache()
        self._pool = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether worker processes have actually been spawned yet."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("ExplorationPool is closed")
        if self._pool is None and self.workers > 1:
            import multiprocessing

            # Platform-default start method, as elsewhere in the engine:
            # everything shipped is picklable and workers re-import lazily,
            # and forcing fork on macOS can deadlock threaded parents.
            context = multiprocessing.get_context()
            # A constructor that fails partway (say the (k+1)-th worker of
            # k+n cannot spawn) raises without handing back the pool object,
            # stranding the workers it did start.  Snapshot the live
            # children first and reap any newcomers on failure, so a failed
            # spawn leaks neither processes nor their pipes — and the pool
            # object stays cleanly closeable/reusable.  Only processes with
            # a pool-worker name are candidates: active_children() is
            # process-global, and a thread concurrently starting unrelated
            # workers (a WorkerDaemon, say) must not see them reaped.
            with _SPAWN_LOCK:
                before = set(multiprocessing.active_children())
                try:
                    self._pool = context.Pool(processes=self.workers)
                except BaseException:
                    self._pool = None
                    for process in multiprocessing.active_children():
                        if process not in before and "PoolWorker" in (process.name or ""):
                            process.terminate()
                            process.join(timeout=5.0)
                    raise
        return self._pool

    def close(self) -> None:
        """Shut the workers down; the pool cannot be used afterwards.

        Idempotent, and safe whatever state spawning reached: a pool whose
        worker spawn failed partway (see :meth:`_ensure_pool`) or that
        never spawned closes without error, and ``__exit__`` never masks
        an in-flight exception with a teardown failure.
        """
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
            finally:
                pool.join()

    def __enter__(self) -> "ExplorationPool":
        if self._closed:
            raise RuntimeError("ExplorationPool is closed")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -----------------------------------------------------
    def map(self, fn, iterable, chunksize: int = 1) -> list:
        """``pool.map`` on the persistent workers.

        Workers spawn lazily, and only when there is work to ship.  On a
        one-worker pool the items run in the calling process instead; note
        that worker functions like ``expand_shard``/``run_task`` then warm
        this process's :func:`process_cache`, not :attr:`cache` — the
        library's own routes avoid that by clamping to the pool's worker
        count and taking the serial route (which *does* use :attr:`cache`)
        whenever the pool cannot actually parallelize.
        """
        items = list(iterable)
        if not items:
            return []
        pool = self._ensure_pool()
        if pool is None:
            return [fn(item) for item in items]
        return pool.map(fn, items, chunksize=chunksize)

    def imap(self, fn, iterable, chunksize: int = 1):
        """``pool.imap`` on the persistent workers: results as they finish.

        Same routing and caveats as :meth:`map`, but results stream back in
        submission order as an iterator — the journalled campaign route
        uses this so each completed report can be made durable without
        waiting for the whole batch.
        """
        items = list(iterable)
        if not items:
            return iter(())
        pool = self._ensure_pool()
        if pool is None:
            return (fn(item) for item in items)
        return pool.imap(fn, items, chunksize=chunksize)

    def explore(
        self,
        algorithm: Algorithm,
        grid: Grid,
        model: str,
        *,
        reduction: ReductionSpec = None,
        symmetry_reduction: bool = False,
        max_states: int = 200_000,
        start: Optional[SchedulerState] = None,
        kernel: Optional[str] = None,
        store=None,
    ) -> Exploration:
        """Explore with adaptive routing; identical to the serial explorer.

        Runs serially — in this process, on :attr:`cache` — when the
        workload is too small for sharding to pay (estimated states below
        ``serial_threshold``), when the pool has one worker, or when the
        algorithm cannot cross a process boundary; shards over the
        persistent workers otherwise.  The routing estimate is scaled by
        the a-priori factor of the requested ``reduction`` (a quotiented
        run is routed on the state count it can actually reach).  Either
        way the ``Exploration`` is byte-identical to
        ``explore(AlgorithmTransitionSystem(...))`` with the same
        arguments, including ``StateSpaceLimitExceeded`` context on a
        tripped budget; ``matcher_stats`` reports the route's cache
        counters.

        ``kernel`` selects the successor kernel (``"object"``, ``"packed"``
        or ``"auto"``); it is carried in the :data:`ExploreKey` so shard
        workers rebuild the matching transition system.  Because the packed
        kernel expands roughly an order of magnitude more states per second
        serially, the routing threshold is scaled by
        :data:`PACKED_SERIAL_FACTOR` when it is selected — larger workloads
        stay on the (much faster) serial wave BFS before sharding pays.

        ``store`` — a :class:`~repro.engine.store.VerdictStore` — is
        forwarded to ``explore_sharded`` on both routes, so either is
        served from (and records into) the shared verdict cache.
        """
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if self._closed:
            raise RuntimeError("ExplorationPool is closed")
        from .packed import normalize_kernel  # local import: avoids a module cycle
        from .sharded import explore_sharded  # local import: avoids a module cycle

        spec = normalize_reduction(reduction, symmetry_reduction)
        knorm = normalize_kernel(kernel)
        threshold = self.serial_threshold
        if knorm == "packed":
            threshold *= PACKED_SERIAL_FACTOR
        serial = (
            self.workers <= 1
            or not registered(algorithm)
            or estimate_states(algorithm, grid, model, reduction=spec) < threshold
        )
        if serial:
            # workers=1 takes explore_sharded's serial fallback — the one
            # shared implementation of the cache-backed serial route — on
            # this pool's persistent coordinator cache.
            return explore_sharded(
                algorithm,
                grid,
                model,
                workers=1,
                reduction=spec,
                max_states=max_states,
                start=start,
                cache=self.cache,
                kernel=knorm,
                store=store,
            )
        return explore_sharded(
            algorithm,
            grid,
            model,
            workers=self.workers,
            reduction=spec,
            max_states=max_states,
            start=start,
            pool=self,
            kernel=knorm,
            store=store,
        )
