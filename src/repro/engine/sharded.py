"""Hash-partitioned parallel state-space exploration.

The serial explorer (:mod:`repro.engine.explorer`) expands a breadth-first
frontier one state at a time; on multi-core machines that leaves all but
one core idle while successor generation — guard evaluation over every
``(rule, symmetry)`` pair — dominates the wall clock.  This module fans the
frontier over a ``multiprocessing`` pool, wave by wave:

1. **Partition.** The states of the current BFS wave are split by
   canonical-state hash, ``shard = hash(state) % workers`` — the same
   partitioning trick :class:`~repro.engine.campaign.ParallelCampaignEngine`
   uses for campaign tasks, applied one level deeper, to the frontier
   itself.  Hashing the canonical state keeps each shard's working set
   disjoint and statistically balanced.
2. **Expand.** Every worker expands its shard with a process-local
   :class:`~repro.engine.transition.AlgorithmTransitionSystem` whose
   matcher is backed by the worker's persistent
   :func:`~repro.engine.matcher.process_cache`, through a process-local
   :class:`~repro.engine.reduction.ReductionPipeline` rebuilt from the
   spec carried in the shard payload — so partial-order pruning and
   canonicalization happen worker-side, and each edge is labelled with the
   picklable *token* of the witnessing symmetry.
3. **Exchange & merge.** Successor rows — ``(canonical state, witness
   token)`` pairs, the only cross-shard traffic — come back to the
   coordinator, which replays them in serial BFS order: states are
   interned in exactly the order the serial explorer would discover them,
   so the merged :class:`~repro.engine.explorer.Exploration` is
   *identical* to the serial one (states, indices, successor rows, edge
   labels, and therefore the cycle/termination/coverage verdicts), and a
   tripped state budget raises :class:`StateSpaceLimitExceeded` with the
   exact context — message included — the serial explorer would produce.

Canonicalization stays consistent across shard workers by construction:
every worker rebuilds the pipeline from the same spec string, the grid
group and detected color group are pure functions of the (registry-
resolved) algorithm and grid, and representatives are order-independent
minima over the product orbit.

By default (``workers=None``) the exploration runs serially in the calling
process.  ``workers > 1`` spawns an ephemeral pool that lives for the one
exploration (worker caches stay warm across its waves).  Pass ``pool=`` —
a long-lived :class:`~repro.engine.pool.ExplorationPool` — to reuse
already-spawned workers instead: startup is amortised across explorations
and the per-worker caches survive from one workload to the next.

Cached ``SchedulerState`` hashes never cross the process boundary (string
hashing is per-process randomized; see ``SchedulerState.__getstate__``), so
shipped states intern correctly next to locally created ones.

Algorithms are shipped to workers by registry name (rule sets close over
lambdas and cannot be pickled); unregistered ad-hoc algorithms, and
``workers <= 1``, fall back to the serial explorer — on the caller's
``cache=`` (or the pool's coordinator cache) when one is supplied, so the
fallback stays exactly as warm as the serial path would have been.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import StateSpaceLimitExceeded
from ..core.grid import Grid
from ..core.algorithm import Algorithm
from .explorer import Exploration, explore
from .matcher import MatcherCache, MatcherStats, matcher_for
from .packed import build_transition_system, normalize_kernel
from .pool import ExploreKey, ExplorationPool, default_workers, expand_shard, registered
from .reduction import ReductionPipeline, ReductionSpec, normalize_reduction
from .states import SchedulerState, initial_state
from .transition import MODELS

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a module cycle)
    from .backend import ExecutionBackend, ShardSession
    from .store import VerdictStore

__all__ = ["explore_sharded", "default_workers"]

#: A shard expansion round: payloads in, ``(rows, (hits, misses), reduction
#: counter delta)`` out.
_MapFn = Callable[[Sequence[Tuple[ExploreKey, List[SchedulerState]]]], list]


def explore_sharded(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    *,
    workers: Optional[int] = None,
    reduction: ReductionSpec = None,
    symmetry_reduction: bool = False,
    max_states: int = 200_000,
    start: Optional[SchedulerState] = None,
    cache: Optional[MatcherCache] = None,
    pool: Optional[ExplorationPool] = None,
    backend: Optional["ExecutionBackend"] = None,
    kernel: Optional[str] = None,
    store: Optional["VerdictStore"] = None,
) -> Exploration:
    """Build the reachable successor graph with a sharded process pool.

    The result is identical to ``explore(AlgorithmTransitionSystem(...))``
    with the same keyword arguments — same states in the same interned
    order, same successor rows and edge labels, hence bit-identical
    cycle/termination/coverage verdicts — and a tripped ``max_states``
    budget raises the same :class:`StateSpaceLimitExceeded`, context fields
    and message included.  Only ``matcher_stats`` differs (it aggregates
    the per-worker caches).

    ``reduction`` selects the reduction pipeline (spec string or
    :class:`~repro.engine.reduction.ReductionPipeline`; only the spec
    crosses the process boundary); ``symmetry_reduction=True`` remains the
    deprecated alias for ``reduction="grid"``.

    ``kernel`` selects the successor kernel (``"object"``, ``"packed"`` or
    ``"auto"``; see :mod:`repro.engine.packed`) and travels inside the
    :data:`~repro.engine.pool.ExploreKey`, so shard workers rebuild the
    matching transition system exactly like they rebuild reduction
    pipelines.  Kernel choice never changes results — every route is
    parity-gated against the object kernel.

    ``pool`` reuses a persistent :class:`~repro.engine.pool.ExplorationPool`
    instead of spawning an ephemeral one (``workers`` defaults to the
    pool's worker count).  ``backend`` — any
    :class:`~repro.engine.backend.ExecutionBackend`, including the TCP
    :class:`~repro.engine.distributed.DistributedBackend` — supersedes
    both: when the backend opens a stateful shard session
    (``backend.open_exploration``), the wave loop advances that session —
    frontiers stay resident worker-side, waves exchange delta-compressed
    rows, and the returned exploration carries the session's
    ``wire_stats``; otherwise it fans its shards out through the
    stateless ``backend.map_shards`` (sharded even at one worker: a
    remote backend's single worker is still not this process), with the
    backend's ``parallelism`` as the shard count.  Runs the serial explorer
    when ``workers`` is ``None`` (the default) or ``<= 1`` and neither a
    pool nor a backend is given, or when the algorithm is not in the
    registry (its rules cannot cross the process boundary); the serial
    route matches on ``cache``, else the pool's (or backend's) coordinator
    cache, else the process-wide table.

    ``store`` — a :class:`~repro.engine.store.VerdictStore` — serves the
    whole exploration from the verdict cache when its content key
    (``("explore",) + ExploreKey + (max_states,)`` — budget included, so a
    partial run can never answer for a full one) has been computed before,
    on *any* route; a miss computes through the routing below and records
    the result.  Duplicate concurrent requests for one key coalesce onto a
    single computation.  Cached explorations are byte-identical to
    computed ones (``store_stats``/``matcher_stats`` excepted — cache
    observability and warmth).  Explorations from a custom ``start`` state
    or of an unregistered algorithm bypass the store.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    spec = normalize_reduction(reduction, symmetry_reduction)
    knorm = normalize_kernel(kernel)
    key: ExploreKey = (algorithm.name, grid.m, grid.n, model, spec, knorm)
    if store is not None and start is None and registered(algorithm):
        from .spec import explore_store_key  # local import: shared key spelling

        return store.fetch(
            explore_store_key(algorithm.name, grid.m, grid.n, model, spec, knorm, max_states),
            lambda: _route_exploration(
                algorithm, grid, model, key, spec, knorm,
                workers=workers, max_states=max_states, start=start,
                cache=cache, pool=pool, backend=backend,
            ),
        )
    return _route_exploration(
        algorithm, grid, model, key, spec, knorm,
        workers=workers, max_states=max_states, start=start,
        cache=cache, pool=pool, backend=backend,
    )


def _route_exploration(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    key: ExploreKey,
    spec: str,
    knorm: str,
    *,
    workers: Optional[int],
    max_states: int,
    start: Optional[SchedulerState],
    cache: Optional[MatcherCache],
    pool: Optional[ExplorationPool],
    backend: Optional["ExecutionBackend"],
) -> Exploration:
    """Pick the execution route (session / backend / pool / serial / ephemeral)."""
    if backend is not None and registered(algorithm):
        # Prefer the stateful session route when the backend offers one
        # (today the TCP DistributedBackend): shard frontiers stay
        # resident worker-side and waves exchange table references instead
        # of full payloads.  Backends without resident state — and older
        # duck-typed backends without the method — return/lack None and
        # take the stateless map_shards route below.
        opener = getattr(backend, "open_exploration", None)
        session = opener(key) if opener is not None else None
        if session is not None:
            try:
                return _sharded_exploration(
                    algorithm,
                    grid,
                    model,
                    key,
                    backend.map_shards,
                    workers=session.n_shards,
                    spec=spec,
                    max_states=max_states,
                    start=start,
                    session=session,
                )
            finally:
                # A tripped state budget (or any other failure) must still
                # release the fleet's resident shard state.
                session.close()
        shards = max(1, int(getattr(backend, "parallelism", 1) or 1))
        return _sharded_exploration(
            algorithm,
            grid,
            model,
            key,
            backend.map_shards,
            workers=shards,
            spec=spec,
            max_states=max_states,
            start=start,
        )
    if pool is not None:
        # Never ask a pool for more parallelism than it has: a one-worker
        # pool routes serially (onto its coordinator cache) rather than
        # pretending to shard in-process.
        workers = pool.workers if workers is None else min(workers, pool.workers)
    elif workers is None:
        workers = 1
    if workers <= 1 or not registered(algorithm):
        if cache is None:
            if pool is not None:
                cache = pool.cache
            elif backend is not None:
                # The backend's coordinator cache (when it has one) keeps
                # the unregistered-algorithm fallback as warm as the
                # backend's workers would have been.
                from .backend import backend_cache  # local import: module cycle

                cache = backend_cache(backend)
        ts = build_transition_system(
            algorithm, grid, model, knorm, matcher=matcher_for(algorithm, grid, cache)
        )
        return explore(ts, reduction=spec, max_states=max_states, start=start)

    if pool is not None:
        return _sharded_exploration(
            algorithm,
            grid,
            model,
            key,
            lambda payloads: pool.map(expand_shard, payloads),
            workers=workers,
            spec=spec,
            max_states=max_states,
            start=start,
        )

    import multiprocessing

    # The platform-default start method, for the same reason as the campaign
    # engine: everything shipped is picklable and workers re-import lazily.
    context = multiprocessing.get_context()
    with context.Pool(processes=workers) as ephemeral:
        return _sharded_exploration(
            algorithm,
            grid,
            model,
            key,
            lambda payloads: ephemeral.map(expand_shard, payloads),
            workers=workers,
            spec=spec,
            max_states=max_states,
            start=start,
        )


def _sharded_exploration(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    key: ExploreKey,
    map_shards: _MapFn,
    *,
    workers: int,
    spec: str,
    max_states: int,
    start: Optional[SchedulerState],
    session: Optional["ShardSession"] = None,
) -> Exploration:
    """The coordinator: partition waves, fan out via ``map_shards``, merge."""
    # The coordinator's own pipeline canonicalises the root and resolves the
    # witness tokens shipped by the workers; for pure grid specs the tokens
    # resolve to the very cached GridSymmetry instances the serial explorer
    # attaches, so merged edge labels compare (and even `is`-compare) equal.
    pipeline = ReductionPipeline(algorithm, grid, model, spec=spec)
    reduce = pipeline.reduced

    root_raw = start if start is not None else initial_state(algorithm, grid)
    root_state, root_sym = pipeline.canonicalize(root_raw)

    states: List[SchedulerState] = [root_state]
    index: Dict[SchedulerState, int] = {root_state: 0}
    succ: List[List[int]] = []
    edge_syms: Optional[List[List[Optional[object]]]] = [] if reduce else None
    total_stats = MatcherStats()

    wave: List[int] = [0]
    while wave:
        # -- partition the wave by canonical-state hash ---------------
        shards: List[List[SchedulerState]] = [[] for _ in range(workers)]
        placement: List[Tuple[int, int]] = []  # wave position -> (shard, slot)
        for state_index in wave:
            state = states[state_index]
            shard = hash(state) % workers
            placement.append((shard, len(shards[shard])))
            shards[shard].append(state)

        # -- expand every non-empty shard in parallel -----------------
        # The session route speaks the same full-state frontiers at this
        # boundary; reference compression is internal to the wire.  Shard
        # numbers travel with the states so resident worker tables stay
        # pinned to their logical shard.
        occupied = [shard for shard in range(workers) if shards[shard]]
        if session is not None:
            results = session.advance_wave([(shard, shards[shard]) for shard in occupied])
        else:
            results = map_shards([(key, shards[shard]) for shard in occupied])
        rows_by_shard: Dict[int, list] = {}
        for shard, (rows, (hits, misses), reduction_delta) in zip(occupied, results):
            rows_by_shard[shard] = rows
            total_stats.merge(MatcherStats(hits, misses))
            pipeline.merge_counters(reduction_delta)

        # -- merge in serial BFS order --------------------------------
        # Waves visit states in interned order and successors are
        # interned row by row, which is exactly the serial explorer's
        # FIFO discovery sequence — so indices, rows and the budget trip
        # point all coincide with the serial run.
        next_wave: List[int] = []
        for wave_position, current in enumerate(wave):
            assert current == len(succ)
            shard, slot = placement[wave_position]
            row_states = rows_by_shard[shard][slot]
            row: List[int] = []
            row_syms: List[Optional[object]] = []
            for rep, token in row_states:
                child = index.get(rep)
                if child is None:
                    child = len(states)
                    if child >= max_states:
                        frontier_size = len(states) - len(succ) - 1
                        raise StateSpaceLimitExceeded(
                            f"{algorithm.name} on {grid.m}x{grid.n} [{model}]:"
                            f" state budget of {max_states} exceeded after expanding"
                            f" {len(succ)} states ({len(states)} discovered,"
                            f" frontier size {frontier_size}"
                            f"{pipeline.budget_note})",
                            algorithm=algorithm.name,
                            model=model,
                            max_states=max_states,
                            states_explored=len(succ),
                            frontier_size=frontier_size,
                        )
                    index[rep] = child
                    states.append(rep)
                    next_wave.append(child)
                row.append(child)
                if reduce:
                    row_syms.append(pipeline.witness_from_token(token))
            succ.append(row)
            if reduce:
                assert edge_syms is not None
                edge_syms.append(row_syms)
        wave = next_wave

    return Exploration(
        model=model,
        reduced=reduce,
        states=states,
        index=index,
        succ=succ,
        edge_syms=edge_syms,
        root=0,
        root_sym=root_sym,
        matcher_stats=total_stats.as_dict(),
        reduction=pipeline.active_spec,
        reduction_stats=pipeline.stats_report(),
        wire_stats=session.wire_stats() if session is not None else None,
    )
