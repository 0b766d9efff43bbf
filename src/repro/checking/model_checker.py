"""Exhaustive exploration of all scheduler behaviours on small grids.

The paper's correctness arguments quantify over *every* fair schedule and
every choice the scheduler makes when several rules or views match.  On a
small grid the reachable state space of that game is finite, so it can be
enumerated exactly:

* :func:`explore_state_space` builds the successor graph of canonical
  states (:mod:`repro.engine.states`) under FSYNC, SSYNC or ASYNC
  semantics, branching over every scheduler choice;
* :func:`check_terminating_exploration` then decides the two halves of
  Definition 1 over *all* executions:

  - **termination**: the successor graph contains no reachable cycle
    (every execution is finite), and
  - **coverage**: along every maximal execution, every grid node is
    eventually occupied — computed by a backward fixpoint over the DAG
    (the set of nodes *guaranteed* to be visited from a state is the
    intersection over its successors, plus the nodes occupied in the
    state itself).

Successor generation is delegated to the unified transition-system kernel
(:class:`repro.engine.transition.AlgorithmTransitionSystem`) — the same
semantics the simulator walks — and the frontier search, state interning
and graph analyses live in :mod:`repro.engine.explorer`.

``reduction=`` selects a composable reduction pipeline
(:mod:`repro.engine.reduction`): ``"grid"`` quotients the search by the
grid automorphisms the algorithm cannot distinguish (rotations, plus
reflections for chirality-free algorithms; see
:mod:`repro.engine.symmetry`), ``"grid+color"`` additionally quotients by
the detected color-permutation symmetries of the rule set, and
``"grid+color+por"`` adds ample-set partial-order reduction for the ASYNC
micro-step interleavings.  Every combination shrinks the state space while
preserving both the termination and the coverage verdicts exactly.
``symmetry_reduction=True`` remains as the deprecated boolean alias for
``reduction="grid"``.

This is a strictly stronger check than any number of randomized
simulations, and it is the tool used to validate the paper's ASYNC
algorithms (Table 1, SSYNC/ASYNC rows) on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.algorithm import Algorithm
from ..core.grid import Grid
from ..engine.explorer import Exploration, guaranteed_nodes, has_cycle
from ..engine.matcher import MatcherCache
from ..engine.pool import ExplorationPool
from ..engine.reduction import ReductionSpec, normalize_reduction
from ..engine.sharded import explore_sharded
from ..engine.states import SchedulerState
from ..engine.transition import AlgorithmTransitionSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend

__all__ = ["CheckResult", "explore_state_space", "check_terminating_exploration", "enumerate_reachable"]


@dataclass
class CheckResult:
    """Outcome of an exhaustive check on one (algorithm, grid, model) triple."""

    algorithm: str
    model: str
    m: int
    n: int
    states_explored: int
    terminal_states: int
    terminates: bool
    explores: bool
    counterexample: Optional[str] = None
    #: Whether the counts above refer to a symmetry-reduced quotient (grid
    #: and/or color).  Kept for backward compatibility; ``reduction`` names
    #: the precise pipeline.
    symmetry_reduction: bool = False
    #: Matcher-cache counters accumulated by this check (``hits`` /
    #: ``misses`` / ``hit_rate``); ``None`` for results built by hand.
    #: Excluded from equality: the counters depend on how warm the matcher
    #: happened to be, and results are promised identical across the
    #: serial/sharded/cached execution modes.
    matcher_stats: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The active reduction spec the check ran under (``"none"``,
    #: ``"grid"``, ``"grid+color+por"``, ...).
    reduction: str = "none"
    #: Per-component reduction statistics (orbit collapses, interleavings
    #: pruned); deterministic for a given check, but excluded from equality
    #: like the matcher counters — observability, not part of the verdict.
    reduction_stats: Optional[Dict[str, Dict[str, float]]] = field(default=None, compare=False)
    #: Wire accounting when the exploration ran over a stateful shard
    #: session (``bytes_sent`` / ``bytes_received`` / ``rows_exchanged`` /
    #: ``waves``; see :mod:`repro.engine.distributed`).  Transport
    #: observability, excluded from equality like the matcher counters.
    wire_stats: Optional[Dict[str, int]] = field(default=None, compare=False)
    #: Verdict-store counters when the check was requested through a
    #: :class:`~repro.engine.store.VerdictStore` (``hits`` / ``misses`` /
    #: ``coalesced`` / ``outcome``).  Cache observability, excluded from
    #: equality: a cached check is identical to a freshly computed one.
    store_stats: Optional[Dict[str, object]] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Whether terminating exploration holds over all scheduler behaviours."""
        return self.terminates and self.explores

    def summary(self) -> str:
        status = "terminating exploration holds" if self.ok else f"FAILS ({self.counterexample})"
        if self.reduction not in ("none", "grid"):
            reduced = f", reduced [{self.reduction}]"
        else:
            reduced = ", symmetry-reduced" if self.symmetry_reduction else ""
        cache = ""
        if self.matcher_stats is not None:
            cache = f", match cache {self.matcher_stats['hit_rate']:.0%} hits"
        return (
            f"{self.algorithm} on {self.m}x{self.n} [{self.model}]: {status}"
            f" ({self.states_explored} states, {self.terminal_states} terminal{reduced}{cache})"
        )


def successors(algorithm: Algorithm, grid: Grid, state: SchedulerState, model: str) -> List[SchedulerState]:
    """All scheduler-reachable successor states of ``state`` under ``model``.

    Convenience wrapper constructing a fresh transition system; callers that
    expand many states should build one
    :class:`~repro.engine.transition.AlgorithmTransitionSystem` and reuse it
    so the snapshot/match memoization pays off.
    """
    return AlgorithmTransitionSystem(algorithm, grid, model).successors(state)


def _explore(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    *,
    max_states: int,
    start: Optional[SchedulerState] = None,
    symmetry_reduction: bool,
    reduction: ReductionSpec,
    workers: Optional[int],
    cache: Optional[MatcherCache],
    pool: Optional[ExplorationPool],
    backend: Optional["ExecutionBackend"] = None,
    kernel: Optional[str] = None,
    store=None,
) -> Exploration:
    """Route one exploration through the pool, the sharded or the serial explorer.

    ``pool`` — a persistent :class:`~repro.engine.pool.ExplorationPool` —
    takes precedence: the pool routes adaptively (serial below its
    estimated-state-count threshold, sharded on its long-lived workers
    above) and keeps both its coordinator-side and its per-worker matcher
    caches warm across the checks threaded through it.  Otherwise
    ``workers > 1`` fans the frontier over an ephemeral process pool (see
    :mod:`repro.engine.sharded`); the serial path matches on ``cache`` when
    given, else on the process-wide table, so repeated checks of the same
    algorithm — at any grid size — start warm.  Every route produces the
    identical ``Exploration`` (``matcher_stats`` aside).

    ``kernel`` selects the successor kernel (``"object"`` / ``"packed"`` /
    ``"auto"``; see :mod:`repro.engine.packed`) on every route — it rides
    in the ``ExploreKey``, so sharded and backend workers rebuild the
    matching transition system.  Verdicts are kernel-independent.
    """
    if model not in ("FSYNC", "SSYNC", "ASYNC"):
        raise ValueError(f"unknown model {model!r}")
    spec = normalize_reduction(reduction, symmetry_reduction)
    if backend is not None:
        # An ExecutionBackend supersedes pool/workers/cache: the wave loop
        # advances a stateful shard session when the backend offers one,
        # else fans shards out through backend.map_shards (possibly over
        # TCP worker daemons) — byte-identical to the serial path either way.
        return explore_sharded(
            algorithm,
            grid,
            model,
            reduction=spec,
            max_states=max_states,
            start=start,
            cache=cache,
            backend=backend,
            kernel=kernel,
            store=store,
        )
    if pool is not None:
        return pool.explore(
            algorithm,
            grid,
            model,
            reduction=spec,
            max_states=max_states,
            start=start,
            kernel=kernel,
            store=store,
        )
    # explore_sharded owns both remaining routes: workers > 1 shards over an
    # ephemeral pool, otherwise the serial explorer runs on ``cache``.
    return explore_sharded(
        algorithm,
        grid,
        model,
        workers=workers,
        reduction=spec,
        max_states=max_states,
        start=start,
        cache=cache,
        kernel=kernel,
        store=store,
    )


def explore_state_space(
    algorithm: Algorithm,
    grid: Grid,
    model: str = "SSYNC",
    max_states: int = 200_000,
    start: Optional[SchedulerState] = None,
    symmetry_reduction: bool = False,
    workers: Optional[int] = None,
    cache: Optional[MatcherCache] = None,
    pool: Optional[ExplorationPool] = None,
    reduction: ReductionSpec = None,
    backend: Optional["ExecutionBackend"] = None,
    kernel: Optional[str] = None,
    store=None,
) -> Dict[SchedulerState, List[SchedulerState]]:
    """Build the successor graph of all reachable scheduler states.

    With a quotienting ``reduction`` (``"grid"``, ``"grid+color"``, ...)
    the returned graph is the quotient by the selected symmetries: states
    are orbit representatives, and a representative's successor list
    contains the representatives of its raw successors; ``"por"`` prunes
    ASYNC interleavings instead of quotienting.  ``symmetry_reduction=True``
    is the deprecated alias for ``reduction="grid"``.

    ``workers > 1`` shards the frontier across a process pool; ``cache``
    replaces the process-wide match table for the (serial) exploration;
    ``pool`` runs the exploration on a persistent
    :class:`~repro.engine.pool.ExplorationPool` (superseding ``workers``
    and ``cache``, which the pool manages itself); ``store`` serves the
    exploration from a persistent
    :class:`~repro.engine.store.VerdictStore` when it was computed
    before.  All four leave the result unchanged.
    """
    exploration = _explore(
        algorithm,
        grid,
        model,
        max_states=max_states,
        start=start,
        symmetry_reduction=symmetry_reduction,
        reduction=reduction,
        workers=workers,
        cache=cache,
        pool=pool,
        backend=backend,
        kernel=kernel,
        store=store,
    )
    return exploration.graph()


def enumerate_reachable(
    algorithm: Algorithm,
    grid: Grid,
    model: str = "SSYNC",
    max_states: int = 200_000,
    symmetry_reduction: bool = False,
    workers: Optional[int] = None,
    cache: Optional[MatcherCache] = None,
    pool: Optional[ExplorationPool] = None,
    reduction: ReductionSpec = None,
    backend: Optional["ExecutionBackend"] = None,
    kernel: Optional[str] = None,
    store=None,
) -> int:
    """Number of reachable canonical states (convenience wrapper)."""
    return _explore(
        algorithm,
        grid,
        model,
        max_states=max_states,
        symmetry_reduction=symmetry_reduction,
        reduction=reduction,
        workers=workers,
        cache=cache,
        pool=pool,
        backend=backend,
        kernel=kernel,
        store=store,
    ).num_states


def check_terminating_exploration(
    algorithm: Algorithm,
    grid: Grid,
    model: str = "SSYNC",
    max_states: int = 200_000,
    symmetry_reduction: bool = False,
    workers: Optional[int] = None,
    cache: Optional[MatcherCache] = None,
    pool: Optional[ExplorationPool] = None,
    reduction: ReductionSpec = None,
    backend: Optional["ExecutionBackend"] = None,
    kernel: Optional[str] = None,
    store=None,
) -> CheckResult:
    """Exhaustively decide Definition 1 over all scheduler behaviours.

    The verdict is identical under every ``reduction`` spec — ``"none"``,
    ``"grid"``, ``"grid+color"``, ``"grid+color+por"`` and any other
    combination; the reduced run only explores fewer states (a quotient
    cycle lifts to an infinite raw execution and vice versa, coverage sets
    are mapped exactly through the collapsing witnesses, and the ample-set
    conditions plus cycle proviso make partial-order pruning
    verdict-preserving; see :mod:`repro.engine.reduction`).
    ``symmetry_reduction=True`` remains the deprecated alias for
    ``reduction="grid"``.  The verdict is likewise identical with and
    without ``workers`` (sharded exploration merges into the serial graph
    exactly), with and without ``cache`` (memoization only skips
    recomputation), and with and without ``pool`` (a persistent
    :class:`~repro.engine.pool.ExplorationPool`, which routes adaptively
    between those two mechanisms and supersedes both arguments).  It is
    also identical under every ``kernel`` (``"object"`` / ``"packed"`` /
    ``"auto"``): the packed successor kernel only changes how fast states
    are expanded, never which states exist.

    ``store`` — a :class:`~repro.engine.store.VerdictStore` — caches the
    whole :class:`CheckResult` under a content key that includes the
    normalized reduction spec, kernel spec *and* ``max_states`` (so a
    budget-limited check can never answer for a roomier one); duplicate
    concurrent requests coalesce onto a single exploration.  Cached
    results are identical to computed ones.
    """
    if store is not None:
        from ..engine.pool import registered
        from ..engine.spec import check_store_key

        if registered(algorithm):
            key = check_store_key(
                algorithm.name, grid.m, grid.n, model,
                reduction, kernel, max_states, symmetry_reduction,
            )
            return store.fetch(
                key,
                lambda: _run_check(
                    algorithm, grid, model,
                    max_states=max_states, symmetry_reduction=symmetry_reduction,
                    workers=workers, cache=cache, pool=pool, reduction=reduction,
                    backend=backend, kernel=kernel, store=store,
                ),
            )
    return _run_check(
        algorithm, grid, model,
        max_states=max_states, symmetry_reduction=symmetry_reduction,
        workers=workers, cache=cache, pool=pool, reduction=reduction,
        backend=backend, kernel=kernel, store=store,
    )


def _run_check(
    algorithm: Algorithm,
    grid: Grid,
    model: str,
    *,
    max_states: int,
    symmetry_reduction: bool,
    workers: Optional[int],
    cache: Optional[MatcherCache],
    pool: Optional[ExplorationPool],
    reduction: ReductionSpec,
    backend: Optional["ExecutionBackend"],
    kernel: Optional[str],
    store=None,
) -> CheckResult:
    """Compute one exhaustive check (the uncached body of the entry point)."""
    exploration = _explore(
        algorithm,
        grid,
        model,
        max_states=max_states,
        symmetry_reduction=symmetry_reduction,
        reduction=reduction,
        workers=workers,
        cache=cache,
        pool=pool,
        backend=backend,
        kernel=kernel,
        store=store,
    )
    terminal_states = len(exploration.terminal_indices())

    if has_cycle(exploration.succ):
        return CheckResult(
            algorithm=algorithm.name,
            model=model,
            m=grid.m,
            n=grid.n,
            states_explored=exploration.num_states,
            terminal_states=terminal_states,
            terminates=False,
            explores=False,
            counterexample="a scheduler can drive the system into an infinite execution (cycle reached)",
            symmetry_reduction=exploration.reduced,
            matcher_stats=exploration.matcher_stats,
            reduction=exploration.reduction,
            reduction_stats=exploration.reduction_stats,
            wire_stats=exploration.wire_stats,
        )

    all_nodes = frozenset(grid.nodes())
    guaranteed = guaranteed_nodes(exploration)
    guaranteed_root = guaranteed[exploration.root]
    if exploration.root_sym is not None:
        # Map the canonical root's guarantee back into the raw initial
        # state's coordinates so counterexamples name the actual nodes.
        guaranteed_root = frozenset(exploration.root_sym.node(node) for node in guaranteed_root)

    explores = guaranteed_root == all_nodes
    counterexample = None
    if not explores:
        missing = sorted(all_nodes - guaranteed_root)
        counterexample = f"a scheduler can keep nodes {missing} unvisited on some execution"
    return CheckResult(
        algorithm=algorithm.name,
        model=model,
        m=grid.m,
        n=grid.n,
        states_explored=exploration.num_states,
        terminal_states=terminal_states,
        terminates=True,
        explores=explores,
        counterexample=counterexample,
        symmetry_reduction=exploration.reduced,
        matcher_stats=exploration.matcher_stats,
        reduction=exploration.reduction,
        reduction_stats=exploration.reduction_stats,
        wire_stats=exploration.wire_stats,
    )
