"""Frontier-based exploration of a transition system's state space.

The explorer is the checking half of the engine kernel: starting from the
transition system's initial state it discovers every reachable canonical
state with a breadth-first frontier, interning states into dense integer
indices (so the graph algorithms below run on plain int lists instead of
re-hashing dataclasses), and optionally reducing the search through a
composable :class:`~repro.engine.reduction.ReductionPipeline` — the grid
automorphism quotient, color-permutation symmetry and ASYNC partial-order
reduction, selected by ``reduction=`` (``symmetry_reduction=True`` stays
as a deprecated alias for ``reduction="grid"``).

When a quotient is active, every raw successor is replaced by its orbit
representative and the edge is labelled with the witness ``h`` mapping the
representative's coordinates back to the raw successor's.  Termination is
preserved by the quotient (a quotient cycle lifts to an infinite — hence,
on a finite space, cyclic — raw execution and vice versa); coverage is
computed exactly by pushing guaranteed-node sets through the edge labels.
Partial-order reduction prunes interleavings *before* canonicalization;
see :mod:`repro.engine.reduction` for why every combination preserves both
verdicts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional

from ..core.errors import StateSpaceLimitExceeded
from ..core.grid import Node
from .profile import KernelProfile, profiling_enabled
from .reduction import ReductionSpec, resolve_reduction
from .states import SchedulerState
from .transition import TransitionSystem

__all__ = ["Exploration", "explore", "has_cycle", "topological_order", "guaranteed_nodes"]


@dataclass
class Exploration:
    """The interned successor graph of one exploration."""

    #: Synchrony model the graph was built under.
    model: str
    #: Whether the graph is a symmetry-reduced quotient (grid and/or color).
    reduced: bool
    #: Index -> canonical state (orbit representatives when ``reduced``).
    states: List[SchedulerState]
    #: Canonical state -> index (the interning table).
    index: Dict[SchedulerState, int]
    #: Index -> successor indices.
    succ: List[List[int]]
    #: When ``reduced``: per-edge witness ``h`` with ``raw = h(rep)``
    #: (``None`` entries mean the identity).  A witness is a
    #: :class:`~repro.engine.symmetry.GridSymmetry` under the pure grid
    #: quotient and a :class:`~repro.engine.reduction.ProductWitness` when
    #: the color quotient participates.  ``None`` when not reduced.
    edge_syms: Optional[List[List[Optional[object]]]]
    #: Index of the (canonicalised) initial state.
    root: int
    #: Witness mapping the canonical root back to the raw initial state
    #: (``None`` for the identity or when not reduced).
    root_sym: Optional[object] = field(default=None)
    #: Matcher cache counters accumulated *during this exploration* —
    #: ``{"hits", "misses", "hit_rate"}`` — a per-call delta against the
    #: shared match table (aggregated across workers when the exploration
    #: was sharded).  ``None`` when the transition system does not expose a
    #: matcher.  Excluded from equality: it depends on how warm the table
    #: already was, which the routes do not promise to agree on.
    matcher_stats: Optional[Dict[str, float]] = field(default=None, compare=False)
    #: The *active* reduction spec the graph was built under (``"none"``,
    #: ``"grid"``, ``"grid+color+por"``, ...); inert components (e.g. POR
    #: outside ASYNC, a trivial detected color group) drop out.
    reduction: str = field(default="none")
    #: Per-component reduction statistics accumulated during this
    #: exploration — orbit collapses for the quotients, ample states and
    #: interleavings pruned for POR.  Deterministic (identical across the
    #: serial, sharded and pooled routes); ``None`` when no component is
    #: active.
    reduction_stats: Optional[Dict[str, Dict[str, float]]] = field(default=None)
    #: Opt-in per-phase wall-clock split (``REPRO_PROFILE=1``; see
    #: :mod:`repro.engine.profile`) — ``{"kernel", "match_s",
    #: "canonicalise_s", "dedup_s", "inflate_s", "total_s"}``.  Timing is
    #: observability, not a result: excluded from equality.
    profile: Optional[Dict[str, object]] = field(default=None, compare=False)
    #: Wire accounting when the exploration ran over a stateful shard
    #: session (:mod:`repro.engine.distributed`) — ``{"bytes_sent",
    #: "bytes_received", "rows_exchanged", "waves"}``.  Transport
    #: observability, not a result: excluded from equality (the session
    #: route's graph is byte-identical to the serial one regardless).
    wire_stats: Optional[Dict[str, int]] = field(default=None, compare=False)
    #: Verdict-store counters when the exploration was requested through a
    #: :class:`~repro.engine.store.VerdictStore` — ``{"hits", "misses",
    #: "coalesced", "outcome"}``.  Cache observability, not a result:
    #: excluded from equality (a cached exploration is byte-identical to
    #: a freshly computed one).
    store_stats: Optional[Dict[str, object]] = field(default=None, compare=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def terminal_indices(self) -> List[int]:
        return [i for i, children in enumerate(self.succ) if not children]

    def graph(self) -> Dict[SchedulerState, List[SchedulerState]]:
        """The state-keyed successor mapping (backward-compatible shape)."""
        states = self.states
        return {states[i]: [states[j] for j in children] for i, children in enumerate(self.succ)}


def explore(
    ts: TransitionSystem,
    *,
    reduction: ReductionSpec = None,
    symmetry_reduction: bool = False,
    max_states: int = 200_000,
    start: Optional[SchedulerState] = None,
    kernel: Optional[str] = None,
    store: Optional[object] = None,
) -> Exploration:
    """Build the (optionally reduced) reachable successor graph.

    ``reduction`` selects the reduction pipeline — a spec string such as
    ``"grid"``, ``"grid+color"``, ``"grid+color+por"`` or ``"none"``, or a
    pre-built :class:`~repro.engine.reduction.ReductionPipeline`.
    ``symmetry_reduction=True`` is the deprecated boolean alias for
    ``reduction="grid"`` (ignored when ``reduction`` is given).

    ``kernel`` selects the successor kernel — ``"object"`` (the
    authoritative reference), ``"packed"`` (the table-driven fast path of
    :mod:`repro.engine.packed`) or ``"auto"``; ``None`` keeps whatever
    transition system the caller built.  Results are kernel-independent.
    Quotient-free pipelines over a packed system run the wave BFS
    (``explore_packed``); quotient specs run this loop with the packed
    system's table-driven ``successors``.

    ``store`` — a :class:`~repro.engine.store.VerdictStore` — serves the
    exploration from the verdict cache (or records a miss) under the same
    content key the sharded/pooled routes use, so all routes share
    entries.  Only registered algorithms on the stock kernels, from the
    default initial state, are cacheable; anything else computes as if no
    store were given.

    Raises :class:`~repro.core.errors.StateSpaceLimitExceeded` — with the
    exploration context attached — as soon as more than ``max_states``
    distinct states have been discovered.
    """
    if store is not None and start is None:
        cache_key = _store_key(ts, reduction, symmetry_reduction, kernel, max_states)
        if cache_key is not None:
            return store.fetch(
                cache_key,
                lambda: explore(
                    ts,
                    reduction=reduction,
                    symmetry_reduction=symmetry_reduction,
                    max_states=max_states,
                    kernel=kernel,
                ),
            )
    if kernel is not None:
        # Local import: packed imports this module at load time.
        from .packed import PackedTransitionSystem, normalize_kernel
        from .transition import AlgorithmTransitionSystem

        resolved = normalize_kernel(kernel)
        if resolved == "packed" and not isinstance(ts, PackedTransitionSystem):
            ts = PackedTransitionSystem(
                ts.algorithm, ts.grid, ts.model, matcher=getattr(ts, "matcher", None)
            )
        elif resolved == "object" and isinstance(ts, PackedTransitionSystem):
            ts = AlgorithmTransitionSystem(ts.algorithm, ts.grid, ts.model, matcher=ts.matcher)

    pipeline = resolve_reduction(reduction, symmetry_reduction, ts.algorithm, ts.grid, ts.model)
    reduce = pipeline.reduced

    if not reduce and hasattr(ts, "explore_packed"):
        return ts.explore_packed(pipeline, max_states=max_states, start=start)

    profile = KernelProfile("object") if profiling_enabled() else None
    matcher = getattr(ts, "matcher", None)
    stats_before = matcher.stats.snapshot() if matcher is not None else None
    counters_before = pipeline.counters_snapshot()

    root_raw = start if start is not None else ts.initial()
    root_state, root_sym = pipeline.canonicalize(root_raw)

    states: List[SchedulerState] = [root_state]
    index: Dict[SchedulerState, int] = {root_state: 0}
    succ: List[List[int]] = []
    edge_syms: Optional[List[List[Optional[object]]]] = [] if reduce else None
    frontier = deque([0])

    while frontier:
        current = frontier.popleft()
        # BFS discovers states in index order, so expansions align with succ.
        assert current == len(succ)
        row: List[int] = []
        row_syms: List[Optional[object]] = []
        if profile is None:
            raws = pipeline.successors(ts, states[current])
        else:
            t0 = perf_counter()
            raws = pipeline.successors(ts, states[current])
            profile.match_s += perf_counter() - t0
        for raw in raws:
            if profile is None:
                rep, h = pipeline.canonicalize(raw)
            else:
                t0 = perf_counter()
                rep, h = pipeline.canonicalize(raw)
                t1 = perf_counter()
                profile.canonicalise_s += t1 - t0
            child = index.get(rep)
            if child is None:
                child = len(states)
                if child >= max_states:
                    raise StateSpaceLimitExceeded(
                        f"{ts.algorithm.name} on {ts.grid.m}x{ts.grid.n} [{ts.model}]:"
                        f" state budget of {max_states} exceeded after expanding"
                        f" {len(succ)} states ({len(states)} discovered,"
                        f" frontier size {len(frontier)}"
                        f"{pipeline.budget_note})",
                        algorithm=ts.algorithm.name,
                        model=ts.model,
                        max_states=max_states,
                        states_explored=len(succ),
                        frontier_size=len(frontier),
                    )
                index[rep] = child
                states.append(rep)
                frontier.append(child)
            row.append(child)
            if reduce:
                row_syms.append(h)
            if profile is not None:
                profile.dedup_s += perf_counter() - t1
        succ.append(row)
        if reduce:
            assert edge_syms is not None
            edge_syms.append(row_syms)

    return Exploration(
        model=ts.model,
        reduced=reduce,
        states=states,
        index=index,
        succ=succ,
        edge_syms=edge_syms,
        root=0,
        root_sym=root_sym,
        matcher_stats=(
            matcher.stats.delta_since(stats_before).as_dict() if matcher is not None else None
        ),
        reduction=pipeline.active_spec,
        reduction_stats=pipeline.stats_report(pipeline.counters_delta(counters_before)),
        profile=profile.as_dict() if profile is not None else None,
    )


def _store_key(
    ts: TransitionSystem,
    reduction: ReductionSpec,
    symmetry_reduction: bool,
    kernel: Optional[str],
    max_states: int,
):
    """The shared explore-route content key, or ``None`` when uncacheable.

    Exactly the key ``explore_sharded`` derives — ``("explore",)`` +
    ``ExploreKey`` + budget — so the serial and sharded routes address the
    same store entries.  Custom transition systems (anything other than
    the two stock kernels) and unregistered algorithms carry semantics the
    key cannot see and are never cached.
    """
    # Local imports: packed/pool import this module at load time.
    from .packed import PackedTransitionSystem, normalize_kernel
    from .pool import registered
    from .reduction import normalize_reduction
    from .transition import AlgorithmTransitionSystem

    if type(ts) is PackedTransitionSystem:
        implied = "packed"
    elif type(ts) is AlgorithmTransitionSystem:
        implied = "object"
    else:
        return None
    if not registered(ts.algorithm):
        return None
    spec = normalize_reduction(reduction, symmetry_reduction)
    knorm = normalize_kernel(kernel) if kernel is not None else implied
    return (
        "explore",
        ts.algorithm.name,
        ts.grid.m,
        ts.grid.n,
        ts.model,
        spec,
        knorm,
        max_states,
    )


# ---------------------------------------------------------------------------
# Graph analyses (over the interned int graph)
# ---------------------------------------------------------------------------
def has_cycle(succ: List[List[int]]) -> bool:
    """Iterative three-color DFS cycle detection."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(succ)
    for root in range(len(succ)):
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GRAY
        while stack:
            state, child_index = stack[-1]
            children = succ[state]
            if child_index < len(children):
                stack[-1] = (state, child_index + 1)
                child = children[child_index]
                if color[child] == GRAY:
                    return True
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[state] = BLACK
                stack.pop()
    return False


def topological_order(succ: List[List[int]]) -> List[int]:
    """Reverse-postorder DFS: children appear before parents (valid for DAGs)."""
    visited = [False] * len(succ)
    order: List[int] = []
    for root in range(len(succ)):
        if visited[root]:
            continue
        stack = [(root, 0)]
        visited[root] = True
        while stack:
            state, child_index = stack[-1]
            children = succ[state]
            if child_index < len(children):
                stack[-1] = (state, child_index + 1)
                child = children[child_index]
                if not visited[child]:
                    visited[child] = True
                    stack.append((child, 0))
            else:
                order.append(state)
                stack.pop()
    return order


def guaranteed_nodes(exploration: Exploration) -> List[FrozenSet[Node]]:
    """The nodes *guaranteed* to be visited from each state, for acyclic graphs.

    Backward fixpoint over the DAG: a terminal state guarantees exactly its
    occupied nodes; an inner state guarantees its occupied nodes plus the
    intersection of its successors' guarantees.  Across symmetry-collapsed
    edges the successor's guarantee is mapped through the edge label first
    (``raw = h(rep)`` implies ``guaranteed(raw) = h(guaranteed(rep))``; the
    color part of a product witness moves no nodes, so only the grid part
    acts here).
    """
    states = exploration.states
    succ = exploration.succ
    edge_syms = exploration.edge_syms
    result: List[Optional[FrozenSet[Node]]] = [None] * len(states)
    for current in topological_order(succ):  # children before parents
        occupied = frozenset(states[current].occupied_nodes())
        children = succ[current]
        if not children:
            result[current] = occupied
            continue
        syms = edge_syms[current] if edge_syms is not None else None

        def mapped(position: int) -> FrozenSet[Node]:
            guarantee = result[children[position]]
            assert guarantee is not None  # children precede parents in the order
            h = syms[position] if syms is not None else None
            if h is None:
                return guarantee
            return frozenset(h.node(node) for node in guarantee)

        common = mapped(0)
        for position in range(1, len(children)):
            common = common & mapped(position)
        result[current] = occupied | common
    return result  # type: ignore[return-value]
