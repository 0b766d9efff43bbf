"""Round-complexity scaling sweeps (extension beyond the paper).

The paper does not plot running times, but every algorithm visibly takes
Theta(m * n) robot moves.  This module measures steps and moves over a
family of grid sizes and fits the leading coefficient, which the scaling
benchmark (``benchmarks/bench_scaling.py``) reports as a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from ..core.algorithm import Algorithm
from ..core.errors import VerificationError
from ..core.grid import Grid
from ..engine.matcher import MatcherCache, matcher_for
from ..engine.pool import ExplorationPool, registered
from ..engine.reduction import ReductionSpec, normalize_reduction
from ..engine.sharded import explore_sharded
from ..engine.suites import scaling_suite
from ..engine.walk import TieBreak, run_fsync

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.backend import ExecutionBackend
    from ..engine.store import VerdictStore

__all__ = [
    "ScalingPoint",
    "StateSpacePoint",
    "round_complexity_sweep",
    "state_space_sweep",
    "fit_linear_in_nodes",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One measurement of a scaling sweep."""

    m: int
    n: int
    nodes: int
    steps: int
    moves: int


def round_complexity_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    cache: Optional[MatcherCache] = None,
    pool: Optional[ExplorationPool] = None,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> List[ScalingPoint]:
    """Measure FSYNC rounds and moves over a family of grid sizes.

    The default size family is the shared :func:`repro.engine.suites.scaling_suite`.
    One :class:`~repro.engine.matcher.MatcherCache` spans the whole sweep:
    the matcher's keys are grid-size independent, so every size after the
    first replays the interior patterns from the cache instead of
    re-evaluating the guards.  The cache is, in order of preference, the
    caller's ``cache``, the coordinator cache of the caller's ``pool`` (so
    sweeps share warmth with every other workload threaded through that
    :class:`~repro.engine.pool.ExplorationPool`), or the process-wide one.

    ``backend`` routes the sweep's bounded executions through an
    :class:`~repro.engine.backend.ExecutionBackend` as ordinary walk
    tasks — each point is a pure function of ``(algorithm, grid)`` under
    the deterministic FSYNC schedule, so the measured steps/moves are
    identical wherever the runs execute (TCP worker daemons included).

    ``store`` (a :class:`~repro.engine.store.VerdictStore`) memoizes each
    point's run as an ordinary walk verdict — sweeps re-run across
    sessions are served from disk; the fitted slope is unchanged because
    stored reports equal computed ones.
    """
    if sizes is None:
        sizes = scaling_suite(algorithm)
    sizes = [(m, n) for m, n in sizes if algorithm.supports_grid(m, n)]
    if backend is not None and registered(algorithm):
        from ..engine.campaign import CampaignTask, ParallelCampaignEngine  # local import: layering

        tasks = [
            CampaignTask(algorithm=algorithm.name, m=m, n=n, model="FSYNC", tie_break=TieBreak.FIRST)
            for m, n in sizes
        ]
        if store is not None:
            # The engine's prefilter serves stored points and records fresh
            # ones; only the remainder crosses the wire.
            reports = ParallelCampaignEngine(backend=backend, store=store).run_tasks(algorithm, tasks)
        else:
            reports = backend.run_tasks(tasks)
        for report in reports:
            # The serial path propagates execution errors; a report whose
            # run never executed (verify_one converts exceptions into
            # ok=False reports whose reason is the formatted exception)
            # must not become a silent (0, 0) data point skewing the fit.
            # Definition-1 outcomes — the run executed but did not
            # terminate/explore — are real measurements and recorded
            # exactly as the serial path records them.
            if not report.ok and not report.reason.startswith(
                ("did not terminate", "terminated with")
            ):
                raise VerificationError(
                    f"scaling sweep run failed on {report.m}x{report.n}: {report.reason}"
                )
        return [
            ScalingPoint(
                m=task.m, n=task.n, nodes=task.m * task.n, steps=report.steps, moves=report.moves
            )
            for task, report in zip(tasks, reports)
        ]
    if cache is None and pool is not None:
        cache = pool.cache
    if store is not None and registered(algorithm):
        from ..engine.campaign import verify_one  # local import: layering

        points = []
        for m, n in sizes:
            report = verify_one(
                algorithm, m, n, model="FSYNC", tie_break=TieBreak.FIRST, cache=cache, store=store
            )
            if not report.ok and not report.reason.startswith(
                ("did not terminate", "terminated with")
            ):
                raise VerificationError(
                    f"scaling sweep run failed on {m}x{n}: {report.reason}"
                )
            points.append(
                ScalingPoint(m=m, n=n, nodes=m * n, steps=report.steps, moves=report.moves)
            )
        return points
    points = []
    for m, n in sizes:
        grid = Grid(m, n)
        result = run_fsync(
            algorithm, grid, tie_break=TieBreak.FIRST, matcher=matcher_for(algorithm, grid, cache)
        )
        points.append(
            ScalingPoint(m=m, n=n, nodes=m * n, steps=result.steps, moves=result.total_moves)
        )
    return points


@dataclass(frozen=True)
class StateSpacePoint:
    """One measurement of a state-space scaling sweep."""

    m: int
    n: int
    nodes: int
    #: Reachable canonical states (of the reduction quotient if reduced).
    states: int
    #: Matcher-cache hit rate observed during this size's exploration.
    cache_hit_rate: float
    #: The active reduction spec the size was explored under.
    reduction: str = "none"
    #: Per-component reduction statistics of this size's exploration
    #: (``None`` when unreduced).
    reduction_stats: Optional[dict] = None


def state_space_sweep(
    algorithm: Algorithm,
    sizes: Optional[Iterable[Tuple[int, int]]] = None,
    model: str = "FSYNC",
    symmetry_reduction: bool = False,
    max_states: int = 200_000,
    pool: Optional[ExplorationPool] = None,
    reduction: ReductionSpec = None,
    backend: Optional["ExecutionBackend"] = None,
    store: Optional["VerdictStore"] = None,
) -> List[StateSpacePoint]:
    """Measure reachable-state-space growth over a family of grid sizes.

    ``reduction`` selects the reduction pipeline each size is explored
    under (``symmetry_reduction=True`` stays as the deprecated alias for
    ``reduction="grid"``); the per-size quotient ratios land on the points.

    Each size is explored exhaustively.  With ``pool`` the sweep runs
    through the persistent :class:`~repro.engine.pool.ExplorationPool`:
    small sizes route serially on its warm coordinator cache, large ones
    shard over its long-lived workers, and every size after the first
    benefits from the patterns already memoized — without the pool, each
    size runs serially on one sweep-local cache.  The counts are identical
    either way (routing and caching never change exploration results).
    ``backend`` supersedes ``pool``: each size's exploration fans its BFS
    waves out through ``backend.map_shards`` instead (see
    :mod:`repro.engine.backend`) — counts still identical.
    ``store`` memoizes each size's exploration in a
    :class:`~repro.engine.store.VerdictStore`, so repeated sweeps (and any
    other store consumer asking for the same exploration) skip the BFS.
    """
    if sizes is None:
        sizes = scaling_suite(algorithm)
    spec = normalize_reduction(reduction, symmetry_reduction)
    pool = pool if pool is not None else ExplorationPool(workers=1)
    points = []
    for m, n in sizes:
        if not algorithm.supports_grid(m, n):
            continue
        if backend is not None:
            exploration = explore_sharded(
                algorithm,
                Grid(m, n),
                model,
                reduction=spec,
                max_states=max_states,
                backend=backend,
                store=store,
            )
        else:
            exploration = pool.explore(
                algorithm,
                Grid(m, n),
                model,
                reduction=spec,
                max_states=max_states,
                store=store,
            )
        stats = exploration.matcher_stats or {}
        points.append(
            StateSpacePoint(
                m=m,
                n=n,
                nodes=m * n,
                states=exploration.num_states,
                cache_hit_rate=float(stats.get("hit_rate", 0.0)),
                reduction=exploration.reduction,
                reduction_stats=exploration.reduction_stats,
            )
        )
    return points


def fit_linear_in_nodes(points: List[ScalingPoint], field: str = "moves") -> float:
    """Least-squares slope of ``field`` against the node count (through the origin)."""
    num = sum(point.nodes * getattr(point, field) for point in points)
    den = sum(point.nodes * point.nodes for point in points)
    return num / den if den else float("nan")
