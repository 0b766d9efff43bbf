"""Memoized per-robot rule matching, shared process-wide.

Rule matching is the hot inner loop of every engine consumer: testing every
``(rule, symmetry)`` pair of a robot's light against its radius-``phi``
snapshot.  The outcome only depends on the light and the robot's *local
neighbourhood*, and the same neighbourhoods recur constantly (a robot
sweeping an empty row sees the same one at every column).

:class:`LocalMatcher` memoizes matching in two tables keyed on
translation-invariant descriptions: ``(color, walls, relative
neighbourhood) -> (matches, distinct actions)`` and ``(color, frozen
snapshot) -> matches`` (stored ASYNC snapshots re-evaluated at Compute).
Snapshots are rebuilt from the key on demand: cheap to build, costly to
keep.  The keys cap boundary distances at ``phi`` and never mention the
grid, so an entry is valid for the same algorithm on any grid.
:class:`MatcherCache` shares one set of tables per algorithm between all
its matchers, and :func:`process_cache` is the bounded cache every entry
point uses unless given its own, so a process evaluates each local view
once, whichever checks, walks or service requests meet it.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.algorithm import Action, Algorithm, Match
from ..core.grid import Grid, Node
from ..core.views import Snapshot, ball_offsets

__all__ = ["LocalMatcher", "MatcherStats", "MatcherCache", "process_cache", "matcher_for"]

#: A canonical, *position-independent* description of a robot's local
#: neighbourhood: the wall pattern (its distances to the four grid
#: boundaries, each capped at ``phi``) plus the sorted relative
#: ``(offset, color)`` pairs within distance ``phi``.  Two robots whose
#: neighbourhoods coincide up to translation share one key — this is what
#: lets a robot sweeping an empty row hit the cache at every column.
LocalKey = Tuple[Tuple[int, int, int, int], Tuple[Tuple[Node, str], ...]]


class MatcherStats:
    """Hit/miss counters for the matcher's memo tables.

    A *miss* is a lookup that had to evaluate guards; ``evictions`` counts
    entries a bounded :class:`MatcherCache` dropped.  The counters are
    cumulative over every matcher (and thread) sharing them; callers
    report per-call deltas (:meth:`delta_since`).
    """

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "MatcherStats") -> "MatcherStats":
        """Accumulate another counter pair into this one (returns self)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self

    def delta_since(self, snapshot: "MatcherStats") -> "MatcherStats":
        """The counters accumulated since ``snapshot`` was taken."""
        return MatcherStats(
            self.hits - snapshot.hits,
            self.misses - snapshot.misses,
            self.evictions - snapshot.evictions,
        )

    def snapshot(self) -> "MatcherStats":
        return MatcherStats(self.hits, self.misses, self.evictions)

    def as_dict(self) -> Dict[str, float]:
        # ``evictions`` deliberately stays off the dict: the dict rides on
        # results whose equality the routes must preserve, and eviction
        # counts depend on how full a particular route's cache happened to
        # run.  Read them from :attr:`MatcherCache.stats` instead.
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatcherStats(hits={self.hits}, misses={self.misses}, evictions={self.evictions})"


class LocalMatcher:
    """Match computation for one ``(algorithm, grid)`` pair, memoized.

    The memo tables default to private per-matcher dictionaries; a
    :class:`MatcherCache` instead hands every matcher for the same
    algorithm *shared* tables (see :meth:`MatcherCache.matcher_for`), which
    is safe because the keys never mention absolute positions or the grid
    shape.  Lookups read the tables without locking; inserts take ``lock``
    so a concurrent eviction never iterates a table mid-insert.
    """

    __slots__ = ("algorithm", "grid", "stats", "_matches", "_frozen_matches", "_lock")

    def __init__(
        self,
        algorithm: Algorithm,
        grid: Grid,
        *,
        tables: Optional[Tuple[dict, dict]] = None,
        stats: Optional[MatcherStats] = None,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        self.algorithm = algorithm
        self.grid = grid
        self.stats = stats if stats is not None else MatcherStats()
        self._lock = lock if lock is not None else threading.Lock()
        self._matches, self._frozen_matches = tables if tables is not None else ({}, {})

    # ------------------------------------------------------------------
    # Local neighbourhood keys
    # ------------------------------------------------------------------
    def local_key(self, robots: Iterable, center: Node) -> LocalKey:
        """The memoization key for a robot at ``center``.

        ``robots`` is any iterable of objects with ``pos`` and ``color``
        attributes (live :class:`~repro.core.robot.Robot` instances or the
        frozen records of a canonical state).  The key is translation
        invariant: only boundary distances capped at ``phi`` and *relative*
        robot offsets enter it, so identical local patterns at different
        grid positions — or on different grids — share one cache entry.
        """
        phi = self.algorithm.phi
        ci, cj = center
        near = []
        for robot in robots:
            pos = robot.pos
            di = pos[0] - ci
            dj = pos[1] - cj
            if abs(di) + abs(dj) <= phi:
                near.append(((di, dj), robot.color))
        near.sort()
        return (self._walls(center), tuple(near))

    def _walls(self, center: Node) -> Tuple[int, int, int, int]:
        phi = self.algorithm.phi
        ci, cj = center
        grid = self.grid
        return (
            min(ci, phi),
            min(grid.m - 1 - ci, phi),
            min(cj, phi),
            min(grid.n - 1 - cj, phi),
        )

    def _key_of(self, frozen) -> LocalKey:
        """The local key whose snapshot ``frozen`` is (the inverse of :meth:`snapshot_for_key`)."""
        cells = dict(frozen)
        phi = self.algorithm.phi
        walls = tuple(
            sum(1 for d in range(1, phi + 1) if cells[(d * di, d * dj)] is not None)
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
        )
        # frozen is sorted by offset and each content by color, so near is sorted.
        return (walls, tuple((offset, color) for offset, content in frozen if content for color in content))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, robots: Iterable, center: Node) -> Snapshot:
        """The snapshot a robot at ``center`` takes."""
        return self.snapshot_for_key(self.local_key(robots, center))

    def snapshot_for_key(self, key: LocalKey) -> Snapshot:
        """The snapshot described by an already-computed key."""
        (north, south, west, east), near = key
        per_cell: Dict[Node, list] = {}
        for offset, color in near:  # near is sorted, so color lists come out sorted
            per_cell.setdefault(offset, []).append(color)
        snapshot = {}
        for offset in ball_offsets(self.algorithm.phi):
            di, dj = offset
            # The cell exists iff the (phi-capped) boundary distances
            # admit it; |di|, |dj| <= phi, so the caps lose nothing.
            if di < -north or di > south or dj < -west or dj > east:
                snapshot[offset] = None
            else:
                snapshot[offset] = tuple(per_cell.get(offset, ()))
        return snapshot

    # ------------------------------------------------------------------
    # Matches and actions
    # ------------------------------------------------------------------
    def _entry(self, key: LocalKey, color: str) -> Tuple[Tuple[Match, ...], Tuple[Action, ...]]:
        cache_key = (color, key)
        entry = self._matches.get(cache_key)
        if entry is None:
            self.stats.misses += 1
            algorithm = self.algorithm
            matches = tuple(algorithm.matches_for_snapshot(self.snapshot_for_key(key), color))
            entry = (matches, tuple(algorithm.distinct_actions(matches)))
            with self._lock:
                self._matches[cache_key] = entry
        else:
            self.stats.hits += 1
        return entry

    def matches(self, robots: Iterable, center: Node, color: str) -> Tuple[Match, ...]:
        """All (rule, symmetry) matches for a robot at ``center`` with light ``color``."""
        return self._entry(self.local_key(robots, center), color)[0]

    def matches_for_key(self, key: LocalKey, color: str) -> Tuple[Match, ...]:
        """Matches for an already-computed local key (the batched fast path)."""
        return self._entry(key, color)[0]

    def actions(self, robots: Iterable, center: Node, color: str) -> Tuple[Action, ...]:
        """The distinct enabled actions for a robot at ``center`` with light ``color``."""
        return self._entry(self.local_key(robots, center), color)[1]

    def actions_for_key(self, key: LocalKey, color: str) -> Tuple[Action, ...]:
        """Distinct actions for an already-computed local key.

        The packed kernel (:mod:`repro.engine.packed`) compiles its action
        tables through this entry point: it reconstructs the local key from
        its own position index on a signature-table miss, so it never needs
        the per-robot ``robots`` scan that :meth:`actions` performs.
        """
        return self._entry(key, color)[1]

    def matches_for_frozen(self, frozen, color: str) -> Tuple[Match, ...]:
        """Matches against a stored (frozen) ASYNC snapshot.

        ``frozen`` is ``tuple(sorted(snapshot.items()))`` of a snapshot a
        robot on a grid can take.  A miss is answered from the key table
        (which the Look that took the snapshot has usually filled already),
        so guards are evaluated once per view, however it is asked for.
        """
        cache_key = (color, frozen)
        cached = self._frozen_matches.get(cache_key)
        if cached is None:
            cached = self._entry(self._key_of(frozen), color)[0]
            with self._lock:
                self._frozen_matches[cache_key] = cached
        else:
            self.stats.hits += 1
        return cached

    def matches_for_snapshot(self, snapshot: Snapshot, color: str) -> Tuple[Match, ...]:
        """Matches against a live snapshot dictionary (memoized via freezing)."""
        return self.matches_for_frozen(tuple(sorted(snapshot.items())), color)

    def enabled(self, robots: Iterable, center: Node, color: str) -> bool:
        """Whether some rule matches some view of a robot at ``center``."""
        return bool(self.matches(robots, center, color))

    # ------------------------------------------------------------------
    # Batched matching (the synchronous-round fast path)
    # ------------------------------------------------------------------
    def batched_matches(self, robots: Sequence) -> List[Tuple[object, Tuple[Match, ...]]]:
        """``(robot, matches)`` for every robot, in one pass.

        Builds the position index (``node -> colors``) **once** for the whole
        configuration and derives every robot's local key by probing only the
        ``O(phi^2)`` ball offsets, instead of rebuilding a per-robot
        neighbourhood list by scanning all robots for each robot.  The keys —
        and therefore the matches — are identical to per-robot
        :meth:`matches` calls; the synchronous walk engines use this to
        evaluate a whole round in one sweep.
        """
        by_pos: Dict[Node, List[str]] = {}
        for robot in robots:
            by_pos.setdefault(robot.pos, []).append(robot.color)
        for colors in by_pos.values():
            colors.sort()
        offsets = ball_offsets(self.algorithm.phi)
        result: List[Tuple[object, Tuple[Match, ...]]] = []
        for robot in robots:
            ci, cj = robot.pos
            near = []
            for offset in offsets:  # offsets are sorted, so near comes out sorted
                cell = by_pos.get((ci + offset[0], cj + offset[1]))
                if cell:
                    near.extend((offset, color) for color in cell)
            key = (self._walls(robot.pos), tuple(near))
            result.append((robot, self.matches_for_key(key, robot.color)))
        return result


class MatcherCache:
    """Bounded, thread-safe memo tables shared by every matcher of an algorithm.

    Owns one pair of tables (plus one :class:`MatcherStats`) per algorithm
    and hands out :class:`LocalMatcher` views onto them via
    :meth:`matcher_for`.  :func:`process_cache` is the instance every entry
    point uses by default; pass your own (``cache=``) to isolate a
    workload.  Sharing is keyed on algorithm *identity*, not name.

    ``max_entries`` bounds the total entries across all algorithms and
    tables.  The bound is enforced at :meth:`matcher_for` time (matchers
    append to the shared tables without telling the cache, so a burst
    within one exploration can overshoot until the next handout):
    oldest-inserted entries go first — dict order approximates LRU well
    here because long-running workloads re-insert nothing and the oldest
    patterns belong to the coldest workloads — and every evicted entry
    counts on the owning algorithm's ``stats.evictions``.

    One lock guards registration, eviction and the matchers' inserts, so
    request threads of the HTTP service can share the cache; lookups stay
    lock-free.
    """

    def __init__(self, max_entries: int = 1_000_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._tables: Dict[int, Tuple[dict, dict]] = {}
        self._keepalive: Dict[int, Algorithm] = {}
        self._stats: Dict[int, MatcherStats] = {}

    def _register(self, algorithm: Algorithm) -> int:
        """Pin ``algorithm`` (id() keys must not be recycled) and its tables; lock held."""
        key = id(algorithm)
        if key not in self._stats:
            self._keepalive[key] = algorithm
            self._stats[key] = MatcherStats()
            self._tables[key] = ({}, {})
        return key

    def matcher_for(self, algorithm: Algorithm, grid: Grid) -> LocalMatcher:
        """A matcher for ``(algorithm, grid)`` backed by the shared tables."""
        with self._lock:
            key = self._register(algorithm)
            self._trim()
            return LocalMatcher(
                algorithm, grid, tables=self._tables[key], stats=self._stats[key], lock=self._lock
            )

    def _trim(self) -> None:
        """Evict oldest-inserted entries until the cache fits its bound; lock held."""
        excess = self._entry_count() - self.max_entries
        if excess <= 0:
            return
        for key, tables in self._tables.items():
            stats = self._stats[key]
            for table in tables:
                while excess > 0 and table:
                    del table[next(iter(table))]
                    stats.evictions += 1
                    excess -= 1
            if excess <= 0:
                break

    def stats_for(self, algorithm: Algorithm) -> MatcherStats:
        """The live counters for one algorithm.

        Registers the algorithm on first request, so the returned object is
        always the same :class:`MatcherStats` instance later matchers from
        :meth:`matcher_for` will increment — callers may hold it before any
        matcher exists and never miss a count.
        """
        with self._lock:
            return self._stats[self._register(algorithm)]

    @property
    def stats(self) -> MatcherStats:
        """Aggregate counters over every algorithm in the cache."""
        total = MatcherStats()
        with self._lock:
            for stats in self._stats.values():
                total.merge(stats)
        return total

    def _entry_count(self) -> int:
        return sum(len(table) for tables in self._tables.values() for table in tables)

    def entry_count(self) -> int:
        """Total number of memoized entries across all algorithms and tables."""
        with self._lock:
            return self._entry_count()

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._keepalive.clear()
            self._stats.clear()


#: Entries of :func:`process_cache`.  A sweep of every registered algorithm
#: over the default grid suite fills a few thousand; the bound only keeps a
#: long-lived service from growing without limit.
PROCESS_CACHE_ENTRIES = 200_000

_PROCESS_CACHE = MatcherCache(PROCESS_CACHE_ENTRIES)


def process_cache() -> MatcherCache:
    """This process's shared :class:`MatcherCache`.

    Every check, walk, campaign task and service request that is not given
    an explicit ``cache=`` matches against it, in the calling process and
    in each pool worker alike, so a local view is evaluated once per
    process whichever workload meets it first.
    """
    return _PROCESS_CACHE


def matcher_for(algorithm: Algorithm, grid: Grid, cache: Optional[MatcherCache] = None) -> LocalMatcher:
    """A matcher on ``cache``, or on :func:`process_cache` when none is given."""
    return (cache if cache is not None else process_cache()).matcher_for(algorithm, grid)
