"""Algorithm specifications and the rule matching engine.

An :class:`Algorithm` bundles everything the paper fixes when it states
"a terminating exploration algorithm for ``m x n`` grids in case of
``phi = ..., ell = ..., (no) common chirality and k = ...``":

* the synchrony model it is designed for (FSYNC, or ASYNC which subsumes
  SSYNC and FSYNC),
* the visibility radius ``phi``,
* the color set,
* whether a common chirality is assumed,
* the number of robots ``k``,
* the rule set,
* the initial configuration, given as a function of the grid size
  (the paper anchors initial configurations at the northwest corner).

The matching engine implements Section 2.2/2.4 semantics: a robot is
*enabled* when some rule guard matches one of its views, i.e. matches its
snapshot under one of the allowed symmetries.  All matches are reported;
which one is executed when several disagree is the scheduler's choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .colors import Color
from .errors import AlgorithmError
from .grid import Grid, Node
from .robot import Robot
from .rules import Rule
from .views import Offset, Snapshot, Symmetry, symmetries_for
from .world import World

__all__ = ["Synchrony", "Action", "Match", "Algorithm"]


class Synchrony:
    """Synchrony model names.

    The paper's FSYNC algorithms (Section 4.2) are only claimed for the
    fully synchronous scheduler; its ASYNC algorithms (Section 4.3) work
    under ASYNC and therefore also under SSYNC and FSYNC.
    """

    FSYNC = "FSYNC"
    SSYNC = "SSYNC"
    ASYNC = "ASYNC"

    #: Orders models from strongest scheduler assumption to weakest.
    ORDER = (FSYNC, SSYNC, ASYNC)

    @classmethod
    def validate(cls, model: str) -> str:
        if model not in cls.ORDER:
            raise AlgorithmError(f"unknown synchrony model {model!r}")
        return model

    @classmethod
    def subsumes(cls, designed_for: str, run_under: str) -> bool:
        """Whether an algorithm designed for ``designed_for`` is claimed under ``run_under``.

        An ASYNC algorithm is claimed under all three models; an SSYNC
        algorithm under SSYNC and FSYNC; an FSYNC algorithm only under
        FSYNC.
        """
        return cls.ORDER.index(run_under) <= cls.ORDER.index(designed_for)


@dataclass(frozen=True)
class Action:
    """The outcome of executing a matched rule: new color and world movement."""

    new_color: Color
    world_move: Optional[Offset]

    @property
    def is_idle(self) -> bool:
        return self.world_move is None

    def __str__(self) -> str:
        if self.world_move is None:
            return f"({self.new_color}, Idle)"
        return f"({self.new_color}, move {self.world_move})"


@dataclass(frozen=True)
class Match:
    """A (rule, symmetry) pair whose guard matched a robot's snapshot."""

    rule: Rule
    symmetry: Symmetry
    action: Action

    def __str__(self) -> str:
        return f"{self.rule.name}@{self.symmetry.name} -> {self.action}"


@dataclass(frozen=True)
class Algorithm:
    """A complete terminating-exploration algorithm specification."""

    name: str
    synchrony: str
    phi: int
    colors: Tuple[Color, ...]
    chirality: bool
    k: int
    rules: Tuple[Rule, ...]
    initial_placement: Callable[[int, int], Sequence[Tuple[Node, Color]]] = field(compare=False)
    min_m: int = 2
    min_n: int = 3
    paper_section: str = ""
    description: str = ""
    optimal: bool = False

    def __post_init__(self) -> None:
        Synchrony.validate(self.synchrony)
        if self.phi not in (1, 2):
            raise AlgorithmError(f"{self.name}: unsupported phi={self.phi}")
        if self.k < 1:
            raise AlgorithmError(f"{self.name}: k must be positive")
        if len(set(self.colors)) != len(self.colors):
            raise AlgorithmError(f"{self.name}: duplicate colors in palette")
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise AlgorithmError(f"{self.name}: duplicate rule names")
        for rule in self.rules:
            if rule.self_color not in self.colors:
                raise AlgorithmError(
                    f"{self.name}: rule {rule.name} self color {rule.self_color!r}"
                    " not in the algorithm palette"
                )
            if rule.new_color not in self.colors:
                raise AlgorithmError(
                    f"{self.name}: rule {rule.name} new color {rule.new_color!r}"
                    " not in the algorithm palette"
                )
            if rule.phi != self.phi:
                raise AlgorithmError(
                    f"{self.name}: rule {rule.name} has phi={rule.phi}, expected {self.phi}"
                )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def ell(self) -> int:
        """Number of colors ``ℓ = |Col|``."""
        return len(self.colors)

    def symmetries(self) -> Tuple[Symmetry, ...]:
        """The symmetries under which guards may match (4 or 8)."""
        return symmetries_for(self.chirality)

    def supports_grid(self, m: int, n: int) -> bool:
        """Whether the paper claims the algorithm for an ``m x n`` grid."""
        return m >= self.min_m and n >= self.min_n

    def rules_for_color(self, color: Color) -> Tuple[Rule, ...]:
        """The rules whose ``self_color`` is ``color``."""
        return tuple(rule for rule in self.rules if rule.self_color == color)

    def rule_named(self, name: str) -> Rule:
        """Look a rule up by its label (e.g. ``"R4"``)."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(f"{self.name}: no rule named {name!r}")

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------
    def placement(self, m: int, n: int) -> List[Tuple[Node, Color]]:
        """The initial ``(node, color)`` placement for an ``m x n`` grid."""
        if not self.supports_grid(m, n):
            raise AlgorithmError(
                f"{self.name} requires m >= {self.min_m} and n >= {self.min_n},"
                f" got {m}x{n}"
            )
        placement = list(self.initial_placement(m, n))
        if len(placement) != self.k:
            raise AlgorithmError(
                f"{self.name}: initial placement produced {len(placement)} robots,"
                f" expected k={self.k}"
            )
        return placement

    def initial_world(self, grid: Grid) -> World:
        """A freshly initialised :class:`~repro.core.world.World`."""
        return World.from_placement(grid, self.placement(grid.m, grid.n))

    # ------------------------------------------------------------------
    # Matching engine
    # ------------------------------------------------------------------
    def matches_for_snapshot(self, snapshot: Snapshot, color: Color) -> List[Match]:
        """All (rule, symmetry) matches for a robot with light ``color``.

        Matches are returned in a deterministic order (rule declaration
        order, then symmetry order) so that deterministic tie-breaking
        policies are reproducible.
        """
        return [
            match
            for rule, symmetry, match in self._candidates.get(color, ())
            if rule.matches(snapshot, symmetry)
        ]

    @cached_property
    def _candidates(self) -> Dict[Color, Tuple[Tuple[Rule, Symmetry, Match], ...]]:
        """Per light, every ``(rule, symmetry)`` pair with the match it yields, in match order.

        Built on the first match (not at construction), and never part of
        equality or the dataclass fields.
        """
        candidates: Dict[Color, List[Tuple[Rule, Symmetry, Match]]] = {}
        for rule in self.rules:
            for symmetry in self.symmetries():
                action = Action(new_color=rule.new_color, world_move=rule.world_move(symmetry))
                candidates.setdefault(rule.self_color, []).append(
                    (rule, symmetry, Match(rule=rule, symmetry=symmetry, action=action))
                )
        return {color: tuple(entries) for color, entries in candidates.items()}

    def matches_for_robot(self, world: World, robot: Robot) -> List[Match]:
        """All matches for ``robot`` in the current ``world``."""
        snapshot = world.snapshot(robot.pos, self.phi)
        return self.matches_for_snapshot(snapshot, robot.color)

    def distinct_actions(self, matches: Sequence[Match]) -> List[Action]:
        """The distinct outcomes among a list of matches, in first-seen order."""
        seen: Dict[Action, None] = {}
        for match in matches:
            seen.setdefault(match.action, None)
        return list(seen)

    def enabled(self, world: World, robot: Robot) -> bool:
        """Whether ``robot`` is enabled (some rule matches some of its views)."""
        return bool(self.matches_for_robot(world, robot))

    def enabled_robots(self, world: World) -> List[Robot]:
        """All enabled robots in ``world``."""
        return [robot for robot in world.robots if self.enabled(world, robot)]

    def is_terminal(self, world: World) -> bool:
        """Whether the configuration is terminal (no robot enabled)."""
        return not self.enabled_robots(world)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A one-line summary used by the registry and the benchmarks."""
        chirality = "chirality" if self.chirality else "no chirality"
        star = " (optimal)" if self.optimal else ""
        return (
            f"{self.name}: {self.synchrony}, phi={self.phi}, ell={self.ell},"
            f" {chirality}, k={self.k}{star}"
        )

    def __str__(self) -> str:
        return self.summary()
