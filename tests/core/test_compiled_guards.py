"""Compiled guards decide exactly as the interpreted ``Guard.matches``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import all_algorithms, get
from repro.core.rules import CellKind, occ
from repro.core.views import ball_offsets

ALGORITHMS = sorted(all_algorithms())


def _interpreted(rule, snapshot, symmetry) -> bool:
    return rule.guard.matches(snapshot, symmetry, center_default=occ(rule.self_color))


def _witness(rule, symmetry) -> dict:
    """A world-frame snapshot the rule's guard accepts under ``symmetry``."""
    snapshot = {}
    for offset in ball_offsets(rule.phi):
        spec = rule.center_spec() if offset == (0, 0) else rule.guard.spec_at(offset)
        content = {CellKind.WALL: None, CellKind.OCCUPIED: spec.colors}.get(spec.kind, ())
        snapshot[symmetry.apply(offset)] = content
    return snapshot


def _contents(colors):
    stacks = st.lists(st.sampled_from(colors), min_size=1, max_size=2).map(lambda cs: tuple(sorted(cs)))
    return st.one_of(st.none(), st.just(()), stacks)


def test_every_rule_accepts_its_witness_under_every_symmetry():
    for name in ALGORITHMS:
        algorithm = get(name)
        for rule in algorithm.rules:
            for symmetry in algorithm.symmetries():
                snapshot = _witness(rule, symmetry)
                assert _interpreted(rule, snapshot, symmetry)
                assert rule.matches(snapshot, symmetry), (name, rule.name, symmetry.name)


@pytest.mark.parametrize("name", ALGORITHMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compiled_guard_agrees_with_interpreted_guard(name, data):
    algorithm = get(name)
    rule = data.draw(st.sampled_from(algorithm.rules))
    symmetry = data.draw(st.sampled_from(algorithm.symmetries()))
    # Start from a snapshot the guard accepts and overwrite a few cells, so
    # both verdicts come up often.
    snapshot = _witness(rule, symmetry)
    changed = data.draw(st.lists(st.sampled_from(ball_offsets(rule.phi)), max_size=4, unique=True))
    for offset in changed:
        snapshot[offset] = data.draw(_contents(algorithm.colors))
    assert rule.matches(snapshot, symmetry) is _interpreted(rule, snapshot, symmetry)
