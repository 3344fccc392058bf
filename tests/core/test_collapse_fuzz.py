"""Differential fuzz: collapse modes × guarding must agree on the space.

Random well-typed functions are enumerated under both collapse modes,
and semantic collapse once more through the guard.  Merge proofs always
run on object views, so semantic collapse promises the same *decisions*
whether or not the guard vets each edge.  So, per random function:

- semantic unguarded and semantic guarded are bit-identical — including
  the alias table and the merge/split counters;
- the semantic space never exceeds the syntactic one, and nothing is
  ever refuted (a refuted digest collision would be a canonicalizer
  bug).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from tests.test_properties import programs

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

_BUDGET = dict(max_nodes=60, max_levels=3)


def _snapshot(dag):
    nodes = tuple(
        (
            node_id,
            dag.nodes[node_id].key,
            dag.nodes[node_id].level,
            tuple(sorted(dag.nodes[node_id].active.items())),
            tuple(sorted(dag.nodes[node_id].dormant)),
        )
        for node_id in range(len(dag.nodes))
    )
    return nodes, tuple(sorted(dag.aliases.items(), key=repr))


def _enumerate(program, collapse, **guards):
    func = program.function("f").clone()
    implicit_cleanup(func)
    return enumerate_space(
        func,
        EnumerationConfig(
            collapse=collapse, program=program, **guards, **_BUDGET
        ),
    )


@settings(max_examples=6, **_SETTINGS)
@given(programs())
def test_engines_and_collapse_modes_agree(source):
    program = compile_source(source)
    syntactic = _enumerate(program, "syntactic")
    semantic = _enumerate(program, "semantic")
    guarded = _enumerate(program, "semantic", sanitize="fast")

    assert syntactic.collapse_stats is None
    assert _snapshot(semantic.dag) == _snapshot(guarded.dag)
    assert semantic.collapse_stats == guarded.collapse_stats

    stats = semantic.collapse_stats
    assert stats is not None
    assert stats["refuted"] == 0
    if semantic.completed and syntactic.completed:
        # Only comparable on complete spaces: a budget-truncated
        # semantic run visits a different instance prefix, so its
        # node count is not bounded by the truncated syntactic one.
        assert len(semantic.dag) <= len(syntactic.dag)
    # class count: every physically created canonical instance owns
    # one class; merges never add classes
    assert stats["classes"] <= len(semantic.dag)
