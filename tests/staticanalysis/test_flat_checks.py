"""Guarded edges are checked on the flat IR.

The fast sanitizer passes and the phase contracts read the flat parent
and candidate: memoized per-instruction and per-block facts plus the
candidate's cached flat CFG and liveness.  These tests pin that a clean
edge builds no object view, that ``--validate`` with ``--sanitize``
runs the battery once per edge, and that the fact tables follow the
flat analyses' memo discipline (paranoid recomputation, a bound, a
reset).
"""

import pytest

from repro.analysis import flat as flat_analysis
from repro.analysis import set_paranoid
from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.ir.flat import to_flat
from repro.machine.target import DEFAULT_TARGET
from repro.opt import implicit_cleanup
from repro.programs import compile_benchmark
from repro.robustness import guard as guard_mod
from repro.staticanalysis import FAST, sanitize_function
from repro.staticanalysis import checker as checker_mod
from repro.staticanalysis import sanitize as sanitize_mod

GUARDED_CONFIGS = (
    {"sanitize": "fast"},
    {"sanitize": "fast", "validate": True},
)


def _refuse(flat, into=None):
    raise AssertionError("object view built for a clean edge")


@pytest.mark.parametrize("config", GUARDED_CONFIGS, ids=["fast", "fast+validate"])
def test_clean_edges_build_no_object_views(monkeypatch, config):
    program = compile_benchmark("sha")
    func = program.functions["rol"]
    reference = enumerate_space(func, EnumerationConfig())
    monkeypatch.setattr(guard_mod, "from_flat", _refuse)
    monkeypatch.setattr(checker_mod, "from_flat", _refuse)
    result = enumerate_space(func, EnumerationConfig(program=program, **config))
    assert result.completed
    assert len(result.quarantine) == 0
    assert result.sanitize_stats["edges"] > 0
    assert dag_digest(result.dag) == dag_digest(reference.dag)


def test_validate_and_sanitize_share_one_battery_per_edge(monkeypatch):
    program = compile_benchmark("sha")
    calls = []
    structural = sanitize_mod._structural

    def counted(*args):
        calls.append(1)
        return structural(*args)

    monkeypatch.setattr(sanitize_mod, "_structural", counted)
    result = enumerate_space(
        program.functions["word_sum"],
        EnumerationConfig(
            program=program, validate=True, sanitize="fast", max_nodes=120
        ),
    )
    edges = result.sanitize_stats["edges"]
    assert edges > 0
    assert len(result.quarantine) == 0
    assert len(calls) == edges


@pytest.mark.parametrize("table", ["instruction facts", "block facts"])
def test_paranoid_mode_recomputes_fact_hits(monkeypatch, table):
    # The fact tables outlive every function: a wrong entry would be
    # trusted on every later edge, unless paranoid mode recomputes hits.
    func = compile_benchmark("jpeg").functions["descale"]
    implicit_cleanup(func)
    assert sanitize_function(func, DEFAULT_TARGET, mode=FAST) == []
    flat = to_flat(func)
    inst_table, block_table = sanitize_mod._FACTS[DEFAULT_TARGET]
    bid = flat.content_key()[1][0]
    if table == "block facts":
        memo, key = block_table, bid
    else:
        # a block miss reads the instruction facts it merges
        monkeypatch.delitem(block_table, bid)
        memo, key = inst_table, flat.blocks[0][0]
    wrong = memo[key]._replace(legal=not memo[key].legal)
    monkeypatch.setitem(memo, key, wrong)
    previous = set_paranoid(True)
    try:
        with pytest.raises(RuntimeError, match=f"stale cached sanitizer {table}"):
            sanitize_function(func, DEFAULT_TARGET, mode=FAST)
    finally:
        set_paranoid(previous)


def test_fact_tables_stay_within_their_bound(monkeypatch):
    program = compile_benchmark("bitcount")
    func = program.functions["bit_count"]
    implicit_cleanup(func)
    config = EnumerationConfig(sanitize="fast", program=program, max_nodes=150)
    flat_analysis.reset_flat_analysis_caches()
    reference = enumerate_space(func, config)
    tables = sanitize_mod._FACTS[DEFAULT_TARGET]
    bound = 16
    # unbounded, the run fills both tables past the bound
    assert min(len(table) for table in tables) > bound

    monkeypatch.setattr(flat_analysis, "_BLOCK_MEMO_MAX", bound)
    flat_analysis.reset_flat_analysis_caches()
    assert not sanitize_mod._FACTS
    peaks = [0, 0]

    def watch(real):
        def watched(*args):
            result = real(*args)
            inst_table, block_table = sanitize_mod._FACTS[DEFAULT_TARGET]
            peaks[0] = max(peaks[0], len(inst_table))
            peaks[1] = max(peaks[1], len(block_table))
            return result

        return watched

    monkeypatch.setattr(sanitize_mod, "_block_facts", watch(sanitize_mod._block_facts))
    try:
        bounded = enumerate_space(func, config)
    finally:
        flat_analysis.reset_flat_analysis_caches()
    assert dag_digest(bounded.dag) == dag_digest(reference.dag)
    assert bounded.sanitize_stats == reference.sanitize_stats
    assert peaks == [bound, bound]
