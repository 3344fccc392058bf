"""Guarded edges are checked on the flat IR.

The sanitizer passes (fast and full), the phase contracts and the
translation validator's prover read the flat parent and candidate:
memoized per-instruction and per-block facts plus the cached flat CFG
and liveness.  These tests pin that a clean fast-mode edge and a proved
full-mode edge build no object view, that ``--validate`` with
``--sanitize`` runs the battery once per distinct candidate, that full
mode and semantic collapse survive paranoid mode, that the fact tables
follow the flat analyses' memo discipline (paranoid recomputation, a
bound, a reset), and that the guard's record of candidate verdicts
keeps every edge's outcome.
"""

from typing import Dict

import pytest

from repro.analysis import flat as flat_analysis
from repro.analysis import set_paranoid
from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, SpaceEnumerator, enumerate_space
from repro.ir.flat import to_flat
from repro.machine.target import DEFAULT_TARGET
from repro.opt import implicit_cleanup
from repro.opt import phase_by_id
from repro.programs import compile_benchmark
from repro.robustness import guard as guard_mod
from repro.robustness.faults import FaultInjector
from repro.staticanalysis import FAST, sanitize_function
from repro.staticanalysis import checker as checker_mod
from repro.staticanalysis import sanitize as sanitize_mod
from repro.staticanalysis import transval as transval_mod

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
    monkeypatch.setattr(transval_mod, "from_flat", _refuse)
    result = enumerate_space(func, EnumerationConfig(program=program, **config))
    assert result.completed
    assert len(result.quarantine) == 0
    assert result.sanitize_stats["edges"] > 0
    assert dag_digest(result.dag) == dag_digest(reference.dag)


def test_proved_full_mode_edges_build_no_object_views(monkeypatch):
    # Only VM co-execution converts: an edge the prover matches reads
    # flat analyses alone, a tested edge converts for the VM.
    program = compile_benchmark("sha")
    calls = []
    real_from_flat = transval_mod.from_flat

    def counted(flat, into=None):
        calls.append(1)
        return real_from_flat(flat, into)

    views: Dict[str, int] = {}
    real_check_edge = checker_mod.EdgeChecker.check_edge

    def check_edge(self, *args, **kwargs):
        before = len(calls)
        result = real_check_edge(self, *args, **kwargs)
        views.setdefault(self.last_verdict, 0)
        views[self.last_verdict] += len(calls) - before
        return result

    monkeypatch.setattr(transval_mod, "from_flat", counted)
    monkeypatch.setattr(guard_mod, "from_flat", _refuse)
    monkeypatch.setattr(checker_mod.EdgeChecker, "check_edge", check_edge)
    result = enumerate_space(
        program.functions["word_sum"],
        EnumerationConfig(program=program, sanitize="full", max_nodes=120),
    )
    stats = result.sanitize_stats
    assert stats["proved"] > 0 and stats["tested"] > 0
    assert views["proved"] == 0
    assert views["tested"] > 0


@pytest.mark.parametrize(
    "config",
    ({"sanitize": "full"}, {"collapse": "semantic"}),
    ids=["sanitize-full", "semantic"],
)
def test_full_mode_and_collapse_find_no_stale_analyses(config):
    # The verifiers read the shared flat caches: paranoid mode checks
    # every hit they make against a fresh computation.  The checker
    # quarantines an edge whose check raised, and the collapser counts
    # an instance it could not summarize as uncanonical, so a stale
    # hit would show in the quarantine or the collapse counts.
    program = compile_benchmark("sha")
    config = EnumerationConfig(program=program, max_nodes=300, **config)
    func = program.functions["word_sum"]
    reference = enumerate_space(func, config)
    flat_analysis.reset_flat_analysis_caches()
    previous = set_paranoid(True)
    try:
        result = enumerate_space(func, config)
    finally:
        set_paranoid(previous)
    assert result.abort_reason == "max_nodes"
    assert len(result.quarantine) == 0
    assert dag_digest(result.dag) == dag_digest(reference.dag)
    assert result.sanitize_stats == reference.sanitize_stats
    assert result.collapse_stats == reference.collapse_stats


def test_validate_and_sanitize_share_one_battery_per_candidate(monkeypatch):
    # One battery run decides validation and the sanitizer for each
    # distinct candidate; a repeated candidate reads the guard's record.
    program = compile_benchmark("sha")
    calls = []
    structural = sanitize_mod._structural

    def counted(*args):
        calls.append(1)
        return structural(*args)

    monkeypatch.setattr(sanitize_mod, "_structural", counted)
    enumerator = SpaceEnumerator(
        program.functions["word_sum"],
        EnumerationConfig(
            program=program, validate=True, sanitize="fast", max_nodes=120
        ),
    )
    result = enumerator.run()
    edges = result.sanitize_stats["edges"]
    assert len(result.quarantine) == 0
    assert 0 < len(calls) == len(enumerator.guard.verdicts) < edges


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


@pytest.mark.parametrize(
    "config",
    (
        {"sanitize": "fast", "validate": True},
        {"sanitize": "full"},
        {"validate": True, "difftest": True},
    ),
    ids=["fast+validate", "full", "validate+difftest"],
)
def test_the_verdict_record_keeps_every_edge_outcome(monkeypatch, config):
    # Injected faults quarantine edges of every kind; a guard whose
    # record never hits must report the same quarantine and counters.
    program = compile_benchmark("bitcount")
    func = program.functions["ntbl_bitcount"]

    def enumerate_with_faults():
        injector = FaultInjector(seed=3, rate=0.05, modes=("raise", "corrupt"))
        return enumerate_space(
            func,
            EnumerationConfig(
                program=program, fault_injector=injector, max_nodes=150, **config
            ),
        )

    recorded = enumerate_with_faults()
    monkeypatch.setattr(
        guard_mod.GuardedPhaseRunner, "_lookup", lambda self, flat, validate: None
    )
    unrecorded = enumerate_with_faults()
    assert len(recorded.quarantine) > 0
    assert recorded.quarantine.to_dicts() == unrecorded.quarantine.to_dicts()
    assert recorded.sanitize_stats == unrecorded.sanitize_stats
    assert dag_digest(recorded.dag) == dag_digest(unrecorded.dag)


def test_paranoid_mode_recomputes_record_hits():
    # A record entry outlives the edge that wrote it: a wrong verdict
    # would decide every later edge to that candidate, unless paranoid
    # mode recomputes hits.
    func = compile_benchmark("jpeg").functions["descale"]
    implicit_cleanup(func)
    parent = to_flat(func)
    guard = guard_mod.GuardedPhaseRunner(
        validate=False, sanitizer=checker_mod.EdgeChecker()
    )
    phase = phase_by_id("s")
    assert guard.apply(parent, phase) is not None
    ((key, entry),) = guard.verdicts.items()
    guard.verdicts[key] = entry._replace(failure=("sanitizer", "planted", 1))
    assert guard.apply(parent, phase) is None
    assert guard.quarantine.records[-1].detail == "planted"
    previous = set_paranoid(True)
    try:
        assert guard.apply(parent, phase) is None
    finally:
        set_paranoid(previous)
    record = guard.quarantine.records[-1]
    assert record.kind == "sanitizer"
    assert "stale cached guard verdict for descale" in record.detail
    assert guard.sanitizer.stats()["edges"] == 2
