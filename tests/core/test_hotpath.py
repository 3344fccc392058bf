"""Hot-path engine tests: streaming fingerprints, the analysis cache,
and the single-clone fast path.

Every optimization here is only admissible because it is invisible:
each test pins some piece of the ``bit-identical to the slow path``
contract — streaming vs render-then-hash fingerprints, zlib vs
from-scratch CRC, cached vs recomputed analyses, single-clone attempts
vs clone-then-apply.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.analysis import flat as flat_analysis
from repro.analysis import set_paranoid
from repro.core.checkpoint import dag_digest
from repro.core.crc import crc32, crc32_reference
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.fingerprint import (
    _text_fingerprint,
    control_flow_text,
    fingerprint_function,
    remap_function_text,
)
from repro.ir.flat import block_id, flat_fingerprint, to_flat
from repro.machine.target import DEFAULT_TARGET, Target
from repro.opt import (
    PHASES,
    BranchChaining,
    DeadAssignmentElimination,
    apply_phase,
    attempt_phase_on_flat,
    implicit_cleanup,
    phase_by_id,
)
from repro.opt.flat import assign, selection
from repro.programs import PROGRAMS, compile_benchmark


def _all_seed_functions():
    """Every function of every bundled benchmark, canonicalized."""
    for bench_name in sorted(PROGRAMS):
        program = compile_benchmark(bench_name)
        for name, func in program.functions.items():
            clone = func.clone()
            implicit_cleanup(clone)
            yield f"{bench_name}.{name}", clone


def _mutated_functions(seed: int = 2006, count: int = 10, length: int = 6):
    """Functions randomly walked through the phase space (each step is
    a real phase application, so these cover post-optimization shapes:
    assigned registers, folded instructions, unrolled loops, ...)."""
    rng = random.Random(seed)
    pool = list(_all_seed_functions())
    for _ in range(count):
        label, func = pool[rng.randrange(len(pool))]
        func = func.clone()
        applied = []
        for _step in range(length):
            phase = PHASES[rng.randrange(len(PHASES))]
            if apply_phase(func, phase):
                applied.append(phase.id)
        yield f"{label}+{''.join(applied)}", func


def _legacy_fingerprint(func, keep_text=False, remap=True):
    """The render-then-hash text path, called directly."""
    return _text_fingerprint(func, keep_text, remap)


def dag_snapshot(dag):
    return tuple(
        (
            node_id,
            dag.nodes[node_id].key,
            dag.nodes[node_id].level,
            dag.nodes[node_id].num_insts,
            dag.nodes[node_id].cf_crc,
            tuple(sorted(dag.nodes[node_id].active.items())),
            tuple(sorted(dag.nodes[node_id].dormant)),
            tuple(dag.nodes[node_id].parents),
        )
        for node_id in sorted(dag.nodes)
    )


def result_signature(result):
    return (
        dag_snapshot(result.dag),
        result.attempted_phases,
        result.phases_applied,
    )


# ----------------------------------------------------------------------
# Streaming fingerprint == legacy render-then-hash fingerprint
# ----------------------------------------------------------------------


class TestStreamingFingerprint:
    def test_matches_legacy_on_every_seed_function(self):
        for label, func in _all_seed_functions():
            assert fingerprint_function(func) == _legacy_fingerprint(func), label

    def test_matches_legacy_on_phase_mutated_functions(self):
        for label, func in _mutated_functions():
            assert fingerprint_function(func) == _legacy_fingerprint(func), label

    def test_matches_legacy_under_reference_crc(self):
        # The table CRC over the whole rendered text must equal the
        # streaming zlib chunk-chaining, not just agree on buffers.
        for label, func in list(_all_seed_functions())[:8]:
            data = remap_function_text(func).encode("utf-8")
            cf_data = control_flow_text(func).encode("utf-8")
            streamed = fingerprint_function(func)
            assert streamed.crc == crc32_reference(data), label
            assert streamed.cf_crc == crc32_reference(cf_data), label
            assert streamed.byte_sum == sum(data) & 0xFFFFFFFF, label

    def test_keep_text_matches_streaming_hashes(self):
        # Exact mode renders the text; its hashes must equal the
        # streaming ones bit for bit.
        for label, func in list(_all_seed_functions())[:8]:
            with_text = fingerprint_function(func, keep_text=True)
            streamed = fingerprint_function(func)
            assert with_text.key == streamed.key, label
            assert with_text.cf_crc == streamed.cf_crc, label
            assert with_text.text is not None

    def test_no_remap_ablation_unchanged(self):
        for label, func in list(_all_seed_functions())[:8]:
            assert fingerprint_function(func, remap=False) == _legacy_fingerprint(
                func, remap=False
            ), label


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_crc_chaining_matches_whole_buffer(chunks):
    # The streaming pipeline relies on crc32(b, crc32(a)) == crc32(a+b)
    # for both implementations.
    joined = b"".join(chunks)
    value = 0
    reference = 0
    for chunk in chunks:
        value = crc32(chunk, value)
        reference = crc32_reference(chunk, reference)
    assert value == crc32(joined) == zlib.crc32(joined)
    assert reference == crc32_reference(joined) == zlib.crc32(joined)


@given(st.binary(max_size=256), st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_reference_crc_matches_zlib_with_seed(data, seed):
    assert crc32_reference(data, seed) == zlib.crc32(data, seed)


# ----------------------------------------------------------------------
# Analysis cache: invisible, and invalidation is complete
# ----------------------------------------------------------------------


def active_phases(result):
    """Ids of the phases active on some edge of the space."""
    return {pid for node in result.dag.nodes.values() for pid in node.active}


class TestAnalysisCache:
    def test_cache_off_is_bit_identical(self, monkeypatch):
        # sha.rol is loop-free; the bounded word_sum space has active
        # g and l edges, whose kernels read the flat loop analyses
        sha = compile_benchmark("sha").functions
        inputs = [(sha["rol"], None), (sha["word_sum"], 300)]
        for func, _ in inputs:
            implicit_cleanup(func)
        cached = [
            enumerate_space(func, EnumerationConfig(max_nodes=bound))
            for func, bound in inputs
        ]
        # every getter gets a fresh, empty cache and a freshly computed
        # shape: nothing is reused
        fresh = lambda f: flat_analysis.FlatAnalyses()  # noqa: E731
        monkeypatch.setattr(flat_analysis, "_cache_of", fresh)
        monkeypatch.setattr(selection, "_cache_of", fresh)
        monkeypatch.setattr(
            flat_analysis, "_shared_shape", flat_analysis._compute_shape
        )
        uncached = [
            enumerate_space(func, EnumerationConfig(max_nodes=bound))
            for func, bound in inputs
        ]
        assert active_phases(cached[1]) >= {"g", "l"}
        for before, after in zip(cached, uncached):
            assert result_signature(before) == result_signature(after)

    def test_paranoid_mode_finds_no_stale_analyses(self):
        # Paranoid mode recomputes every analysis and raises if a
        # cached one diverges — a full enumeration is a sweep over
        # every phase's invalidation discipline.  The bounded loop
        # function sends non-empty fp-offset states into blocks, which
        # descale's straight-line code barely does.
        descale = compile_benchmark("jpeg").functions["descale"]
        bit_count = compile_benchmark("bitcount").functions["bit_count"]
        implicit_cleanup(descale)
        implicit_cleanup(bit_count)
        flat_analysis.reset_flat_analysis_caches()
        previous = set_paranoid(True)
        try:
            result = enumerate_space(descale, EnumerationConfig())
            bounded = enumerate_space(bit_count, EnumerationConfig(max_nodes=500))
        finally:
            set_paranoid(previous)
        assert result.completed
        assert bounded.abort_reason == "max_nodes"
        # the sweep covers the loop kernels' invalidation discipline too
        assert active_phases(bounded) >= {"g", "l"}
        assert any(state for _, _, state in flat_analysis._BLOCK_FRAMES)

    @pytest.mark.parametrize("memo", ["block use/def", "frame effects"])
    def test_paranoid_mode_recomputes_block_memo_hits(self, memo, monkeypatch):
        # The per-block memos outlive every function: a wrong entry
        # would be reused by the fresh computation paranoid mode
        # compares against, unless paranoid mode recomputes the hit.
        func = compile_benchmark("jpeg").functions["descale"]
        implicit_cleanup(func)
        enumerate_space(func, EnumerationConfig())
        entry = to_flat(func)
        bid = block_id(tuple(entry.blocks[0]))
        if memo == "block use/def":
            memo_dict = flat_analysis._BLOCK_USE_DEF
            key = (bid, entry.returns_value)
            assert memo_dict[key] != (0, 0)
            wrong = (0, 0)
        else:
            memo_dict = flat_analysis._BLOCK_FRAMES
            key = (entry.scalar_slot_offsets(), bid, frozenset())
            wrong = memo_dict[key]._replace(defs=frozenset())
            assert wrong != memo_dict[key]
        monkeypatch.setitem(memo_dict, key, wrong)
        previous = set_paranoid(True)
        try:
            with pytest.raises(RuntimeError, match=f"stale cached flat {memo}"):
                enumerate_space(func, EnumerationConfig())
        finally:
            set_paranoid(previous)

    def test_block_memos_stay_within_their_bound(self, monkeypatch):
        func = compile_benchmark("bitcount").functions["bit_count"]
        implicit_cleanup(func)
        config = EnumerationConfig(max_nodes=150)
        flat_analysis.reset_flat_analysis_caches()
        reference = dag_digest(enumerate_space(func, config).dag)
        memos = (flat_analysis._BLOCK_USE_DEF, flat_analysis._BLOCK_FRAMES)
        bound = 16
        # unbounded, the run fills both memos past the bound
        assert min(len(memo) for memo in memos) > bound

        monkeypatch.setattr(flat_analysis, "_BLOCK_MEMO_MAX", bound)
        flat_analysis.reset_flat_analysis_caches()
        peaks = [0, 0]

        def watch(i, real):
            def watched(*args):
                result = real(*args)
                peaks[i] = max(peaks[i], len(memos[i]))
                return result

            return watched

        monkeypatch.setattr(
            flat_analysis, "_block_use_def", watch(0, flat_analysis._block_use_def)
        )
        monkeypatch.setattr(
            flat_analysis, "_block_frame", watch(1, flat_analysis._block_frame)
        )
        try:
            bounded = dag_digest(enumerate_space(func, config).dag)
        finally:
            flat_analysis.reset_flat_analysis_caches()
        assert bounded == reference
        assert peaks == [bound, bound]

    def test_paranoid_mode_catches_a_kernel_keeping_stale_analyses(
        self, monkeypatch
    ):
        # A kernel that mutates without invalidating leaves the flat
        # analyses of the code it rewrote in place; paranoid mode must
        # catch the next lookup (and without it, the bug is silent).
        real_run = DeadAssignmentElimination.run

        def stale_run(self, flat, target):
            kept = flat._analyses
            changed = real_run(self, flat, target)
            flat._analyses = kept
            return changed

        monkeypatch.setattr(DeadAssignmentElimination, "run", stale_run)
        func = compile_benchmark("jpeg").functions["descale"]
        implicit_cleanup(func)
        enumerate_space(func, EnumerationConfig())
        previous = set_paranoid(True)
        try:
            with pytest.raises(RuntimeError, match="stale cached flat"):
                enumerate_space(func, EnumerationConfig())
        finally:
            set_paranoid(previous)

    @pytest.mark.parametrize("field", ["latches", "depth"])
    def test_paranoid_mode_checks_loop_latches_and_depth(self, field):
        # the loop kernels read latches and nesting depth, not only the
        # header and body, so a stale value of either must be caught
        flat = to_flat(compile_benchmark("bitcount").functions["bit_count"])
        (loop,) = flat_analysis.flat_loops_of(flat)
        previous = set_paranoid(True)
        try:
            if field == "latches":
                loop.latches = set()
            else:
                loop.depth += 1
            with pytest.raises(RuntimeError, match="stale cached flat loops"):
                flat_analysis.flat_loops_of(flat)
        finally:
            set_paranoid(previous)
            # the corrupted loop is the shape table's: later lookups of
            # this shape, in any test, would read it
            flat_analysis.reset_flat_analysis_caches()


class TestShapeTable:
    """The CFG, dominators and loops shared by every function whose
    labels and terminators match (``flat_analysis._SHAPES``)."""

    def test_cfg_is_built_once_per_shape(self, monkeypatch):
        func = compile_benchmark("bitcount").functions["main"]
        implicit_cleanup(func)
        builds = []
        real = flat_analysis.build_flat_cfg

        def counted(flat):
            builds.append(flat_analysis._shape_key(flat))
            return real(flat)

        monkeypatch.setattr(flat_analysis, "build_flat_cfg", counted)
        flat_analysis.reset_flat_analysis_caches()
        try:
            result = enumerate_space(func, EnumerationConfig())
            shapes = len(flat_analysis._SHAPES)
        finally:
            flat_analysis.reset_flat_analysis_caches()
        assert result.completed and len(result.dag) > 1000
        # far fewer shapes than instances, each built exactly once
        assert 1 < shapes < len(result.dag) // 10
        assert len(builds) == len(set(builds)) == shapes

    def test_paranoid_mode_recomputes_shape_hits(self, monkeypatch):
        # A shared entry outlives every function that filled it: a wrong
        # one would be reused by every later function of its shape, and
        # one that reads its shape once would never have it checked,
        # unless paranoid mode recomputes every table hit.
        func = compile_benchmark("bitcount").functions["bit_count"]
        implicit_cleanup(func)
        flat_analysis.reset_flat_analysis_caches()
        try:
            flat_analysis.flat_cfg_of(to_flat(func))
            key = flat_analysis._shape_key(to_flat(func))
            entry = flat_analysis._SHAPES[key]
            wrong = entry._replace(
                cfg=flat_analysis.FlatCFG([[] for _ in entry.cfg.succs])
            )
            assert wrong.cfg.succs != entry.cfg.succs
            monkeypatch.setitem(flat_analysis._SHAPES, key, wrong)
            # a fresh function's first lookup is a table hit
            assert flat_analysis.flat_cfg_of(to_flat(func)) is wrong.cfg
            previous = set_paranoid(True)
            try:
                with pytest.raises(RuntimeError, match="stale cached flat cfg"):
                    flat_analysis.flat_cfg_of(to_flat(func))
            finally:
                set_paranoid(previous)
        finally:
            flat_analysis.reset_flat_analysis_caches()

    def test_shape_table_stays_within_its_bound(self, monkeypatch):
        func = compile_benchmark("bitcount").functions["bit_count"]
        implicit_cleanup(func)
        config = EnumerationConfig(max_nodes=150)
        flat_analysis.reset_flat_analysis_caches()
        reference = dag_digest(enumerate_space(func, config).dag)
        bound = 16
        # unbounded, the run fills the table past the bound
        assert len(flat_analysis._SHAPES) > bound

        monkeypatch.setattr(flat_analysis, "_SHAPE_MAX", bound)
        flat_analysis.reset_flat_analysis_caches()
        peak = 0
        real = flat_analysis._shared_shape

        def watched(flat):
            nonlocal peak
            shape = real(flat)
            peak = max(peak, len(flat_analysis._SHAPES))
            return shape

        monkeypatch.setattr(flat_analysis, "_shared_shape", watched)
        try:
            bounded = dag_digest(enumerate_space(func, config).dag)
        finally:
            flat_analysis.reset_flat_analysis_caches()
        assert bounded == reference
        assert peak == bound

    def test_edits_inside_blocks_keep_the_shape(self):
        # h, s, c, k, o and q (and the compulsory assignment) rewrite
        # instructions inside blocks, never a label or a terminator, so
        # the edited function keeps pointing at its entry
        kept = set()
        for _, func in _all_seed_functions():
            flat = to_flat(func)
            for phase_id in "ocqshk":
                phase = phase_by_id(phase_id)
                shape = flat_analysis._shape_of(flat)
                candidate = flat.clone()
                if phase.requires_assignment and not candidate.reg_assigned:
                    assign.flat_assign_registers(candidate, DEFAULT_TARGET)
                    assert candidate._shape is shape
                if phase.applicable(candidate) and phase.run(candidate, DEFAULT_TARGET):
                    assert candidate._shape is shape
                    kept.add(phase_id)
                candidate.sel_applied |= phase_id == "s"
                flat = candidate
        assert kept == set("ocqshk")

    def test_paranoid_mode_catches_a_kernel_keeping_a_stale_shape(
        self, monkeypatch
    ):
        # b retargets branches, so its edits change the CFG; one that
        # kept the shape pointer anyway must fail the next lookup
        real_run = BranchChaining.run

        def stale_run(self, flat, target):
            shape = flat._shape
            changed = real_run(self, flat, target)
            flat._shape = shape
            return changed

        monkeypatch.setattr(BranchChaining, "run", stale_run)
        func = compile_benchmark("bitcount").functions["bit_count"]
        implicit_cleanup(func)
        config = EnumerationConfig(max_nodes=300)
        enumerate_space(func, config)
        previous = set_paranoid(True)
        try:
            with pytest.raises(RuntimeError, match="stale cached flat cfg"):
                enumerate_space(func, config)
        finally:
            set_paranoid(previous)


class TestAssignedForm:
    """The compulsory register assignment, computed once per instance
    and target and shared by the instance's c and k attempts."""

    def test_assignment_runs_once_per_instance(self, monkeypatch):
        func = compile_benchmark("bitcount").functions["main"]
        implicit_cleanup(func)
        builds = []
        real = assign.flat_assign_registers

        def counted(flat, target):
            builds.append(flat.content_key())
            return real(flat, target)

        monkeypatch.setattr(assign, "flat_assign_registers", counted)
        result = enumerate_space(func, EnumerationConfig(keep_functions=True))
        assert result.completed
        unassigned = [
            node
            for node in result.dag.nodes.values()
            if not node.function.reg_assigned
        ]
        # before, c and k each assigned their own clone: 230 builds
        assert len(builds) == len(set(builds)) == len(unassigned) == 130

    def test_attempts_never_mutate_the_held_form(self):
        func = compile_benchmark("jpeg").functions["descale"]
        implicit_cleanup(func)
        apply_phase(func, phase_by_id("s"))
        flat = to_flat(func)
        form = assign.assigned_form(flat, DEFAULT_TARGET)
        blocks = [list(block) for block in form.blocks]
        for phase_id in "ck":
            candidate = attempt_phase_on_flat(flat, phase_by_id(phase_id))
            assert candidate is not None and candidate.reg_assigned
            assert candidate is not form
        assert assign.assigned_form(flat, DEFAULT_TARGET) is form
        assert [list(block) for block in form.blocks] == blocks
        assert not flat.reg_assigned
        # another target gets its own form
        assert assign.assigned_form(flat, Target()) is not form

    def test_paranoid_mode_recomputes_the_held_form(self):
        func = compile_benchmark("jpeg").functions["descale"]
        implicit_cleanup(func)
        flat = to_flat(func)
        form = assign.assigned_form(flat, DEFAULT_TARGET)
        del form.blocks[0][0]
        form.invalidate_analyses()
        previous = set_paranoid(True)
        try:
            with pytest.raises(
                RuntimeError, match="stale cached flat register assignment"
            ):
                assign.assigned_form(flat, DEFAULT_TARGET)
        finally:
            set_paranoid(previous)


class TestSelectionCounts:
    """Instruction selection copies the content's cached register use
    counts once and updates them on each fold and combine; paranoid
    mode recounts on every cache hit and after every update."""

    @staticmethod
    def _descale():
        func = compile_benchmark("jpeg").functions["descale"]
        implicit_cleanup(func)
        return to_flat(func)

    def test_selection_combines_on_descale(self):
        flat = self._descale()
        before = selection.InstructionSelection._count_register_uses(flat)
        candidate = attempt_phase_on_flat(flat, phase_by_id("s"))
        assert candidate is not None
        assert candidate.num_instructions() < flat.num_instructions()
        # the input's counts are read, never updated in place
        assert selection._count_uses(flat) == before

    def test_paranoid_mode_recounts_cached_counts(self):
        flat = self._descale()
        counts = selection.InstructionSelection._count_register_uses(flat)
        rid = next(iter(counts))
        counts[rid] += 1
        previous = set_paranoid(True)
        try:
            with pytest.raises(
                RuntimeError, match="stale cached flat register use counts"
            ):
                attempt_phase_on_flat(flat, phase_by_id("s"))
        finally:
            set_paranoid(previous)

    def test_paranoid_mode_recounts_after_each_update(self, monkeypatch):
        real_tally = selection._tally

        def additions_only(counts, iids, sign, returns_value):
            if sign > 0:
                real_tally(counts, iids, sign, returns_value)

        monkeypatch.setattr(selection, "_tally", additions_only)
        flat = self._descale()
        # unchecked, the drifted counts go unnoticed
        assert attempt_phase_on_flat(flat, phase_by_id("s")) is not None
        previous = set_paranoid(True)
        try:
            with pytest.raises(
                RuntimeError, match="stale cached flat register use counts"
            ):
                attempt_phase_on_flat(self._descale(), phase_by_id("s"))
        finally:
            set_paranoid(previous)


class TestDeadAssignmentSlots:
    """Dead assignment elimination reads frame-slot liveness only where
    a block stores: a sweep over store-free blocks solves none, and a
    store-free block builds no slot view."""

    def test_slot_views_are_built_for_blocks_with_a_store(self, monkeypatch):
        func = compile_benchmark("bitcount").functions["main"]
        views = []
        real = flat_analysis.FlatSlotLiveness.live_after_each

        def counted(self, block_index):
            if block_index not in self.after_memo:
                views.append(block_index)
            return real(self, block_index)

        monkeypatch.setattr(flat_analysis.FlatSlotLiveness, "live_after_each", counted)
        result = enumerate_space(func, EnumerationConfig())
        assert result.completed
        # every block's view, stores or not, made 8,014
        assert len(views) == 5822


# ----------------------------------------------------------------------
# Single-clone attempt == clone + apply_phase on the object IR
# ----------------------------------------------------------------------


class TestSingleCloneFastPath:
    def test_matches_legacy_on_mutated_functions(self):
        for label, func in _mutated_functions(seed=7, count=6, length=4):
            parent = to_flat(func)
            before = flat_fingerprint(parent, keep_text=True)
            for phase in PHASES:
                fast = attempt_phase_on_flat(parent, phase)
                slow = func.clone()
                active = apply_phase(slow, phase)
                # dormant/active agreement, identical results, and the
                # parent untouched either way
                assert (fast is not None) == active, (label, phase.id)
                if fast is not None:
                    assert flat_fingerprint(
                        fast, keep_text=True
                    ) == fingerprint_function(slow, keep_text=True), (
                        label,
                        phase.id,
                    )
                    assert (fast.reg_assigned, fast.sel_applied, fast.alloc_applied) == (
                        slow.reg_assigned,
                        slow.sel_applied,
                        slow.alloc_applied,
                    )
                assert flat_fingerprint(parent, keep_text=True) == before

    def test_dormant_phase_never_mutates_parent(self):
        func = compile_benchmark("sha").functions["rol"]
        implicit_cleanup(func)
        parent = to_flat(func)
        before = (flat_fingerprint(parent, keep_text=True), parent.content_key())
        for phase in PHASES:
            attempt_phase_on_flat(parent, phase)
            after = (flat_fingerprint(parent, keep_text=True), parent.content_key())
            assert after == before, phase.id

