"""The flat frame-reference and slot-liveness analyses against the
object-IR reference (:mod:`repro.analysis.framerefs`,
:func:`repro.analysis.liveness.compute_slot_liveness`).

The flat side memoizes each block's frame effects across functions,
keyed by block content, scalar-slot offsets and the fp-offset state
flowing in.  Every instance of a few bounded spaces must get the
reference's facts from it, whether the memo starts empty or already
holds every entry.

On an acyclic shape the flat solvers make one pass instead of
iterating to a fixpoint; on every acyclic instance of the same spaces
that pass must give what the round-robin gives.
"""

from __future__ import annotations

import pytest

from repro.analysis.flat import (
    FlatCFG,
    _frame_effects,
    build_flat_cfg,
    compute_flat_frame_refs,
    compute_flat_liveness,
    compute_flat_slot_liveness,
    find_flat_loops,
    reset_flat_analysis_caches,
)
from repro.analysis.liveness import compute_slot_liveness
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.frontend import compile_source
from repro.frontend.fuzz import fuzz_source
from repro.ir.flat import from_flat, to_flat
from repro.ir.function import Function
from repro.ir.instructions import Assign, Compare, CondBranch, Jump, Return
from repro.ir.operands import BinOp, Const, Mem, Reg
from repro.machine.target import FP, RV
from repro.opt import implicit_cleanup
from repro.programs import compile_benchmark

MAX_NODES = 120


def _programs():
    # bitcount's loops carry address registers across blocks (non-empty
    # in-states); the generated programs vary the frame layouts.
    yield "bitcount", compile_benchmark("bitcount")
    for index in range(10):
        yield f"fuzz0.{index}", compile_source(fuzz_source(0, index))


def _wild_functions():
    """Frame pointers merged from different offsets, which no bounded
    space above reaches: a diamond and a loop walking the frame."""
    r1 = Reg(1)
    diamond = Function("diamond", returns_value=True)
    diamond.add_local("x", 1, "int", False)
    diamond.add_local("y", 1, "int", False)
    entry, left, right, join = (
        diamond.add_block(name) for name in ("entry", "left", "right", "join")
    )
    entry.insts = [Compare(RV, Const(0)), CondBranch("eq", "right")]
    left.insts = [Assign(r1, FP), Jump("join")]
    right.insts = [Assign(r1, BinOp("add", FP, Const(4)))]
    join.insts = [Assign(RV, Mem(r1)), Return()]
    yield "wild.diamond", diamond

    walk = Function("walk", returns_value=False)
    walk.add_local("x", 1, "int", False)
    walk.add_local("y", 1, "int", False)
    entry, loop, done = (walk.add_block(name) for name in ("entry", "loop", "done"))
    entry.insts = [Assign(r1, FP)]
    loop.insts = [
        Assign(Mem(r1), Const(0)),
        Assign(r1, BinOp("add", r1, Const(4))),
        Compare(r1, Const(8)),
        CondBranch("lt", "loop"),
    ]
    done.insts = [Assign(RV, Mem(BinOp("add", FP, Const(4)))), Return()]
    yield "wild.walk", walk


def _object_facts(func):
    """The reference's facts, by block position."""
    live = compute_slot_liveness(func)
    refs = live.frame_refs
    labels = [block.label for block in func.blocks]
    return (
        refs.tracked,
        refs.has_wild,
        [refs.refs[label] for label in labels],
        [set(live.live_in[label]) for label in labels],
        [set(live.live_out[label]) for label in labels],
    )


def _flat_facts(refs, live):
    return (
        refs.tracked,
        refs.has_wild,
        [list(block_refs) for block_refs in refs.refs],
        [set(block) for block in live.live_in],
        [set(block) for block in live.live_out],
    )


@pytest.fixture(scope="module")
def instances():
    """(label, flat instance, reference facts on its ``from_flat`` view)
    for every instance of each function's space, cut at MAX_NODES."""
    found = []
    config = EnumerationConfig(max_nodes=MAX_NODES, keep_functions=True)
    for label, program in _programs():
        for name, func in program.functions.items():
            implicit_cleanup(func)
            dag = enumerate_space(func, config).dag
            for node_id in sorted(dag.nodes):
                flat = to_flat(dag.nodes[node_id].function)
                found.append(
                    (f"{label}.{name}#{node_id}", flat, _object_facts(from_flat(flat)))
                )
    for label, func in _wild_functions():
        found.append((label, to_flat(func), _object_facts(func)))
    return found


def test_spaces_reach_loops_and_wild_references(instances):
    assert len(instances) > 2000
    assert any(find_flat_loops(flat) for _, flat, _ in instances)
    assert any(facts[1] for _, _, facts in instances)  # has_wild


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_flat_frame_facts_match_the_object_reference(instances, memo):
    for label, flat, expected in instances:
        if memo == "cold":
            reset_flat_analysis_caches()
        live = compute_flat_slot_liveness(flat)
        assert _flat_facts(live.frame_refs, live) == expected, label
        assert _flat_facts(compute_flat_frame_refs(flat), live) == expected, label


def _has_cycle(succs):
    """Depth-first search over every block for an edge back onto the
    search stack."""
    state = [0] * len(succs)  # 0 unseen, 1 on the stack, 2 done

    def visit(block):
        state[block] = 1
        for succ in succs[block]:
            if state[succ] == 1 or (state[succ] == 0 and visit(succ)):
                return True
        state[block] = 2
        return False

    return any(state[block] == 0 and visit(block) for block in range(len(succs)))


def _round_robin(cfg):
    """The same CFG with the one-pass solvers switched off."""
    forced = FlatCFG(cfg.succs)
    forced.acyclic = False
    return forced


def test_one_pass_solvers_match_the_round_robin(instances):
    acyclic = cyclic = 0
    for label, flat, _ in instances:
        cfg = build_flat_cfg(flat)
        assert cfg.acyclic == (
            len(cfg.reachable) == len(cfg.succs) and not _has_cycle(cfg.succs)
        ), label
        if not cfg.acyclic:
            cyclic += 1
            continue
        acyclic += 1
        forced = _round_robin(cfg)
        one = compute_flat_liveness(flat, cfg)
        robin = compute_flat_liveness(flat, forced)
        assert (one.live_in, one.live_out) == (robin.live_in, robin.live_out), label
        one = compute_flat_slot_liveness(flat, cfg)
        robin = compute_flat_slot_liveness(flat, forced)
        assert _flat_facts(one.frame_refs, one) == _flat_facts(
            robin.frame_refs, robin
        ), label
        assert _frame_effects(flat, cfg) == _frame_effects(flat, forced), label
    # bitcount's loops stay on the round-robin; the generated functions
    # and the diamond are loop-free
    assert acyclic > 1000 and cyclic > 100
