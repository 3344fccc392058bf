"""Compulsory register assignment: pseudo registers -> hardware registers.

VPO performs this implicitly before the first code-improving phase in a
sequence that requires it (c and k).  It is not one of the fifteen
candidate phases; evaluation order determination (o) is illegal after
it has run.

The implementation is a Chaitin-Briggs graph coloring over pseudo
register live ranges (register-id bitmasks), with precolored hardware
registers (argument registers, the return value, call-clobbered
registers) as interference constraints and spill-to-stack as the
fallback.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.analysis import flat as _flat_analysis
from repro.analysis.defuse import rewrite_uses
from repro.analysis.flat import _cache_of, _paranoid_check, flat_liveness_of
from repro.ir.flat import (
    DEF_MASK,
    INST_OBJS,
    NUM_SEEDED_HW,
    REG_OBJS,
    USE_MASK,
    FlatFunction,
    intern_inst,
    iter_rids,
)
from repro.ir.function import LocalSlot
from repro.ir.instructions import Assign
from repro.ir.operands import BinOp, Const, Mem
from repro.machine.target import ALLOCATABLE, FP, Target
from repro.opt.flat.support import ALLOC_MASK, HW_MASK, PSEUDO_CLEAR, rewrite_regs_iid

_MAX_SPILL_ROUNDS = 25

#: phase contract (one of the two implicit phases; candidate phases
#: declare these as Phase class attributes instead — see
#: repro/staticanalysis/contracts.py for the vocabulary and checker)
CONTRACT = {
    "requires": ("pre-assignment",),
    "establishes": ("registers-assigned", "no-pseudo-registers"),
    "breaks": (),
}


def assigned_form(flat: FlatFunction, target: Target) -> FlatFunction:
    """*flat* after the compulsory register assignment for *target*.

    Computed once per content and target and held on the content's
    analyses, so c and k attempted on one instance share it (and the
    analyses read on it).  Never mutated: callers clone it.
    """
    cache = _cache_of(flat)
    held = cache.assigned
    if held is None or held[0] is not target:
        form = flat.clone()
        flat_assign_registers(form, target)
        held = cache.assigned = (target, form)
    elif _flat_analysis._PARANOID:
        fresh = flat.clone()
        flat_assign_registers(fresh, target)
        _paranoid_check(
            flat,
            "register assignment",
            _assignment_facts(held[1]),
            _assignment_facts(fresh),
        )
    return held[1]


def _assignment_facts(flat: FlatFunction) -> Tuple:
    return (flat.content_key(), flat.frame_size, flat.next_pseudo, list(flat.frame))


def flat_assign_registers(flat: FlatFunction, target: Target) -> None:
    """Replace every pseudo register in *flat* with a hardware register."""
    for _ in range(_MAX_SPILL_ROUNDS):
        coloring, spilled = _try_color(flat)
        if not spilled:
            _rewrite(flat, coloring)
            flat.reg_assigned = True
            return
        for pseudo in spilled:
            _spill(flat, pseudo)
    raise RuntimeError(f"{flat.name}: register assignment did not converge")


def _try_color(flat: FlatFunction) -> Tuple[Dict[int, int], List[int]]:
    """One coloring attempt: (pseudo rid -> hw index, rids to spill)."""
    all_regs = 0
    for block in flat.blocks:
        for iid in block:
            all_regs |= DEF_MASK[iid] | USE_MASK[iid]
    pseudos = list(iter_rids(all_regs & PSEUDO_CLEAR))

    interference: Dict[int, int] = {p: 0 for p in pseudos}
    forbidden: Dict[int, int] = {p: 0 for p in pseudos}

    liveness = flat_liveness_of(flat)
    for bi, block in enumerate(flat.blocks):
        live_after = liveness.live_after_each(flat, bi)
        for i, iid in enumerate(block):
            def_mask = DEF_MASK[iid]
            if not def_mask:
                continue
            live = live_after[i]
            for defined in iter_rids(def_mask):
                others = live & ~(1 << defined)
                if defined >= NUM_SEEDED_HW:
                    pseudo_others = others & PSEUDO_CLEAR
                    interference[defined] |= pseudo_others
                    forbidden[defined] |= others & HW_MASK
                    bit = 1 << defined
                    for other in iter_rids(pseudo_others):
                        interference[other] |= bit
                else:
                    bit = 1 << defined
                    for other in iter_rids(others & PSEUDO_CLEAR):
                        forbidden[other] |= bit

    colors = list(ALLOCATABLE)
    stack = _simplify(pseudos, interference, forbidden, len(colors))

    # Prefer lightly used colors so unrelated values get distinct
    # registers — keeping live ranges separable for the later phases,
    # as VPO's plentiful-register assignment does.  Hardware registers
    # already in the code (arguments, return value) count once per
    # defs set and once per uses set of each instruction, so
    # temporaries avoid them.
    usage: Dict[int, int] = {c: 0 for c in colors}
    for block in flat.blocks:
        for iid in block:
            for rid in iter_rids(DEF_MASK[iid] & ALLOC_MASK):
                usage[rid] += 1
            for rid in iter_rids(USE_MASK[iid] & ALLOC_MASK):
                usage[rid] += 1

    coloring: Dict[int, int] = {}
    spilled: List[int] = []
    while stack:
        pseudo = stack.pop()
        taken = forbidden[pseudo]
        for neighbor in iter_rids(interference[pseudo]):
            assigned = coloring.get(neighbor)
            if assigned is not None:
                taken |= 1 << assigned
        free = [c for c in colors if not taken >> c & 1]
        if free:
            best = min(free, key=lambda c: (usage[c], c))
            coloring[pseudo] = best
            usage[best] += 1
        else:
            spilled.append(pseudo)
    return coloring, spilled


def _simplify(
    pseudos: List[int],
    interference: Dict[int, int],
    forbidden: Dict[int, int],
    k: int,
) -> List[int]:
    """Chaitin-Briggs simplify with optimistic spilling: the pseudos in
    the order select pops them last-first.

    Each step removes the lowest-index pseudo of degree below *k*, or,
    when none is left, the one of highest (degree, index).  Degrees only
    fall, so a pseudo enters the heap of low-degree pseudos once, when
    its degree first drops below *k*.
    """
    index_of = {p: REG_OBJS[p].index for p in pseudos}
    # bin().count("1"), not int.bit_count(): that needs Python 3.10
    degree = {
        p: bin(interference[p]).count("1") + bin(forbidden[p]).count("1")
        for p in pseudos
    }
    low = [(index_of[p], p) for p in pseudos if degree[p] < k]
    heapq.heapify(low)
    stack: List[int] = []
    remaining = set(pseudos)
    while remaining:
        if low:
            chosen = heapq.heappop(low)[1]
        else:
            chosen = max(remaining, key=lambda p: (degree[p], index_of[p]))
        stack.append(chosen)
        remaining.discard(chosen)
        for neighbor in iter_rids(interference[chosen]):
            if neighbor in remaining:
                degree[neighbor] -= 1
                if degree[neighbor] == k - 1:
                    heapq.heappush(low, (index_of[neighbor], neighbor))
    return stack


def _rewrite(flat: FlatFunction, coloring: Dict[int, int]) -> None:
    for bi, block in enumerate(flat.blocks):
        flat.blocks[bi] = [
            rewrite_regs_iid(
                iid,
                tuple(
                    (rid, coloring[rid])
                    for rid in iter_rids(
                        (DEF_MASK[iid] | USE_MASK[iid]) & PSEUDO_CLEAR
                    )
                ),
            )
            for iid in block
        ]
    flat.invalidate_analyses(keep_shape=True)


def _spill_slot_name(flat: FlatFunction) -> str:
    index = 0
    while f"_spill{index}" in flat.frame:
        index += 1
    return f"_spill{index}"


def _spill(flat: FlatFunction, pseudo_rid: int) -> None:
    """Rewrite the pseudo to live in a new stack slot (rare path)."""
    name = _spill_slot_name(flat)
    slot = LocalSlot(name, flat.frame_size, 1, "int", False)
    flat.frame = dict(flat.frame)  # clones share the dict (COW)
    flat.frame[name] = slot
    flat.frame_size += 4
    flat._scalar_slots = None  # new scalar slot: refresh the memo
    addr = BinOp("add", FP, Const(slot.offset)) if slot.offset else FP
    pseudo = REG_OBJS[pseudo_rid]
    bit = 1 << pseudo_rid

    for bi, block in enumerate(flat.blocks):
        new_block: List[int] = []
        for iid in block:
            uses_pseudo = USE_MASK[iid] & bit
            defines_pseudo = DEF_MASK[iid] & bit
            inst = INST_OBJS[iid]
            if uses_pseudo:
                load_temp = REG_OBJS[flat.new_rid()]
                new_block.append(intern_inst(Assign(load_temp, Mem(addr))))
                inst = rewrite_uses(inst, {pseudo: load_temp})
            if defines_pseudo:
                store_temp = REG_OBJS[flat.new_rid()]
                assert isinstance(inst, Assign) and inst.dst == pseudo
                new_block.append(intern_inst(Assign(store_temp, inst.src)))
                new_block.append(intern_inst(Assign(Mem(addr), store_temp)))
            else:
                new_block.append(intern_inst(inst))
        flat.blocks[bi] = new_block
    flat.invalidate_analyses(keep_shape=True)
