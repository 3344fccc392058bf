"""Phase k — register allocation.

Table 1: "Uses graph coloring to replace references to a variable
within a live range with a register."

Like VPO's, this phase is only legal after instruction selection has
been applied (so that candidate loads and stores contain the addresses
of arguments or local scalars) and it requires the compulsory register
assignment.

Every scalar frame slot whose accesses are all resolvable (the
frame-reference analysis proves their fp offsets, and the function
contains no wild frame access) is a candidate.  Candidates are colored
against each other and against the hardware registers live or defined
anywhere within the slot's live range; a colored slot's loads and
stores become register-to-register moves — which instruction selection
typically collapses afterwards, exactly the enabling relation between
k and s the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.flat import flat_liveness_of, flat_slot_liveness_of
from repro.ir.flat import (
    DEF_MASK,
    DEF_RID,
    INST_OBJS,
    KIND,
    K_ASSIGN,
    K_STORE,
    REG_OBJS,
    FlatFunction,
    intern_inst,
)
from repro.ir.instructions import Assign
from repro.ir.operands import Mem, Reg
from repro.machine.target import ALLOCATABLE, Target
from repro.opt.base import Phase
from repro.opt.flat.support import HW_MASK

#: (load iid, hw index) -> ``dst = rX`` / (store iid, hw index) -> ``rX = src``
_LOAD_REWRITES: Dict[Tuple[int, int], int] = {}
_STORE_REWRITES: Dict[Tuple[int, int], int] = {}


def _load_rewrite(iid: int, hw_index: int) -> int:
    key = (iid, hw_index)
    result = _LOAD_REWRITES.get(key)
    if result is None:
        result = intern_inst(
            Assign(INST_OBJS[iid].dst, Reg(hw_index, pseudo=False))
        )
        _LOAD_REWRITES[key] = result
    return result


def _store_rewrite(iid: int, hw_index: int) -> int:
    key = (iid, hw_index)
    result = _STORE_REWRITES.get(key)
    if result is None:
        result = intern_inst(
            Assign(Reg(hw_index, pseudo=False), INST_OBJS[iid].src)
        )
        _STORE_REWRITES[key] = result
    return result


class RegisterAllocation(Phase):
    id = "k"
    name = "register allocation"
    requires_assignment = True
    #: contract: legal only after instruction selection (mirrors applicable)
    contract_requires = ("selection-done",)
    contract_establishes = (
        "registers-assigned",
        "no-pseudo-registers",
        "allocation-done",
    )

    def applicable(self, flat: FlatFunction) -> bool:
        return flat.sel_applied

    def run(self, flat: FlatFunction, target: Target) -> bool:
        slot_liveness = flat_slot_liveness_of(flat)
        frame_refs = slot_liveness.frame_refs
        if frame_refs.has_wild:
            return False  # an unresolved frame access may alias any slot

        referenced: Set[int] = set()
        for block_refs in frame_refs.refs:
            for ref in block_refs:
                referenced |= ref.reads
                referenced |= ref.writes
        candidates = sorted(referenced)
        if not candidates:
            return False

        liveness = flat_liveness_of(flat)
        forbidden, slot_edges = self._interference(
            flat, candidates, liveness, slot_liveness
        )
        coloring = self._color(candidates, forbidden, slot_edges)
        if not coloring:
            return False
        self._rewrite(flat, frame_refs, coloring)
        flat.invalidate_analyses(keep_shape=True)
        return True

    @staticmethod
    def _interference(flat, candidates, liveness, slot_liveness):
        candidate_set = set(candidates)
        forbidden: Dict[int, int] = {offset: 0 for offset in candidates}
        slot_edges: Dict[int, Set[int]] = {offset: set() for offset in candidates}

        frame_refs = slot_liveness.frame_refs
        for bi, block in enumerate(flat.blocks):
            # Block-boundary interference (covers live-through ranges in
            # blocks that never touch the slot).
            slots_in = slot_liveness.live_in[bi] & candidate_set
            if slots_in:
                regs_in = liveness.live_in[bi] & HW_MASK
                for offset in slots_in:
                    forbidden[offset] |= regs_in
                    for other in slots_in:
                        if other != offset:
                            slot_edges[offset].add(other)
            regs_after = liveness.live_after_each(flat, bi)
            slots_after = slot_liveness.live_after_each(bi)
            refs = frame_refs.refs[bi]
            for i, iid in enumerate(block):
                # A write to a slot interferes even when the stored value
                # is dead (overwritten before any read): the rewrite still
                # materializes the store, and once slots share a register
                # a dead store physically clobbers the other slot's live
                # value — so a defined slot conflicts with everything live
                # across this instruction, exactly like a defined register.
                live_slots = (slots_after[i] | refs[i].writes) & candidate_set
                if not live_slots:
                    continue
                hw_mask = (regs_after[i] | DEF_MASK[iid]) & HW_MASK
                for offset in live_slots:
                    forbidden[offset] |= hw_mask
                    for other in live_slots:
                        if other != offset:
                            slot_edges[offset].add(other)
        return forbidden, slot_edges

    @staticmethod
    def _color(candidates, forbidden, slot_edges) -> Dict[int, int]:
        coloring: Dict[int, int] = {}
        for offset in candidates:
            taken = forbidden[offset]
            for neighbor in slot_edges[offset]:
                assigned = coloring.get(neighbor)
                if assigned is not None:
                    taken |= 1 << assigned
            free = [c for c in ALLOCATABLE if not taken >> c & 1]
            if free:
                coloring[offset] = free[0]
        return coloring

    @staticmethod
    def _rewrite(flat: FlatFunction, frame_refs, coloring: Dict[int, int]) -> None:
        colored = set(coloring)
        for bi, block in enumerate(flat.blocks):
            refs = frame_refs.refs[bi]
            new_block: List[int] = []
            for iid, ref in zip(block, refs):
                replacement = iid
                kind = KIND[iid]
                is_assign = kind == K_ASSIGN or kind == K_STORE
                read_hits = ref.reads & colored
                write_hits = ref.writes & colored
                if (
                    read_hits
                    and is_assign
                    and isinstance(INST_OBJS[iid].src, Mem)
                ):
                    (offset,) = read_hits
                    replacement = _load_rewrite(iid, coloring[offset])
                elif write_hits and kind == K_STORE:
                    (offset,) = write_hits
                    replacement = _store_rewrite(iid, coloring[offset])
                new_block.append(replacement)
            flat.blocks[bi] = new_block
