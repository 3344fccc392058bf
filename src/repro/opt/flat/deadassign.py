"""Phase h — dead assignment elimination.

Table 1: "Uses global analysis to remove assignments when the assigned
value is never used."

Three kinds of dead assignments are removed:

- register assignments whose destination is not live afterwards;
- compares whose condition code is never read (the condition code is
  never live across a block boundary in this IR);
- stores to scalar frame slots that are never subsequently loaded
  (resolved through the frame-reference analysis, so stores made via
  address registers are handled).

Loads have no side effects on this target, so a dead load is removed
like any other dead assignment.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.flat import flat_liveness_of, flat_slot_liveness_of
from repro.ir.flat import (
    DEF_RID,
    KIND,
    K_ASSIGN,
    K_COMPARE,
    K_CONDBR,
    K_STORE,
    FlatFunction,
    block_id,
)
from repro.machine.target import Target
from repro.opt.base import Phase

#: block id -> (per-instruction "condition code read later" flags,
#: whether the block has a store); purely local to the block
_CC_FLAGS: Dict[int, Tuple[List[bool], bool]] = {}
_CC_FLAGS_MAX = 1 << 18


class DeadAssignmentElimination(Phase):
    id = "h"
    name = "dead assignment elimination"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while self._sweep(flat):
            changed = True
        return changed

    def _sweep(self, flat: FlatFunction) -> bool:
        liveness = flat_liveness_of(flat)
        block_facts = [self._block_facts(block) for block in flat.blocks]
        # only a store reads the frame slots' liveness
        if any(has_store for _, has_store in block_facts):
            slot_liveness = flat_slot_liveness_of(flat)
        removed = False
        for bi, block in enumerate(flat.blocks):
            live_after = liveness.live_after_each(flat, bi)
            cc_read_later, has_store = block_facts[bi]
            if has_store:
                slots_after = slot_liveness.live_after_each(bi)
                refs = slot_liveness.frame_refs.refs[bi]
            # Detection first, without building a replacement list —
            # on most sweeps most blocks have nothing to remove.
            first_dead = -1
            for i, iid in enumerate(block):
                kind = KIND[iid]
                if kind == K_COMPARE:
                    if not cc_read_later[i]:
                        first_dead = i
                        break
                elif kind == K_ASSIGN:
                    if not live_after[i] >> DEF_RID[iid] & 1:
                        first_dead = i
                        break
                elif kind == K_STORE:
                    ref = refs[i]
                    if (
                        not ref.wild_write
                        and len(ref.writes) == 1
                        and not (set(ref.writes) & slots_after[i])
                    ):
                        first_dead = i
                        break
            if first_dead < 0:
                continue
            removed = True
            kept: List[int] = block[:first_dead]
            for i in range(first_dead + 1, len(block)):
                iid = block[i]
                kind = KIND[iid]
                if kind == K_COMPARE and not cc_read_later[i]:
                    continue
                if kind == K_ASSIGN:
                    if not live_after[i] >> DEF_RID[iid] & 1:
                        continue
                elif kind == K_STORE:
                    ref = refs[i]
                    if (
                        not ref.wild_write
                        and len(ref.writes) == 1
                        and not (set(ref.writes) & slots_after[i])
                    ):
                        continue
                kept.append(iid)
            flat.blocks[bi] = kept
            flat.invalidate_analyses(keep_shape=True)
        return removed

    @staticmethod
    def _block_facts(block: List[int]) -> Tuple[List[bool], bool]:
        """For each instruction, is the condition code it sets read
        later?  And does the block store?"""
        bid = block_id(tuple(block))
        facts = _CC_FLAGS.get(bid)
        if facts is not None:
            return facts
        flags = [False] * len(block)
        needed = False
        has_store = False
        for i in range(len(block) - 1, -1, -1):
            kind = KIND[block[i]]
            if kind == K_CONDBR:
                needed = True
            elif kind == K_COMPARE:
                flags[i] = needed
                needed = False
            elif kind == K_STORE:
                has_store = True
        if len(_CC_FLAGS) >= _CC_FLAGS_MAX:
            _CC_FLAGS.clear()
        facts = _CC_FLAGS[bid] = (flags, has_store)
        return facts
