"""Phase j — minimize loop jumps.

Table 1: "Removes a jump associated with a loop by duplicating a
portion of the loop."

This is loop inversion: a back edge that is an unconditional jump to a
loop header whose only job is to test the exit condition is replaced by
a duplicated copy of the header's test that branches back into the loop
body directly.  The loop then pays one conditional branch per
iteration instead of a jump plus a branch.

Latches are visited in the lexicographic order of their *label
strings* (not their block indices), which fixes which latch is
inverted first.
"""

from __future__ import annotations

from typing import List

from repro.analysis.flat import flat_loops_of
from repro.ir.flat import (
    FLAGS,
    F_TRANSFER,
    KIND,
    K_CONDBR,
    K_JUMP,
    LABEL_STRS,
    RELOP,
    TARGET_LID,
    FlatFunction,
)
from repro.ir.instructions import INVERTED_RELOP
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import condbr_iid, jump_iid, terminator_iid

#: headers with more instructions than this are not duplicated
MAX_DUPLICATED_INSTS = 12


class MinimizeLoopJumps(Phase):
    id = "j"
    name = "minimize loop jumps"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while self._apply_once(flat):
            changed = True
        return changed

    def _apply_once(self, flat: FlatFunction) -> bool:
        for loop in flat_loops_of(flat):
            header_bi = loop.header
            header = flat.blocks[header_bi]
            term = terminator_iid(header)
            if term < 0 or KIND[term] != K_CONDBR:
                continue
            if len(header) - 1 > MAX_DUPLICATED_INSTS:
                continue
            if header_bi + 1 >= len(flat.blocks):
                continue
            fallthrough_lid = flat.labels[header_bi + 1]
            target_lid = TARGET_LID[term]
            if fallthrough_lid == target_lid:
                continue
            # Classify the header's two edges.
            target_bi = flat.block_index(target_lid)
            in_target = target_bi in loop.body
            in_fallthrough = header_bi + 1 in loop.body
            if in_target and not in_fallthrough:
                stay_relop, stay_lid, exit_lid = (
                    RELOP[term],
                    target_lid,
                    fallthrough_lid,
                )
            elif not in_target and in_fallthrough:
                stay_relop, stay_lid, exit_lid = (
                    INVERTED_RELOP[RELOP[term]],
                    fallthrough_lid,
                    target_lid,
                )
            else:
                continue
            header_lid = flat.labels[header_bi]
            for latch_bi in sorted(
                loop.latches, key=lambda bi: LABEL_STRS[flat.labels[bi]]
            ):
                if latch_bi == header_bi:
                    continue
                latch = flat.blocks[latch_bi]
                latch_term = terminator_iid(latch)
                if latch_term < 0 or KIND[latch_term] != K_JUMP:
                    continue
                if TARGET_LID[latch_term] != header_lid:
                    continue
                self._invert(
                    flat, latch_bi, header, stay_relop, stay_lid, exit_lid
                )
                return True
        return False

    @staticmethod
    def _invert(
        flat: FlatFunction,
        latch_bi: int,
        header: List[int],
        stay_relop: str,
        stay_lid: int,
        exit_lid: int,
    ) -> None:
        latch = flat.blocks[latch_bi]
        latch.pop()
        latch.extend(header[:-1])  # duplicated header test
        latch.append(condbr_iid(stay_relop, stay_lid))
        # The latch's fallthrough must now reach the loop exit.
        needs_thunk = (
            latch_bi + 1 >= len(flat.blocks)
            or flat.labels[latch_bi + 1] != exit_lid
        )
        if needs_thunk:
            thunk_lid = flat.new_lid()
            flat.labels.insert(latch_bi + 1, thunk_lid)
            flat.blocks.insert(latch_bi + 1, [jump_iid(exit_lid)])
        flat.invalidate_analyses()
