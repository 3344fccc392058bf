"""Phase g — loop unrolling.

Table 1: "Loop unrolling to potentially reduce the number of
comparisons and branches at run time and to aid scheduling at the cost
of code size increase."

The unroll factor is fixed at two (paper section 3: the target is an
embedded processor where code size matters).  Like VPO's, this phase
runs only after register allocation.

The transformation is a general factor-2 unroll that preserves the
exit tests: the loop body blocks are duplicated with fresh labels, the
original back edges are redirected to the copy, and the copy's back
edges return to the original header.  Each loop is unrolled at most
once (``FlatFunction.unrolled`` holds the header labels), and only when
its blocks are positionally contiguous and the body is small enough.
"""

from __future__ import annotations

from repro.analysis.flat import FlatLoop, flat_loops_of
from repro.ir.flat import (
    KIND,
    K_CONDBR,
    K_JUMP,
    LABEL_STRS,
    TARGET_LID,
    FlatFunction,
)
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import jump_iid, retarget_iid, terminator_iid

#: loops with more instructions than this are not unrolled
MAX_UNROLL_INSTS = 40


class LoopUnrolling(Phase):
    id = "g"
    name = "loop unrolling"
    #: contract: legal only after register allocation (mirrors applicable)
    contract_requires = ('allocation-done',)
    contract_establishes = ()
    contract_breaks = ()

    def applicable(self, flat: FlatFunction) -> bool:
        return flat.alloc_applied

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while self._apply_once(flat):
            changed = True
        return changed

    def _apply_once(self, flat: FlatFunction) -> bool:
        for loop in flat_loops_of(flat):
            header = LABEL_STRS[flat.labels[loop.header]]
            if header in flat.unrolled:
                continue
            if self._unroll(flat, loop):
                # rebound, never added to: clones share the set
                flat.unrolled = flat.unrolled | {header}
                return True
        return False

    @staticmethod
    def _unroll(flat: FlatFunction, loop: FlatLoop) -> bool:
        indices = sorted(loop.body)
        first, last = indices[0], indices[-1]
        if indices != list(range(first, last + 1)):
            return False  # loop blocks not contiguous
        if first != loop.header:
            return False
        if first == 0:
            return False  # never duplicate the entry block
        blocks = flat.blocks
        if sum(len(blocks[bi]) for bi in indices) > MAX_UNROLL_INSTS:
            return False
        # Every back edge must be an explicit transfer to the header
        # (verified before any mutation).
        header_lid = flat.labels[first]
        for latch in loop.latches:
            term = terminator_iid(blocks[latch])
            if term < 0 or KIND[term] not in (K_JUMP, K_CONDBR):
                return False
            if TARGET_LID[term] != header_lid:
                return False

        # The positionally-last loop block must not fall through into
        # the copies we are about to insert.
        tail = blocks[last]
        tail_term = terminator_iid(tail)
        insert_at = last + 1
        if tail_term < 0 or KIND[tail_term] == K_CONDBR:
            if last + 1 >= len(blocks):
                return False
            exit_jump = jump_iid(flat.labels[last + 1])
            if tail_term < 0:
                tail.append(exit_jump)
            else:
                flat.labels.insert(last + 1, flat.new_lid())
                blocks.insert(last + 1, [exit_jump])
                insert_at = last + 2

        mapping = {flat.labels[bi]: flat.new_lid() for bi in indices}
        copies = []
        for bi in indices:
            copy = list(blocks[bi])
            term = terminator_iid(copy)
            if term >= 0 and KIND[term] in (K_JUMP, K_CONDBR):
                target_lid = TARGET_LID[term]
                if target_lid in mapping:
                    copy[-1] = retarget_iid(term, mapping[target_lid])
            copies.append(copy)

        # Original back edges now enter the copy; the copy's back edges
        # (already mapped onto the copy header) return to the original.
        new_header = mapping[header_lid]
        for latch in loop.latches:
            blocks[latch][-1] = retarget_iid(blocks[latch][-1], new_header)
            copy = copies[latch - first]
            copy[-1] = retarget_iid(copy[-1], header_lid)

        flat.labels[insert_at:insert_at] = list(mapping.values())
        blocks[insert_at:insert_at] = copies
        flat.invalidate_analyses()
        return True
