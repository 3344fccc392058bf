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
once, and only when its blocks are positionally contiguous and the body
is small enough.

The transform works on the object IR behind the flat phase interface
(see :class:`repro.opt.base.LoopPhase`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.cache import loops_of
from repro.analysis.loops import Loop
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import CondBranch, Jump
from repro.machine.target import Target
from repro.opt.base import LoopPhase

#: loops with more instructions than this are not unrolled
MAX_UNROLL_INSTS = 40


class LoopUnrolling(LoopPhase):
    id = "g"
    name = "loop unrolling"
    #: contract: legal only after register allocation (mirrors applicable)
    contract_requires = ('allocation-done',)
    contract_establishes = ()
    contract_breaks = ()
    UNROLL_FACTOR = 2

    def applicable(self, flat) -> bool:
        return flat.alloc_applied

    def transform(self, func: Function, target: Target) -> bool:
        changed = False
        while self._apply_once(func):
            changed = True
        return changed

    def _apply_once(self, func: Function) -> bool:
        loops = loops_of(func)
        for loop in loops:
            if loop.header in func.unrolled:
                continue
            if self._unroll(func, loop):
                func.unrolled.add(loop.header)
                return True
        return False

    def _unroll(self, func: Function, loop: Loop) -> bool:
        indices = sorted(func.block_index(label) for label in loop.body)
        first, last = indices[0], indices[-1]
        if indices != list(range(first, last + 1)):
            return False  # loop blocks not contiguous
        if func.blocks[first].label != loop.header:
            return False
        if first == 0:
            return False  # never duplicate the entry block
        originals = func.blocks[first : last + 1]
        if sum(len(block.insts) for block in originals) > MAX_UNROLL_INSTS:
            return False

        # The positionally-last loop block must not fall through into
        # the copies we are about to insert.
        # Every back edge must be an explicit transfer to the header
        # (verified before any mutation).
        for latch_label in loop.latches:
            term = func.block(latch_label).terminator()
            if not (
                isinstance(term, (Jump, CondBranch)) and term.target == loop.header
            ):
                return False

        tail = originals[-1]
        tail_term = tail.terminator()
        insert_at = last + 1
        if tail_term is None:
            if last + 1 >= len(func.blocks):
                return False
            tail.insts.append(Jump(func.blocks[last + 1].label))
        elif isinstance(tail_term, CondBranch):
            if last + 1 >= len(func.blocks):
                return False
            thunk = BasicBlock(func.new_label(), [Jump(func.blocks[last + 1].label)])
            func.blocks.insert(last + 1, thunk)
            insert_at = last + 2

        mapping: Dict[str, str] = {
            block.label: func.new_label() for block in originals
        }
        copies: List[BasicBlock] = []
        for block in originals:
            copy = BasicBlock(mapping[block.label], list(block.insts))
            term = copy.terminator()
            if isinstance(term, Jump) and term.target in mapping:
                copy.insts[-1] = Jump(mapping[term.target])
            elif isinstance(term, CondBranch) and term.target in mapping:
                copy.insts[-1] = CondBranch(term.relop, mapping[term.target])
            copies.append(copy)

        new_header = mapping[loop.header]
        # Original back edges now enter the copy; the copy's back edges
        # (already mapped onto the copy header) return to the original.
        for latch_label in loop.latches:
            latch = func.block(latch_label)
            term = latch.terminator()
            if isinstance(term, Jump):
                latch.insts[-1] = Jump(new_header)
            else:
                assert isinstance(term, CondBranch)
                latch.insts[-1] = CondBranch(term.relop, new_header)
            copy_latch = next(
                c for c in copies if c.label == mapping[latch_label]
            )
            copy_term = copy_latch.terminator()
            if isinstance(copy_term, Jump) and copy_term.target == new_header:
                copy_latch.insts[-1] = Jump(loop.header)
            elif (
                isinstance(copy_term, CondBranch)
                and copy_term.target == new_header
            ):
                copy_latch.insts[-1] = CondBranch(copy_term.relop, loop.header)

        func.blocks[insert_at:insert_at] = copies
        func.invalidate_analyses()
        return True
