"""Phase o — evaluation order determination.

Table 1: "Reorders instructions within a single basic block in an
attempt to use fewer registers."

This phase is only legal before the compulsory register assignment (it
exists to reduce the number of simultaneously live pseudo registers
that assignment must later color).  Within each block a dependence DAG
is built (register RAW/WAR/WAW, memory ordering, condition-code
ordering) and instructions are re-scheduled greedily, preferring at
each step the ready instruction that ends the most pseudo live ranges
while starting the fewest.

The per-block schedule is a pure function of (block content, pseudo
live-out mask), so results are cached globally by interned block id —
independent phase orders reaching the same block pay the O(n^2)
dependence construction once.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.flat import flat_liveness_of
from repro.ir.flat import (
    DEF_MASK,
    FLAGS,
    F_READS_MEM,
    F_SETS_CC,
    F_TRANSFER,
    F_USES_CC,
    F_WRITES_MEM,
    KIND,
    K_CALL,
    USE_MASK,
    FlatFunction,
    block_id,
    iter_rids,
)
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import PSEUDO_CLEAR

#: (block id, pseudo live-out mask) -> schedule (tuple of indices)
_SCHEDULES: Dict[Tuple[int, int], Tuple[int, ...]] = {}
_SCHEDULES_MAX = 1 << 16


def _build_dependencies(block: List[int]) -> List[Set[int]]:
    """preds[j] = indices that must be scheduled before j."""
    n = len(block)
    preds: List[Set[int]] = [set() for _ in range(n)]
    for j in range(n):
        later = block[j]
        later_flags = FLAGS[later]
        later_call = KIND[later] == K_CALL
        later_reads = bool(later_flags & F_READS_MEM) or later_call
        later_writes = bool(later_flags & F_WRITES_MEM) or later_call
        for i in range(j):
            earlier = block[i]
            earlier_flags = FLAGS[earlier]
            ordered = bool(
                (DEF_MASK[earlier] & USE_MASK[later])
                or (USE_MASK[earlier] & DEF_MASK[later])
                or (DEF_MASK[earlier] & DEF_MASK[later])
            )
            if not ordered:
                earlier_call = KIND[earlier] == K_CALL
                earlier_writes = bool(earlier_flags & F_WRITES_MEM) or earlier_call
                if earlier_writes and (later_reads or later_writes):
                    ordered = True
                else:
                    earlier_reads = bool(earlier_flags & F_READS_MEM) or earlier_call
                    if earlier_reads and later_writes:
                        ordered = True
            if not ordered:
                # Condition-code ordering.
                if earlier_flags & F_SETS_CC and later_flags & (F_SETS_CC | F_USES_CC):
                    ordered = True
                elif earlier_flags & F_USES_CC and later_flags & F_SETS_CC:
                    ordered = True
            if not ordered and later_flags & F_TRANSFER:
                ordered = True  # the transfer stays last
            if ordered:
                preds[j].add(i)
    return preds


def _schedule(block: List[int], live_out: int) -> Tuple[int, ...]:
    n = len(block)
    preds = _build_dependencies(block)
    succs: List[Set[int]] = [set() for _ in range(n)]
    for j, deps in enumerate(preds):
        for i in deps:
            succs[i].add(j)
    remaining_preds = [len(deps) for deps in preds]

    # For each pseudo register: the set of unscheduled instructions
    # using it (to detect when scheduling one ends a live range).
    users: Dict[int, Set[int]] = {}
    for i, iid in enumerate(block):
        for rid in iter_rids(USE_MASK[iid] & PSEUDO_CLEAR):
            users.setdefault(rid, set()).add(i)

    empty: Set[int] = set()
    ready = sorted(i for i in range(n) if remaining_preds[i] == 0)
    order: List[int] = []
    scheduled: Set[int] = set()
    while ready:
        best = None
        best_score = None
        for i in ready:
            iid = block[i]
            frees = 0
            for rid in iter_rids(USE_MASK[iid] & PSEUDO_CLEAR):
                if live_out >> rid & 1:
                    continue
                if users.get(rid, empty) <= {i} | scheduled:
                    frees += 1
            starts = 0
            for rid in iter_rids(DEF_MASK[iid] & PSEUDO_CLEAR):
                if users.get(rid, empty) - scheduled - {i}:
                    starts += 1
            score = (frees - starts, -i)
            if best_score is None or score > best_score:
                best, best_score = i, score
        ready.remove(best)
        scheduled.add(best)
        order.append(best)
        for j in sorted(succs[best]):
            remaining_preds[j] -= 1
            if remaining_preds[j] == 0:
                ready.append(j)
        ready.sort()
    return tuple(order)


class EvaluationOrderDetermination(Phase):
    id = "o"
    name = "evaluation order determination"
    #: contract: illegal once registers are assigned (mirrors applicable)
    contract_requires = ("pre-assignment",)

    def applicable(self, flat: FlatFunction) -> bool:
        return not flat.reg_assigned

    def run(self, flat: FlatFunction, target: Target) -> bool:
        liveness = flat_liveness_of(flat)
        changed = False
        for bi, block in enumerate(flat.blocks):
            if len(block) < 3:
                continue
            key = (block_id(tuple(block)), liveness.live_out[bi] & PSEUDO_CLEAR)
            order = _SCHEDULES.get(key)
            if order is None:
                order = _schedule(block, liveness.live_out[bi])
                if len(_SCHEDULES) >= _SCHEDULES_MAX:
                    _SCHEDULES.clear()
                _SCHEDULES[key] = order
            if order != tuple(range(len(block))):
                flat.blocks[bi] = [block[i] for i in order]
                flat.invalidate_analyses(keep_shape=True)
                changed = True
        return changed
