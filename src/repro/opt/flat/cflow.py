"""The pure control-flow phases: b, d, i, r, u.

Each works over label ids and block indices only.  Branch retargeting
goes through the interned constructors in
:mod:`repro.opt.flat.support`, so rewritten terminators hash-cons to
the same ids everywhere.  None of them requires or establishes a
contract invariant, and each preserves every monotone one (see
staticanalysis/contracts.py).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.flat import flat_cfg_of
from repro.ir.flat import (
    FLAGS,
    F_TRANSFER,
    KIND,
    K_CONDBR,
    K_JUMP,
    RELOP,
    TARGET_LID,
    FlatFunction,
)
from repro.ir.instructions import INVERTED_RELOP
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import (
    condbr_iid,
    jump_iid,
    retarget_iid,
    terminator_iid,
)


def _final_target(start: int, trivial: Dict[int, int]) -> int:
    """Follow a chain of jump-only blocks; stop on a cycle."""
    seen = {start}
    current = start
    while current in trivial:
        following = trivial[current]
        if following in seen:
            break
        seen.add(following)
        current = following
    return current


class BranchChaining(Phase):
    """Table 1: "Replaces a branch or jump target with the target of
    the last jump in the jump chain."

    Per section 5.1 of the paper, unreachable code occasionally left
    behind by branch chaining is removed during branch chaining itself
    (it would otherwise hinder later analyses); a standalone
    unreachable-code phase (d) still exists.
    """

    id = "b"
    name = "branch chaining"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        trivial: Dict[int, int] = {}
        for lid, block in zip(flat.labels, flat.blocks):
            if len(block) == 1 and KIND[block[0]] == K_JUMP:
                trivial[lid] = TARGET_LID[block[0]]

        changed = False
        for block in flat.blocks:
            term = terminator_iid(block)
            if term < 0:
                continue
            if KIND[term] in (K_JUMP, K_CONDBR):
                final = _final_target(TARGET_LID[term], trivial)
                if final != TARGET_LID[term]:
                    block[-1] = retarget_iid(term, final)
                    changed = True

        if changed:
            flat.invalidate_analyses()
            reachable = flat_cfg_of(flat).reachable
            flat.blocks = [
                block for i, block in enumerate(flat.blocks) if i in reachable
            ]
            flat.labels = [
                lid for i, lid in enumerate(flat.labels) if i in reachable
            ]
            flat.invalidate_analyses()
        return changed


class RemoveUnreachableCode(Phase):
    """Table 1: "Removes basic blocks that cannot be reached from the
    function entry block." """

    id = "d"
    name = "remove unreachable code"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        reachable = flat_cfg_of(flat).reachable
        if len(reachable) == len(flat.blocks):
            return False
        flat.blocks = [
            block for i, block in enumerate(flat.blocks) if i in reachable
        ]
        flat.labels = [lid for i, lid in enumerate(flat.labels) if i in reachable]
        flat.invalidate_analyses()
        return True


class BlockReordering(Phase):
    """Table 1: "Removes a jump by reordering blocks when the target of
    the jump has only a single predecessor."

    A jump to the next positional block is simply deleted.  Otherwise
    the target block moves to just after the jumping block and the jump
    is deleted; the moved block must end in an explicit transfer (or
    fall through, in which case an explicit jump to its old positional
    successor is appended first).  Blocks ending in a conditional
    branch are not moved: their fallthrough successor cannot move with
    them.
    """

    id = "i"
    name = "block reordering"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while self._apply_once(flat):
            changed = True
        return changed

    @staticmethod
    def _apply_once(flat: FlatFunction) -> bool:
        cfg = flat_cfg_of(flat)
        n = len(flat.blocks)
        for i, block in enumerate(flat.blocks):
            term = terminator_iid(block)
            if term < 0 or KIND[term] != K_JUMP:
                continue
            target_lid = TARGET_LID[term]
            if i + 1 < n and flat.labels[i + 1] == target_lid:
                # Jump to the next positional block: delete it.
                block.pop()
                flat.invalidate_analyses()
                return True
            if target_lid == flat.labels[0]:
                continue
            j = flat.block_index(target_lid)
            if len(cfg.preds[j]) != 1:
                continue
            if target_lid == flat.labels[i]:
                continue
            moved = flat.blocks[j]
            moved_term = terminator_iid(moved)
            if moved_term >= 0 and KIND[moved_term] == K_CONDBR:
                continue  # cannot carry its fallthrough along
            if moved_term < 0:
                if j + 1 >= n:
                    continue
                moved.append(jump_iid(flat.labels[j + 1]))
            # Move the target block to just after the jumping block and
            # delete the jump.
            block.pop()
            source_lid = flat.labels[i]
            del flat.blocks[j]
            del flat.labels[j]
            insert_at = flat.block_index(source_lid) + 1
            flat.blocks.insert(insert_at, moved)
            flat.labels.insert(insert_at, target_lid)
            flat.invalidate_analyses()
            return True
        return False


class ReverseBranches(Phase):
    """Table 1: "Removes an unconditional jump by reversing a
    conditional branch branching over the jump."

    Pattern::

        B1:  ... ; IC=... ; PC=IC cc 0, L2
        B2:  PC=L3                            (only reached from B1)
        L2:  ...

    becomes::

        B1:  ... ; IC=... ; PC=IC !cc 0, L3
        L2:  ...
    """

    id = "r"
    name = "reverse branches"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while True:
            cfg = flat_cfg_of(flat)
            applied = False
            for i in range(len(flat.blocks) - 2):
                upper = flat.blocks[i]
                middle = flat.blocks[i + 1]
                term = terminator_iid(upper)
                if term < 0 or KIND[term] != K_CONDBR:
                    continue
                if TARGET_LID[term] != flat.labels[i + 2]:
                    continue
                if len(middle) != 1 or KIND[middle[0]] != K_JUMP:
                    continue
                if cfg.preds[i + 1] != [i]:
                    continue
                jump_target = TARGET_LID[middle[0]]
                if jump_target == flat.labels[i + 1]:
                    continue  # degenerate self-loop
                upper[-1] = condbr_iid(INVERTED_RELOP[RELOP[term]], jump_target)
                del flat.blocks[i + 1]
                del flat.labels[i + 1]
                flat.invalidate_analyses()
                applied = True
                changed = True
                break
            if not applied:
                return changed


class RemoveUselessJumps(Phase):
    """Table 1: "Removes jumps and branches whose target is the
    following positional block." """

    id = "u"
    name = "remove useless jumps"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        for i in range(len(flat.blocks) - 1):
            block = flat.blocks[i]
            term = terminator_iid(block)
            if term < 0:
                continue
            kind = KIND[term]
            if kind in (K_JUMP, K_CONDBR) and TARGET_LID[term] == flat.labels[i + 1]:
                block.pop()
                changed = True
        if changed:
            flat.invalidate_analyses()
        return changed
