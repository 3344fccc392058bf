"""Phase n — code abstraction.

Table 1: "Performs cross-jumping and code-hoisting to move identical
instructions from basic blocks to their common predecessor or
successor."

Cross-jumping: when every predecessor of a block reaches it
unconditionally (by jump or fallthrough) and all predecessors end with
the same instruction suffix, the suffix is moved into the successor.

Code hoisting: when both successors of a conditional branch have the
branching block as their only predecessor and begin with the same
instruction, that instruction is moved up into the branching block
(after its compare — a moved compare would clobber the condition code,
so compares are never hoisted).

Instruction equality is id equality under hash-consing, so the common
suffix scan and the hoist comparison are integer compares.
"""

from __future__ import annotations

from typing import List

from repro.analysis.flat import flat_cfg_of
from repro.ir.flat import (
    FLAGS,
    F_TRANSFER,
    KIND,
    K_COMPARE,
    K_CONDBR,
    FlatFunction,
)
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import terminator_iid


def _body(block: List[int]) -> List[int]:
    term = terminator_iid(block)
    return block[:-1] if term >= 0 else list(block)


class CodeAbstraction(Phase):
    id = "n"
    name = "code abstraction"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while self._cross_jump_once(flat) or self._hoist_once(flat):
            changed = True
        return changed

    # ------------------------------------------------------------------
    # Cross-jumping
    # ------------------------------------------------------------------

    def _cross_jump_once(self, flat: FlatFunction) -> bool:
        cfg = flat_cfg_of(flat)
        for bi in range(len(flat.blocks)):
            preds = cfg.preds[bi]
            if len(preds) < 2 or bi == 0:
                continue
            if bi in preds:
                continue
            if any(
                not self._unconditionally_reaches(flat, p, bi, cfg)
                for p in preds
            ):
                continue
            bodies = [_body(flat.blocks[p]) for p in preds]
            suffix_len = self._common_suffix_length(bodies)
            if suffix_len == 0:
                continue
            suffix = bodies[0][-suffix_len:]
            for p, body in zip(preds, bodies):
                term = terminator_iid(flat.blocks[p])
                keep = body[:-suffix_len]
                flat.blocks[p] = keep + ([term] if term >= 0 else [])
            flat.blocks[bi][0:0] = suffix
            flat.invalidate_analyses()
            return True
        return False

    @staticmethod
    def _unconditionally_reaches(flat, pred_bi: int, bi: int, cfg) -> bool:
        term = terminator_iid(flat.blocks[pred_bi])
        if term >= 0 and KIND[term] == K_CONDBR:
            return False
        return cfg.succs[pred_bi] == [bi]

    @staticmethod
    def _common_suffix_length(bodies: List[List[int]]) -> int:
        limit = min(len(body) for body in bodies)
        length = 0
        while length < limit:
            candidate = bodies[0][-(length + 1)]
            if FLAGS[candidate] & F_TRANSFER:
                break
            if all(body[-(length + 1)] == candidate for body in bodies[1:]):
                length += 1
            else:
                break
        return length

    # ------------------------------------------------------------------
    # Code hoisting
    # ------------------------------------------------------------------

    def _hoist_once(self, flat: FlatFunction) -> bool:
        cfg = flat_cfg_of(flat)
        for bi, block in enumerate(flat.blocks):
            term = terminator_iid(block)
            if term < 0 or KIND[term] != K_CONDBR:
                continue
            succs = cfg.succs[bi]
            if len(succs) != 2:
                continue
            taken_bi, fallthrough_bi = succs
            if cfg.preds[taken_bi] != [bi]:
                continue
            if cfg.preds[fallthrough_bi] != [bi]:
                continue
            taken = flat.blocks[taken_bi]
            fallthrough = flat.blocks[fallthrough_bi]
            hoisted = False
            while taken and fallthrough:
                first = taken[0]
                if first != fallthrough[0]:
                    break
                if FLAGS[first] & F_TRANSFER or KIND[first] == K_COMPARE:
                    break
                # Insert just before the conditional branch: the branch
                # reads the already-computed condition code.
                block.insert(len(block) - 1, first)
                taken.pop(0)
                fallthrough.pop(0)
                hoisted = True
            if hoisted:
                flat.invalidate_analyses()
                return True
        return False
