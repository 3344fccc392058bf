"""Phase c — common subexpression elimination.

Table 1: "Performs global analysis to eliminate fully redundant
calculations, which also includes global constant and copy
propagation."

Like VPO's, this phase requires register assignment to have been
performed (section 5.2 of the paper notes c and k always disable o for
this reason).

Three cooperating parts, iterated to a fixpoint:

1. *Local value numbering* per block: constant and copy propagation
   through a running value table, plus replacement of recomputed
   expressions (including slot loads) with a copy from the register
   already holding the value.  Replacements are committed only when the
   rewritten RTL stays a legal machine instruction (commutative
   operands are swapped when that legalizes a constant).
2. *Global constant/copy propagation* over single-definition registers,
   guarded by dominance.
3. *Global CSE* over single-definition registers: a computation
   ``rB = e`` dominated by an identical ``rA = e`` (pure register
   expression, operands single-definition) becomes ``rB = rA``.

Constant *folding* is not done here — that belongs to instruction
selection (s), exactly as in VPO; the division of labour is what makes
c and s overlap on cases like Figure 3 of the paper.

The hottest phase of the enumeration.  The local value table keys
constants/copies by rid and expression holders by the interned source
expression; global propagation and CSE use the flat dominator tree
over block indices.  Rewrites, legalization, and slot classification
all go through the shared per-instruction caches, so each distinct
(instruction, substitution) pair is built once per process rather than
once per attempt.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import weakref

from repro.analysis.flat import (
    flat_cfg_of,
    flat_dominators_of,
    flat_single_defs_of,
)
from repro.ir.flat import (
    DEF_MASK,
    DEF_RID,
    FLAGS,
    F_READS_MEM,
    KIND,
    K_ASSIGN,
    K_CALL,
    K_STORE,
    REG_OBJS,
    USE_MASK,
    FlatFunction,
    block_id,
    intern_inst,
    iter_rids,
)
from repro.ir.instructions import Assign
from repro.ir.operands import Expr, Reg
from repro.machine.target import Target
from repro.opt.base import Phase
from repro.opt.flat.support import (
    FP_BIT,
    FP_RID,
    SRC_CONST,
    SRC_COPY,
    SRC_EXPR,
    SRC_LOAD,
    expr_mem_slots,
    legalize_iid,
    rewrite_uses_iid,
    src_info,
    store_slot,
)

#: (dst rid, src rid) -> interned ``dst = src`` copy instruction
_COPIES: Dict[Tuple[int, int], int] = {}


def _copy_iid(dst_rid: int, src_rid: int) -> int:
    key = (dst_rid, src_rid)
    iid = _COPIES.get(key)
    if iid is None:
        iid = intern_inst(Assign(REG_OBJS[dst_rid], REG_OBJS[src_rid]))
        _COPIES[key] = iid
    return iid


#: per-target cache of whole-block local value numbering: the table
#: starts empty at each block head, so the outcome is a pure function
#: of (block content, target) — ``False`` marks an unchanged block
_LVN: "weakref.WeakKeyDictionary[Target, Dict[int, object]]" = (
    weakref.WeakKeyDictionary()
)
_LVN_MAX = 1 << 18
_MISSING = object()


def _lvn_cache(target: Target) -> Dict[int, object]:
    cache = _LVN.get(target)
    if cache is None:
        cache = {}
        _LVN[target] = cache
    return cache


class _ValueTable:
    """Running value state for local value numbering (rid-keyed).

    Three register masks skip walks that cannot match: ``subst_mask``
    holds the registers with a constant or copy entry (exact),
    ``origin_mask`` the registers some copy entry names as its origin,
    and ``named_mask`` the registers a tabled expression names as its
    holder or operand (both may keep bits of entries since dropped)."""

    __slots__ = (
        "const_of",
        "copy_of",
        "holder_of",
        "holder_mask",
        "subst_mask",
        "origin_mask",
        "named_mask",
    )

    def __init__(self):
        self.const_of: Dict[int, Expr] = {}
        self.copy_of: Dict[int, int] = {}
        self.holder_of: Dict[Expr, int] = {}
        self.holder_mask: Dict[Expr, int] = {}
        self.subst_mask = 0
        self.origin_mask = 0
        self.named_mask = 0

    def substitution(self, iid: int) -> Tuple:
        used = USE_MASK[iid] & self.subst_mask
        if not used:
            return ()
        pairs: List = []
        for rid in iter_rids(used):
            constant = self.const_of.get(rid)
            if constant is not None:
                pairs.append((rid, constant))
                continue
            origin = self.copy_of.get(rid)
            if origin is not None:
                pairs.append((rid, REG_OBJS[origin]))
        return tuple(pairs)

    def invalidate(self, rid: int) -> None:
        bit = 1 << rid
        if self.subst_mask & bit:
            self.const_of.pop(rid, None)
            self.copy_of.pop(rid, None)
            self.subst_mask &= ~bit
        if self.origin_mask & bit:
            copy_of = self.copy_of
            for key in [k for k, origin in copy_of.items() if origin == rid]:
                del copy_of[key]
                self.subst_mask &= ~(1 << key)
            self.origin_mask &= ~bit
        if self.named_mask & bit:
            holder_of = self.holder_of
            holder_mask = self.holder_mask
            for expr in [
                e
                for e, holder in holder_of.items()
                if holder == rid or holder_mask[e] & bit
            ]:
                del holder_of[expr]
                del holder_mask[expr]
            self.named_mask &= ~bit

    def invalidate_memory(self, slot: Optional[int]) -> None:
        """A store (to *slot*, when literal) or call happened."""
        doomed = []
        for expr in self.holder_of:
            mem_slots = expr_mem_slots(expr)
            if mem_slots is None:
                continue
            if slot is not None and all(
                s not in (None, slot) for s in mem_slots
            ):
                continue  # distinct known slots cannot alias
            doomed.append(expr)
        for expr in doomed:
            del self.holder_of[expr]
            del self.holder_mask[expr]

    def record(self, iid: int) -> None:
        dst = DEF_RID[iid]
        if dst < 0:
            for rid in iter_rids(DEF_MASK[iid]):  # calls clobber regs
                self.invalidate(rid)
            return
        self.invalidate(dst)
        cat, payload = src_info(iid)
        if cat == SRC_CONST:
            self.const_of[dst] = payload
            self.subst_mask |= 1 << dst
        elif cat == SRC_COPY:
            if payload != dst:
                origin = self.copy_of.get(payload, payload)
                self.copy_of[dst] = origin
                self.subst_mask |= 1 << dst
                self.origin_mask |= 1 << origin
        elif not USE_MASK[iid] >> dst & 1:
            # A self-referencing RTL (r1 = r1 + 4) computes a value the
            # expression text no longer denotes; never table it.
            if payload not in self.holder_of:
                self.holder_of[payload] = dst
                self.holder_mask[payload] = USE_MASK[iid]
                self.named_mask |= 1 << dst | USE_MASK[iid]


class CommonSubexpressionElimination(Phase):
    id = "c"
    name = "common subexpression elimination"
    requires_assignment = True
    #: contract: triggers compulsory register assignment when needed
    contract_establishes = ("registers-assigned", "no-pseudo-registers")

    def run(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        while True:
            step = self._local_value_numbering(flat, target)
            step |= self._global_propagation(flat, target)
            step |= self._global_cse(flat, target)
            if not step:
                return changed
            changed = True

    # ------------------------------------------------------------------
    # Part 1: local value numbering
    # ------------------------------------------------------------------

    def _local_value_numbering(self, flat: FlatFunction, target: Target) -> bool:
        changed = False
        cache = _lvn_cache(target)
        for bi, block in enumerate(flat.blocks):
            bid = block_id(tuple(block))
            result = cache.get(bid, _MISSING)
            if result is _MISSING:
                new_block = self._lvn_block(block, target)
                result = tuple(new_block) if new_block is not None else False
                if len(cache) >= _LVN_MAX:
                    cache.clear()
                cache[bid] = result
            if result is not False:
                flat.blocks[bi] = list(result)
                changed = True
        if changed:
            flat.invalidate_analyses(keep_shape=True)
        return changed

    @staticmethod
    def _lvn_block(block, target: Target):
        """LVN one block; the new instruction list, or None if unchanged."""
        block = list(block)
        changed = False
        table = _ValueTable()
        for i in range(len(block)):
            iid = block[i]
            pairs = table.substitution(iid)
            if pairs:
                rewritten = rewrite_uses_iid(iid, pairs)
                if rewritten != iid:
                    legal = legalize_iid(rewritten, target)
                    if legal < 0:
                        # Try copies only (constants may be the
                        # illegal part).
                        copy_pairs = tuple(
                            (rid, value)
                            for rid, value in pairs
                            if isinstance(value, Reg)
                        )
                        if copy_pairs:
                            rewritten = rewrite_uses_iid(iid, copy_pairs)
                            legal = legalize_iid(rewritten, target)
                    if legal >= 0 and legal != iid:
                        block[i] = legal
                        iid = legal
                        changed = True
            # Redundant computation -> copy from the holder.
            dst = DEF_RID[iid]
            if dst >= 0:
                cat, src = src_info(iid)
                if cat == SRC_EXPR or cat == SRC_LOAD:
                    holder = table.holder_of.get(src)
                    if holder is not None and holder != dst:
                        replacement = _copy_iid(dst, holder)
                        block[i] = replacement
                        iid = replacement
                        changed = True
            # Effects on the table.
            kind = KIND[iid]
            if kind == K_CALL:
                table.invalidate_memory(None)
            elif kind == K_STORE:
                table.invalidate_memory(store_slot(iid))
            table.record(iid)
        return block if changed else None

    # ------------------------------------------------------------------
    # Part 2: global constant / copy propagation (single-def registers)
    # ------------------------------------------------------------------

    def _global_propagation(self, flat: FlatFunction, target: Target) -> bool:
        single_defs = flat_single_defs_of(flat)
        values: Dict[int, Expr] = {}
        for rid, iid in single_defs.items():
            cat, payload = src_info(iid)
            if cat == SRC_CONST:
                values[rid] = payload
            elif cat == SRC_COPY:
                if payload in single_defs or payload == FP_RID:
                    values[rid] = REG_OBJS[payload]
        if not values:
            return False
        return self._replace_dominated_uses(flat, target, values)

    # ------------------------------------------------------------------
    # Part 3: global CSE over single-def registers
    # ------------------------------------------------------------------

    def _global_cse(self, flat: FlatFunction, target: Target) -> bool:
        single_defs = flat_single_defs_of(flat)
        single_mask = 0
        for rid in single_defs:
            single_mask |= 1 << rid

        # Every candidate is a single-def register, so the existence of
        # a redundant pair is decidable from the def table alone: bail
        # before the whole-function scan unless two stable candidates
        # compute the same expression.
        sources: Dict[Expr, int] = {}
        duplicated = False
        for rid, iid in single_defs.items():
            cat, src = src_info(iid)
            if cat != SRC_EXPR:
                continue
            if FLAGS[iid] & F_READS_MEM:
                continue
            if USE_MASK[iid] & ~(single_mask | FP_BIT):
                continue
            if USE_MASK[iid] >> rid & 1:
                continue
            if src in sources:
                duplicated = True
                break
            sources[src] = rid
        if not duplicated:
            return False

        cfg = flat_cfg_of(flat)
        dom = flat_dominators_of(flat)
        reachable = set(dom.idom)
        position: Dict[int, Tuple[int, int]] = {}
        for bi, block in enumerate(flat.blocks):
            for i, iid in enumerate(block):
                dst = DEF_RID[iid]
                if dst >= 0 and dst in single_defs:
                    position[dst] = (bi, i)

        first_holder: Dict[Expr, int] = {}
        changed = False
        # Visit in a dominance-compatible order: reverse postorder.
        for bi in cfg.rpo:
            block = flat.blocks[bi]
            for i in range(len(block)):
                iid = block[i]
                dst = DEF_RID[iid]
                if dst < 0 or dst not in single_defs:
                    continue
                cat, src = src_info(iid)
                if cat != SRC_EXPR:
                    continue  # BinOp/UnOp/Sym sources only, never loads
                # stable: no memory reads, operands single-def or fp
                if FLAGS[iid] & F_READS_MEM:
                    continue
                if USE_MASK[iid] & ~(single_mask | FP_BIT):
                    continue
                if USE_MASK[iid] >> dst & 1:
                    continue  # self-referencing RTL: text != value
                holder = first_holder.get(src)
                if holder is None:
                    first_holder[src] = dst
                    continue
                holder_bi, holder_index = position[holder]
                dominated = (holder_bi == bi and holder_index < i) or (
                    holder_bi != bi
                    and holder_bi in reachable
                    and bi in reachable
                    and dom.strictly_dominates(holder_bi, bi)
                )
                if dominated and holder != dst:
                    block[i] = _copy_iid(dst, holder)
                    changed = True
        if changed:
            flat.invalidate_analyses(keep_shape=True)
        return changed

    # ------------------------------------------------------------------

    def _replace_dominated_uses(
        self, flat: FlatFunction, target: Target, values: Dict[int, Expr]
    ) -> bool:
        dom = flat_dominators_of(flat)
        reachable = set(dom.idom)
        position: Dict[int, Tuple[int, int]] = {}
        for bi, block in enumerate(flat.blocks):
            for i, iid in enumerate(block):
                dst = DEF_RID[iid]
                if dst >= 0 and dst in values:
                    position[dst] = (bi, i)
        values_mask = 0
        for rid in values:
            values_mask |= 1 << rid

        changed = False
        for bi, block in enumerate(flat.blocks):
            if bi not in reachable:
                continue
            for i in range(len(block)):
                iid = block[i]
                used = USE_MASK[iid] & values_mask
                if not used:
                    continue
                pairs: List = []
                for rid in iter_rids(used):
                    pos = position.get(rid)
                    if pos is None:
                        continue
                    def_bi, def_index = pos
                    if def_bi == bi:
                        if def_index >= i:
                            continue
                    elif not dom.strictly_dominates(def_bi, bi):
                        continue
                    pairs.append((rid, values[rid]))
                if not pairs:
                    continue
                pairs = tuple(pairs)
                rewritten = rewrite_uses_iid(iid, pairs)
                if rewritten == iid:
                    continue
                legal = legalize_iid(rewritten, target)
                if legal < 0:
                    copy_pairs = tuple(
                        (rid, value)
                        for rid, value in pairs
                        if isinstance(value, Reg)
                    )
                    if not copy_pairs:
                        continue
                    rewritten = rewrite_uses_iid(iid, copy_pairs)
                    legal = legalize_iid(rewritten, target)
                if legal >= 0 and legal != iid:
                    block[i] = legal
                    changed = True
        if changed:
            flat.invalidate_analyses(keep_shape=True)
        return changed
