"""Shared per-instruction helpers and caches for the phase kernels.

Every helper here is a pure function of interned instruction ids (plus
a target for legality questions), so results are cached globally and
amortize across the whole enumeration: the same few thousand distinct
instructions recur across millions of phase attempts, and rewriting,
folding, legalizing, or classifying each one is paid once.

Cache keys never include :class:`FlatFunction` state — anything
function-dependent (liveness, dominators, frame layout) stays in
:mod:`repro.analysis.flat` or in the kernel itself.  Pair-keyed caches
are capped and cleared wholesale on overflow; they refill in one pass.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.analysis.defuse import rewrite_registers, rewrite_uses
from repro.ir.flat import (
    DEF_MASK,
    DEF_RID,
    FLAGS,
    F_TRANSFER,
    INST_OBJS,
    KIND,
    K_ASSIGN,
    K_CALL,
    K_COMPARE,
    K_JUMP,
    K_STORE,
    NUM_SEEDED_HW,
    REG_OBJS,
    RELOP,
    USE_MASK,
    intern_inst,
    iter_rids,
    reg_id,
)
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Instruction,
    Jump,
)
from repro.ir.operands import COMMUTATIVE_OPS, BinOp, Const, Expr, Mem, Reg, fold
from repro.machine.target import ALLOCATABLE, FP, Target

HW_MASK = (1 << NUM_SEEDED_HW) - 1
#: AND with this to keep only pseudo-register bits (rid >= NUM_SEEDED_HW)
PSEUDO_CLEAR = ~HW_MASK
ALLOC_MASK = 0
for _c in ALLOCATABLE:
    ALLOC_MASK |= 1 << _c
FP_RID = reg_id(FP)
FP_BIT = 1 << FP_RID

_CACHE_MAX = 1 << 18


def terminator_iid(block: List[int]) -> int:
    """The block's terminator instruction id, or -1 (mirrors
    ``BasicBlock.terminator()`` returning None)."""
    if block and FLAGS[block[-1]] & F_TRANSFER:
        return block[-1]
    return -1


# ----------------------------------------------------------------------
# Interned branch constructors
# ----------------------------------------------------------------------

_JUMPS: Dict[int, int] = {}
_CONDBRS: Dict[Tuple[str, int], int] = {}


def jump_iid(lid: int) -> int:
    iid = _JUMPS.get(lid)
    if iid is None:
        from repro.ir.flat import LABEL_STRS

        iid = intern_inst(Jump(LABEL_STRS[lid]))
        _JUMPS[lid] = iid
    return iid


def condbr_iid(relop: str, lid: int) -> int:
    key = (relop, lid)
    iid = _CONDBRS.get(key)
    if iid is None:
        from repro.ir.flat import LABEL_STRS

        iid = intern_inst(CondBranch(relop, LABEL_STRS[lid]))
        _CONDBRS[key] = iid
    return iid


def retarget_iid(iid: int, lid: int) -> int:
    """The jump or conditional branch *iid* aimed at label *lid*."""
    return jump_iid(lid) if KIND[iid] == K_JUMP else condbr_iid(RELOP[iid], lid)


# ----------------------------------------------------------------------
# Per-instruction helpers over instruction objects (cached by id below)
# ----------------------------------------------------------------------


def _legalize(inst: Instruction, target: Target) -> Optional[Instruction]:
    """Return a legal variant of *inst*, swapping commutative operands
    if that helps, or None when no legal form exists."""
    if target.is_legal(inst):
        return inst
    if (
        isinstance(inst, Assign)
        and isinstance(inst.src, BinOp)
        and inst.src.op in COMMUTATIVE_OPS
    ):
        swapped = Assign(inst.dst, BinOp(inst.src.op, inst.src.right, inst.src.left))
        if target.is_legal(swapped):
            return swapped
    return None


def _literal_slot_offset(mem: Mem) -> Optional[int]:
    """fp-relative offset when the address is literally fp(+const)."""
    addr = mem.addr
    if addr == FP:
        return 0
    if (
        isinstance(addr, BinOp)
        and addr.op == "add"
        and addr.left == FP
        and isinstance(addr.right, Const)
        and isinstance(addr.right.value, int)
    ):
        return addr.right.value
    return None


def _fold_instruction(inst: Instruction) -> Instruction:
    """Constant-fold an assignment's or comparison's operands."""
    if isinstance(inst, Assign):
        src = fold(inst.src)
        dst = inst.dst
        if isinstance(dst, Mem):
            addr = fold(dst.addr)
            if addr is not dst.addr:
                dst = Mem(addr)
        if src is inst.src and dst is inst.dst:
            return inst
        return Assign(dst, src)
    if isinstance(inst, Compare):
        left = fold(inst.left)
        right = fold(inst.right)
        if left is inst.left and right is inst.right:
            return inst
        return Compare(left, right)
    return inst


# ----------------------------------------------------------------------
# Legality and legalization (per target)
# ----------------------------------------------------------------------

_LEGAL: "weakref.WeakKeyDictionary[Target, Dict[int, bool]]" = (
    weakref.WeakKeyDictionary()
)
_LEGALIZE: "weakref.WeakKeyDictionary[Target, Dict[int, int]]" = (
    weakref.WeakKeyDictionary()
)


def legal_cache(target: Target) -> Dict[int, bool]:
    cache = _LEGAL.get(target)
    if cache is None:
        cache = {}
        _LEGAL[target] = cache
    return cache


def is_legal_iid(iid: int, target: Target, cache: Optional[Dict[int, bool]] = None) -> bool:
    if cache is None:
        cache = legal_cache(target)
    legal = cache.get(iid)
    if legal is None:
        legal = target.is_legal(INST_OBJS[iid])
        cache[iid] = legal
    return legal


def legalize_iid(iid: int, target: Target) -> int:
    """:func:`_legalize` over ids: a legal variant's id, or -1."""
    cache = _LEGALIZE.get(target)
    if cache is None:
        cache = {}
        _LEGALIZE[target] = cache
    result = cache.get(iid)
    if result is None:
        legal = _legalize(INST_OBJS[iid], target)
        result = intern_inst(legal) if legal is not None else -1
        cache[iid] = result
    return result


# ----------------------------------------------------------------------
# Rewriting and folding
# ----------------------------------------------------------------------

_REWRITE_USES: Dict[Tuple, int] = {}
_REWRITE_REGS: Dict[Tuple, int] = {}
_FOLD: Dict[int, int] = {}


def rewrite_uses_iid(iid: int, pairs: Tuple) -> int:
    """``rewrite_uses`` over ids; *pairs* is ((rid, expr), ...)."""
    key = (iid, pairs)
    result = _REWRITE_USES.get(key)
    if result is None:
        mapping = {REG_OBJS[rid]: expr for rid, expr in pairs}
        result = intern_inst(rewrite_uses(INST_OBJS[iid], mapping))
        if len(_REWRITE_USES) >= _CACHE_MAX:
            _REWRITE_USES.clear()
        _REWRITE_USES[key] = result
    return result


def rewrite_regs_iid(iid: int, pairs: Tuple) -> int:
    """``rewrite_registers`` over ids; *pairs* is ((rid, hw_index), ...)."""
    if not pairs:
        return iid
    key = (iid, pairs)
    result = _REWRITE_REGS.get(key)
    if result is None:
        mapping = {
            REG_OBJS[rid]: Reg(index, pseudo=False) for rid, index in pairs
        }
        result = intern_inst(rewrite_registers(INST_OBJS[iid], mapping))
        if len(_REWRITE_REGS) >= _CACHE_MAX:
            _REWRITE_REGS.clear()
        _REWRITE_REGS[key] = result
    return result


def fold_iid(iid: int) -> int:
    """:func:`_fold_instruction` over ids."""
    result = _FOLD.get(iid)
    if result is None:
        result = intern_inst(_fold_instruction(INST_OBJS[iid]))
        _FOLD[iid] = result
    return result


# ----------------------------------------------------------------------
# Source classification (Assign-to-register payloads)
# ----------------------------------------------------------------------

SRC_NONE = 0  # not a register assignment
SRC_CONST = 1  # dst = Const        (payload: the Const)
SRC_COPY = 2  # dst = Reg          (payload: the source rid)
SRC_EXPR = 3  # dst = BinOp/UnOp/Sym (payload: the expression)
SRC_LOAD = 4  # dst = Mem          (payload: the Mem expression)

_SRC_INFO: Dict[int, Tuple[int, object]] = {}


def src_info(iid: int) -> Tuple[int, object]:
    info = _SRC_INFO.get(iid)
    if info is None:
        if KIND[iid] != K_ASSIGN:
            info = (SRC_NONE, None)
        else:
            src = INST_OBJS[iid].src
            if isinstance(src, Const):
                info = (SRC_CONST, src)
            elif isinstance(src, Reg):
                info = (SRC_COPY, reg_id(src))
            elif isinstance(src, Mem):
                info = (SRC_LOAD, src)
            else:
                info = (SRC_EXPR, src)
        _SRC_INFO[iid] = info
    return info


# ----------------------------------------------------------------------
# Memory shape facts
# ----------------------------------------------------------------------

#: store iid -> literal fp-relative slot offset or None
_STORE_SLOT: Dict[int, Optional[int]] = {}
#: expression -> None (no memory) or tuple of per-Mem literal offsets
_EXPR_MEM_SLOTS: Dict[Expr, Optional[Tuple]] = {}


def store_slot(iid: int) -> Optional[int]:
    """:func:`_literal_slot_offset` of a store's destination."""
    if iid in _STORE_SLOT:
        return _STORE_SLOT[iid]
    slot = _literal_slot_offset(INST_OBJS[iid].dst)
    _STORE_SLOT[iid] = slot
    return slot


def expr_mem_slots(expr: Expr) -> Optional[Tuple]:
    """Literal slot offsets of every Mem in *expr*; None when memory-free."""
    if expr in _EXPR_MEM_SLOTS:
        return _EXPR_MEM_SLOTS[expr]
    mems = [node for node in expr.walk() if isinstance(node, Mem)]
    slots = tuple(_literal_slot_offset(mem) for mem in mems) if mems else None
    if len(_EXPR_MEM_SLOTS) >= _CACHE_MAX:
        _EXPR_MEM_SLOTS.clear()
    _EXPR_MEM_SLOTS[expr] = slots
    return slots


# ----------------------------------------------------------------------
# Textual register use counts (instruction selection)
# ----------------------------------------------------------------------

#: iid -> ((rid, textual use count), ...)
_USE_COUNTS: Dict[int, Tuple] = {}


def use_counts(iid: int) -> Tuple:
    counts = _USE_COUNTS.get(iid)
    if counts is not None:
        return counts
    inst = INST_OBJS[iid]
    tally: Dict[int, int] = {}

    def scan(expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Reg):
                rid = reg_id(node)
                tally[rid] = tally.get(rid, 0) + 1

    if isinstance(inst, Assign):
        scan(inst.src)
        if isinstance(inst.dst, Mem):
            scan(inst.dst.addr)
    elif isinstance(inst, Compare):
        scan(inst.left)
        scan(inst.right)
    elif isinstance(inst, Call):
        for reg in inst.uses():
            rid = reg_id(reg)
            tally[rid] = tally.get(rid, 0) + 1
    counts = tuple(sorted(tally.items()))
    _USE_COUNTS[iid] = counts
    return counts

