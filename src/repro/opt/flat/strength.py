"""Phase q — strength reduction.

Table 1: "Replaces an expensive instruction with one or more cheaper
ones.  For this version of the compiler, this means changing a multiply
by a constant into a series of shift, adds, and subtracts."

A multiply ``t = a * c`` is rewritten when ``c`` has at most three set
bits (so the replacement sequence of shifts and shifted adds is cheaper
than the target's multiply cost); a negative constant additionally
pays one negate.  The ARM barrel shifter makes ``t = t + (a << k)`` a
single legal instruction.

The expansion is cached per (instruction, target) as interned ids, so
the pattern match and sequence construction happen once per distinct
multiply.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.ir.flat import (
    INST_OBJS,
    KIND,
    K_ASSIGN,
    FlatFunction,
    block_id,
    intern_inst,
)
from repro.ir.instructions import Assign, Instruction
from repro.ir.operands import BinOp, Const, Reg, UnOp
from repro.machine.target import Target
from repro.opt.base import Phase


def _set_bits(value: int) -> List[int]:
    bits = []
    position = 0
    while value:
        if value & 1:
            bits.append(position)
        value >>= 1
        position += 1
    bits.reverse()  # most significant first
    return bits


def expand_multiply(dst: Reg, src: Reg, constant: int, target: Target) -> Optional[List[Instruction]]:
    """Shift/add sequence computing ``dst = src * constant``, or None.

    Requires ``dst != src`` (the destination doubles as accumulator).
    """
    if dst == src:
        return None
    if constant == 0:
        return [Assign(dst, Const(0))]
    negative = constant < 0
    magnitude = -constant if negative else constant
    bits = _set_bits(magnitude)
    cost = len(bits) + (1 if negative else 0)
    if cost >= target.MUL_COST:
        return None
    first, rest = bits[0], bits[1:]
    insts: List[Instruction] = []
    if first == 0:
        insts.append(Assign(dst, src))
    else:
        insts.append(Assign(dst, BinOp("lsl", src, Const(first))))
    for bit in rest:
        if bit == 0:
            insts.append(Assign(dst, BinOp("add", dst, src)))
        else:
            insts.append(
                Assign(dst, BinOp("add", dst, BinOp("lsl", src, Const(bit))))
            )
    if negative:
        insts.append(Assign(dst, UnOp("neg", dst)))
    return insts

_EXPANSIONS: "weakref.WeakKeyDictionary[Target, Dict[int, Optional[Tuple[int, ...]]]]" = (
    weakref.WeakKeyDictionary()
)

#: per-target whole-block expansion: block id -> expanded tuple, or
#: ``False`` when no instruction in the block is an expandable multiply
_BLOCKS: "weakref.WeakKeyDictionary[Target, Dict[int, object]]" = (
    weakref.WeakKeyDictionary()
)
_BLOCKS_MAX = 1 << 18
_MISSING = object()


def _expansion(iid: int, target: Target) -> Optional[Tuple[int, ...]]:
    cache = _EXPANSIONS.get(target)
    if cache is None:
        cache = {}
        _EXPANSIONS[target] = cache
    if iid in cache:
        return cache[iid]
    result: Optional[Tuple[int, ...]] = None
    if KIND[iid] == K_ASSIGN:
        inst = INST_OBJS[iid]
        src = inst.src
        if (
            isinstance(src, BinOp)
            and src.op == "mul"
            and isinstance(src.left, Reg)
            and isinstance(src.right, Const)
            and isinstance(src.right.value, int)
        ):
            expanded = expand_multiply(inst.dst, src.left, src.right.value, target)
            if expanded is not None:
                result = tuple(intern_inst(new) for new in expanded)
    cache[iid] = result
    return result


class StrengthReduction(Phase):
    id = "q"
    name = "strength reduction"

    def run(self, flat: FlatFunction, target: Target) -> bool:
        cache = _BLOCKS.get(target)
        if cache is None:
            cache = {}
            _BLOCKS[target] = cache
        changed = False
        for bi, block in enumerate(flat.blocks):
            bid = block_id(tuple(block))
            result = cache.get(bid, _MISSING)
            if result is _MISSING:
                expanded_any = False
                new_block: List[int] = []
                for iid in block:
                    expansion = _expansion(iid, target)
                    if expansion is None:
                        new_block.append(iid)
                    else:
                        new_block.extend(expansion)
                        expanded_any = True
                result = tuple(new_block) if expanded_any else False
                if len(cache) >= _BLOCKS_MAX:
                    cache.clear()
                cache[bid] = result
            if result is not False:
                flat.blocks[bi] = list(result)
                changed = True
        if changed:
            flat.invalidate_analyses(keep_shape=True)
        return changed
