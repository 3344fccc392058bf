"""Def/use helpers for rewriting instructions."""

from __future__ import annotations

from typing import Dict

from repro.ir.instructions import Assign, Compare, Instruction
from repro.ir.operands import Expr, Mem, Reg, substitute


def rewrite_uses(inst: Instruction, mapping: Dict[Expr, Expr]) -> Instruction:
    """Rebuild *inst* with its *used* operands substituted per *mapping*.

    The destination register of an assignment is a definition and is
    never substituted; the address of a store destination is a use and
    is substituted.
    """
    if isinstance(inst, Assign):
        src = substitute(inst.src, mapping)
        dst = inst.dst
        if isinstance(dst, Mem):
            new_addr = substitute(dst.addr, mapping)
            if new_addr is not dst.addr:
                dst = Mem(new_addr)
        if src is inst.src and dst is inst.dst:
            return inst
        return Assign(dst, src)
    if isinstance(inst, Compare):
        left = substitute(inst.left, mapping)
        right = substitute(inst.right, mapping)
        if left is inst.left and right is inst.right:
            return inst
        return Compare(left, right)
    return inst


def rewrite_registers(inst: Instruction, regmap: Dict[Reg, Reg]) -> Instruction:
    """Rebuild *inst* with registers renamed per *regmap* (defs and uses)."""
    if isinstance(inst, Assign):
        src = substitute(inst.src, regmap)
        dst = inst.dst
        if isinstance(dst, Reg):
            dst = regmap.get(dst, dst)
        else:
            new_addr = substitute(dst.addr, regmap)
            if new_addr is not dst.addr:
                dst = Mem(new_addr)
        if src is inst.src and dst is inst.dst:
            return inst
        return Assign(dst, src)
    if isinstance(inst, Compare):
        left = substitute(inst.left, regmap)
        right = substitute(inst.right, regmap)
        if left is inst.left and right is inst.right:
            return inst
        return Compare(left, right)
    return inst
