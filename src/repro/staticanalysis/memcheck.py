"""Memory-access sanitizer: wild, misaligned and out-of-bounds checks.

A forward dataflow tracks, per program point, which registers hold a
*known* abstract address:

- ``("fp", c)`` — frame pointer plus constant,
- ``("glob", name, c)`` — a global's HI/LO pair plus constant,
- ``("hi", name)`` — the high half alone (waiting for its LO),
- ``("const", v)`` — a compile-time constant,
- ``UNKNOWN`` — anything else.

Unlike the frame-reference analysis (which must be conservative in the
*may-alias* direction), these checks fire only on **must** information:
a finding means the access is wrong on every execution that reaches
it, so joining two different values degrades to ``UNKNOWN`` and no
finding.  The codes extend the sanitizer catalogue:

========  =========================================================
MEM001    load from a compile-time-constant address (wild load)
MEM002    store to a compile-time-constant address (wild store)
MEM003    access at an address that is provably misaligned
MEM004    global access with a known offset outside the object
========  =========================================================

Programs never legitimately materialize data addresses as plain
constants — globals resolve through HI/LO relocation and frame slots
through ``fp`` — so a constant address is wild by construction
(MEM001/MEM002).  These checks run in the sanitizer's ``full`` mode,
where they catch frontend or phase bugs that frame-bounds checking
(FRAME003) cannot see: null and garbage pointers, unscaled global
indexing, and stores past a global's extent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.flat import FlatCFG, flat_cfg_of
from repro.ir.flat import INST_OBJS, LABEL_STRS, MEM_REFS, FlatFunction
from repro.ir.function import Program
from repro.ir.instructions import Assign, Instruction
from repro.ir.operands import BinOp, Const, Expr, Reg, Sym, UnOp
from repro.machine.target import FP

UNKNOWN = "unknown"

#: MEM code -> one-line summary (mirrors the sanitize.py catalogue)
CATALOG = {
    "MEM001": "load from a compile-time-constant address (wild load)",
    "MEM002": "store to a compile-time-constant address (wild store)",
    "MEM003": "access at an address that is provably misaligned",
    "MEM004": "global access with a known offset outside the object",
}


def _join(a, b):
    return a if a == b else UNKNOWN


def _eval(expr: Expr, state: Dict[Reg, object]):
    """Abstract address value of *expr* under *state*."""
    if isinstance(expr, Reg):
        if expr == FP:
            return ("fp", 0)
        return state.get(expr, UNKNOWN)
    if isinstance(expr, Const):
        if isinstance(expr.value, float):
            return UNKNOWN
        return ("const", expr.value)
    if isinstance(expr, Sym):
        return ("hi", expr.name) if expr.part == "hi" else UNKNOWN
    if isinstance(expr, BinOp):
        left = _eval(expr.left, state)
        # HI[g] + LO[g] completes a global base address.
        if (
            expr.op == "add"
            and left[0] == "hi"
            and isinstance(expr.right, Sym)
            and expr.right.part == "lo"
            and expr.right.name == left[1]
        ):
            return ("glob", left[1], 0)
        right = _eval(expr.right, state)
        if expr.op in ("add", "sub"):
            sign = 1 if expr.op == "add" else -1
            if left[0] == "const" and right[0] == "const":
                return ("const", left[1] + sign * right[1])
            if left[0] in ("fp", "const") and right[0] == "const":
                return (left[0], left[1] + sign * right[1])
            if left[0] == "glob" and right[0] == "const":
                return ("glob", left[1], left[2] + sign * right[1])
            if expr.op == "add" and right[0] in ("fp", "glob") and left[0] == "const":
                offset = right[-1] + left[1]
                return right[:-1] + (offset,)
            return UNKNOWN
        if expr.op == "mul" and left[0] == "const" and right[0] == "const":
            return ("const", left[1] * right[1])
        if expr.op == "lsl" and left[0] == "const" and right[0] == "const":
            if 0 <= right[1] < 32:
                return ("const", left[1] << right[1])
        return UNKNOWN
    if isinstance(expr, UnOp):
        operand = _eval(expr.operand, state)
        if expr.op == "neg" and operand[0] == "const":
            return ("const", -operand[1])
        return UNKNOWN
    return UNKNOWN  # Mem loads and anything else: data, not addresses


def _transfer(inst: Instruction, state: Dict[Reg, object]) -> None:
    if isinstance(inst, Assign) and isinstance(inst.dst, Reg):
        state[inst.dst] = _eval(inst.src, state)
        return
    for reg in inst.defs():
        state[reg] = UNKNOWN


def address_walk(flat: FlatFunction, cfg: FlatCFG, transfer, join, default):
    """Every memory reference of *flat*'s reachable blocks with the
    abstract state it is evaluated in.

    The forward dataflow the address checks share (this module's
    MEM001-MEM004 and the sanitizer's FRAME003): a state maps registers
    to abstract values, the entry block starts empty, *transfer*
    updates a state in place for one instruction object, and states
    meet register by register with *join*, *default* standing for a
    register a state does not hold.  Yields ``(label, index, mem,
    is_write, state)`` in reverse postorder, *state* being the state
    before instruction *index* (read it before the next item).
    """
    blocks = flat.blocks
    insts = INST_OBJS
    succs = cfg.succs
    in_states: List[Optional[Dict[Reg, object]]] = [None] * len(blocks)
    in_states[0] = {}
    # Reverse postorder reaches each block after its DFS parent, so
    # every block of the order has an in-state by the time it is read.
    changed = True
    while changed:
        changed = False
        for bi in cfg.rpo:
            current = dict(in_states[bi])
            for iid in blocks[bi]:
                transfer(insts[iid], current)
            for succ in succs[bi]:
                existing = in_states[succ]
                if existing is None:
                    in_states[succ] = dict(current)
                    changed = True
                    continue
                merged = {
                    reg: join(existing.get(reg, default), current.get(reg, default))
                    for reg in set(existing) | set(current)
                }
                if merged != existing:
                    in_states[succ] = merged
                    changed = True
    for bi in cfg.rpo:
        current = dict(in_states[bi])
        label = LABEL_STRS[flat.labels[bi]]
        for index, iid in enumerate(blocks[bi]):
            for mem, is_write in MEM_REFS[iid]:
                yield label, index, mem, is_write, current
            transfer(insts[iid], current)


def memory_findings(
    flat: FlatFunction,
    program: Optional[Program] = None,
    cfg: Optional[FlatCFG] = None,
) -> List["Finding"]:
    """Run the abstract-address dataflow and report MEM001-MEM004."""
    from repro.staticanalysis.sanitize import Finding

    if cfg is None:
        cfg = flat_cfg_of(flat)
    globals_words: Dict[str, int] = {}
    if program is not None:
        globals_words = {v.name: v.words for v in program.globals.values()}

    findings: List[Finding] = []
    for label, index, mem, is_write, state in address_walk(
        flat, cfg, _transfer, _join, UNKNOWN
    ):
        value = _eval(mem.addr, state)
        where = f"{label}#{index}"
        access = "store" if is_write else "load"
        if value[0] == "const":
            findings.append(
                Finding(
                    "MEM002" if is_write else "MEM001",
                    flat.name,
                    where,
                    f"wild {access} at constant address {value[1]}",
                )
            )
        elif value[0] in ("fp", "glob") and value[-1] % 4 != 0:
            findings.append(
                Finding(
                    "MEM003",
                    flat.name,
                    where,
                    f"misaligned {access} at offset {value[-1]} from {value[0]}",
                )
            )
        elif value[0] == "glob" and value[1] in globals_words:
            extent = 4 * globals_words[value[1]]
            offset = value[2]
            if offset < 0 or offset + 4 > extent:
                findings.append(
                    Finding(
                        "MEM004",
                        flat.name,
                        where,
                        f"global {access} at {value[1]}+{offset} is "
                        f"outside the object of {extent} bytes",
                    )
                )
    return findings
