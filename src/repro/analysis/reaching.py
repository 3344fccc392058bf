"""Reaching-definitions style definedness analysis.

The sanitizer's def-before-use check needs to know, at every program
point, which registers are *definitely defined* (some definition
reaches the point along **every** path from the entry).  A use of a
register outside that set may read garbage — on real hardware that is
undefined behaviour; our VM papers over it by reading 0.  The same forward
walk tracks whether a :class:`~repro.ir.instructions.Compare` reaches
each point, so a conditional branch whose condition code may be unset
can be diagnosed statically.

This is the must-variant of reaching definitions: sets intersect at
joins and the entry block starts from the calling convention's defined
set (argument registers, frame and stack pointers).  Unreachable
blocks are left at TOP — they never execute, so uses inside them are
not reported (the ``d`` phase deletes them eventually).

Calls define the caller-saved registers (``r0``–``r3``) and preserve
everything else, including the condition code: the VM gives every
frame its own ``cc``, so a call can never clobber the caller's
compare result.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.ir.cfg import CFG, build_cfg
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Return
from repro.ir.operands import Reg
from repro.machine.target import ARG_REGS, FP, RV, SP

#: registers the calling convention guarantees are defined on entry:
#: the four argument registers plus the frame and stack pointers.
ENTRY_DEFINED: FrozenSet[Reg] = frozenset(ARG_REGS) | {FP, SP}


def declared_arity(func) -> int:
    """Parameter count of *func* (a :class:`Function` or a flat one).

    The frontend does not populate ``params``; each parameter instead
    owns an ``is_param`` frame slot (its home after the entry spill),
    and no phase ever removes frame slots — so the slot count is the
    declared arity wherever it exceeds the ``params`` list.
    """
    slots = sum(1 for slot in func.frame.values() if slot.is_param)
    return max(len(func.params), slots)


def entry_defined(arity: int) -> FrozenSet[Reg]:
    """Registers defined on entry to a function of *arity* parameters.

    The convention guarantees only as many argument registers as the
    function declares parameters; seeding all four would make the
    return-value register (= the first argument register) look defined
    in zero-argument functions and mask uninitialized returns.
    """
    return frozenset(ARG_REGS[:arity]) | {FP, SP}


def entry_defined_for(func) -> FrozenSet[Reg]:
    """Registers actually defined on entry to *func*."""
    return entry_defined(declared_arity(func))


_MAX_ITERATIONS = 10_000


class Definedness:
    """Per-block definitely-defined register sets and cc state.

    ``defined_in[label]`` / ``defined_out[label]`` are frozensets of
    :class:`Reg`; ``cc_in[label]`` / ``cc_out[label]`` are booleans
    (condition code definitely set).  Unreachable blocks are absent
    from all four maps.
    """

    __slots__ = ("defined_in", "defined_out", "cc_in", "cc_out", "_func")

    def __init__(
        self,
        defined_in: Dict[str, FrozenSet[Reg]],
        defined_out: Dict[str, FrozenSet[Reg]],
        cc_in: Dict[str, bool],
        cc_out: Dict[str, bool],
        func: Function,
    ) -> None:
        self.defined_in = defined_in
        self.defined_out = defined_out
        self.cc_in = cc_in
        self.cc_out = cc_out
        self._func = func

    def walk(self, label: str) -> Iterator[Tuple[Instruction, FrozenSet[Reg], bool]]:
        """Yield ``(inst, defined_before, cc_defined_before)`` for each
        instruction of a reachable block, in order."""
        defined = set(self.defined_in[label])
        cc = self.cc_in[label]
        for inst in self._func.block(label).insts:
            yield inst, frozenset(defined), cc
            defined |= inst.defs()
            if inst.sets_cc():
                cc = True


def _transfer(
    insts, defined: FrozenSet[Reg], cc: bool
) -> Tuple[FrozenSet[Reg], bool]:
    out = set(defined)
    for inst in insts:
        out |= inst.defs()
        if inst.sets_cc():
            cc = True
    return frozenset(out), cc


def compute_definedness(
    func: Function,
    cfg: Optional[CFG] = None,
    entry_defined: FrozenSet[Reg] = ENTRY_DEFINED,
) -> Definedness:
    """Run the forward must-defined fixpoint over *func*."""
    if cfg is None:
        cfg = build_cfg(func)
    entry = func.entry.label
    order = [label for label in cfg.order if label in cfg.reachable(entry)]
    defined_in: Dict[str, FrozenSet[Reg]] = {entry: frozenset(entry_defined)}
    defined_out: Dict[str, FrozenSet[Reg]] = {}
    cc_in: Dict[str, bool] = {entry: False}
    cc_out: Dict[str, bool] = {}
    blocks = func.block_map()
    changed = True
    iterations = 0
    while changed:
        iterations += 1
        if iterations > _MAX_ITERATIONS:  # pragma: no cover - defensive
            raise RuntimeError(f"{func.name}: definedness did not converge")
        changed = False
        for label in order:
            if label != entry:
                merged = None
                merged_cc = True
                for pred in cfg.preds.get(label, ()):
                    if pred not in defined_out:
                        continue  # optimistic TOP: not yet computed
                    out = defined_out[pred]
                    merged = out if merged is None else merged & out
                    merged_cc = merged_cc and cc_out[pred]
                if merged is None:
                    continue  # only TOP predecessors so far
                defined_in[label] = merged
                cc_in[label] = merged_cc
            new_out, new_cc = _transfer(
                blocks[label].insts, defined_in[label], cc_in[label]
            )
            if defined_out.get(label) != new_out or cc_out.get(label) != new_cc:
                defined_out[label] = new_out
                cc_out[label] = new_cc
                changed = True
    return Definedness(defined_in, defined_out, cc_in, cc_out, func)


def uninitialized_uses(func: Function, cfg: Optional[CFG] = None):
    """Yield ``(label, index, inst, regs)`` for every instruction whose
    register uses may be uninitialized, plus cc/return diagnostics.

    Each yielded ``regs`` is the frozenset of maybe-undefined registers
    read by the instruction.  Condition-code problems are yielded with
    ``regs is None`` (the instruction is a :class:`CondBranch` whose cc
    may be unset).  ``Return`` in a value-returning function is treated
    as a use of the return-value register.
    """
    if cfg is None:
        cfg = build_cfg(func)
    state = compute_definedness(func, cfg, entry_defined_for(func))
    for label in cfg.order:
        if label not in state.defined_in:
            continue  # unreachable: never executes
        for index, (inst, defined, cc) in enumerate(state.walk(label)):
            uses = inst.uses()
            if isinstance(inst, Return) and func.returns_value:
                uses = uses | {RV}
            missing = frozenset(reg for reg in uses if reg not in defined)
            if missing:
                yield label, index, inst, missing
            if inst.uses_cc() and not cc:
                yield label, index, inst, None
