"""The registers the calling convention defines on entry to a function.

The sanitizer's must-defined dataflow (DFA001/DFA002/CC002, in
:mod:`repro.staticanalysis.sanitize`) seeds the entry block with
:func:`entry_defined` of the function's :func:`declared_arity`; the
translation validator and the guard's difftester read the arity to
build argument vectors.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.ir.operands import Reg
from repro.machine.target import ARG_REGS, FP, SP


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
