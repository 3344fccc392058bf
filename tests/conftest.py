"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.frontend import compile_source
from repro.ir.flat import from_flat, to_flat
from repro.ir.function import Function, Program
from repro.machine.target import DEFAULT_TARGET
from repro.opt import apply_phase, implicit_cleanup, phase_by_id
from repro.vm import Interpreter

SUM_ARRAY_SRC = """
int a[100];
int sum_array(void) {
    int sum = 0;
    int i;
    for (i = 0; i < 100; i++)
        sum += a[i];
    return sum;
}
"""

GCD_SRC = """
int gcd(int a, int b) {
    while (b != 0) {
        int t = b;
        b = a % b;
        a = t;
    }
    return a;
}
"""

MAXI_SRC = "int maxi(int a, int b) { if (a > b) return a; return b; }"

SQUARE_SRC = "int square(int x) { return x * x; }"


def compile_fn(source: str, name: str) -> Function:
    """Compile one function from source and canonicalize it."""
    program = compile_source(source)
    func = program.function(name)
    implicit_cleanup(func)
    return func


def compile_prog(source: str) -> Program:
    return compile_source(source)


def run_value(program: Program, entry: str, args=(), fuel: int = 5_000_000):
    """Execute and return just the produced value."""
    return Interpreter(program, fuel=fuel).run(entry, args).value


def on_object(flat_fn):
    """Lift a FlatFunction mutator to an object-IR one: convert *func*
    to flat, run ``flat_fn(flat, *args)``, write the result back into
    *func*, and return what ``flat_fn`` returned.

    Surviving blocks keep their identity (the write-back refills them
    by label), so a test may hold a block across the call.
    """

    def run(func: Function, *args):
        flat = to_flat(func)
        result = flat_fn(flat, *args)
        kept = {block.label: block for block in func.blocks}
        from_flat(flat, into=func)
        for index, block in enumerate(func.blocks):
            if block.label in kept:
                kept[block.label].insts = block.insts
                func.blocks[index] = kept[block.label]
        return result

    return run


class ObjectPhase:
    """One raw pass of a phase (no implicit assignment or cleanup) on
    an object-IR function, through the phase's flat ``run``."""

    def __init__(self, phase):
        self.phase = phase
        # legality reads the flags both IR forms carry
        self.applicable = phase.applicable
        self._run = on_object(phase.run)

    def run(self, func: Function, target=DEFAULT_TARGET) -> bool:
        return self._run(func, target)


def apply_sequence(func: Function, sequence: str) -> str:
    """Apply a string of phase letters; return the active subsequence."""
    active = []
    for phase_id in sequence:
        if apply_phase(func, phase_by_id(phase_id)):
            active.append(phase_id)
    return "".join(active)


@pytest.fixture(scope="session")
def small_enumerations():
    """Enumerated spaces of three small functions (computed once)."""
    from repro.core.enumeration import EnumerationConfig, enumerate_space

    sources = [(SQUARE_SRC, "square"), (MAXI_SRC, "maxi"), (GCD_SRC, "gcd")]
    return [
        enumerate_space(compile_fn(src, name), EnumerationConfig())
        for src, name in sources
    ]


@pytest.fixture(scope="session")
def small_interactions(small_enumerations):
    from repro.core.interactions import analyze_interactions

    return analyze_interactions(small_enumerations)


@pytest.fixture
def sum_array_func() -> Function:
    return compile_fn(SUM_ARRAY_SRC, "sum_array")


@pytest.fixture
def gcd_func() -> Function:
    return compile_fn(GCD_SRC, "gcd")


@pytest.fixture
def maxi_func() -> Function:
    return compile_fn(MAXI_SRC, "maxi")


@pytest.fixture
def square_func() -> Function:
    return compile_fn(SQUARE_SRC, "square")
