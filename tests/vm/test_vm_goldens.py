"""Interpreter goldens: results, counters and errors, pinned exactly.

The VM is the oracle behind ``--difftest``, translation validation,
semantic collapse and the dynamic-count study, so its observable
behaviour is pinned here rather than against a second live
implementation.  ``tests/goldens/vm.json`` records:

- the six MiBench programs, as compiled and batch-compiled: the
  entry's value, ``total_insts``, ``per_function`` and ``cycles``,
  plus sha256 digests of the sorted ``block_counts`` and of the final
  memory under ``profile_blocks=True``;
- ``VMFuelExhausted`` on bitcount and dijkstra (both forms) at a few
  budgets up to one short of the run's total: the message and the
  three counters;
- every function of ``fuzz_source(0, 0..39)``, as compiled and
  batch-compiled, on two argument vectors derived from the program
  index and the function name, and on the second vector again at a
  budget of 37 instructions (each source's sha256 is pinned, so
  generator drift fails loudly instead of reading as a VM change);
- the text of each ``VMError`` the interpreter raises, from hand-built
  IR wherever the frontend cannot produce the case.

Regenerate (only for an intended change of the VM's behaviour)::

    PYTHONPATH=src python -m tests.vm.test_vm_goldens --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Callable, Dict, List, Optional

import pytest

from repro.analysis.reaching import declared_arity
from repro.core.batch import BatchCompiler
from repro.frontend import compile_source
from repro.frontend.fuzz import fuzz_source
from repro.ir.function import Function, GlobalVar, Program
from repro.ir.instructions import Assign, Instruction, Return
from repro.ir.operands import BinOp, Const, Expr, Mem, Reg, Sym, UnOp
from repro.programs import PROGRAMS
from repro.vm import Interpreter, VMError

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens",
    "vm.json",
)

FORMS = ("compiled", "batch")
FUEL_PROGRAMS = ("bitcount", "dijkstra")
FUZZ_INDICES = range(40)
FUZZ_FUEL = 100_000
#: a budget most fuzz functions exhaust, often inside a callee
FUZZ_SHORT_FUEL = 37


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load(source: str, form: str) -> Program:
    program = compile_source(source)
    if form == "batch":
        for func in program.functions.values():
            BatchCompiler().compile(func)
    return program


def counters(vm: Interpreter) -> Dict[str, object]:
    return {
        "total_insts": vm.total_insts,
        "per_function": dict(sorted(vm.per_function.items())),
        "cycles": vm.cycles,
    }


def outcome(vm: Interpreter, entry: str, args=()) -> Dict[str, object]:
    """The run's value and counters, or the error it raised."""
    try:
        result = vm.run(entry, args)
    except VMError as error:
        return {"error": type(error).__name__, "message": str(error)}
    entry = {"value": repr(result.value)}
    entry.update(counters(vm))
    entry["memory"] = sha256(repr(sorted(vm.memory.items())))
    return entry


# ----------------------------------------------------------------------
# Case groups (each returns a JSON-ready dict)
# ----------------------------------------------------------------------


def program_cases() -> Dict[str, object]:
    cases = {}
    for name in sorted(PROGRAMS):
        for form in FORMS:
            program = load(PROGRAMS[name].source, form)
            vm = Interpreter(program, profile_blocks=True)
            entry = outcome(vm, PROGRAMS[name].entry)
            entry["blocks"] = sha256(repr(sorted(vm.block_counts.items())))
            cases[f"{name}.{form}"] = entry
    return cases


def fuel_cases(programs: Dict[str, object]) -> Dict[str, object]:
    cases = {}
    for name in FUEL_PROGRAMS:
        for form in FORMS:
            program = load(PROGRAMS[name].source, form)
            total = programs[f"{name}.{form}"]["total_insts"]
            runs = {}
            for fuel in (1, 7, 123, total // 3, total - 1, total):
                vm = Interpreter(program, fuel=fuel)
                runs[str(fuel)] = outcome(vm, PROGRAMS[name].entry)
                runs[str(fuel)].update(counters(vm))
            cases[f"{name}.{form}"] = runs
    return cases


def vectors(index: int, func: Function) -> List[List[int]]:
    """Two argument vectors derived from the program index and name."""
    arity = declared_arity(func)
    result = []
    for k in range(2):
        digest = hashlib.sha256(f"{index}.{func.name}.{k}".encode()).digest()
        result.append([digest[j] - 128 for j in range(arity)])
    return result


def fuzz_cases() -> Dict[str, object]:
    cases = {}
    for index in FUZZ_INDICES:
        source = fuzz_source(0, index)
        entry: Dict[str, object] = {"source": sha256(source)}
        for form in FORMS:
            program = load(source, form)
            for name, func in sorted(program.functions.items()):
                for k, vector in enumerate(vectors(index, func)):
                    vm = Interpreter(program, fuel=FUZZ_FUEL)
                    entry[f"{form}.{name}.{k}"] = outcome(vm, name, vector)
                vm = Interpreter(program, fuel=FUZZ_SHORT_FUEL)
                short = entry[f"{form}.{name}.short"] = outcome(vm, name, vector)
                short.update(counters(vm))
        cases[f"fuzz0-{index}"] = entry
    return cases


class _Unknown(Instruction):
    """An instruction kind the interpreter has no semantics for."""

    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN;"


class _Opaque(Expr):
    """An expression kind the interpreter has no semantics for."""

    __slots__ = ()

    def __repr__(self):
        return "OPAQUE"


def hand_program(*insts: Instruction, returns_value: bool = True) -> Program:
    """``f`` with one block of *insts* (no ``Return`` is appended)."""
    program = Program()
    program.add_global(GlobalVar("g", 1, "int", [5]))
    func = Function("f", returns_value=returns_value)
    func.add_block("L0").insts.extend(insts)
    program.add_function(func)
    return program


R0, R1 = Reg(0, pseudo=False), Reg(1, pseudo=False)

#: case name -> (program builder, entry, args)
ERROR_CASES: Dict[str, Callable[[], tuple]] = {
    "unknown function": lambda: (hand_program(Return()), "missing", ()),
    "more than 4 arguments": lambda: (hand_program(Return()), "f", (1, 2, 3, 4, 5)),
    "unknown global": lambda: (
        hand_program(Assign(R0, Sym("nowhere", "hi")), Return()),
        "f",
        (),
    ),
    "non-integer load address": lambda: (
        hand_program(Assign(R0, Mem(R0)), Return()),
        "f",
        (1.5,),
    ),
    "non-integer store address": lambda: (
        hand_program(Assign(Mem(R0), R1), Return()),
        "f",
        (1.5, 2),
    ),
    "integer division by zero": lambda: (
        compile_source("int f(int a, int b) { return a / b; }"),
        "f",
        (7, 0),
    ),
    "integer remainder by zero": lambda: (
        compile_source("int f(int a, int b) { return a % b; }"),
        "f",
        (7, 0),
    ),
    "float division by zero": lambda: (
        compile_source("float f(float a, float b) { return a / b; }"),
        "f",
        (1.0, 0.0),
    ),
    "fell off the end": lambda: (hand_program(Assign(R0, Const(1))), "f", ()),
    "unknown binary operator": lambda: (
        hand_program(Assign(R0, BinOp("rotl", R0, Const(3))), Return()),
        "f",
        (1,),
    ),
    "unknown unary operator": lambda: (
        hand_program(Assign(R0, UnOp("popcnt", R0)), Return()),
        "f",
        (1,),
    ),
    "unknown instruction kind": lambda: (hand_program(_Unknown(), Return()), "f", ()),
    "unknown expression kind": lambda: (
        hand_program(Assign(R0, _Opaque()), Return()),
        "f",
        (),
    ),
}


def error_cases() -> Dict[str, object]:
    cases = {}
    for label, build in ERROR_CASES.items():
        program, entry, args = build()
        cases[label] = outcome(Interpreter(program), entry, args)
    return cases


def compute_goldens() -> Dict[str, object]:
    programs = program_cases()
    return {
        "programs": programs,
        "fuel": fuel_cases(programs),
        "fuzz": fuzz_cases(),
        "errors": error_cases(),
    }


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def goldens() -> Dict[str, object]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_programs(goldens):
    assert program_cases() == goldens["programs"]


def test_profiling_does_not_change_counts(goldens):
    for name in sorted(PROGRAMS):
        for form in FORMS:
            vm = Interpreter(load(PROGRAMS[name].source, form))
            pinned = dict(goldens["programs"][f"{name}.{form}"])
            del pinned["blocks"]
            assert outcome(vm, PROGRAMS[name].entry) == pinned


def test_fuel_exhaustion(goldens):
    cases = fuel_cases(goldens["programs"])
    assert cases == goldens["fuel"]
    for label, runs in cases.items():
        *short, clean = runs.values()
        for run in short:
            assert run["error"] == "VMFuelExhausted"
        # the exact budget runs to completion with the pinned counts
        full = dict(goldens["programs"][label])
        del full["blocks"]
        assert clean == full


def test_fuzz_functions(goldens):
    assert fuzz_cases() == goldens["fuzz"]


def test_error_texts(goldens):
    cases = error_cases()
    assert cases == goldens["errors"]
    assert all("error" in case for case in cases.values())


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print("usage: python -m tests.vm.test_vm_goldens --write", file=sys.stderr)
        return 2
    data = compute_goldens()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
