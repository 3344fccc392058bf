"""An interpreter for RTL programs.

Execution model (the runtime conventions the compiler targets):

- each call activates a fresh register file (so r4..r12 behave as
  callee-saved at no cost); calls deterministically clobber r0..r3 in
  the caller, with r0 receiving the return value;
- the stack grows upward from ``STACK_BASE``; each frame occupies the
  function's ``frame_size`` bytes and ``fp`` (r13) points at its base;
- memory is word-addressed storage initialized to zero, with globals
  laid out by :class:`~repro.ir.function.Program`;
- the activation-record management the paper's compiler inserts as a
  compulsory phase after the last code-improving phase is performed by
  the interpreter's call sequence itself, keeping it outside the
  enumerated search space exactly as the paper does.

Dynamic instruction counts are recorded per function, mirroring the
paper's use of dynamic counts as the execution-efficiency proxy.

Each basic block is decoded once into *segments*: a run of
straight-line instructions, compiled to steps ``R[dst] = fn(R, M)``
whose closures read a frame's register file and the memory, closed by
a branch, jump, call, return or the block's end.  A segment's instruction count and cycle sum
are fixed at decode time, so execution adds them once per segment.
Decoded blocks live in one small process-wide table keyed by the
globals layout, the target and the block's instructions, so the fresh
interpreter that differential testing builds for each input vector,
and a candidate differing from its parent in one block, re-decode only
what changed.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis import flat as _flat_analysis
from repro.ir.function import Function, Program
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Jump,
    Return,
)
from repro.ir.operands import BinOp, Const, Expr, Mem, Reg, Sym, UnOp
from repro.machine.target import DEFAULT_TARGET, Target

Number = Union[int, float]

STACK_BASE = 0x40000


class VMError(Exception):
    """A runtime error during RTL interpretation."""


class VMFuelExhausted(VMError):
    """The configured dynamic instruction budget was exceeded."""


class ExecutionResult:
    """Outcome of one program execution."""

    __slots__ = ("value", "total_insts", "per_function", "cycles")

    def __init__(self, value, total_insts, per_function, cycles):
        self.value = value
        self.total_insts = total_insts
        self.per_function = per_function
        self.cycles = cycles

    def __repr__(self):
        return (
            f"<ExecutionResult value={self.value} insts={self.total_insts} "
            f"cycles={self.cycles}>"
        )


# ----------------------------------------------------------------------
# Operators: ``((v + _BIAS) & _MASK) - _BIAS`` wraps v to 32-bit two's
# complement
# ----------------------------------------------------------------------

_MASK = 0xFFFFFFFF
_BIAS = 0x80000000


def _mask32(value: int) -> int:
    return ((value + _BIAS) & _MASK) - _BIAS


def _raiser(message: str) -> Callable[..., Number]:
    """A step or operator that raises *message* when it executes."""

    def fail(*args):
        raise VMError(message)

    return fail


def _div(left: Number, right: Number) -> int:
    if right == 0:
        raise VMError("integer division by zero")
    return _mask32(int(left / right))


def _rem(left: Number, right: Number) -> int:
    if right == 0:
        raise VMError("integer remainder by zero")
    return _mask32(left - int(left / right) * right)


def _fdiv(left: Number, right: Number) -> float:
    if right == 0:
        raise VMError("float division by zero")
    return float(left) / float(right)


_BINOPS: Dict[str, Callable[[Number, Number], Number]] = {
    "add": lambda a, b: ((a + b + _BIAS) & _MASK) - _BIAS,
    "sub": lambda a, b: ((a - b + _BIAS) & _MASK) - _BIAS,
    "mul": lambda a, b: ((a * b + _BIAS) & _MASK) - _BIAS,
    "div": _div,
    "rem": _rem,
    "and": lambda a, b: _mask32(int(a) & int(b)),
    "or": lambda a, b: _mask32(int(a) | int(b)),
    "xor": lambda a, b: _mask32(int(a) ^ int(b)),
    "lsl": lambda a, b: _mask32(int(a) << (int(b) & 31)),
    "lsr": lambda a, b: _mask32((int(a) & _MASK) >> (int(b) & 31)),
    "asr": lambda a, b: _mask32(int(a) >> (int(b) & 31)),
    "fadd": lambda a, b: float(a) + float(b),
    "fsub": lambda a, b: float(a) - float(b),
    "fmul": lambda a, b: float(a) * float(b),
    "fdiv": _fdiv,
}

_UNOPS: Dict[str, Callable[[Number], Number]] = {
    "neg": lambda v: _mask32(-v),
    "not": lambda v: _mask32(~int(v)),
    "fneg": lambda v: -float(v),
    "itof": float,
    "ftoi": lambda v: _mask32(int(v)),
}

#: relop -> test of the condition code (-1, 0 or 1)
_RELOPS = {
    "lt": (0).__gt__,
    "le": (0).__ge__,
    "gt": (0).__lt__,
    "ge": (0).__le__,
    "eq": (0).__eq__,
    "ne": (0).__ne__,
}

#: the condition code's key in a register file (register keys are
#: ints for hardware and strings for pseudo registers), and the key a
#: store's step writes its (unused) result to
_CC, _SINK = "cc", None


def _compare(left: Number, right: Number) -> int:
    return (left > right) - (left < right)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

Step = Tuple[object, Callable[[dict, dict], Number]]

#: segment enders
_BRANCH, _JUMP, _CALL, _RETURN = range(4)

#: (instruction count, cycle sum, per-instruction costs, steps, ender,
#: ender argument); the ender's instruction is the last one counted
Segment = Tuple[int, int, Tuple[int, ...], Tuple[Step, ...], Optional[int], object]


def _reg_key(reg: Reg):
    # Pseudo and hardware registers live in disjoint key spaces so
    # unoptimized (pre-assignment) code executes directly.
    return f"t{reg.index}" if reg.pseudo else reg.index


def _load(M: dict, address: Number) -> Number:
    if not isinstance(address, int):
        raise VMError(f"non-integer load address {address!r}")
    return M.get(address, 0)


def _store(M: dict, value: Number, address: Number) -> None:
    if not isinstance(address, int):
        raise VMError(f"non-integer store address {address!r}")
    M[address] = value


class _Decoder:
    """Decodes one block under a globals layout (name -> address).

    Sym operands resolve to constants here; a step never touches the
    interpreter, so a decoded block serves any interpreter with the same
    layout and target.
    """

    def __init__(self, syms: Dict[str, int]):
        self.syms = syms

    def constant(self, expr: Expr):
        """``(value,)`` of a constant or a laid-out symbol half, else None."""
        if isinstance(expr, Const):
            return (expr.value,)
        if isinstance(expr, Sym) and expr.name in self.syms:
            address = self.syms[expr.name]
            return (address & ~0xFFFF if expr.part == "hi" else address & 0xFFFF,)
        return None

    def reg_plus_int(self, expr: Expr):
        """``(key, c + _BIAS)`` when *expr* is ``reg add int-constant``."""
        if isinstance(expr, BinOp) and expr.op == "add" and isinstance(expr.left, Reg):
            constant = self.constant(expr.right)
            if constant is not None and type(constant[0]) is int:
                return _reg_key(expr.left), constant[0] + _BIAS
        return None

    def expr(self, expr: Expr) -> Callable[[dict, dict], Number]:
        """A closure ``(R, M) -> value`` evaluating *expr*.  The shapes
        optimized code runs most (``r``, ``c``, ``M[r]``, ``M[r + c]``,
        ``r add c``, ``r add r``, ``r op c``, ``r op r``) read registers
        and constants directly instead of through nested closures."""
        if isinstance(expr, Reg):
            key = _reg_key(expr)
            return lambda R, M: R.get(key, 0)
        constant = self.constant(expr)
        if constant is not None:
            value = constant[0]
            return lambda R, M: value
        if isinstance(expr, Sym):
            return _raiser(f"unknown global {expr.name!r}")
        offset = self.reg_plus_int(expr.addr if isinstance(expr, Mem) else expr)
        if isinstance(expr, Mem):
            if offset is not None:
                b, c = offset
                return lambda R, M: M.get(((R.get(b, 0) + c) & _MASK) - _BIAS, 0)
            if isinstance(expr.addr, Reg):
                b = _reg_key(expr.addr)
                return lambda R, M: _load(M, R.get(b, 0))
            addr = self.expr(expr.addr)
            return lambda R, M: _load(M, addr(R, M))
        if isinstance(expr, BinOp):
            if offset is not None:
                a, c = offset
                return lambda R, M: ((R.get(a, 0) + c) & _MASK) - _BIAS
            op = _BINOPS.get(expr.op) or _raiser(f"unknown operator {expr.op!r}")
            constant = self.constant(expr.right)
            if isinstance(expr.left, Reg) and constant is not None:
                a, c = _reg_key(expr.left), constant[0]
                return lambda R, M: op(R.get(a, 0), c)
            if isinstance(expr.left, Reg) and isinstance(expr.right, Reg):
                a, b = _reg_key(expr.left), _reg_key(expr.right)
                if expr.op == "add":
                    return lambda R, M: ((R.get(a, 0) + R.get(b, 0) + _BIAS) & _MASK) - _BIAS
                return lambda R, M: op(R.get(a, 0), R.get(b, 0))
            left, right = self.expr(expr.left), self.expr(expr.right)
            return lambda R, M: op(left(R, M), right(R, M))
        if isinstance(expr, UnOp):
            unop = _UNOPS.get(expr.op) or _raiser(f"unknown unary operator {expr.op!r}")
            operand = self.expr(expr.operand)
            return lambda R, M: unop(operand(R, M))
        return _raiser(f"cannot evaluate {expr!r}")

    def step(self, inst) -> Step:
        """``(dst, fn)``: the instruction runs as ``R[dst] = fn(R, M)``."""
        if isinstance(inst, Compare):
            constant = self.constant(inst.right)
            if isinstance(inst.left, Reg) and constant is not None:
                a, c = _reg_key(inst.left), constant[0]
                return _CC, lambda R, M: (R.get(a, 0) > c) - (R.get(a, 0) < c)
            if isinstance(inst.left, Reg) and isinstance(inst.right, Reg):
                a, b = _reg_key(inst.left), _reg_key(inst.right)
                return _CC, lambda R, M: _compare(R.get(a, 0), R.get(b, 0))
            left, right = self.expr(inst.left), self.expr(inst.right)
            return _CC, lambda R, M: _compare(left(R, M), right(R, M))
        if not isinstance(inst, Assign):
            return _SINK, _raiser(f"cannot execute {inst!r}")
        if isinstance(inst.dst, Reg):
            return _reg_key(inst.dst), self.expr(inst.src)
        offset = self.reg_plus_int(inst.dst.addr)
        if offset is not None and isinstance(inst.src, Reg):
            (b, c), s = offset, _reg_key(inst.src)
            return _SINK, lambda R, M: M.__setitem__(
                ((R.get(b, 0) + c) & _MASK) - _BIAS, R.get(s, 0)
            )
        if isinstance(inst.dst.addr, Reg) and isinstance(inst.src, Reg):
            b, s = _reg_key(inst.dst.addr), _reg_key(inst.src)
            return _SINK, lambda R, M: _store(M, R.get(s, 0), R.get(b, 0))
        value, addr = self.expr(inst.src), self.expr(inst.dst.addr)
        return _SINK, lambda R, M: _store(M, value(R, M), addr(R, M))

    def block(self, insts: Sequence, target: Target) -> Tuple[Segment, ...]:
        segments: List[Segment] = []
        costs: List[int] = []
        steps: List[Step] = []
        for inst in insts:
            costs.append(target.cost(inst))
            if isinstance(inst, CondBranch):
                ender, arg = _BRANCH, (_RELOPS[inst.relop], inst.target)
            elif isinstance(inst, Jump):
                ender, arg = _JUMP, inst.target
            elif isinstance(inst, Call):
                ender, arg = _CALL, inst
            elif isinstance(inst, Return):
                ender, arg = _RETURN, None
            else:
                steps.append(self.step(inst))
                continue
            segments.append((len(costs), sum(costs), tuple(costs), tuple(steps), ender, arg))
            costs, steps = [], []
        if costs:
            segments.append((len(costs), sum(costs), tuple(costs), tuple(steps), None, None))
        return tuple(segments)


#: Decoded blocks, shared by every interpreter in the process:
#: (globals layout id, target, instructions) -> segments.  Reuse is
#: local (a candidate shares all but a block or two with its parent),
#: so a few hundred blocks buy the time a larger table does, at less
#: memory; the table is cleared when full.
_DECODED: Dict[Tuple[int, Target, tuple], Tuple[Segment, ...]] = {}
_DECODED_MAX = 256

#: globals layout ((name, address), ...) -> id; ids are never reused, so
#: clearing this table cannot alias two layouts
_LAYOUTS: Dict[tuple, int] = {}
_LAYOUT_IDS = itertools.count()

_flat_analysis.SHARED_MEMOS.extend((_DECODED, _LAYOUTS))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


class Interpreter:
    """Execute functions of a :class:`Program`.

    On success and on :class:`VMFuelExhausted` the counters
    (``total_insts``, ``per_function``, ``cycles``) are exact.  After any
    other :class:`VMError` they may include the rest of the segment
    that failed: counts are added per segment, before its steps run.
    """

    def __init__(
        self,
        program: Program,
        target: Optional[Target] = None,
        fuel: int = 10_000_000,
        profile_blocks: bool = False,
    ):
        self.program = program
        self.target = target or DEFAULT_TARGET
        self.fuel = fuel
        self.memory: Dict[int, Number] = {}
        self._init_globals()
        self.total_insts = 0
        self.per_function: Dict[str, int] = {}
        self.cycles = 0
        self._stack_top = STACK_BASE
        #: when profiling, (function name, block label) -> execution count
        self.profile_blocks = profile_blocks
        self.block_counts: Dict[Tuple[str, str], int] = {}
        layout = tuple((name, var.address) for name, var in program.globals.items())
        self._syms = dict(layout)
        self._layout = _LAYOUTS.get(layout)
        if self._layout is None:
            if len(_LAYOUTS) >= _DECODED_MAX:
                _LAYOUTS.clear()
            self._layout = _LAYOUTS[layout] = next(_LAYOUT_IDS)
        #: function name -> (segments per block, label -> block index),
        #: linked once per run() call
        self._linked: Dict[str, tuple] = {}

    def _init_globals(self) -> None:
        for var in self.program.globals.values():
            for i, value in enumerate(var.init):
                self.memory[var.address + 4 * i] = value

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, name: str, args: Sequence[Number] = ()) -> ExecutionResult:
        """Call function *name* with *args*; returns the result."""
        self._linked = {}
        value = self._call(name, list(args))
        return ExecutionResult(
            value, self.total_insts, dict(self.per_function), self.cycles
        )

    def load_global(self, name: str, index: int = 0) -> Number:
        """Read a global scalar or array element (for assertions)."""
        var = self.program.globals[name]
        return self.memory.get(var.address + 4 * index, 0)

    def store_global(self, name: str, value: Number, index: int = 0) -> None:
        var = self.program.globals[name]
        self.memory[var.address + 4 * index] = value

    def global_address(self, name: str) -> int:
        return self.program.globals[name].address

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _link(self, func: Function) -> tuple:
        linked = self._linked.get(func.name)
        if linked is None:
            segments = []
            for block in func.blocks:
                insts = tuple(block.insts)
                key = (self._layout, self.target, insts)
                decoded = _DECODED.get(key)
                if decoded is None:
                    decoded = _Decoder(self._syms).block(insts, self.target)
                    if len(_DECODED) >= _DECODED_MAX:
                        _DECODED.clear()
                    _DECODED[key] = decoded
                segments.append(decoded)
            index_of = {block.label: i for i, block in enumerate(func.blocks)}
            linked = self._linked[func.name] = (segments, index_of)
        return linked

    def _call(self, name: str, args: List[Number]) -> Number:
        func = self.program.functions.get(name)
        if func is None:
            raise VMError(f"call to unknown function {name!r}")
        if len(args) > 4:
            raise VMError("at most 4 arguments are supported")
        fp = self._stack_top
        self._stack_top += max(func.frame_size, 4)
        regs: Dict[object, Number] = {13: fp, 14: fp, _CC: 0}
        regs.update(enumerate(args))
        try:
            return self._execute(func, regs)
        finally:
            self._stack_top -= max(func.frame_size, 4)

    def _execute(self, func: Function, R: dict) -> Number:
        name = func.name
        segments, index_of = self._link(func)
        M = self.memory
        fuel = self.fuel
        profile = self.block_counts if self.profile_blocks else None
        count = self.per_function.get(name, 0)
        i = 0
        while True:
            if profile is not None:
                key = (name, func.blocks[i].label)
                profile[key] = profile.get(key, 0) + 1
            for n, cycles, costs, steps, ender, arg in segments[i]:
                if self.total_insts + n > fuel:
                    self._exhaust(name, count, costs, steps, R)
                self.total_insts += n
                self.cycles += cycles
                count += n
                for dst, fn in steps:
                    R[dst] = fn(R, M)
                if ender is _BRANCH:
                    if arg[0](R[_CC]):
                        label = arg[1]
                        break
                elif ender is _JUMP:
                    label = arg
                    break
                elif ender is _CALL:
                    self.per_function[name] = count
                    result = self._call(arg.name, [R.get(j, 0) for j in range(arg.nargs)])
                    count = self.per_function.get(name, 0)
                    R[0] = result if result is not None else 0
                    R[1] = R[2] = R[3] = 0
                elif ender is _RETURN:
                    self.per_function[name] = count
                    return R.get(0, 0) if func.returns_value else None
            else:
                i += 1
                if i >= len(segments):
                    raise VMError(f"{name}: fell off the function end")
                continue
            i = index_of.get(label, -1)
            if i < 0:
                raise VMError(f"{name}: branch to unknown label {label!r}")

    def _exhaust(self, name: str, count: int, costs, steps, R: dict) -> None:
        """Replay a segment the fuel cannot cover one instruction at a
        time, through the same steps, up to the instruction that
        exceeds the budget."""
        for j, cost in enumerate(costs):
            self.total_insts += 1
            self.cycles += cost
            if self.total_insts > self.fuel:
                self.per_function[name] = count + j + 1
                raise VMFuelExhausted(f"exceeded {self.fuel} dynamic instructions")
            dst, fn = steps[j]
            R[dst] = fn(R, self.memory)
