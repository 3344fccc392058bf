"""Translation validation: per-edge semantic equivalence.

Classifies each DAG edge ``before --phase--> after`` as:

``proved``
    the two functions are symbolically equivalent: their CFGs match
    block-for-block (a simulation from the entry) and every matched
    block has identical observable effects — live-out register values,
    the memory write log, the call sequence, the branch condition and
    the return value — under sound normalization only (constant
    folding with the VM's exact 32-bit semantics, commutative operand
    sorting, and linear-form canonicalization of add/sub/mul-by-
    constant/shift-by-constant chains, all exact in mod-2^32
    arithmetic);
``tested``
    symbolic matching failed (e.g. the phase restructured the CFG or
    renamed registers) but seeded VM co-execution of both versions
    agreed on every comparable input vector;
``refuted``
    co-execution found a diverging vector — the edge is semantically
    wrong and the guard quarantines it;
``unverified``
    neither approach could compare anything (no program context, or
    every vector failed on the reference side).

The prover is deliberately one-sided: any doubt — an unmodelled
construct, a mismatched shape, an exception inside the prover itself —
falls through to testing, never to ``proved``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.cache import cfg_of, liveness_of
from repro.analysis.reaching import declared_arity
from repro.ir.function import Function, Program
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Jump,
    Return,
)
from repro.ir.operands import (
    BinOp,
    COMMUTATIVE_OPS,
    Const,
    Mem,
    Reg,
    Sym,
    UnOp,
    _mask32,
    fold_binop,
    fold_unop,
)
from repro.machine.target import RV
from repro.vm.interpreter import Interpreter, VMError

PROVED = "proved"
TESTED = "tested"
UNVERIFIED = "unverified"
REFUTED = "refuted"

#: verdicts in confidence order; ``refuted`` is a guard failure, not a
#: classification of a surviving edge
VERDICTS = (PROVED, TESTED, UNVERIFIED, REFUTED)

_REF_CACHE_LIMIT = 512


class EdgeVerdict(NamedTuple):
    status: str
    detail: str


class _NotProvable(Exception):
    """Internal: abandon the symbolic proof, fall back to testing."""


# ----------------------------------------------------------------------
# Symbolic values are hashable tuples:
#   ("reg", index, pseudo)      register value at block entry
#   ("const", int)              a known 32-bit constant
#   ("sym", name, part)         address half of a global
#   ("load", k, addr)           load from *addr* after k memory events
#   ("call", k, index)          r<index> after the k-th call
#   ("lin", ((atom, coeff), ...), const)   linear combination mod 2^32
#   ("op", op, operands...)     anything else, commutatively sorted
# ----------------------------------------------------------------------


def _const(value: int) -> Tuple:
    return ("const", _mask32(value))


def _linearize(value: Tuple) -> Optional[Tuple[Dict[Tuple, int], int]]:
    """View *value* as ``sum(coeff * atom) + const`` mod 2^32, or None."""
    if value[0] == "const":
        return {}, value[1]
    if value[0] == "lin":
        return dict(value[1]), value[2]
    return {value: 1}, 0


def _make_linear(terms: Dict[Tuple, int], const: int) -> Tuple:
    cleaned = {}
    for atom, coeff in terms.items():
        coeff = coeff & 0xFFFFFFFF
        if coeff:
            cleaned[atom] = coeff
    const = _mask32(const)
    if not cleaned:
        return _const(const)
    if len(cleaned) == 1 and const == 0:
        (atom, coeff), = cleaned.items()
        if coeff == 1:
            return atom
    ordered = tuple(sorted(cleaned.items(), key=lambda item: repr(item[0])))
    return ("lin", ordered, const)


def _sym_binop(op: str, left: Tuple, right: Tuple) -> Tuple:
    if left[0] == "const" and right[0] == "const":
        folded = fold_binop(op, left[1], right[1])
        if isinstance(folded, int):
            return _const(folded)
    if op in ("add", "sub"):
        a = _linearize(left)
        b = _linearize(right)
        sign = 1 if op == "add" else -1
        terms = dict(a[0])
        for atom, coeff in b[0].items():
            terms[atom] = terms.get(atom, 0) + sign * coeff
        return _make_linear(terms, a[1] + sign * b[1])
    if op == "mul" and (left[0] == "const" or right[0] == "const"):
        scale, other = (left[1], right) if left[0] == "const" else (right[1], left)
        terms, const = _linearize(other)
        return _make_linear(
            {atom: coeff * scale for atom, coeff in terms.items()},
            const * scale,
        )
    if op == "lsl" and right[0] == "const" and 0 <= right[1] < 32:
        # x << c is exactly x * 2^c in mod-2^32 arithmetic
        return _sym_binop("mul", left, _const(1 << right[1]))
    if op in COMMUTATIVE_OPS:
        left, right = sorted((left, right), key=repr)
    return ("op", op, left, right)


def _sym_unop(op: str, operand: Tuple) -> Tuple:
    if operand[0] == "const":
        folded = fold_unop(op, operand[1])
        if isinstance(folded, int):
            return _const(folded)
    if op == "neg":
        terms, const = _linearize(operand)
        return _make_linear(
            {atom: -coeff for atom, coeff in terms.items()}, -const
        )
    return ("op", op, operand)


def _addresses_distinct(a: Tuple, b: Tuple) -> bool:
    """True only when the two accesses provably hit different cells.

    The VM's memory is a flat address -> word map (cells never
    overlap), so two addresses with identical linear terms and any
    nonzero constant difference are distinct."""
    if a == b:
        return False
    la = _linearize(a)
    lb = _linearize(b)
    if la[0] != lb[0]:
        return False
    return _mask32(la[1] - lb[1]) != 0


class _SymState:
    """Symbolic execution state for one basic block."""

    __slots__ = ("env", "mem", "calls", "cc", "returns_value", "oracle")

    def __init__(self, returns_value: bool, oracle=None):
        self.env: Dict[Tuple[int, bool], Tuple] = {}
        #: memory event log: ("store", addr, value) | ("call", k)
        self.mem: List[Tuple] = []
        self.calls: List[Tuple] = []
        self.cc: Optional[Tuple] = None
        self.returns_value = returns_value
        #: optional AliasOracle adding layout/frontend distinctness facts
        self.oracle = oracle

    def _reg(self, reg: Reg) -> Tuple:
        return self.env.get((reg.index, reg.pseudo), ("reg", reg.index, reg.pseudo))

    def _distinct(self, a: Tuple, b: Tuple) -> bool:
        if _addresses_distinct(a, b):
            return True
        return self.oracle is not None and self.oracle.distinct(a, b)

    def _load(self, addr: Tuple) -> Tuple:
        for position in range(len(self.mem) - 1, -1, -1):
            event = self.mem[position]
            if event[0] == "call":
                break  # the call may have written anything
            if event[1] == addr:
                return event[2]
            if not self._distinct(event[1], addr):
                break  # may alias: value unknown
        else:
            position = -1
        # Opaque token: "whatever this address holds after the first
        # `position + 1` memory events".  Equal tokens on both sides
        # denote the same value once the logs themselves match.
        return ("load", position + 1, addr)

    def eval(self, expr) -> Tuple:
        if isinstance(expr, Reg):
            return self._reg(expr)
        if isinstance(expr, Const):
            return _const(expr.value)
        if isinstance(expr, Sym):
            return ("sym", expr.name, expr.part)
        if isinstance(expr, Mem):
            return self._load(self.eval(expr.addr))
        if isinstance(expr, BinOp):
            return _sym_binop(expr.op, self.eval(expr.left), self.eval(expr.right))
        if isinstance(expr, UnOp):
            return _sym_unop(expr.op, self.eval(expr.operand))
        raise _NotProvable(f"unmodelled expression {expr!r}")

    def execute(self, inst) -> None:
        if isinstance(inst, Assign):
            value = self.eval(inst.src)
            if isinstance(inst.dst, Reg):
                self.env[(inst.dst.index, inst.dst.pseudo)] = value
            elif isinstance(inst.dst, Mem):
                self.mem.append(("store", self.eval(inst.dst.addr), value))
            else:
                raise _NotProvable(f"unmodelled destination {inst.dst!r}")
            return
        if isinstance(inst, Compare):
            self.cc = ("cmp", self.eval(inst.left), self.eval(inst.right))
            return
        if isinstance(inst, Call):
            index = len(self.calls)
            args = tuple(
                self._reg(Reg(i, pseudo=False)) for i in range(inst.nargs)
            )
            self.calls.append((inst.name, inst.nargs, args, len(self.mem)))
            for i in range(4):
                self.env[(i, False)] = ("call", index, i)
            self.mem.append(("call", index))
            return
        if isinstance(inst, (Jump, CondBranch, Return)):
            return  # control flow is handled by the block matching
        raise _NotProvable(f"unmodelled instruction {inst!r}")

    def observables(self, live_out, terminator) -> Tuple:
        regs = {}
        for reg in live_out:
            regs[(reg.index, reg.pseudo)] = self._reg(reg)
        branch = None
        if isinstance(terminator, CondBranch):
            if self.cc is None:
                raise _NotProvable("conditional branch with unset cc")
            branch = (terminator.relop, self.cc)
        returned = None
        if isinstance(terminator, Return) and self.returns_value:
            returned = self._reg(RV)
        return regs, tuple(self.mem), tuple(self.calls), branch, returned


def _frame_shape(func: Function) -> Tuple:
    return (
        func.frame_size,
        tuple(
            sorted(
                (slot.name, slot.offset, slot.words)
                for slot in func.frame.values()
            )
        ),
    )


def prove_equivalent(before: Function, after: Function, oracle=None) -> bool:
    """Symbolic block-level simulation proof; False means *unknown*.

    *oracle* (an :class:`~repro.staticanalysis.alias.AliasOracle`)
    optionally strengthens the store-skipping distinctness test with
    layout and frontend memory facts.
    """
    try:
        return _prove(before, after, oracle)
    except _NotProvable:
        return False


def _prove(before: Function, after: Function, oracle=None) -> bool:
    if before.returns_value != after.returns_value:
        return False
    if len(before.params) != len(after.params):
        return False
    if _frame_shape(before) != _frame_shape(after):
        return False
    cfg_a = cfg_of(before)
    cfg_b = cfg_of(after)
    live_a = liveness_of(before)
    live_b = liveness_of(after)
    entry_pair = (before.entry.label, after.entry.label)
    mapping: Dict[str, str] = {entry_pair[0]: entry_pair[1]}
    queue = [entry_pair]
    visited = set()
    while queue:
        label_a, label_b = queue.pop()
        if (label_a, label_b) in visited:
            continue
        visited.add((label_a, label_b))
        block_a = before.block(label_a)
        block_b = after.block(label_b)
        term_a = block_a.terminator()
        term_b = block_b.terminator()
        succs_a = cfg_a.succs.get(label_a, [])
        succs_b = cfg_b.succs.get(label_b, [])
        if len(succs_a) != len(succs_b):
            return False
        if len(succs_a) == 2:
            # Two-way blocks must agree on the branch sense so that
            # [target, fallthrough] positions correspond.
            if not isinstance(term_a, CondBranch) or not isinstance(
                term_b, CondBranch
            ):
                return False
            if term_a.relop != term_b.relop:
                return False
        state_a = _SymState(before.returns_value, oracle)
        state_b = _SymState(after.returns_value, oracle)
        for inst in block_a.insts:
            state_a.execute(inst)
        for inst in block_b.insts:
            state_b.execute(inst)
        live_out = live_a.live_out.get(label_a, frozenset()) | live_b.live_out.get(
            label_b, frozenset()
        )
        if state_a.observables(live_out, term_a) != state_b.observables(
            live_out, term_b
        ):
            return False
        for succ_a, succ_b in zip(succs_a, succs_b):
            mapped = mapping.get(succ_a)
            if mapped is None:
                mapping[succ_a] = succ_b
            elif mapped != succ_b:
                return False
            queue.append((succ_a, succ_b))
    return True


def _function_key(func: Function) -> Tuple:
    return (
        func.name,
        func.frame_size,
        func.returns_value,
        tuple((block.label, tuple(block.insts)) for block in func.blocks),
    )


class TranslationValidator:
    """Classify edges, with seeded VM co-execution as the fallback.

    *program* and *entry* give the co-execution context (the program
    the enumerated function belongs to); without them the fallback is
    unavailable and unprovable edges classify as ``unverified``.
    """

    def __init__(
        self,
        program: Optional[Program] = None,
        entry: Optional[str] = None,
        fuel: int = 2_000_000,
        alias_oracle: bool = True,
    ):
        self.program = program
        self.entry = entry
        self.fuel = fuel
        #: consult frontend mem_facts / layout facts while proving.
        #: The semantic DAG collapse turns this off so that collapse
        #: verdicts never depend on source-level contracts.
        self.alias_oracle = alias_oracle
        self._ref_cache: Dict[Tuple, List[Tuple[Tuple[int, ...], object]]] = {}

    # ------------------------------------------------------------------

    def _oracle_for(self, func: Function):
        if not self.alias_oracle:
            return None
        from repro.staticanalysis.alias import oracle_for

        return oracle_for(func, self.program)

    def classify(self, before: Function, after: Function) -> EdgeVerdict:
        try:
            proved = _prove(before, after, self._oracle_for(before))
        except _NotProvable:
            proved = False
        except (KeyboardInterrupt, SystemExit, MemoryError):
            raise
        except Exception:  # prover bug: never block enumeration
            proved = False
        if proved:
            return EdgeVerdict(PROVED, "symbolic block-level match")
        return self._co_execute(before, after)

    # ------------------------------------------------------------------

    def _vectors(self, func: Function) -> Tuple[Tuple[int, ...], ...]:
        arity = declared_arity(func)
        if arity == 0:
            return ((),)
        primes = (2, 3, 5, 7)
        return (
            (0,) * arity,
            (1,) * arity,
            tuple(primes[i % len(primes)] for i in range(arity)),
        )

    def _spliced(self, func: Function) -> Program:
        spliced = Program()
        spliced.globals = self.program.globals
        spliced.functions = dict(self.program.functions)
        spliced.functions[self.entry] = func
        return spliced

    def _run_reference(self, before: Function):
        key = _function_key(before)
        cached = self._ref_cache.get(key)
        if cached is not None:
            return cached
        reference = []
        spliced = self._spliced(before)
        for vector in self._vectors(before):
            try:
                value = Interpreter(spliced, fuel=self.fuel).run(
                    self.entry, vector
                ).value
            except VMError:
                continue
            reference.append((vector, value))
        if len(self._ref_cache) >= _REF_CACHE_LIMIT:
            self._ref_cache.clear()
        self._ref_cache[key] = reference
        return reference

    def _co_execute(self, before: Function, after: Function) -> EdgeVerdict:
        if self.program is None or self.entry is None:
            return EdgeVerdict(UNVERIFIED, "no program context for co-execution")
        if before.name != self.entry:
            return EdgeVerdict(
                UNVERIFIED, f"function {before.name!r} is not the entry"
            )
        reference = self._run_reference(before)
        if not reference:
            return self._driver_execute(before, after)
        spliced = self._spliced(after)
        for vector, expected in reference:
            try:
                value = Interpreter(spliced, fuel=self.fuel).run(
                    self.entry, vector
                ).value
            except VMError as error:
                return EdgeVerdict(
                    REFUTED, f"args={vector}: transformed code crashed: {error}"
                )
            if value != expected:
                return EdgeVerdict(
                    REFUTED,
                    f"args={vector}: expected {expected}, got {value}",
                )
        return EdgeVerdict(
            TESTED, f"co-executed on {len(reference)} input vectors"
        )

    def _driver_execute(self, before: Function, after: Function) -> EdgeVerdict:
        """Last resort: drive the function through the whole program.

        Some functions cannot run in isolation (they divide by or
        index globals another function must initialize first).  When
        ``main`` exists, executing the full program with the candidate
        spliced in still covers them with realistic state.
        """
        driver = "main"
        if driver not in self.program.functions or self.entry == driver:
            return EdgeVerdict(UNVERIFIED, "no executable input vectors")
        key = ("driver",) + _function_key(before)
        expected = self._ref_cache.get(key)
        if expected is None:
            try:
                expected = (
                    Interpreter(self._spliced(before), fuel=self.fuel)
                    .run(driver, ())
                    .value,
                )
            except VMError:
                return EdgeVerdict(
                    UNVERIFIED, "no executable input vectors (main failed too)"
                )
            if len(self._ref_cache) >= _REF_CACHE_LIMIT:
                self._ref_cache.clear()
            self._ref_cache[key] = expected
        try:
            value = Interpreter(self._spliced(after), fuel=self.fuel).run(
                driver, ()
            ).value
        except VMError as error:
            return EdgeVerdict(
                REFUTED, f"via main(): transformed code crashed: {error}"
            )
        if value != expected[0]:
            return EdgeVerdict(
                REFUTED, f"via main(): expected {expected[0]}, got {value}"
            )
        return EdgeVerdict(TESTED, "co-executed the whole program via main()")
