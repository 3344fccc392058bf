"""RTL operand expressions.

All expression nodes are immutable and hashable, so phases may freely
share subtrees between instructions and functions; cloning a function
never copies expressions.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple, Union

Number = Union[int, float]


class Expr:
    """Base class for RTL operand expressions."""

    __slots__ = ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all sub-expressions, pre-order."""
        yield self

    def registers(self) -> Iterator["Reg"]:
        """Yield every register appearing in the expression."""
        for node in self.walk():
            if isinstance(node, Reg):
                yield node

    def reads_memory(self) -> bool:
        return any(isinstance(node, Mem) for node in self.walk())


class Reg(Expr):
    """A register: hardware (``r[n]``) or pseudo (``t[n]``)."""

    __slots__ = ("index", "pseudo", "_hash")

    def __init__(self, index: int, pseudo: bool = True):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "pseudo", pseudo)
        object.__setattr__(self, "_hash", hash((Reg, index, pseudo)))

    def __setattr__(self, name, value):
        raise AttributeError("Reg is immutable")

    def __eq__(self, other):
        return (
            type(other) is Reg
            and other.index == self.index
            and other.pseudo == self.pseudo
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"t[{self.index}]" if self.pseudo else f"r[{self.index}]"


class Const(Expr):
    """An integer or float literal.

    Equal constants agree on type and value, and float constants also on
    sign: ``0.0`` and ``-0.0`` compare equal in Python, but they print
    differently and their signs carry through arithmetic.
    """

    __slots__ = ("value", "_key", "_hash")

    def __init__(self, value: Number):
        key = (
            (value, float, math.copysign(1.0, value))
            if type(value) is float
            else (value, type(value))
        )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((Const,) + key))

    def __setattr__(self, name, value):
        raise AttributeError("Const is immutable")

    def __eq__(self, other):
        return type(other) is Const and other._key == self._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return repr(self.value)


class Sym(Expr):
    """Half of the address of a global symbol (``HI[name]``/``LO[name]``)."""

    __slots__ = ("name", "part", "_hash")

    def __init__(self, name: str, part: str):
        if part not in ("hi", "lo"):
            raise ValueError(f"bad symbol part: {part!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "part", part)
        object.__setattr__(self, "_hash", hash((Sym, name, part)))

    def __setattr__(self, name, value):
        raise AttributeError("Sym is immutable")

    def __eq__(self, other):
        return (
            type(other) is Sym and other.name == self.name and other.part == self.part
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.part.upper()}[{self.name}]"


class Mem(Expr):
    """A memory reference ``M[addr]`` (word sized)."""

    __slots__ = ("addr", "_hash")

    def __init__(self, addr: Expr):
        object.__setattr__(self, "addr", addr)
        object.__setattr__(self, "_hash", hash((Mem, addr)))

    def __setattr__(self, name, value):
        raise AttributeError("Mem is immutable")

    def __eq__(self, other):
        return type(other) is Mem and other.addr == self.addr

    def __hash__(self):
        return self._hash

    def walk(self):
        yield self
        yield from self.addr.walk()

    def __repr__(self):
        return f"M[{self.addr!r}]"


class BinOp(Expr):
    """A binary operation over two sub-expressions."""

    __slots__ = ("op", "left", "right", "_hash")

    def __init__(self, op: str, left: Expr, right: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((BinOp, op, left, right)))

    def __setattr__(self, name, value):
        raise AttributeError("BinOp is immutable")

    def __eq__(self, other):
        return (
            type(other) is BinOp
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return self._hash

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class UnOp(Expr):
    """A unary operation."""

    __slots__ = ("op", "operand", "_hash")

    def __init__(self, op: str, operand: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "_hash", hash((UnOp, op, operand)))

    def __setattr__(self, name, value):
        raise AttributeError("UnOp is immutable")

    def __eq__(self, other):
        return (
            type(other) is UnOp
            and other.op == self.op
            and other.operand == self.operand
        )

    def __hash__(self):
        return self._hash

    def walk(self):
        yield self
        yield from self.operand.walk()

    def __repr__(self):
        return f"({self.op} {self.operand!r})"


# ----------------------------------------------------------------------
# Expression helpers shared by phases
# ----------------------------------------------------------------------

COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


def substitute(expr: Expr, mapping: dict) -> Expr:
    """Return *expr* with sub-expressions replaced per *mapping*.

    *mapping* maps expression nodes (typically registers) to replacement
    expressions.  Matching is by equality, applied top-down: a node that
    matches is replaced without descending into it.
    """
    replacement = mapping.get(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, BinOp):
        left = substitute(expr.left, mapping)
        right = substitute(expr.right, mapping)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnOp):
        operand = substitute(expr.operand, mapping)
        if operand is expr.operand:
            return expr
        return UnOp(expr.op, operand)
    if isinstance(expr, Mem):
        addr = substitute(expr.addr, mapping)
        if addr is expr.addr:
            return expr
        return Mem(addr)
    return expr


def _mask32(value: int) -> int:
    value &= 0xFFFFFFFF
    if value >= 0x80000000:
        value -= 0x100000000
    return value


def fold_binop(op: str, left: Number, right: Number):
    """Constant-fold one binary operation; return None when impossible."""
    try:
        if op == "add":
            return _mask32(left + right)
        if op == "sub":
            return _mask32(left - right)
        if op == "mul":
            return _mask32(left * right)
        if op == "div":
            if right == 0:
                return None
            return _mask32(int(left / right))  # C-style truncation
        if op == "rem":
            if right == 0:
                return None
            return _mask32(left - int(left / right) * right)
        if op == "and":
            return _mask32(left & right)
        if op == "or":
            return _mask32(left | right)
        if op == "xor":
            return _mask32(left ^ right)
        if op == "lsl":
            if not 0 <= right < 32:
                return None
            return _mask32(left << right)
        if op == "lsr":
            if not 0 <= right < 32:
                return None
            return _mask32((left & 0xFFFFFFFF) >> right)
        if op == "asr":
            if not 0 <= right < 32:
                return None
            return _mask32(left >> right)
        if op == "fadd":
            return float(left) + float(right)
        if op == "fsub":
            return float(left) - float(right)
        if op == "fmul":
            return float(left) * float(right)
        if op == "fdiv":
            if right == 0:
                return None
            return float(left) / float(right)
    except TypeError:
        return None
    return None


def fold_unop(op: str, value: Number):
    """Constant-fold one unary operation; return None when impossible."""
    if op == "neg":
        return _mask32(-value)
    if op == "not":
        return _mask32(~int(value))
    if op == "fneg":
        return -float(value)
    if op == "itof":
        return float(value)
    if op == "ftoi":
        return _mask32(int(value))
    return None


def fold(expr: Expr) -> Expr:
    """Recursively constant-fold *expr*, returning a simplified tree."""
    if isinstance(expr, BinOp):
        left = fold(expr.left)
        right = fold(expr.right)
        if isinstance(left, Const) and isinstance(right, Const):
            value = fold_binop(expr.op, left.value, right.value)
            if value is not None:
                return Const(value)
        # Algebraic identities on the folded children.
        if isinstance(right, Const) and not isinstance(right.value, float):
            if right.value == 0 and expr.op in ("add", "sub", "or", "xor", "lsl", "lsr", "asr"):
                return left
            if right.value == 1 and expr.op in ("mul", "div"):
                return left
            if right.value == 0 and expr.op == "mul":
                return Const(0)
        if isinstance(left, Const) and not isinstance(left.value, float):
            if left.value == 0 and expr.op == "add":
                return right
            if left.value == 1 and expr.op == "mul":
                return right
            if left.value == 0 and expr.op == "mul":
                return Const(0)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnOp):
        operand = fold(expr.operand)
        if isinstance(operand, Const):
            value = fold_unop(expr.op, operand.value)
            if value is not None:
                return Const(value)
        if operand is expr.operand:
            return expr
        return UnOp(expr.op, operand)
    if isinstance(expr, Mem):
        addr = fold(expr.addr)
        if addr is expr.addr:
            return expr
        return Mem(addr)
    return expr
