"""Naive RTL code generation from the mini-C AST.

The generator is deliberately unsophisticated, mirroring what VPO's C
frontend hands to the backend:

- every local scalar, array, and parameter lives in a stack slot;
- every expression step lands in a fresh pseudo register;
- address arithmetic is explicit (``t1 = fp + 8; t2 = M[t1]``, and
  ``t1 = HI[g]; t2 = t1 + LO[g]`` for globals);
- conditions end blocks with an explicit conditional branch *plus* an
  explicit jump (later phases remove the redundant ones).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.frontend import ast
from repro.frontend.errors import CompileError
from repro.frontend.parser import parse
from repro.ir.cfg import validate_function
from repro.ir.function import BasicBlock, Function, GlobalVar, Program
from repro.ir.instructions import (
    Assign,
    Call,
    Compare,
    CondBranch,
    Jump,
    Return,
)
from repro.ir.operands import BinOp, Const, Mem, Reg, Sym, UnOp
from repro.machine.target import ARG_REGS, FP, RV, ALU_IMM_LIMIT

_INT_BINOPS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "lsl",
    ">>": "asr",
}

_FLOAT_BINOPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}

_RELOPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}

_INT_ONLY = frozenset({"%", "&", "|", "^", "<<", ">>"})


def _type_name(base: str, struct: Optional[str], ptr: int) -> str:
    """The canonical type string: ``int``, ``int*``, ``struct Pt``, ..."""
    name = f"struct {struct}" if base == "struct" else base
    return name + "*" * ptr


def _is_pointer(typ: str) -> bool:
    return typ.endswith("*")


def _pointee(typ: str) -> str:
    return typ[:-1]


def _is_struct_value(typ: str) -> bool:
    return typ.startswith("struct ") and not typ.endswith("*")


class _Symbol:
    """A resolved name: local slot, global, or array parameter."""

    __slots__ = ("kind", "typ", "slot", "glob", "is_array")

    def __init__(self, kind, typ, slot=None, glob=None, is_array=False):
        self.kind = kind  # 'local' | 'global'
        self.typ = typ
        self.slot = slot
        self.glob = glob
        self.is_array = is_array


class _FunctionCodegen:
    """Generate naive RTL for one function."""

    def __init__(self, generator: "CodeGenerator", node: ast.FuncDef):
        self.generator = generator
        self.node = node
        self.ret_typ = node.ret_type + "*" * getattr(node, "ret_ptr", 0)
        # Address-exposed scalars must stay memory-resident: the frame
        # reference analysis assumes loaded values are never frame
        # addresses, so a scalar whose address escapes into a pointer
        # would otherwise be promoted to a register while stores through
        # the pointer still hit its stack slot.  Pinning the slot
        # (``is_array=True``) takes it out of ``scalar_slots()`` and
        # keeps register allocation sound.
        self.exposed = generator.sema.alias.exposed_in(node.name)
        self.func = Function(node.name, returns_value=node.ret_type != "void")
        self.symbols: Dict[str, _Symbol] = {}
        self.current: BasicBlock = self.func.add_block()
        self.exit_label = "Lexit"
        self.break_stack: List[str] = []
        self.continue_stack: List[str] = []

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def emit(self, inst) -> None:
        self.current.insts.append(inst)

    def start_block(self, label: str) -> BasicBlock:
        block = BasicBlock(label)
        self.func.blocks.append(block)
        self.current = block
        return block

    def new_label(self) -> str:
        return self.func.new_label()

    def fresh(self) -> Reg:
        return self.func.new_reg()

    def emit_int_const(self, value: int) -> Reg:
        """Load an integer constant, splitting values too big for one RTL."""
        reg = self.fresh()
        if abs(value) <= ALU_IMM_LIMIT:
            self.emit(Assign(reg, Const(value)))
            return reg
        unsigned = value & 0xFFFFFFFF
        high = (unsigned >> 16) & 0xFFFF
        low = unsigned & 0xFFFF
        self.emit(Assign(reg, Const(high)))
        shifted = self.fresh()
        self.emit(Assign(shifted, BinOp("lsl", reg, Const(16))))
        result = self.fresh()
        self.emit(Assign(result, BinOp("or", shifted, Const(low))))
        return result

    def local_addr(self, offset: int) -> Reg:
        reg = self.fresh()
        if offset == 0:
            self.emit(Assign(reg, FP))
        else:
            self.emit(Assign(reg, BinOp("add", FP, Const(offset))))
        return reg

    def global_addr(self, name: str) -> Reg:
        high = self.fresh()
        self.emit(Assign(high, Sym(name, "hi")))
        addr = self.fresh()
        self.emit(Assign(addr, BinOp("add", high, Sym(name, "lo"))))
        return addr

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------

    def declare_local(
        self,
        name: str,
        typ: str,
        words: int,
        is_array: bool,
        line: int,
        is_param=False,
        pinned=False,
    ) -> _Symbol:
        # A pinned slot is memory-resident (its address escapes via `&`
        # or it holds a struct value) but the *symbol* stays scalar:
        # marking the slot is_array excludes it from scalar_slots(), so
        # the frame-reference analysis and register allocator never
        # promote it, while name lookup still loads/stores the value.
        if name in self.symbols:
            raise CompileError(f"redeclaration of {name!r}", line)
        slot = self.func.add_local(name, words, typ, is_array or pinned, is_param)
        symbol = _Symbol("local", typ, slot=slot, is_array=is_array)
        self.symbols[name] = symbol
        return symbol

    def lookup(self, name: str, line: int) -> _Symbol:
        symbol = self.symbols.get(name)
        if symbol is not None:
            return symbol
        glob = self.generator.program.globals.get(name)
        if glob is not None:
            return _Symbol("global", glob.typ, glob=glob, is_array=glob.is_array)
        raise CompileError(f"undeclared identifier {name!r}", line)

    # ------------------------------------------------------------------
    # Top-level driver
    # ------------------------------------------------------------------

    def run(self) -> Function:
        node = self.node
        if len(node.params) > 4:
            raise CompileError(
                f"{node.name}: at most 4 parameters are supported", node.line
            )
        for i, param in enumerate(node.params):
            # An array parameter's slot holds the array base address.
            ptyp = _type_name(param.typ, getattr(param, "struct", None), getattr(param, "ptr", 0))
            if _is_struct_value(ptyp) and not param.is_array:
                raise CompileError(
                    f"struct parameter {param.name!r} must be a pointer", node.line
                )
            symbol = self.declare_local(
                param.name,
                ptyp,
                1,
                False,
                node.line,
                is_param=True,
                pinned=param.name in self.exposed,
            )
            symbol.is_array = param.is_array
            addr = self.local_addr(symbol.slot.offset)
            self.emit(Assign(Mem(addr), ARG_REGS[i]))
        self.gen_stmt(node.body)
        if self.current.terminator() is None:
            if self._current_is_unreachable():
                # The trailing block opened after a return/break is
                # empty and unreferenced; drop it rather than emit an
                # unreachable jump (VPO's frontend does not emit dead
                # code, which is why phase d is so rarely active).
                self.func.blocks.remove(self.current)
            else:
                self.emit(Jump(self.exit_label))
        exit_block = self.start_block(self.exit_label)
        exit_block.insts.append(Return())
        validate_function(self.func)
        return self.func

    def _current_is_unreachable(self) -> bool:
        """The current block is empty, unreferenced, and not fallen into."""
        if self.current.insts or self.current is self.func.blocks[0]:
            return False
        for block in self.func.blocks:
            if block is self.current:
                continue
            term = block.terminator()
            if isinstance(term, (Jump, CondBranch)) and term.target == self.current.label:
                return False
        index = self.func.blocks.index(self.current)
        previous = self.func.blocks[index - 1]
        return previous.terminator() is not None and not isinstance(
            previous.terminator(), CondBranch
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                self.gen_stmt(child)
        elif isinstance(stmt, ast.DeclStmt):
            self.gen_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self.eval_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self.gen_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self.gen_while(stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self.gen_do_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self.gen_for(stmt)
        elif isinstance(stmt, ast.SwitchStmt):
            self.gen_switch(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self.gen_return(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.break_stack:
                raise CompileError("break outside a loop", stmt.line)
            self.emit(Jump(self.break_stack[-1]))
            self.start_block(self.new_label())
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.continue_stack:
                raise CompileError("continue outside a loop", stmt.line)
            self.emit(Jump(self.continue_stack[-1]))
            self.start_block(self.new_label())
        else:
            raise CompileError(f"cannot generate {type(stmt).__name__}", stmt.line)

    def gen_decl(self, stmt: ast.DeclStmt) -> None:
        typ = _type_name(stmt.typ, getattr(stmt, "struct", None), getattr(stmt, "ptr", 0))
        if stmt.array_size is not None:
            self.declare_local(stmt.name, typ, stmt.array_size, True, stmt.line)
            return
        if _is_struct_value(typ):
            fields = self.generator.struct_fields(typ, stmt.line)
            self.declare_local(stmt.name, typ, len(fields), False, stmt.line, pinned=True)
            return  # struct locals have no initializers (parser-enforced)
        symbol = self.declare_local(
            stmt.name, typ, 1, False, stmt.line, pinned=stmt.name in self.exposed
        )
        if stmt.init is not None:
            value, value_typ = self.eval_expr(stmt.init)
            value = self.convert(value, value_typ, typ)
            addr = self.local_addr(symbol.slot.offset)
            self.emit(Assign(Mem(addr), value))

    def gen_if(self, stmt: ast.IfStmt) -> None:
        then_label = self.new_label()
        end_label = self.new_label()
        else_label = self.new_label() if stmt.else_body is not None else end_label
        self.gen_cond(stmt.cond, then_label, else_label)
        self.start_block(then_label)
        self.gen_stmt(stmt.then_body)
        if stmt.else_body is not None:
            if self.current.terminator() is None:
                self.emit(Jump(end_label))
            self.start_block(else_label)
            self.gen_stmt(stmt.else_body)
        self.start_block(end_label)

    def gen_while(self, stmt: ast.WhileStmt) -> None:
        cond_label = self.new_label()
        body_label = self.new_label()
        exit_label = self.new_label()
        self.start_block(cond_label)
        self.gen_cond(stmt.cond, body_label, exit_label)
        self.start_block(body_label)
        self.break_stack.append(exit_label)
        self.continue_stack.append(cond_label)
        self.gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        if self.current.terminator() is None:
            self.emit(Jump(cond_label))
        self.start_block(exit_label)

    def gen_do_while(self, stmt: ast.DoWhileStmt) -> None:
        body_label = self.new_label()
        cond_label = self.new_label()
        exit_label = self.new_label()
        self.start_block(body_label)
        self.break_stack.append(exit_label)
        self.continue_stack.append(cond_label)
        self.gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.start_block(cond_label)
        self.gen_cond(stmt.cond, body_label, exit_label)
        self.start_block(exit_label)

    def gen_for(self, stmt: ast.ForStmt) -> None:
        cond_label = self.new_label()
        body_label = self.new_label()
        step_label = self.new_label()
        exit_label = self.new_label()
        if stmt.init is not None:
            self.eval_expr(stmt.init)
        self.start_block(cond_label)
        if stmt.cond is not None:
            self.gen_cond(stmt.cond, body_label, exit_label)
        else:
            self.emit(Jump(body_label))
        self.start_block(body_label)
        self.break_stack.append(exit_label)
        self.continue_stack.append(step_label)
        self.gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.start_block(step_label)
        if stmt.step is not None:
            self.eval_expr(stmt.step)
        self.emit(Jump(cond_label))
        self.start_block(exit_label)

    def gen_switch(self, stmt: ast.SwitchStmt) -> None:
        """Lower switch to a compare chain plus fallthrough bodies.

        The dispatch sequence compares the selector against each case
        constant in source order; bodies are laid out in order so C
        fallthrough semantics come from plain block fallthrough.
        ``break`` targets the switch exit.
        """
        selector, typ = self.eval_expr(stmt.selector)
        if typ != "int":
            raise CompileError("switch selector must be int", stmt.line)
        exit_label = self.new_label()
        case_labels = [self.new_label() for _ in stmt.cases]
        default_label = exit_label
        for label, case in zip(case_labels, stmt.cases):
            if case.value is None:
                default_label = label
        for label, case in zip(case_labels, stmt.cases):
            if case.value is None:
                continue
            constant = self.emit_int_const(case.value)
            self.emit(Compare(selector, constant))
            self.emit(CondBranch("eq", label))
            self.start_block(self.new_label())
        self.emit(Jump(default_label))
        self.break_stack.append(exit_label)
        for label, case in zip(case_labels, stmt.cases):
            self.start_block(label)
            for child in case.body:
                self.gen_stmt(child)
        self.break_stack.pop()
        if self.current.terminator() is None:
            pass  # fall through into the exit block
        self.start_block(exit_label)

    def gen_return(self, stmt: ast.ReturnStmt) -> None:
        if stmt.value is not None:
            if not self.func.returns_value:
                raise CompileError("return with a value in void function", stmt.line)
            value, typ = self.eval_expr(stmt.value)
            value = self.convert(value, typ, self.ret_typ)
            self.emit(Assign(RV, value))
        elif self.func.returns_value:
            raise CompileError("return without a value", stmt.line)
        self.emit(Jump(self.exit_label))
        self.start_block(self.new_label())

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------

    def gen_cond(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        """End the current block branching on *expr*.

        The naive shape is ``IC=...; PC=IC relop 0,true; PC=false;`` —
        the redundant half is later removed by phases u/i/r.
        """
        if isinstance(expr, ast.IntLit):
            self.emit(Jump(true_label if expr.value != 0 else false_label))
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.gen_cond(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            mid = self.new_label()
            self.gen_cond(expr.left, mid, false_label)
            self.start_block(mid)
            self.gen_cond(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            mid = self.new_label()
            self.gen_cond(expr.left, true_label, mid)
            self.start_block(mid)
            self.gen_cond(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op in _RELOPS:
            left, left_typ = self.eval_expr(expr.left)
            right, right_typ = self.eval_expr(expr.right)
            if left_typ == right_typ:
                common = left_typ
            else:
                common = "float" if "float" in (left_typ, right_typ) else "int"
            left = self.convert(left, left_typ, common)
            right = self.convert(right, right_typ, common)
            self.emit(Compare(left, right))
            self.emit(CondBranch(_RELOPS[expr.op], true_label))
            self.start_block(self.new_label())
            self.emit(Jump(false_label))
            self.start_block(self.new_label())
            return
        value, typ = self.eval_expr(expr)
        zero = self.fresh()
        self.emit(Assign(zero, Const(0.0 if typ == "float" else 0)))
        self.emit(Compare(value, zero))
        self.emit(CondBranch("ne", true_label))
        self.start_block(self.new_label())
        self.emit(Jump(false_label))
        self.start_block(self.new_label())

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def convert(self, reg: Reg, from_typ: str, to_typ: str) -> Reg:
        if from_typ == to_typ:
            return reg
        if _is_pointer(from_typ) or _is_pointer(to_typ):
            # Pointers are word-sized addresses: int<->pointer and
            # pointer<->pointer conversions reinterpret, never convert.
            if "float" in (from_typ, to_typ):
                raise CompileError(f"cannot convert {from_typ} to {to_typ}")
            return reg
        result = self.fresh()
        if from_typ == "int" and to_typ == "float":
            self.emit(Assign(result, UnOp("itof", reg)))
        elif from_typ == "float" and to_typ == "int":
            self.emit(Assign(result, UnOp("ftoi", reg)))
        else:
            raise CompileError(f"cannot convert {from_typ} to {to_typ}")
        return result

    def eval_expr(self, expr: ast.Expr) -> Tuple[Reg, str]:
        if isinstance(expr, ast.IntLit):
            return self.emit_int_const(expr.value), "int"
        if isinstance(expr, ast.FloatLit):
            reg = self.fresh()
            self.emit(Assign(reg, Const(float(expr.value))))
            return reg, "float"
        if isinstance(expr, ast.Var):
            return self.load_var(expr)
        if isinstance(expr, ast.Index):
            addr, typ = self.element_addr(expr)
            value = self.fresh()
            self.emit(Assign(value, Mem(addr)))
            return value, typ
        if isinstance(expr, ast.AddrOf):
            return self.eval_addrof(expr)
        if isinstance(expr, ast.Deref):
            pointer, typ = self.eval_expr(expr.operand)
            if not _is_pointer(typ):
                raise CompileError("cannot dereference a non-pointer", expr.line)
            pointee = _pointee(typ)
            if _is_struct_value(pointee):
                raise CompileError(
                    "cannot load a whole struct; select a member", expr.line
                )
            value = self.fresh()
            self.emit(Assign(value, Mem(pointer)))
            return value, pointee
        if isinstance(expr, ast.Member):
            addr, typ = self.member_addr(expr)
            value = self.fresh()
            self.emit(Assign(value, Mem(addr)))
            return value, typ
        if isinstance(expr, ast.Unary):
            return self.eval_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.eval_binary(expr)
        if isinstance(expr, ast.CallExpr):
            return self.eval_call(expr)
        if isinstance(expr, ast.AssignExpr):
            return self.eval_assign(expr)
        if isinstance(expr, ast.IncDec):
            return self.eval_incdec(expr)
        raise CompileError(f"cannot evaluate {type(expr).__name__}", expr.line)

    def load_var(self, expr: ast.Var) -> Tuple[Reg, str]:
        symbol = self.lookup(expr.name, expr.line)
        if symbol.is_array:
            # An array name evaluates to its base address.
            return self.array_base(symbol), "int"
        if _is_struct_value(symbol.typ):
            raise CompileError(
                f"struct value {expr.name!r} cannot be used as a value", expr.line
            )
        if symbol.kind == "local":
            addr = self.local_addr(symbol.slot.offset)
        else:
            addr = self.global_addr(symbol.glob.name)
        value = self.fresh()
        self.emit(Assign(value, Mem(addr)))
        return value, symbol.typ

    def array_base(self, symbol: _Symbol) -> Reg:
        if symbol.kind == "global":
            return self.global_addr(symbol.glob.name)
        if symbol.slot.is_array:
            return self.local_addr(symbol.slot.offset)
        # Array parameter: the slot holds the base address.
        addr = self.local_addr(symbol.slot.offset)
        base = self.fresh()
        self.emit(Assign(base, Mem(addr)))
        return base

    def element_addr(self, expr: ast.Index) -> Tuple[Reg, str]:
        symbol = self.lookup(expr.base, expr.line)
        if symbol.is_array:
            base = self.array_base(symbol)
            elem_typ = symbol.typ
            stride = 4
        elif _is_pointer(symbol.typ):
            # p[i] on a pointer variable: load the pointer value, then
            # index with the pointee's stride.
            elem_typ = _pointee(symbol.typ)
            if _is_struct_value(elem_typ):
                raise CompileError(
                    f"cannot index a struct pointer; use {expr.base}->field",
                    expr.line,
                )
            if symbol.kind == "local":
                addr = self.local_addr(symbol.slot.offset)
            else:
                addr = self.global_addr(symbol.glob.name)
            base = self.fresh()
            self.emit(Assign(base, Mem(addr)))
            stride = self.generator.stride_of(elem_typ)
        else:
            raise CompileError(f"{expr.base!r} is not an array", expr.line)
        index, index_typ = self.eval_expr(expr.index)
        if index_typ != "int":
            raise CompileError("array index must be int", expr.line)
        four = self.fresh()
        self.emit(Assign(four, Const(stride)))
        scaled = self.fresh()
        self.emit(Assign(scaled, BinOp("mul", index, four)))
        addr = self.fresh()
        self.emit(Assign(addr, BinOp("add", base, scaled)))
        return addr, elem_typ

    def eval_unary(self, expr: ast.Unary) -> Tuple[Reg, str]:
        if expr.op == "!":
            return self.eval_as_flag(expr)
        operand, typ = self.eval_expr(expr.operand)
        result = self.fresh()
        if expr.op == "-":
            self.emit(Assign(result, UnOp("fneg" if typ == "float" else "neg", operand)))
            return result, typ
        if expr.op == "~":
            if typ != "int":
                raise CompileError("~ requires an int operand", expr.line)
            self.emit(Assign(result, UnOp("not", operand)))
            return result, "int"
        raise CompileError(f"bad unary operator {expr.op!r}", expr.line)

    def eval_addrof(self, expr: ast.AddrOf) -> Tuple[Reg, str]:
        operand = expr.operand
        if isinstance(operand, ast.Var):
            symbol = self.lookup(operand.name, operand.line)
            if symbol.is_array:
                raise CompileError(
                    "cannot take the address of an array; use &a[0]", expr.line
                )
            if symbol.kind == "local":
                addr = self.local_addr(symbol.slot.offset)
            else:
                addr = self.global_addr(symbol.glob.name)
            return addr, symbol.typ + "*"
        if isinstance(operand, ast.Index):
            addr, typ = self.element_addr(operand)
            return addr, typ + "*"
        if isinstance(operand, ast.Member):
            addr, typ = self.member_addr(operand)
            return addr, typ + "*"
        if isinstance(operand, ast.Deref):
            # &*p is just p (no load).
            return self.eval_expr(operand.operand)
        raise CompileError("cannot take the address of this expression", expr.line)

    def member_addr(self, expr: ast.Member) -> Tuple[Reg, str]:
        """The address and type of ``base.field`` / ``base->field``."""
        base = expr.base
        if expr.arrow or isinstance(base, ast.Deref):
            operand = base if expr.arrow else base.operand
            pointer, typ = self.eval_expr(operand)
            if not (_is_pointer(typ) and _is_struct_value(_pointee(typ))):
                raise CompileError(
                    "member access requires a struct or struct pointer", expr.line
                )
            addr, tag = pointer, _pointee(typ)
        elif isinstance(base, ast.Var):
            symbol = self.lookup(base.name, base.line)
            if symbol.is_array or not _is_struct_value(symbol.typ):
                raise CompileError(
                    "member access requires a struct or struct pointer", expr.line
                )
            if symbol.kind == "local":
                addr = self.local_addr(symbol.slot.offset)
            else:
                addr = self.global_addr(symbol.glob.name)
            tag = symbol.typ
        else:
            raise CompileError("cannot select a member of this expression", expr.line)
        fields = self.generator.struct_fields(tag, expr.line)
        for i, (fname, ftyp) in enumerate(fields):
            if fname == expr.field:
                break
        else:
            raise CompileError(
                f"{tag!r} has no field {expr.field!r}", expr.line
            )
        if i == 0:
            return addr, ftyp
        # Fields are one word each (scalars and pointers only).
        out = self.fresh()
        self.emit(Assign(out, BinOp("add", addr, Const(4 * i))))
        return out, ftyp

    def pointer_offset(self, op: str, pointer: Reg, typ: str, index: Reg) -> Reg:
        """``pointer op index`` scaled by the pointee stride."""
        stride = self.fresh()
        self.emit(Assign(stride, Const(self.generator.stride_of(_pointee(typ)))))
        scaled = self.fresh()
        self.emit(Assign(scaled, BinOp("mul", index, stride)))
        out = self.fresh()
        self.emit(Assign(out, BinOp(op, pointer, scaled)))
        return out

    def pointer_binary(
        self, expr: ast.Binary, left: Reg, left_typ: str, right: Reg, right_typ: str
    ) -> Tuple[Reg, str]:
        if expr.op == "+":
            if _is_pointer(left_typ) and right_typ == "int":
                return self.pointer_offset("add", left, left_typ, right), left_typ
            if left_typ == "int" and _is_pointer(right_typ):
                return self.pointer_offset("add", right, right_typ, left), right_typ
        elif expr.op == "-":
            if _is_pointer(left_typ) and right_typ == "int":
                return self.pointer_offset("sub", left, left_typ, right), left_typ
            if _is_pointer(left_typ) and left_typ == right_typ:
                # Pointer difference: subtract, then divide by stride.
                raw = self.fresh()
                self.emit(Assign(raw, BinOp("sub", left, right)))
                stride = self.fresh()
                self.emit(
                    Assign(stride, Const(self.generator.stride_of(_pointee(left_typ))))
                )
                out = self.fresh()
                self.emit(Assign(out, BinOp("div", raw, stride)))
                return out, "int"
        raise CompileError(
            f"invalid pointer arithmetic: {left_typ} {expr.op} {right_typ}", expr.line
        )

    def eval_binary(self, expr: ast.Binary) -> Tuple[Reg, str]:
        if expr.op in _RELOPS or expr.op in ("&&", "||"):
            return self.eval_as_flag(expr)
        left, left_typ = self.eval_expr(expr.left)
        right, right_typ = self.eval_expr(expr.right)
        if _is_pointer(left_typ) or _is_pointer(right_typ):
            return self.pointer_binary(expr, left, left_typ, right, right_typ)
        if expr.op in _INT_ONLY:
            if left_typ != "int" or right_typ != "int":
                raise CompileError(f"{expr.op} requires int operands", expr.line)
            common = "int"
        else:
            common = "float" if "float" in (left_typ, right_typ) else "int"
        left = self.convert(left, left_typ, common)
        right = self.convert(right, right_typ, common)
        op = _FLOAT_BINOPS[expr.op] if common == "float" else _INT_BINOPS[expr.op]
        result = self.fresh()
        self.emit(Assign(result, BinOp(op, left, right)))
        return result, common

    def eval_as_flag(self, expr: ast.Expr) -> Tuple[Reg, str]:
        """Materialize a boolean expression as 0/1 in a register."""
        result = self.fresh()
        true_label = self.new_label()
        false_label = self.new_label()
        end_label = self.new_label()
        self.gen_cond(expr, true_label, false_label)
        self.start_block(true_label)
        self.emit(Assign(result, Const(1)))
        self.emit(Jump(end_label))
        self.start_block(false_label)
        self.emit(Assign(result, Const(0)))
        self.start_block(end_label)
        return result, "int"

    def eval_call(self, expr: ast.CallExpr) -> Tuple[Reg, str]:
        signature = self.generator.signatures.get(expr.name)
        if signature is None:
            raise CompileError(f"call to undeclared function {expr.name!r}", expr.line)
        ret_type, params = signature
        if len(expr.args) != len(params):
            raise CompileError(
                f"{expr.name} expects {len(params)} arguments, got {len(expr.args)}",
                expr.line,
            )
        values: List[Reg] = []
        for arg, param in zip(expr.args, params):
            if param.is_array:
                if isinstance(arg, ast.Var):
                    symbol = self.lookup(arg.name, arg.line)
                    if symbol.is_array:
                        values.append(self.array_base(symbol))
                        continue
                value, typ = self.eval_expr(arg)
                if not _is_pointer(typ):
                    raise CompileError(
                        f"argument to array parameter {param.name!r} must be "
                        "an array or pointer",
                        expr.line,
                    )
                values.append(value)
                continue
            ptyp = _type_name(param.typ, getattr(param, "struct", None), getattr(param, "ptr", 0))
            value, typ = self.eval_expr(arg)
            values.append(self.convert(value, typ, ptyp))
        for i, value in enumerate(values):
            self.emit(Assign(ARG_REGS[i], value))
        self.emit(Call(expr.name, len(values)))
        if ret_type == "void":
            return RV, "int"  # value must not be used; typechecked below
        result = self.fresh()
        self.emit(Assign(result, RV))
        return result, ret_type

    def eval_assign(self, expr: ast.AssignExpr) -> Tuple[Reg, str]:
        target = expr.target
        if isinstance(target, (ast.Deref, ast.Member)):
            return self.eval_assign_indirect(expr)
        if isinstance(target, ast.Var):
            symbol = self.lookup(target.name, target.line)
            if symbol.is_array:
                raise CompileError("cannot assign to an array", expr.line)
            if _is_struct_value(symbol.typ):
                raise CompileError("cannot assign a whole struct", expr.line)
            target_typ = symbol.typ

            def make_addr():
                if symbol.kind == "local":
                    return self.local_addr(symbol.slot.offset)
                return self.global_addr(symbol.glob.name)

        else:
            assert isinstance(target, ast.Index)
            symbol = self.lookup(target.base, target.line)
            if symbol.is_array:
                target_typ = symbol.typ
            elif _is_pointer(symbol.typ):
                target_typ = _pointee(symbol.typ)
            else:
                target_typ = symbol.typ

            def make_addr():
                addr, __ = self.element_addr(target)
                return addr

        if expr.op == "=":
            value, value_typ = self.eval_expr(expr.value)
            value = self.convert(value, value_typ, target_typ)
            addr = make_addr()
            self.emit(Assign(Mem(addr), value))
            return value, target_typ

        # Compound assignment: read-modify-write, naively recomputing
        # the address (CSE later removes the duplicate computation).
        load_addr = make_addr()
        old = self.fresh()
        self.emit(Assign(old, Mem(load_addr)))
        rhs, rhs_typ = self.eval_expr(expr.value)
        value = self.apply_compound(expr, old, target_typ, rhs, rhs_typ)
        store_addr = make_addr()
        self.emit(Assign(Mem(store_addr), value))
        return value, target_typ

    def eval_assign_indirect(self, expr: ast.AssignExpr) -> Tuple[Reg, str]:
        """Assignment through ``*p`` or ``s.f`` / ``p->f`` targets.

        Unlike direct targets, the address computation determines the
        target type, so the address is evaluated before the value.
        """
        target = expr.target

        def make_addr() -> Tuple[Reg, str]:
            if isinstance(target, ast.Member):
                return self.member_addr(target)
            pointer, typ = self.eval_expr(target.operand)
            if not _is_pointer(typ):
                raise CompileError("cannot assign through a non-pointer", expr.line)
            pointee = _pointee(typ)
            if _is_struct_value(pointee):
                raise CompileError("cannot assign a whole struct", expr.line)
            return pointer, pointee

        if expr.op == "=":
            addr, target_typ = make_addr()
            value, value_typ = self.eval_expr(expr.value)
            value = self.convert(value, value_typ, target_typ)
            self.emit(Assign(Mem(addr), value))
            return value, target_typ
        load_addr, target_typ = make_addr()
        old = self.fresh()
        self.emit(Assign(old, Mem(load_addr)))
        rhs, rhs_typ = self.eval_expr(expr.value)
        value = self.apply_compound(expr, old, target_typ, rhs, rhs_typ)
        store_addr, __ = make_addr()
        self.emit(Assign(Mem(store_addr), value))
        return value, target_typ

    def apply_compound(
        self, expr: ast.AssignExpr, old: Reg, target_typ: str, rhs: Reg, rhs_typ: str
    ) -> Reg:
        """Emit the combine step of ``target op= rhs`` and return the
        value to store back."""
        op_text = expr.op[:-1]
        if _is_pointer(target_typ):
            if op_text not in ("+", "-") or rhs_typ != "int":
                raise CompileError(
                    f"{expr.op} on a pointer requires an int operand", expr.line
                )
            return self.pointer_offset(
                _INT_BINOPS[op_text], old, target_typ, rhs
            )
        if op_text in _INT_ONLY:
            if target_typ != "int" or rhs_typ != "int":
                raise CompileError(f"{expr.op} requires int operands", expr.line)
            common = "int"
        else:
            common = "float" if "float" in (target_typ, rhs_typ) else "int"
        left = self.convert(old, target_typ, common)
        right = self.convert(rhs, rhs_typ, common)
        op = _FLOAT_BINOPS[op_text] if common == "float" else _INT_BINOPS[op_text]
        computed = self.fresh()
        self.emit(Assign(computed, BinOp(op, left, right)))
        return self.convert(computed, common, target_typ)

    def eval_incdec(self, expr: ast.IncDec) -> Tuple[Reg, str]:
        binary_op = "+" if expr.op == "++" else "-"
        one = ast.IntLit(line=expr.line, value=1)
        assign = ast.AssignExpr(
            line=expr.line, target=expr.target, op=binary_op + "=", value=one
        )
        if expr.prefix:
            return self.eval_assign(assign)
        # Postfix: remember the old value first.
        old, typ = self.eval_expr(expr.target)
        self.eval_assign(assign)
        return old, typ


class CodeGenerator:
    """Translate a parsed translation unit into a :class:`Program`."""

    def __init__(self):
        self.program = Program()
        self.signatures: Dict[str, Tuple[str, List[ast.Param]]] = {}
        self.structs: Dict[str, List[Tuple[str, str]]] = {}
        self.sema = None

    def struct_fields(self, tag: str, line: int) -> List[Tuple[str, str]]:
        """The ``(name, type)`` field list of ``struct Tag``."""
        name = tag[len("struct "):] if tag.startswith("struct ") else tag
        fields = self.structs.get(name)
        if fields is None:
            raise CompileError(f"unknown struct {name!r}", line)
        return fields

    def stride_of(self, typ: str) -> int:
        """Bytes between consecutive objects of *typ* (pointer stride)."""
        if _is_struct_value(typ):
            return 4 * len(self.struct_fields(typ, 0))
        return 4

    def generate(self, unit: ast.TranslationUnit, sema) -> Program:
        """The program of *unit*, which *sema* (its clean
        :class:`~repro.frontend.sema.SemaResult`) has checked."""
        self.sema = sema
        for struct in getattr(unit, "structs", ()):
            if struct.name in self.structs:
                raise CompileError(f"redefinition of struct {struct.name!r}", struct.line)
            self.structs[struct.name] = [
                (f.name, _type_name(f.typ, f.struct, f.ptr)) for f in struct.fields
            ]
        for decl in unit.globals:
            typ = _type_name(
                decl.typ, getattr(decl, "struct", None), getattr(decl, "ptr", 0)
            )
            if decl.array_size is not None:
                words = decl.array_size
            elif _is_struct_value(typ):
                words = len(self.struct_fields(typ, decl.line))
            else:
                words = 1
            init: List[Union[int, float]] = list(decl.init or [])
            if len(init) > words:
                raise CompileError(f"too many initializers for {decl.name!r}", decl.line)
            zero: Union[int, float] = 0.0 if decl.typ == "float" else 0
            init.extend([zero] * (words - len(init)))
            self.program.add_global(
                GlobalVar(decl.name, words, typ, init, decl.array_size is not None)
            )
        for node in unit.functions:
            if node.name in self.signatures:
                raise CompileError(f"redefinition of {node.name!r}", node.line)
            ret = node.ret_type + "*" * getattr(node, "ret_ptr", 0)
            self.signatures[node.name] = (ret, node.params)
        for node in unit.functions:
            func = _FunctionCodegen(self, node).run()
            func.mem_facts = {
                # Offsets of memory slots whose address never escapes:
                # scalars are only addressable through `&`, and every
                # address-taken scalar was pinned out of scalar_slots().
                "frame_private": sorted(
                    slot.offset for slot in func.scalar_slots()
                ),
            }
            self.program.add_function(func)
        return self.program


#: Programs in ``_COMPILED`` before it is cleared: far more distinct
#: sources than one client or one study compiles.
_COMPILED_MAX = 64

#: source text -> the Program compiled from it.  Entries are never
#: handed out, so never mutated: callers get copies.
_COMPILED: Dict[str, Program] = {}


def compile_source(source: str) -> Program:
    """Compile mini-C *source* into a Program of naive RTL functions.

    Semantic analysis (type checking, definite assignment, alias
    analysis) gates code generation: any error-severity diagnostic
    raises :class:`CompileError` with the full diagnostic list attached
    as ``error.diagnostics``.

    Each source is compiled once per process: the program is kept in a
    bounded table keyed by the exact source text (a source that raises
    is not kept), and every call returns a fresh :class:`Program` of
    :meth:`Function.clone` copies and a copy of the globals dict, so a
    caller may mutate its program.  The :class:`GlobalVar` objects are
    shared and must not be mutated.
    """
    program = _COMPILED.get(source)
    if program is None:
        program = _compile(source)
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.clear()
        _COMPILED[source] = program
    copy = Program()
    copy.globals = dict(program.globals)
    copy.functions = {name: func.clone() for name, func in program.functions.items()}
    return copy


def _compile(source: str) -> Program:
    unit = parse(source)
    from repro.frontend.sema import analyze

    sema = analyze(unit)
    errors = sema.errors
    if errors:
        first = errors[0]
        error = CompileError(f"{first.code}: {first.message}", first.line, first.column)
        error.diagnostics = sema.diagnostics
        raise error
    return CodeGenerator().generate(unit, sema)
