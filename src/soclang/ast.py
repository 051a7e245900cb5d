"""Abstract syntax shared by every phase of the toolchain.

Nodes are plain dataclasses. Source spans and node ids never participate in
equality, so `==` is structural equality modulo locations, which is what the
round-trip tests compare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

_node_ids = itertools.count()


def fresh_node_id() -> int:
    return next(_node_ids)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col: int
    end_line: int
    end_col: int
    synthetic: bool = False

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


SYNTHETIC = SourceSpan("<synthetic>", 0, 0, 0, 0, synthetic=True)


# ---------------------------------------------------------------------------
# Types


class TypeExpr:
    """Base class for type expressions."""


@dataclass(frozen=True)
class BoolType(TypeExpr):
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class BitIntType(TypeExpr):
    width: int  # >= 1

    def __str__(self) -> str:
        return f"BitInt({self.width})"


@dataclass(frozen=True)
class IntType(TypeExpr):
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class UnitType(TypeExpr):
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class EnumRef(TypeExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AliasRef(TypeExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VectorType(TypeExpr):
    elem: TypeExpr
    length: int  # >= 0

    def __str__(self) -> str:
        return f"Vector<{self.elem}, {self.length}>"


@dataclass(frozen=True)
class RecordType(TypeExpr):
    fields: tuple  # tuple[tuple[str, TypeExpr], ...], order-preserving

    def __str__(self) -> str:
        inner = ", ".join(f"{n}: {t}" for n, t in self.fields)
        return "{ " + inner + " }"

    def field_type(self, name: str) -> Optional[TypeExpr]:
        for n, t in self.fields:
            if n == name:
                return t
        return None


@dataclass(frozen=True)
class ArrayType(TypeExpr):
    """Snapshot type of a primitive Array cell."""

    key: TypeExpr
    value: TypeExpr

    def __str__(self) -> str:
        return f"Array<{self.key}, {self.value}>"


BOOL = BoolType()
INT = IntType()
UNIT = UnitType()


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    span: SourceSpan = field(compare=False, repr=False)
    node_id: int = field(default_factory=fresh_node_id, compare=False, repr=False, init=False)


@dataclass
class IntLit(Expr):
    value: int
    width: Optional[int] = None  # from a u<width> suffix
    hex: bool = field(default=False, compare=False)  # presentation only


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class UnitLit(Expr):
    pass


@dataclass
class VectorLit(Expr):
    items: list  # list[Expr]


@dataclass
class RecordLit(Expr):
    fields: list  # list[tuple[str, Expr]], written order


@dataclass
class PathExpr(Expr):
    """A dotted chain of plain names; meaning resolved by the typechecker
    (variable, record field chain, or enum variant)."""

    names: list  # list[str], len >= 1


@dataclass
class FieldAccess(Expr):
    base: Expr
    name: str


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Slice(Expr):
    base: Expr
    hi: int
    lo: int


@dataclass
class IndexUpdate(Expr):
    base: Expr
    index: Expr
    value: Expr


@dataclass
class SliceUpdate(Expr):
    base: Expr
    hi: int
    lo: int
    value: Expr


@dataclass
class Unary(Expr):
    op: str  # "!" | "-"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # && || == != < <= > >= + - *
    left: Expr
    right: Expr


@dataclass
class Call(Expr):
    """Call through a dotted path: `f(..)`, `dram.store(..)`,
    `miniTX1.cpu.is_secure.set(..)`. The last path segment is the function
    (or built-in get/set/read/write/havoc) name."""

    path: list  # list[str], len >= 1
    args: list  # list[Expr]


@dataclass
class Builtin(Expr):
    """Width-conversion built-ins: zero_extend<m>, truncate<m>, from_int<m>, to_int."""

    name: str
    width: Optional[int]
    arg: Expr


@dataclass
class AnyExpr(Expr):
    type: TypeExpr


@dataclass
class Let(Expr):
    """Binding for the rest of the enclosing block."""

    name: str
    annot: Optional[TypeExpr]
    value: Expr


@dataclass
class If(Expr):
    cond: Expr
    then: "Block"
    orelse: Optional[Expr] = None  # Block or nested If ("else if")


@dataclass
class Block(Expr):
    items: list  # list[Expr]
    yields_value: bool = True  # False when the final item carries a trailing ';'


@dataclass
class Assume(Expr):
    cond: Expr


@dataclass
class Assert(Expr):
    cond: Expr


@dataclass
class Printf(Expr):
    """Format string split around {expr} holes: len(parts) == len(holes) + 1."""

    parts: list  # list[str]
    holes: list  # list[Expr]


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class InstanceRef:
    pass


@dataclass
class ModuleRef(InstanceRef):
    name: str


@dataclass
class StatePrim(InstanceRef):
    value_type: TypeExpr
    init: Expr


@dataclass
class ArrayPrim(InstanceRef):
    key_type: TypeExpr
    value_type: TypeExpr


@dataclass
class InstanceDecl:
    name: str
    ref: InstanceRef
    span: SourceSpan = field(compare=False)


@dataclass
class CalleeDecl:
    name: str
    module: str
    span: SourceSpan = field(compare=False)


@dataclass
class Wiring:
    child_path: list  # list[str]: child instance then callee name
    target_path: list  # list[str]: instance of the wiring module
    span: SourceSpan = field(compare=False)


@dataclass
class Param:
    name: str
    type: TypeExpr
    span: SourceSpan = field(compare=False)


@dataclass
class FnDecl:
    name: str
    is_mut: bool
    params: list  # list[Param]
    ret_type: Optional[TypeExpr]  # None means unit
    body: Block
    span: SourceSpan = field(compare=False)


@dataclass
class ModuleDecl:
    name: str
    instances: list  # list[InstanceDecl]
    callees: list  # list[CalleeDecl]
    wirings: list  # list[Wiring]
    fns: list  # list[FnDecl]
    span: SourceSpan = field(compare=False)


@dataclass
class AliasDecl:
    name: str
    type: TypeExpr
    span: SourceSpan = field(compare=False)


@dataclass
class EnumDecl:
    name: str
    variants: list  # list[str]
    span: SourceSpan = field(compare=False)


@dataclass
class Program:
    aliases: list  # list[AliasDecl]
    enums: list  # list[EnumDecl]
    modules: list  # list[ModuleDecl]
    root_name: str = "Main"
    span: SourceSpan = field(default=SYNTHETIC, compare=False)

    def module(self, name: str) -> Optional[ModuleDecl]:
        for m in self.modules:
            if m.name == name:
                return m
        return None


# ---------------------------------------------------------------------------
# Traversal


def child_exprs(e: Expr) -> Iterator[Expr]:
    """The expressions in e's fields, in field order (list items and the
    values of `(name, expr)` pairs included)."""
    for f in fields(e):
        value = getattr(e, f.name)
        for x in value if isinstance(value, list) else (value,):
            x = x[1] if isinstance(x, tuple) else x
            if isinstance(x, Expr):
                yield x


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in child_exprs(e):
        yield from walk(c)


# ---------------------------------------------------------------------------
# Pretty printer

_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
}
_UNARY_PREC = 7
_POSTFIX_PREC = 8


def _fmt_int(e: IntLit) -> str:
    if e.hex:
        text = f"0x{e.value:x}"
    else:
        text = str(e.value)
    if e.width is not None:
        text += f"u{e.width}"
    return text


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "{":
            out.append("\\{")
        elif ch == "}":
            out.append("\\}")
        else:
            out.append(ch)
    return "".join(out)


class _Printer:
    def __init__(self) -> None:
        self.out: list = []
        self.indent = 0

    def line(self, text: str = "") -> None:
        self.out.append("    " * self.indent + text if text else "")

    def text(self) -> str:
        return "\n".join(self.out) + "\n"

    # -- expressions --------------------------------------------------

    def expr(self, e: Expr, prec: int = 0) -> str:
        if isinstance(e, IntLit):
            return _fmt_int(e)
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, UnitLit):
            return "()"
        if isinstance(e, VectorLit):
            return "[" + ", ".join(self.expr(x) for x in e.items) + "]"
        if isinstance(e, RecordLit):
            inner = ", ".join(f"{n}: {self.expr(v)}" for n, v in e.fields)
            return "{ " + inner + " }"
        if isinstance(e, PathExpr):
            return ".".join(e.names)
        if isinstance(e, FieldAccess):
            return f"{self.expr(e.base, _POSTFIX_PREC)}.{e.name}"
        if isinstance(e, Index):
            return f"{self.expr(e.base, _POSTFIX_PREC)}[{self.expr(e.index)}]"
        if isinstance(e, Slice):
            return f"{self.expr(e.base, _POSTFIX_PREC)}[{e.hi} downto {e.lo}]"
        if isinstance(e, IndexUpdate):
            return (
                f"{self.expr(e.base, _POSTFIX_PREC)}"
                f"[{self.expr(e.index)} := {self.expr(e.value)}]"
            )
        if isinstance(e, SliceUpdate):
            return (
                f"{self.expr(e.base, _POSTFIX_PREC)}"
                f"[{e.hi} downto {e.lo} := {self.expr(e.value)}]"
            )
        if isinstance(e, Unary):
            s = f"{e.op}{self.expr(e.operand, _UNARY_PREC)}"
            return f"({s})" if prec > _UNARY_PREC else s
        if isinstance(e, Binary):
            p = _PREC[e.op]
            s = f"{self.expr(e.left, p)} {e.op} {self.expr(e.right, p + 1)}"
            return f"({s})" if prec >= p + 1 else s
        if isinstance(e, Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{'.'.join(e.path)}({args})"
        if isinstance(e, Builtin):
            w = f"<{e.width}>" if e.width is not None else ""
            return f"{e.name}{w}({self.expr(e.arg)})"
        if isinstance(e, AnyExpr):
            return f"any<{e.type}>"
        if isinstance(e, Let):
            annot = f": {e.annot}" if e.annot is not None else ""
            return f"let {e.name}{annot} = {self.expr(e.value)}"
        if isinstance(e, If):
            return self.if_expr(e)
        if isinstance(e, Block):
            return self.block_inline(e)
        if isinstance(e, Assume):
            return f"assume({self.expr(e.cond)})"
        if isinstance(e, Assert):
            return f"assert({self.expr(e.cond)})"
        if isinstance(e, Printf):
            pieces = [_escape(e.parts[0])]
            for part, hole in zip(e.parts[1:], e.holes):
                pieces.append("{" + self.expr(hole) + "}")
                pieces.append(_escape(part))
            return 'printf("' + "".join(pieces) + '")'
        raise AssertionError(f"unprintable node {type(e).__name__}")

    def if_expr(self, e: If) -> str:
        s = f"if {self.expr(e.cond)} {self.block_inline(e.then)}"
        if e.orelse is not None:
            if isinstance(e.orelse, If):
                s += f" else {self.if_expr(e.orelse)}"
            else:
                s += f" else {self.block_inline(e.orelse)}"
        return s

    def block_inline(self, b: Block) -> str:
        # Blocks print multi-line inside function bodies; the inline form is
        # used for nested expression positions.
        parts = [self.expr(item) for item in b.items]
        if not parts:
            return "{ }"
        sep = "; ".join(parts)
        tail = "" if b.yields_value else ";"
        return "{ " + sep + tail + " }"

    def block_lines(self, b: Block) -> None:
        self.indent += 1
        for i, item in enumerate(b.items):
            last = i == len(b.items) - 1
            text = self.expr(item)
            if not last or not b.yields_value:
                text += ";"
            self.line(text)
        self.indent -= 1

    # -- declarations ---------------------------------------------------

    def program(self, p: Program) -> str:
        for a in p.aliases:
            self.line(f"type {a.name} = {a.type};")
        if p.aliases:
            self.line()
        for en in p.enums:
            self.line(f"enum {en.name} {{ " + ", ".join(en.variants) + " }")
        if p.enums:
            self.line()
        for m in p.modules:
            self.module(m)
            self.line()
        return self.text()

    def module(self, m: ModuleDecl) -> None:
        self.line(f"module {m.name} {{")
        self.indent += 1
        for inst in m.instances:
            self.line(f"instance {inst.name}: {self.instance_ref(inst.ref)};")
        for c in m.callees:
            self.line(f"callee {c.name}: {c.module};")
        for w in m.wirings:
            self.line(f"{'.'.join(w.child_path)} -> {'.'.join(w.target_path)};")
        for fn in m.fns:
            self.fn(fn)
        self.indent -= 1
        self.line("}")

    def instance_ref(self, ref: InstanceRef) -> str:
        if isinstance(ref, ModuleRef):
            return ref.name
        if isinstance(ref, StatePrim):
            return f"State<{ref.value_type}>({self.expr(ref.init)})"
        if isinstance(ref, ArrayPrim):
            return f"Array<{ref.key_type}, {ref.value_type}>"
        raise AssertionError

    def fn(self, fn: FnDecl) -> None:
        kw = "mut fn" if fn.is_mut else "fn"
        params = ", ".join(f"{p.name}: {p.type}" for p in fn.params)
        ret = f" -> {fn.ret_type}" if fn.ret_type is not None else ""
        self.line(f"{kw} {fn.name}({params}){ret} {{")
        self.block_lines(fn.body)
        self.line("}")


def to_source(p: Program) -> str:
    """Render a program back to concrete syntax (parseable, spans discarded)."""
    return _Printer().program(p)


def expr_source(e: Expr) -> str:
    return _Printer().expr(e)
