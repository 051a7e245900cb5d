"""Abstract syntax shared by every phase of the toolchain.

Every node class derives from `Node`. A class names its own fields in
`__slots__`, and `_fields` lists all of them, inherited ones first. `==`,
`hash` and `repr` read the fields of `_fields` except source spans, node ids
and the hex flag of a literal, so `==` is structural equality modulo
locations, which is what the round-trip tests compare, and type nodes and
spans are hashable by value. A record type is the set of its (name, type)
fields, so `==` on types is the language's type equality.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable, List, Optional

_node_ids = itertools.count()


def restart_node_ids() -> None:
    """Number the expressions built from here on from 0. Each parse of a
    program starts here, so a node's id depends only on the source, in
    every process, and so does the SMT-LIB name of a choice (its site is
    a node id)."""
    global _node_ids
    _node_ids = itertools.count()


# How many levels deep a model may nest, in each of three measures:
# - an expression is one level below the expression or parenthesis that
#   holds it; a function body's items are at level 1, and a call counts as
#   its callee inlined, whose body's items are one level below the call;
# - a type is one level below the type that holds it, with aliases
#   expanded; a type written in a declaration or an expression is at 1, and
#   so is the type the checker infers for a literal, whose items' types
#   are one level below it;
# - an instance is one level below the instance of the module declaring it;
#   the root module's instances are at level 1.
# The parser counts the levels it descends (parentheses too), the checker
# those of the tree it checks, and elaboration those of instances, each
# before it recurses past the budget. Every phase recurses a few frames per
# level, so a model that passes `check` runs within the interpreter's stack.
MAX_NESTING = 128

# The widest bit width a model may name, in a `BitInt(w)` type, a `u<w>`
# suffix or a built-in's `<w>`: far past any register, and narrow enough
# that a value of every width is cheap to build.
MAX_WIDTH = 4096


def width_problem(width: int) -> Optional[str]:
    """Why `width` is not a bit width (`must be ...`), or None if it is."""
    if width < 1:
        return "must be at least 1"
    return f"must be at most {MAX_WIDTH}" if width > MAX_WIDTH else None


def number_text(value: int) -> str:
    """A literal's value as a message writes it: in decimal, or in hex past
    the digits `str()` converts, since a hex literal may be that long."""
    try:
        return str(value)
    except ValueError:
        return hex(value)


# A type's text in a message is cut after this many characters: a type that
# names one alias twice per level is a DAG whose text as a tree doubles in
# length with each level.
TYPE_TEXT_LIMIT = 200


# Fields that locate or present a node; equality, hashing and repr skip them.
_UNCOMPARED = frozenset({"span", "node_id", "hex"})


class Node:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__base__._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._compared = tuple(f for f in cls._fields if f not in _UNCOMPARED)
        # The compared values (a bare value for one field); a node without
        # compared fields is told apart by its class alone.
        cls._key = staticmethod(attrgetter(*cls._compared) if cls._compared else type)

    def __init__(self, *values) -> None:
        # Values in `_fields` order. Classes the parser or checker builds in
        # bulk define a faster, explicit `__init__`.
        for name, value in zip(self._fields, values, strict=True):
            setattr(self, name, value)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash((self.__class__, self._key(self)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({inner})"


class SourceSpan(Node):
    __slots__ = ("file", "line", "col", "end_line", "end_col", "synthetic")

    def __init__(self, file: str, line: int, col: int, end_line: int, end_col: int,
                 synthetic: bool = False) -> None:
        self.file, self.line, self.col = file, line, col
        self.end_line, self.end_col, self.synthetic = end_line, end_col, synthetic

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


SYNTHETIC = SourceSpan("<synthetic>", 0, 0, 0, 0, synthetic=True)


# ---------------------------------------------------------------------------
# Types


class TypeExpr(Node):
    """Base class for type expressions. A scalar type gives its text by
    `__str__`, a composite one by `pieces`."""

    __slots__ = ()

    def parts(self) -> tuple:
        """The types this type is made of, in order; none for a scalar."""
        return ()

    def pieces(self) -> Iterable:
        """This type's text: strings, with the types it is made of between."""
        return (str(self),)

    def __str__(self) -> str:
        """The text of a composite type, cut after `TYPE_TEXT_LIMIT`
        characters. The walk stops there, so its time is linear in what it
        writes, and it keeps its own stack, so any depth writes."""
        out: List[str] = []
        size, stack = 0, [iter(self.pieces())]
        while stack and size <= TYPE_TEXT_LIMIT:
            piece = next(stack[-1], None)
            if piece is None:
                stack.pop()
            elif isinstance(piece, str):
                out.append(piece)
                size += len(piece)
            else:
                stack.append(iter(piece.pieces()))
        text = "".join(out)
        return text if size <= TYPE_TEXT_LIMIT else text[:TYPE_TEXT_LIMIT] + "..."


class BoolType(TypeExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "Bool"


class BitIntType(TypeExpr):
    __slots__ = ("width",)  # >= 1

    def __init__(self, width: int) -> None:
        self.width = width

    def __str__(self) -> str:
        return f"BitInt({self.width})"


class IntType(TypeExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "Int"


class UnitType(TypeExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "()"


class EnumRef(TypeExpr):
    __slots__ = ("name", "variants")  # variants: tuple[str, ...], in declaration order

    def __str__(self) -> str:
        return self.name

    @property
    def width(self) -> int:
        """Backend width: ceil(log2(max(n, 2))) for n variants."""
        return max(1, (len(self.variants) - 1).bit_length())


class AliasRef(TypeExpr):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name


class VectorType(TypeExpr):
    __slots__ = ("elem", "length")  # length >= 0

    def pieces(self) -> Iterable:
        return ("Vector<", self.elem, f", {number_text(self.length)}>")

    def parts(self) -> tuple:
        return (self.elem,)


class RecordType(TypeExpr):
    __slots__ = ("fields",)  # tuple[tuple[str, TypeExpr], ...], names unique

    def __eq__(self, other: object):  # the fields as a set; their order presents the type
        if other.__class__ is not RecordType:
            return NotImplemented
        return dict(self.fields) == dict(other.fields)

    def __hash__(self) -> int:
        return hash(frozenset(self.fields))

    def pieces(self) -> Iterable:
        yield "{ "
        for i, (n, t) in enumerate(self.fields):
            yield f", {n}: " if i else f"{n}: "
            yield t
        yield " }"

    def parts(self) -> tuple:
        return tuple(t for _, t in self.fields)

    def field_type(self, name: str) -> Optional[TypeExpr]:
        for n, t in self.fields:
            if n == name:
                return t
        return None


class ArrayType(TypeExpr):
    """Snapshot type of a primitive Array cell."""

    __slots__ = ("key", "value")

    def pieces(self) -> Iterable:
        return ("Array<", self.key, ", ", self.value, ">")

    def parts(self) -> tuple:
        return (self.key, self.value)


BOOL = BoolType()
INT = IntType()
UNIT = UnitType()


# ---------------------------------------------------------------------------
# Expressions
#
# Each constructor takes the span first, then the node's own fields, and
# draws the node id itself: the parser builds thousands of nodes per file.


class Expr(Node):
    __slots__ = ("span", "node_id")

    def __init__(self, span: SourceSpan) -> None:
        self.span, self.node_id = span, next(_node_ids)


class IntLit(Expr):
    __slots__ = ("value", "width", "hex")  # width: a u<width> suffix; hex: presentation only

    def __init__(self, span: SourceSpan, value: int, width: Optional[int] = None,
                 hex: bool = False) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.value, self.width, self.hex = value, width, hex


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, span: SourceSpan, value: bool) -> None:
        self.span, self.node_id, self.value = span, next(_node_ids), value


class UnitLit(Expr):
    __slots__ = ()


class VectorLit(Expr):
    __slots__ = ("items",)  # list[Expr]

    def __init__(self, span: SourceSpan, items: list) -> None:
        self.span, self.node_id, self.items = span, next(_node_ids), items


class RecordLit(Expr):
    __slots__ = ("fields",)  # list[tuple[str, Expr]], written order

    def __init__(self, span: SourceSpan, fields: list) -> None:
        self.span, self.node_id, self.fields = span, next(_node_ids), fields


class PathExpr(Expr):
    """A dotted chain of plain names; meaning resolved by the typechecker
    (variable, record field chain, or enum variant)."""

    __slots__ = ("names",)  # list[str], len >= 1

    def __init__(self, span: SourceSpan, names: list) -> None:
        self.span, self.node_id, self.names = span, next(_node_ids), names


class FieldAccess(Expr):
    __slots__ = ("base", "name")

    def __init__(self, span: SourceSpan, base: Expr, name: str) -> None:
        self.span, self.node_id, self.base, self.name = span, next(_node_ids), base, name


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, span: SourceSpan, base: Expr, index: Expr) -> None:
        self.span, self.node_id, self.base, self.index = span, next(_node_ids), base, index


class Slice(Expr):
    __slots__ = ("base", "hi", "lo")

    def __init__(self, span: SourceSpan, base: Expr, hi: int, lo: int) -> None:
        self.span, self.node_id, self.base, self.hi, self.lo = span, next(_node_ids), base, hi, lo


class IndexUpdate(Expr):
    __slots__ = ("base", "index", "value")

    def __init__(self, span: SourceSpan, base: Expr, index: Expr, value: Expr) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.base, self.index, self.value = base, index, value


class SliceUpdate(Expr):
    __slots__ = ("base", "hi", "lo", "value")

    def __init__(self, span: SourceSpan, base: Expr, hi: int, lo: int, value: Expr) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.base, self.hi, self.lo, self.value = base, hi, lo, value


class Unary(Expr):
    __slots__ = ("op", "operand")  # op: "!" | "-"

    def __init__(self, span: SourceSpan, op: str, operand: Expr) -> None:
        self.span, self.node_id, self.op, self.operand = span, next(_node_ids), op, operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: && || == != < <= > >= + - *

    def __init__(self, span: SourceSpan, op: str, left: Expr, right: Expr) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.op, self.left, self.right = op, left, right


class Call(Expr):
    """Call through a dotted path: `f(..)`, `dram.store(..)`,
    `miniTX1.cpu.is_secure.set(..)`. The last path segment is the function
    (or built-in get/set/read/write/havoc) name."""

    __slots__ = ("path", "args")  # list[str] (len >= 1), list[Expr]

    def __init__(self, span: SourceSpan, path: list, args: list) -> None:
        self.span, self.node_id, self.path, self.args = span, next(_node_ids), path, args


class Builtin(Expr):
    """Width-conversion built-ins: zero_extend<m>, truncate<m>, from_int<m>, to_int."""

    __slots__ = ("name", "width", "arg")

    def __init__(self, span: SourceSpan, name: str, width: Optional[int], arg: Expr) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.name, self.width, self.arg = name, width, arg


class AnyExpr(Expr):
    __slots__ = ("type",)

    def __init__(self, span: SourceSpan, type: TypeExpr) -> None:
        self.span, self.node_id, self.type = span, next(_node_ids), type


class Let(Expr):
    """Binding for the rest of the enclosing block."""

    __slots__ = ("name", "annot", "value")

    def __init__(self, span: SourceSpan, name: str, annot: Optional[TypeExpr],
                 value: Expr) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.name, self.annot, self.value = name, annot, value


class If(Expr):
    __slots__ = ("cond", "then", "orelse")  # orelse: Block, nested If ("else if") or None

    def __init__(self, span: SourceSpan, cond: Expr, then: Block,
                 orelse: Optional[Expr] = None) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.cond, self.then, self.orelse = cond, then, orelse


class Block(Expr):
    # yields_value is False when the final item carries a trailing ';'
    __slots__ = ("items", "yields_value")

    def __init__(self, span: SourceSpan, items: list, yields_value: bool = True) -> None:
        self.span, self.node_id = span, next(_node_ids)
        self.items, self.yields_value = items, yields_value


class Assume(Expr):
    __slots__ = ("cond",)

    def __init__(self, span: SourceSpan, cond: Expr) -> None:
        self.span, self.node_id, self.cond = span, next(_node_ids), cond


class Assert(Expr):
    __slots__ = ("cond",)

    def __init__(self, span: SourceSpan, cond: Expr) -> None:
        self.span, self.node_id, self.cond = span, next(_node_ids), cond


class Printf(Expr):
    """Format string split around {expr} holes: len(parts) == len(holes) + 1."""

    __slots__ = ("parts", "holes")  # list[str], list[Expr]

    def __init__(self, span: SourceSpan, parts: list, holes: list) -> None:
        self.span, self.node_id, self.parts, self.holes = span, next(_node_ids), parts, holes


# ---------------------------------------------------------------------------
# Declarations


class InstanceRef(Node):
    __slots__ = ()


class ModuleRef(InstanceRef):
    __slots__ = ("name",)


class StatePrim(InstanceRef):
    __slots__ = ("value_type", "init")


class ArrayPrim(InstanceRef):
    __slots__ = ("key_type", "value_type")


class InstanceDecl(Node):
    __slots__ = ("name", "ref", "span")


class CalleeDecl(Node):
    __slots__ = ("name", "module", "span")


class Wiring(Node):
    # child_path: child instance then callee name; target_path: an instance
    # of the wiring module
    __slots__ = ("child_path", "target_path", "span")


class Param(Node):
    __slots__ = ("name", "type", "span")


class FnDecl(Node):
    __slots__ = ("name", "is_mut", "params", "ret_type", "body", "span")  # ret_type None: unit


class ModuleDecl(Node):
    __slots__ = ("name", "instances", "callees", "wirings", "fns", "span")


class AliasDecl(Node):
    __slots__ = ("name", "type", "span")


class EnumDecl(Node):
    __slots__ = ("name", "variants", "span")  # variants: list[str]


class Program(Node):
    __slots__ = ("aliases", "enums", "modules", "root_name", "span")

    def __init__(self, aliases: list, enums: list, modules: list, root_name: str = "Main",
                 span: SourceSpan = SYNTHETIC) -> None:
        self.aliases, self.enums, self.modules = aliases, enums, modules
        self.root_name, self.span = root_name, span
