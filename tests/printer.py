"""Test helpers over the AST: traversal, and a printer back to concrete
syntax.

`to_source` renders a program so that it parses to an equal program (the
round-trip tests), and `expr_source` renders one expression. `walk` yields
an expression and every expression below it.
"""

from __future__ import annotations

from typing import Iterator

from soclang import ast
from soclang.parser import BINARY_LEVEL

# ---------------------------------------------------------------------------
# Traversal


def child_exprs(e: ast.Expr) -> Iterator[ast.Expr]:
    """The expressions in e's fields, in `_fields` order (list items and the
    values of `(name, expr)` pairs included)."""
    for name in e._fields:
        value = getattr(e, name)
        for x in value if isinstance(value, list) else (value,):
            x = x[1] if isinstance(x, tuple) else x
            if isinstance(x, ast.Expr):
                yield x


def walk(e: ast.Expr) -> Iterator[ast.Expr]:
    yield e
    for c in child_exprs(e):
        yield from walk(c)


# ---------------------------------------------------------------------------
# Printer

_UNARY_PREC = 7
_POSTFIX_PREC = 8


def _fmt_int(e: ast.IntLit) -> str:
    text = f"0x{e.value:x}" if e.hex else str(e.value)
    return text if e.width is None else f"{text}u{e.width}"


# Characters a printf format string writes escaped.
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
                          "{": "\\{", "}": "\\}"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


class _Printer:
    def __init__(self) -> None:
        self.out: list = []
        self.indent = 0

    def line(self, text: str = "") -> None:
        self.out.append("    " * self.indent + text if text else "")

    def text(self) -> str:
        return "\n".join(self.out) + "\n"

    # -- expressions --------------------------------------------------

    def expr(self, e: ast.Expr, prec: int = 0) -> str:
        if isinstance(e, ast.IntLit):
            return _fmt_int(e)
        if isinstance(e, ast.BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, ast.UnitLit):
            return "()"
        if isinstance(e, ast.VectorLit):
            return "[" + ", ".join(self.expr(x) for x in e.items) + "]"
        if isinstance(e, ast.RecordLit):
            inner = ", ".join(f"{n}: {self.expr(v)}" for n, v in e.fields)
            return "{ " + inner + " }"
        if isinstance(e, ast.PathExpr):
            return ".".join(e.names)
        if isinstance(e, ast.FieldAccess):
            return f"{self.expr(e.base, _POSTFIX_PREC)}.{e.name}"
        if isinstance(e, ast.Index):
            return f"{self.expr(e.base, _POSTFIX_PREC)}[{self.expr(e.index)}]"
        if isinstance(e, ast.Slice):
            return f"{self.expr(e.base, _POSTFIX_PREC)}[{e.hi} downto {e.lo}]"
        if isinstance(e, ast.IndexUpdate):
            return (f"{self.expr(e.base, _POSTFIX_PREC)}"
                    f"[{self.expr(e.index)} := {self.expr(e.value)}]")
        if isinstance(e, ast.SliceUpdate):
            return (f"{self.expr(e.base, _POSTFIX_PREC)}"
                    f"[{e.hi} downto {e.lo} := {self.expr(e.value)}]")
        if isinstance(e, ast.Unary):
            s = f"{e.op}{self.expr(e.operand, _UNARY_PREC)}"
            return f"({s})" if prec > _UNARY_PREC else s
        if isinstance(e, ast.Binary):
            p = BINARY_LEVEL[e.op]
            s = f"{self.expr(e.left, p)} {e.op} {self.expr(e.right, p + 1)}"
            return f"({s})" if prec >= p + 1 else s
        if isinstance(e, ast.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{'.'.join(e.path)}({args})"
        if isinstance(e, ast.Builtin):
            w = f"<{e.width}>" if e.width is not None else ""
            return f"{e.name}{w}({self.expr(e.arg)})"
        if isinstance(e, ast.AnyExpr):
            return f"any<{e.type}>"
        if isinstance(e, ast.Let):
            annot = f": {e.annot}" if e.annot is not None else ""
            return f"let {e.name}{annot} = {self.expr(e.value)}"
        if isinstance(e, ast.If):
            return self.if_expr(e)
        if isinstance(e, ast.Block):
            return self.block_inline(e)
        if isinstance(e, ast.Assume):
            return f"assume({self.expr(e.cond)})"
        if isinstance(e, ast.Assert):
            return f"assert({self.expr(e.cond)})"
        if isinstance(e, ast.Printf):
            pieces = [_escape(e.parts[0])]
            for part, hole in zip(e.parts[1:], e.holes):
                pieces.append("{" + self.expr(hole) + "}")
                pieces.append(_escape(part))
            return 'printf("' + "".join(pieces) + '")'
        raise AssertionError(f"unprintable node {type(e).__name__}")

    def if_expr(self, e: ast.If) -> str:
        s = f"if {self.expr(e.cond)} {self.block_inline(e.then)}"
        if e.orelse is not None:
            if isinstance(e.orelse, ast.If):
                s += f" else {self.if_expr(e.orelse)}"
            else:
                s += f" else {self.block_inline(e.orelse)}"
        return s

    def block_inline(self, b: ast.Block) -> str:
        # Blocks print multi-line inside function bodies; the inline form is
        # used for nested expression positions.
        parts = [self.expr(item) for item in b.items]
        if not parts:
            return "{ }"
        sep = "; ".join(parts)
        tail = "" if b.yields_value else ";"
        return "{ " + sep + tail + " }"

    def block_lines(self, b: ast.Block) -> None:
        self.indent += 1
        for i, item in enumerate(b.items):
            last = i == len(b.items) - 1
            text = self.expr(item)
            if not last or not b.yields_value:
                text += ";"
            self.line(text)
        self.indent -= 1

    # -- declarations ---------------------------------------------------

    def program(self, p: ast.Program) -> str:
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

    def module(self, m: ast.ModuleDecl) -> None:
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

    def instance_ref(self, ref: ast.InstanceRef) -> str:
        if isinstance(ref, ast.ModuleRef):
            return ref.name
        if isinstance(ref, ast.StatePrim):
            return f"State<{ref.value_type}>({self.expr(ref.init)})"
        if isinstance(ref, ast.ArrayPrim):
            return f"Array<{ref.key_type}, {ref.value_type}>"
        raise AssertionError

    def fn(self, fn: ast.FnDecl) -> None:
        kw = "mut fn" if fn.is_mut else "fn"
        params = ", ".join(f"{p.name}: {p.type}" for p in fn.params)
        ret = f" -> {fn.ret_type}" if fn.ret_type is not None else ""
        self.line(f"{kw} {fn.name}({params}){ret} {{")
        self.block_lines(fn.body)
        self.line("}")


def to_source(p: ast.Program) -> str:
    """Render a program back to concrete syntax (parseable, spans discarded)."""
    return _Printer().program(p)


def expr_source(e: ast.Expr) -> str:
    return _Printer().expr(e)
