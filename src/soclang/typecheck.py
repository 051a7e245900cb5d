"""Bidirectional type checking with exact bit-width tracking.

Produces a TypedProgram: every expression annotated with a resolved type,
every call resolved to its target, aliases expanded, and the call graph
checked for cycles and purity violations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from . import ast
from .diagnostics import TypeCheckError, TypeErrors

# ---------------------------------------------------------------------------
# Resolutions attached to path/call nodes


class LocalRef:
    def __init__(self, name: str, fields: Tuple[str, ...]) -> None:
        self.name = name
        self.fields = fields  # record field chain applied after the variable


class EnumVariantRef:
    def __init__(self, enum: str, index: int) -> None:
        self.enum, self.index = enum, index


class UserCall:
    def __init__(self, inst_path: Tuple[str, ...], module: str, fn: str) -> None:
        self.inst_path = inst_path  # empty = function of the current module
        self.module, self.fn = module, fn


class PrimCall:
    """Built-in operation on a state/array cell or instance subtree."""

    def __init__(self, op: str, inst_path: Tuple[str, ...]) -> None:
        self.op = op  # state_get state_set array_get array_set array_read array_write havoc
        self.inst_path = inst_path


class TypedProgram:
    """A checked program and the tables its checker built."""

    def __init__(self, checker: Checker) -> None:
        self.root_name = checker.program.root_name
        self.enums: Dict[str, List[str]] = checker.enums
        self.modules: Dict[str, ast.ModuleDecl] = checker.modules
        self.fns: Dict[Tuple[str, str], ast.FnDecl] = checker.fns
        self.types: Dict[int, ast.TypeExpr] = checker.types
        self.resolutions: Dict[int, object] = checker.resolutions
        self.resolved: Dict[int, ast.TypeExpr] = checker.resolved
        self.choice_sites: Set[int] = checker.choice_sites

    def resolve_type(self, t: Optional[ast.TypeExpr]) -> ast.TypeExpr:
        """The resolution of a type written in the program; None is Unit."""
        return ast.UNIT if t is None else self.resolved[id(t)]

    def scenarios(self) -> List[str]:
        root = self.modules[self.root_name]
        return [f.name for f in root.fns if f.is_mut and not f.params]


def enum_width(n_variants: int) -> int:
    """Backend width of an enum with n variants: ceil(log2(max(n, 2)))."""
    return max(1, math.ceil(math.log2(max(n_variants, 2))))


# ---------------------------------------------------------------------------


class TypingCtx:
    """Binds the free variables of an expression and the checking position."""

    def __init__(self, module: ast.ModuleDecl, vars: Dict[str, ast.TypeExpr],
                 pure: bool = False, init_expr: bool = False) -> None:
        self.module, self.vars = module, vars
        self.pure = pure            # inside a pure `fn` body
        self.init_expr = init_expr  # inside a State initializer

    def child(self) -> "TypingCtx":
        return TypingCtx(self.module, dict(self.vars), self.pure, self.init_expr)


class Checker:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.errors: List[TypeCheckError] = []
        self.aliases: Dict[str, ast.TypeExpr] = {}
        self.enums: Dict[str, List[str]] = {}
        self.modules: Dict[str, ast.ModuleDecl] = {}
        self.fns: Dict[Tuple[str, str], ast.FnDecl] = {}
        self.types: Dict[int, ast.TypeExpr] = {}
        self.resolutions: Dict[int, object] = {}
        self.resolved: Dict[int, ast.TypeExpr] = {}
        self.choice_sites: Set[int] = set()  # node ids of every any and havoc
        self.call_edges: Dict[Tuple[str, str], set] = {}
        self._current_fn: Optional[Tuple[str, str]] = None

    # -- entry ----------------------------------------------------------

    def run(self) -> TypedProgram:
        self.collect_decls()
        if self.errors:
            raise self._batch()
        for m in self.program.modules:
            self.check_module(m)
        self.check_recursion()
        if self.errors:
            raise self._batch()
        return TypedProgram(self)

    def _batch(self) -> TypeErrors:
        """The collected errors as one exception. Their tracebacks, and those
        of the exceptions they were raised while handling, are dropped: each
        reaches this checker, which holds the errors, a reference cycle."""
        for err in self.errors:
            while err is not None:
                err.__traceback__ = None
                err = err.__context__
        return TypeErrors(self.errors)

    def fail(self, span, message: str) -> TypeCheckError:
        err = TypeCheckError(span, message)
        self.errors.append(err)
        return err

    # -- declaration tables ----------------------------------------------

    def collect_decls(self) -> None:
        p = self.program
        for en in p.enums:
            if en.name in self.enums:
                self.fail(en.span, f"duplicate enum {en.name!r}")
            if len(en.variants) != len(set(en.variants)):
                self.fail(en.span, f"duplicate variant in enum {en.name!r}")
            self.enums[en.name] = list(en.variants)
        raw_aliases = {}
        for a in p.aliases:
            if a.name in raw_aliases or a.name in self.enums:
                self.fail(a.span, f"duplicate type name {a.name!r}")
            raw_aliases[a.name] = a
        for a in p.aliases:
            try:
                self.aliases[a.name] = self._expand_alias(a.name, raw_aliases, [])
            except TypeCheckError:
                pass
        for m in p.modules:
            if m.name in self.modules or m.name in ("State", "Array"):
                self.fail(m.span, f"duplicate module {m.name!r}")
                continue
            self.modules[m.name] = m
            names = set()
            for inst in m.instances:
                if inst.name in names:
                    self.fail(inst.span, f"duplicate name {inst.name!r} in module {m.name}")
                names.add(inst.name)
            for c in m.callees:
                if c.name in names:
                    self.fail(c.span, f"duplicate name {c.name!r} in module {m.name}")
                names.add(c.name)
            for f in m.fns:
                if f.name in names:
                    self.fail(f.span, f"duplicate name {f.name!r} in module {m.name}")
                names.add(f.name)
                self.fns[(m.name, f.name)] = f
        if self.program.root_name not in self.modules:
            span = p.modules[0].span if p.modules else p.span
            self.fail(span, f"no root module {self.program.root_name!r}")

    def _expand_alias(self, name: str, raw, stack: list) -> ast.TypeExpr:
        if name in stack:
            decl = raw[name]
            raise self.fail(decl.span, f"type alias cycle through {name!r}")
        return self._resolve_type(raw[name].type, raw, stack + [name], raw[name].span)

    def _resolve_type(self, t: ast.TypeExpr, raw, stack, span) -> ast.TypeExpr:
        if isinstance(t, ast.AliasRef):
            if t.name in self.enums:
                return ast.EnumRef(t.name)
            if t.name in self.aliases:
                return self.aliases[t.name]
            if raw is not None and t.name in raw:
                return self._expand_alias(t.name, raw, stack)
            raise self.fail(span, f"unknown type {t.name!r}")
        if isinstance(t, ast.VectorType):
            return ast.VectorType(self._resolve_type(t.elem, raw, stack, span), t.length)
        if isinstance(t, ast.RecordType):
            return ast.RecordType(tuple(
                (n, self._resolve_type(ft, raw, stack, span)) for n, ft in t.fields))
        if isinstance(t, ast.ArrayType):
            return ast.ArrayType(self._resolve_type(t.key, raw, stack, span),
                                 self._resolve_type(t.value, raw, stack, span))
        return t

    def resolve_type(self, t: ast.TypeExpr, span) -> ast.TypeExpr:
        """Expand aliases and enum references in a written type (memoized)."""
        resolved = self.resolved.get(id(t))
        if resolved is None:
            resolved = self.resolved[id(t)] = self._resolve_type(t, None, [], span)
        return resolved

    # -- modules ----------------------------------------------------------

    def check_module(self, m: ast.ModuleDecl) -> None:
        for inst in m.instances:
            self.check_instance(m, inst)
        for c in m.callees:
            if c.module not in self.modules:
                self.fail(c.span, f"callee {c.name!r} names unknown module {c.module!r}")
        for f in m.fns:
            self._current_fn = (m.name, f.name)
            self.call_edges.setdefault(self._current_fn, set())
            try:
                self.check_fn(m, f)
            except TypeCheckError:
                pass  # recorded; continue with the next function
            except RecursionError:
                # Outside check_expr, which reports its own: types nested
                # nearly as deep as the parser allows.
                self.fail(f.span, "nesting too deep")
        self._current_fn = None

    def check_instance(self, m: ast.ModuleDecl, inst: ast.InstanceDecl) -> None:
        ref = inst.ref
        try:
            if isinstance(ref, ast.ModuleRef):
                if ref.name not in self.modules:
                    self.fail(inst.span, f"unknown module {ref.name!r}")
            elif isinstance(ref, ast.StatePrim):
                vt = self.resolve_type(ref.value_type, inst.span)
                self._check_state_value_type(vt, inst.span)
                ctx = TypingCtx(m, {}, pure=True, init_expr=True)
                self.check_expr(ctx, ref.init, vt)
            elif isinstance(ref, ast.ArrayPrim):
                kt = self.resolve_type(ref.key_type, inst.span)
                vt = self.resolve_type(ref.value_type, inst.span)
                if not isinstance(kt, ast.BitIntType):
                    self.fail(inst.span, "Array key type must be BitInt")
                self._check_state_value_type(vt, inst.span)
        except TypeCheckError:
            pass
        except RecursionError:
            self.fail(inst.span, "nesting too deep")

    def _check_state_value_type(self, t: ast.TypeExpr, span) -> None:
        if isinstance(t, ast.ArrayType):
            raise self.fail(span, "state values may not contain arrays")
        if isinstance(t, ast.UnitType):
            raise self.fail(span, "state values may not have unit type")
        if isinstance(t, ast.RecordType):
            for _, ft in t.fields:
                self._check_state_value_type(ft, span)
        if isinstance(t, ast.VectorType):
            self._check_state_value_type(t.elem, span)

    def check_fn(self, m: ast.ModuleDecl, f: ast.FnDecl) -> None:
        ctx = TypingCtx(m, {}, pure=not f.is_mut)
        for p in f.params:
            if p.name in ctx.vars:
                raise self.fail(p.span, f"duplicate parameter {p.name!r}")
            ctx.vars[p.name] = self.resolve_type(p.type, p.span)
        ret = self.resolve_type(f.ret_type, f.span) if f.ret_type is not None else ast.UNIT
        self.check_expr(ctx, f.body, ret)

    # -- the typing judgment -------------------------------------------------

    def check_expr(self, ctx: TypingCtx, e: ast.Expr,
                   expected: Optional[ast.TypeExpr] = None) -> ast.TypeExpr:
        """Type e, against `expected` if given; returns the (annotated) type."""
        try:
            t = self.types[e.node_id] = self._type(ctx, e, expected)
        except RecursionError:
            # Checking recurses once per nested expression. If reporting
            # overflows too, the enclosing expression's handler reports.
            raise self.fail(e.span, "nesting too deep") from None
        # Subsumption is type equality only: no implicit widening.
        if expected is not None and t is not expected and not type_equal(t, expected):
            raise self.fail(e.span, f"type mismatch: expected {expected}, found {t}")
        return t

    def _type(self, ctx: TypingCtx, e: ast.Expr, expected) -> ast.TypeExpr:
        """Check the forms that can take `expected`; synthesize the others."""
        numeric = isinstance(expected, (ast.BitIntType, ast.IntType))
        if isinstance(e, ast.IntLit):
            if e.width is not None:
                return ast.BitIntType(e.width)
            if expected is None:
                raise self.fail(e.span, "cannot infer width of integer literal "
                                        "(add a u<width> suffix or a type annotation)")
            if not numeric:
                raise self.fail(e.span, f"integer literal where {expected} is expected")
            if isinstance(expected, ast.BitIntType) and e.value >= (1 << expected.width):
                raise self.fail(
                    e.span, f"literal {e.value} does not fit in {expected.width} bits")
            return expected
        if isinstance(e, ast.BoolLit):
            return ast.BOOL
        if isinstance(e, ast.UnitLit):
            return ast.UNIT
        if isinstance(e, ast.VectorLit):
            if expected is None:
                if not e.items:
                    raise self.fail(e.span, "cannot infer the type of an empty vector literal")
                first = self.check_expr(ctx, e.items[0])
                for item in e.items[1:]:
                    self.check_expr(ctx, item, first)
                return ast.VectorType(first, len(e.items))
            if not isinstance(expected, ast.VectorType):
                raise self.fail(e.span, f"vector literal where {expected} is expected")
            if len(e.items) != expected.length:
                raise self.fail(
                    e.span,
                    f"vector literal has {len(e.items)} elements, expected {expected.length}")
            for item in e.items:
                self.check_expr(ctx, item, expected.elem)
            return expected
        if isinstance(e, ast.RecordLit):
            if expected is None:
                return ast.RecordType(tuple((n, self.check_expr(ctx, v)) for n, v in e.fields))
            if not isinstance(expected, ast.RecordType):
                raise self.fail(e.span, f"record literal where {expected} is expected")
            return self._check_record_lit(ctx, e, expected)
        if isinstance(e, ast.PathExpr):
            return self._path(ctx, e)
        if isinstance(e, ast.FieldAccess):
            return self._field_type(self.check_expr(ctx, e.base), e.name, e.span)
        if isinstance(e, ast.Index):
            return self._index(ctx, e)
        if isinstance(e, ast.Slice):
            base = self.check_expr(ctx, e.base)
            if not isinstance(base, ast.BitIntType):
                raise self.fail(e.span, f"bit slice on non-BitInt type {base}")
            if e.hi >= base.width:
                raise self.fail(
                    e.span, f"slice [{e.hi} downto {e.lo}] out of range for {base}")
            return ast.BitIntType(e.hi - e.lo + 1)
        if isinstance(e, ast.IndexUpdate):
            base = self.check_expr(ctx, e.base)
            if not isinstance(base, ast.VectorType):
                raise self.fail(e.span, f"index update on non-vector type {base}")
            self._check_vector_index(ctx, e.index, base, e.span)
            self.check_expr(ctx, e.value, base.elem)
            return base
        if isinstance(e, ast.SliceUpdate):
            base = self.check_expr(ctx, e.base)
            if not isinstance(base, ast.VectorType):
                raise self.fail(e.span, f"slice update on non-vector type {base}")
            if e.hi >= base.length:
                raise self.fail(
                    e.span, f"slice [{e.hi} downto {e.lo}] out of range for {base}")
            self.check_expr(ctx, e.value,
                            ast.VectorType(base.elem, e.hi - e.lo + 1))
            return base
        if isinstance(e, ast.Unary):
            if e.op == "!":
                self.check_expr(ctx, e.operand, ast.BOOL)
                return ast.BOOL
            if numeric:
                self.check_expr(ctx, e.operand, expected)
                return expected
            t = self.check_expr(ctx, e.operand)
            if not isinstance(t, (ast.BitIntType, ast.IntType)):
                raise self.fail(e.span, f"unary '-' on non-numeric type {t}")
            return t
        if isinstance(e, ast.Binary):
            if numeric and e.op in ("+", "-", "*"):
                self.check_expr(ctx, e.left, expected)
                self.check_expr(ctx, e.right, expected)
                return expected
            return self._binary(ctx, e)
        if isinstance(e, ast.Call):
            return self._call(ctx, e)
        if isinstance(e, ast.Builtin):
            return self._builtin(ctx, e)
        if isinstance(e, ast.AnyExpr):
            if ctx.pure:
                raise self.fail(e.span, "'any' is not allowed in a pure fn")
            t = self.resolve_type(e.type, e.span)
            if isinstance(t, (ast.ArrayType, ast.UnitType)):
                raise self.fail(e.span, f"any<{t}> is not supported")
            self.choice_sites.add(e.node_id)
            return t
        if isinstance(e, ast.If):
            self.check_expr(ctx, e.cond, ast.BOOL)
            if e.orelse is None:
                expected = ast.UNIT if expected is None else expected
                self.check_expr(ctx, e.then, expected)
                if not isinstance(expected, ast.UnitType):
                    raise self.fail(e.span, "if without else has unit type")
                return expected
            then_t = self.check_expr(ctx, e.then, expected)
            expected = then_t if expected is None else expected
            self.check_expr(ctx, e.orelse, expected)
            return expected
        if isinstance(e, ast.Block):
            return self._block(ctx, e, expected)
        if isinstance(e, (ast.Assume, ast.Assert)):
            if ctx.init_expr:
                raise self.fail(e.span, "assume/assert are not allowed here")
            self.check_expr(ctx, e.cond, ast.BOOL)
            return ast.UNIT
        if isinstance(e, ast.Printf):
            if ctx.init_expr:
                raise self.fail(e.span, "printf is not allowed here")
            for hole in e.holes:
                self.check_expr(ctx, hole)
            return ast.UNIT
        if isinstance(e, ast.Let):
            raise self.fail(e.span, "let is only allowed directly inside a block")
        raise self.fail(e.span, f"cannot type {type(e).__name__}")

    def _check_record_lit(self, ctx, e: ast.RecordLit, expected: ast.RecordType):
        declared = dict(expected.fields)
        written = [n for n, _ in e.fields]
        missing = [n for n, _ in expected.fields if n not in written]
        extra = [n for n in written if n not in declared]
        if missing:
            raise self.fail(e.span, "record literal is missing fields: " + ", ".join(missing))
        if extra:
            raise self.fail(e.span, "record literal has unknown fields: " + ", ".join(extra))
        for name, value in e.fields:
            self.check_expr(ctx, value, declared[name])
        return expected

    def _block(self, ctx, b: ast.Block, expected) -> ast.TypeExpr:
        inner = ctx.child()
        for i, item in enumerate(b.items):
            if isinstance(item, ast.Let):
                annot = None if item.annot is None else self.resolve_type(item.annot, item.span)
                t = self.check_expr(inner, item.value, annot)
                self.types[item.node_id] = ast.UNIT
                inner.vars[item.name] = t if annot is None else annot
            elif b.yields_value and i == len(b.items) - 1:
                return self.check_expr(inner, item, expected)
            else:
                self.check_expr(inner, item, ast.UNIT)
        if expected is not None and not isinstance(expected, ast.UnitType):
            span = b.items[-1].span if b.items else b.span
            raise self.fail(span, f"block yields unit, but {expected} is expected")
        return ast.UNIT

    def _field_type(self, t: ast.TypeExpr, name: str, span) -> ast.TypeExpr:
        if not isinstance(t, ast.RecordType):
            raise self.fail(span, f"field access on non-record type {t}")
        ft = t.field_type(name)
        if ft is None:
            raise self.fail(span, f"record {t} has no field {name!r}")
        return ft

    def _path(self, ctx: TypingCtx, e: ast.PathExpr) -> ast.TypeExpr:
        head = e.names[0]
        if head in ctx.vars:
            t = ctx.vars[head]
            for name in e.names[1:]:
                t = self._field_type(t, name, e.span)
            self.resolutions[e.node_id] = LocalRef(head, tuple(e.names[1:]))
            return t
        if head in self.enums:
            if len(e.names) != 2:
                raise self.fail(e.span, f"expected {head}.<variant>")
            variant = e.names[1]
            if variant not in self.enums[head]:
                raise self.fail(e.span, f"enum {head} has no variant {variant!r}")
            self.resolutions[e.node_id] = EnumVariantRef(
                head, self.enums[head].index(variant))
            return ast.EnumRef(head)
        raise self.fail(e.span, f"unknown name {head!r}")

    def _index(self, ctx, e: ast.Index) -> ast.TypeExpr:
        base = self.check_expr(ctx, e.base)
        if isinstance(base, ast.VectorType):
            self._check_vector_index(ctx, e.index, base, e.span)
            return base.elem
        if isinstance(base, ast.ArrayType):
            self.check_expr(ctx, e.index, base.key)
            return base.value
        raise self.fail(e.span, f"indexing on non-indexable type {base}")

    def _check_vector_index(self, ctx, index: ast.Expr, base: ast.VectorType, span) -> None:
        if isinstance(index, ast.IntLit) and index.width is None:
            # A bare literal index just needs to be in range.
            if index.value >= base.length:
                raise self.fail(span, f"index {index.value} out of range for {base}")
            w = max(1, (max(base.length, 2) - 1).bit_length())
            self.check_expr(ctx, index, ast.BitIntType(w))
            return
        it = self.check_expr(ctx, index)
        if not isinstance(it, ast.BitIntType):
            raise self.fail(span, f"vector index must be BitInt, found {it}")
        if (1 << it.width) > base.length:
            raise self.fail(
                span,
                f"index width {it.width} can exceed vector length {base.length} "
                f"(need 2^width <= length)")

    def _binary(self, ctx, e: ast.Binary) -> ast.TypeExpr:
        op = e.op
        if op in ("&&", "||"):
            self.check_expr(ctx, e.left, ast.BOOL)
            self.check_expr(ctx, e.right, ast.BOOL)
            return ast.BOOL
        left_t = self._operand_pair(ctx, e.left, e.right)
        if op in ("==", "!="):
            self._require_equality_capable(left_t, e.span)
            return ast.BOOL
        if op in ("<", "<=", ">", ">="):
            if not isinstance(left_t, (ast.BitIntType, ast.IntType)):
                raise self.fail(e.span, f"comparison on non-numeric type {left_t}")
            return ast.BOOL
        if op in ("+", "-", "*"):
            if not isinstance(left_t, (ast.BitIntType, ast.IntType)):
                raise self.fail(e.span, f"arithmetic on non-numeric type {left_t}")
            return left_t
        raise self.fail(e.span, f"unknown operator {op!r}")

    def _operand_pair(self, ctx, left, right) -> ast.TypeExpr:
        """Infer one operand, check the other against it: both widths must agree."""
        try:
            lt = self.check_expr(ctx, left)
        except TypeCheckError as first_err:
            if not self._unwidthed(left):
                raise
            self.errors.remove(first_err)
            rt = self.check_expr(ctx, right)
            self.check_expr(ctx, left, rt)
            return rt
        self.check_expr(ctx, right, lt)
        return lt

    def _unwidthed(self, e: ast.Expr) -> bool:
        """Does inference fail on e only because a literal lacks a width?"""
        if isinstance(e, ast.IntLit):
            return e.width is None
        if isinstance(e, ast.Unary) and e.op == "-":
            return self._unwidthed(e.operand)
        if isinstance(e, ast.Binary) and e.op in ("+", "-", "*"):
            return self._unwidthed(e.left) or self._unwidthed(e.right)
        return False

    def _require_equality_capable(self, t: ast.TypeExpr, span) -> None:
        if isinstance(t, (ast.VectorType, ast.ArrayType)):
            raise self.fail(span, "equality on indexed collections is not supported "
                                  "(compare elements at an any-chosen index instead)")
        if isinstance(t, ast.UnitType):
            raise self.fail(span, "equality on unit values is not supported")
        if isinstance(t, ast.RecordType):
            for _, ft in t.fields:
                self._require_equality_capable(ft, span)

    # -- calls --------------------------------------------------------------

    def _builtin(self, ctx, e: ast.Builtin) -> ast.TypeExpr:
        if e.name == "to_int":
            at = self.check_expr(ctx, e.arg)
            if not isinstance(at, ast.BitIntType):
                raise self.fail(e.span, f"to_int takes a BitInt, found {at}")
            return ast.INT
        assert e.width is not None
        if e.width < 1:
            raise self.fail(e.span, "target width must be at least 1")
        if e.name == "from_int":
            self.check_expr(ctx, e.arg, ast.INT)
            return ast.BitIntType(e.width)
        at = self.check_expr(ctx, e.arg)
        if not isinstance(at, ast.BitIntType):
            raise self.fail(e.span, f"{e.name} takes a BitInt, found {at}")
        if e.name == "zero_extend" and e.width < at.width:
            raise self.fail(e.span, f"zero_extend<{e.width}> narrows {at}")
        if e.name == "truncate" and e.width > at.width:
            raise self.fail(e.span, f"truncate<{e.width}> widens {at}")
        return ast.BitIntType(e.width)

    def _call(self, ctx: TypingCtx, e: ast.Call) -> ast.TypeExpr:
        if len(e.path) == 1:
            return self._check_user_call(ctx, e, ctx.module.name, e.path[0], ())
        prefix, last = e.path[:-1], e.path[-1]
        target = self._resolve_instance_path(ctx, prefix, e.span)
        if isinstance(target, ast.ModuleDecl):
            if last == "havoc":
                prim = PrimCall("havoc", tuple(prefix))
                return self._check_prim_call(ctx, e, prim, [])
            return self._check_user_call(ctx, e, target.name, last, tuple(prefix))
        kind, vt, kt = target
        if kind == "state":
            ops = {"get": ("state_get", [], vt),
                   "set": ("state_set", [vt], ast.UNIT),
                   "havoc": ("havoc", [], ast.UNIT)}
        else:
            snapshot = ast.ArrayType(kt, vt)
            ops = {"get": ("array_get", [], snapshot),
                   "set": ("array_set", [snapshot], ast.UNIT),
                   "read": ("array_read", [kt], vt),
                   "write": ("array_write", [kt, vt], ast.UNIT),
                   "havoc": ("havoc", [], ast.UNIT)}
        if last not in ops:
            raise self.fail(e.span, f"unknown operation {last!r} on a {kind} cell")
        op, param_types, ret = ops[last]
        prim = PrimCall(op, tuple(prefix))
        self._check_prim_call(ctx, e, prim, param_types)
        return ret

    def _check_prim_call(self, ctx, e: ast.Call, prim: PrimCall, param_types) -> ast.TypeExpr:
        if ctx.pure:
            raise self.fail(e.span, "state access is not allowed in a pure fn")
        if len(e.args) != len(param_types):
            raise self.fail(e.span,
                            f"{e.path[-1]} expects {len(param_types)} arguments, "
                            f"got {len(e.args)}")
        for arg, pt in zip(e.args, param_types):
            self.check_expr(ctx, arg, pt)
        self.resolutions[e.node_id] = prim
        if prim.op == "havoc":
            self.choice_sites.add(e.node_id)
        return ast.UNIT

    def _check_user_call(self, ctx: TypingCtx, e: ast.Call, module: str, fn: str,
                         inst_path: tuple) -> ast.TypeExpr:
        if ctx.init_expr:
            raise self.fail(e.span, "calls are not allowed in state initializers")
        decl = self.fns.get((module, fn))
        if decl is None:
            where = f" in module {module}" if inst_path else ""
            raise self.fail(e.span, f"unknown function {fn!r}{where}")
        if ctx.pure and decl.is_mut:
            raise self.fail(e.span, f"mut fn {fn!r} cannot be called from a pure fn")
        if len(e.args) != len(decl.params):
            raise self.fail(e.span, f"{fn} expects {len(decl.params)} arguments, "
                                    f"got {len(e.args)}")
        for arg, p in zip(e.args, decl.params):
            self.check_expr(ctx, arg, self.resolve_type(p.type, p.span))
        self.resolutions[e.node_id] = UserCall(inst_path, module, fn)
        if self._current_fn is not None:
            self.call_edges.setdefault(self._current_fn, set()).add((module, fn))
        ret = decl.ret_type
        return self.resolve_type(ret, decl.span) if ret is not None else ast.UNIT

    def _resolve_instance_path(self, ctx: TypingCtx, prefix: list, span):
        """Resolve a dotted instance prefix from the current module.

        Returns a ModuleDecl, or ("state"|"array", value_type, key_type) for a
        primitive cell. Only the root module may descend more than one level.
        """
        m = ctx.module
        is_root = m.name == self.program.root_name
        if len(prefix) > 1 and not is_root:
            raise self.fail(span, "only the root module may reach through nested "
                                  "instances; use a callee")
        current: object = m
        for i, seg in enumerate(prefix):
            if not isinstance(current, ast.ModuleDecl):
                raise self.fail(span, f"{'.'.join(prefix[:i])} is a state cell, "
                                      f"cannot descend into {seg!r}")
            inst = next((x for x in current.instances if x.name == seg), None)
            if inst is not None:
                ref = inst.ref
                if isinstance(ref, ast.ModuleRef):
                    # Missing modules were already diagnosed at the
                    # declaration; stop instead of cascading.
                    if ref.name not in self.modules:
                        raise self.fail(span, f"unknown module {ref.name!r}")
                    current = self.modules[ref.name]
                elif isinstance(ref, ast.StatePrim):
                    current = ("state", self.resolve_type(ref.value_type, span), None)
                else:
                    current = ("array",
                               self.resolve_type(ref.value_type, span),
                               self.resolve_type(ref.key_type, span))
                continue
            if i == 0:
                callee = next((c for c in current.callees if c.name == seg), None)
                if callee is not None:
                    if callee.module not in self.modules:
                        raise self.fail(span, f"unknown module {callee.module!r}")
                    current = self.modules[callee.module]
                    continue
            raise self.fail(span, f"{seg!r} is not an instance"
                                  f"{' or callee' if i == 0 else ''} of {current.name}")
        return current

    # -- recursion ------------------------------------------------------------

    def check_recursion(self) -> None:
        color: Dict[Tuple[str, str], int] = {}
        for node in sorted(self.call_edges):
            if color.get(node, 0) == 0:
                self._visit_calls(node, [node], color)

    def _visit_calls(self, node, stack, color) -> None:
        color[node] = 1
        for succ in sorted(self.call_edges.get(node, ())):
            if color.get(succ, 0) == 1:
                cycle = stack[stack.index(succ):] + [succ] if succ in stack else [node, succ]
                pretty = " -> ".join(f"{m}.{f}" for m, f in cycle)
                decl = self.fns[succ]
                self.fail(decl.span, f"recursive call cycle: {pretty}")
            elif color.get(succ, 0) == 0:
                self._visit_calls(succ, stack + [succ], color)
        color[node] = 2


def type_equal(a: ast.TypeExpr, b: ast.TypeExpr) -> bool:
    """Structural equality; record fields compare by name, not order."""
    if isinstance(a, ast.RecordType) and isinstance(b, ast.RecordType):
        if len(a.fields) != len(b.fields):
            return False
        bmap = dict(b.fields)
        return all(n in bmap and type_equal(t, bmap[n]) for n, t in a.fields)
    if isinstance(a, ast.VectorType) and isinstance(b, ast.VectorType):
        return a.length == b.length and type_equal(a.elem, b.elem)
    if isinstance(a, ast.ArrayType) and isinstance(b, ast.ArrayType):
        return type_equal(a.key, b.key) and type_equal(a.value, b.value)
    return a == b


def check_program(program: ast.Program) -> TypedProgram:
    """Type-check a parsed program; raises TypeErrors on failure."""
    return Checker(program).run()
