"""Bidirectional type checking with exact bit-width tracking.

Produces a TypedProgram: every expression annotated with a resolved type,
aliases expanded, and the call graph checked for cycles and purity
violations. Paths and calls resolve into two tables keyed by node id:
`variants` holds the index of each path that names an enum variant (any
other path is the variable `names[0]` with record fields `names[1:]`), and
`calls` the `(module, fn)` key of each call of a fn (any other call is the
cell method or `havoc` named by `path[-1]` on the instance `path[:-1]`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from . import ast
from .ast import MAX_NESTING
from .diagnostics import TypeCheckError, TypeErrors

# What a position forbids in a type: a message for each class of part.
_STATE_VALUE = {ast.ArrayType: "state values may not contain arrays",
                ast.UnitType: "state values may not have unit type"}
_INDEXED = ("equality on indexed collections is not supported "
            "(compare elements at an any-chosen index instead)")
_EQUALITY = {ast.VectorType: _INDEXED, ast.ArrayType: _INDEXED,
             ast.UnitType: "equality on unit values is not supported"}


class TypedProgram:
    """A checked program and the tables its checker built."""

    def __init__(self, checker: Checker) -> None:
        self.root_name = checker.program.root_name
        self.modules: Dict[str, ast.ModuleDecl] = checker.modules
        self.fns: Dict[Tuple[str, str], ast.FnDecl] = checker.fns
        self.types: Dict[int, ast.TypeExpr] = checker.types
        self.variants: Dict[int, int] = checker.variants
        self.calls: Dict[int, Tuple[str, str]] = checker.calls
        self.resolved: Dict[int, ast.TypeExpr] = checker.resolved
        self.choice_sites: Set[int] = checker.choice_sites

    def resolve_type(self, t: Optional[ast.TypeExpr]) -> ast.TypeExpr:
        """The resolution of a type written in the program; None is Unit."""
        return ast.UNIT if t is None else self.resolved[id(t)]

    def scenarios(self) -> List[str]:
        root = self.modules[self.root_name]
        return [f.name for f in root.fns if f.is_mut and not f.params]


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
        self.aliases: Dict[str, Optional[ast.TypeExpr]] = {}  # None if invalid
        self.enums: Dict[str, ast.EnumRef] = {}  # one shared type per enum
        self.modules: Dict[str, ast.ModuleDecl] = {}
        self.fns: Dict[Tuple[str, str], ast.FnDecl] = {}
        self.types: Dict[int, ast.TypeExpr] = {}
        self.variants: Dict[int, int] = {}  # enum variant paths: the index
        self.calls: Dict[int, Tuple[str, str]] = {}  # calls of fns: the key
        self.resolved: Dict[int, ast.TypeExpr] = {}
        # How many levels deep each vector, record and array type the checker
        # builds nests, by id; the entry keeps the type, so its id stays its own.
        self.type_levels: Dict[int, Tuple[ast.TypeExpr, int]] = {}
        self.choice_sites: Set[int] = set()  # node ids of every any and havoc
        # Each function's callees, in the order first called, each with the
        # level and span of its deepest call, and the deepest level of each
        # function's own body (see `ast.MAX_NESTING`).
        self.call_edges: Dict[Tuple[str, str], Dict[Tuple[str, str], tuple]] = {}
        self.body_levels: Dict[Tuple[str, str], int] = {}
        self._current_fn: Optional[Tuple[str, str]] = None
        self.depth = 0    # the level of the expression being checked
        self.deepest = 0  # the deepest level checked in the current function

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
            self.enums[en.name] = ast.EnumRef(en.name, tuple(en.variants))
        raw_aliases = {}
        for a in p.aliases:
            if a.name in raw_aliases or a.name in self.enums:
                self.fail(a.span, f"duplicate type name {a.name!r}")
            raw_aliases[a.name] = a
        self._resolve_aliases(raw_aliases)
        for m in p.modules:
            if m.name in self.modules or m.name in ("State", "Array"):
                self.fail(m.span, f"duplicate module {m.name!r}")
                continue
            self.modules[m.name] = m
            names = set()
            for x in (*m.instances, *m.callees, *m.fns):
                if x.name in names:
                    self.fail(x.span, f"duplicate name {x.name!r} in module {m.name}")
                names.add(x.name)
            self.fns.update(((m.name, f.name), f) for f in m.fns)
        if self.program.root_name not in self.modules:
            span = p.modules[0].span if p.modules else p.span
            self.fail(span, f"no root module {self.program.root_name!r}")

    def _resolve_aliases(self, raw: Dict[str, ast.AliasDecl]) -> None:
        """Resolve each alias after the aliases its type names, so a chain
        of any length is resolved. An alias that closes a cycle is
        reported; one that fails, or names one that fails, is invalid."""
        def finish(name: str) -> None:
            decl = raw[name]
            try:
                self.aliases[name] = self._resolve_type(decl.type, decl.span)
            except TypeCheckError:
                self.aliases[name] = None

        def cycle(path: list, name: str) -> None:
            if name not in self.aliases:
                self.fail(raw[name].span, f"type alias cycle through {name!r}")
                self.aliases[name] = None

        _post_order(raw, lambda name: [n for n in _alias_names(raw[name].type) if n in raw],
                    self.aliases, finish, cycle)

    def _levels(self, t: ast.TypeExpr) -> int:
        """How many levels deep type t nests. Memoized for a composite type,
        so one built from types already counted is counted without a walk."""
        parts = t.parts()
        entry = self.type_levels.get(id(t)) if parts else (t, 1)
        if entry is None:
            entry = self.type_levels[id(t)] = t, 1 + max(map(self._levels, parts))
        return entry[1]

    def _built(self, t: ast.TypeExpr, span) -> ast.TypeExpr:
        """t, a type just built; one that nests past the budget (with its
        aliases expanded) is an error at `span`."""
        if self._levels(t) > MAX_NESTING:
            raise self.fail(span, "nesting too deep")
        return t

    def _resolve_type(self, t: ast.TypeExpr, span) -> ast.TypeExpr:
        """Expand aliases and enum references in a written type t; the
        parser bounds how deep t nests, and `_built` how deep the result."""
        if isinstance(t, ast.AliasRef):
            if t.name in self.enums:
                return self.enums[t.name]
            if t.name not in self.aliases:
                raise self.fail(span, f"unknown type {t.name!r}")
            alias = self.aliases[t.name]
            if alias is None:  # reported where it is declared
                raise TypeCheckError(span, f"invalid type {t.name!r}")
            return alias
        if isinstance(t, ast.VectorType):
            return self._built(ast.VectorType(self._resolve_type(t.elem, span), t.length), span)
        if isinstance(t, ast.RecordType):
            return self._built(ast.RecordType(tuple(
                (n, self._resolve_type(ft, span)) for n, ft in t.fields)), span)
        if isinstance(t, ast.ArrayType):
            return self._built(ast.ArrayType(self._resolve_type(t.key, span),
                                             self._resolve_type(t.value, span)), span)
        return t

    def resolve_type(self, t: ast.TypeExpr, span) -> ast.TypeExpr:
        """Expand aliases and enum references in a written type (memoized)."""
        resolved = self.resolved.get(id(t))
        if resolved is None:
            resolved = self.resolved[id(t)] = self._resolve_type(t, span)
        return resolved

    # -- modules ----------------------------------------------------------

    def check_module(self, m: ast.ModuleDecl) -> None:
        for inst in m.instances:
            self.check_instance(m, inst)
        for c in m.callees:
            if c.module not in self.modules:
                self.fail(c.span, f"callee {c.name!r} names unknown module {c.module!r}")
        for f in m.fns:
            key = self._current_fn = (m.name, f.name)
            self.call_edges.setdefault(key, {})
            self.depth = self.deepest = 0  # the body; its items are at level 1
            try:
                self.check_fn(m, f)
            except TypeCheckError:
                pass  # recorded; continue with the next function
            self.body_levels[key] = self.deepest
        self._current_fn = None

    def check_instance(self, m: ast.ModuleDecl, inst: ast.InstanceDecl) -> None:
        ref = inst.ref
        try:
            if isinstance(ref, ast.ModuleRef):
                if ref.name not in self.modules:
                    self.fail(inst.span, f"unknown module {ref.name!r}")
            elif isinstance(ref, ast.StatePrim):
                vt = self.resolve_type(ref.value_type, inst.span)
                self._forbid(vt, _STATE_VALUE, inst.span)
                ctx = TypingCtx(m, {}, pure=True, init_expr=True)
                self.depth = 1  # as the parser counts it
                self.check_expr(ctx, ref.init, vt)
            elif isinstance(ref, ast.ArrayPrim):
                kt = self.resolve_type(ref.key_type, inst.span)
                vt = self.resolve_type(ref.value_type, inst.span)
                self._built(ast.ArrayType(kt, vt), inst.span)  # as a snapshot
                if not isinstance(kt, ast.BitIntType):
                    self.fail(inst.span, "Array key type must be BitInt")
                self._forbid(vt, _STATE_VALUE, inst.span)
        except TypeCheckError:
            pass

    def _forbid(self, t: ast.TypeExpr, messages: dict, span) -> None:
        """Fail at `span` with the message of the first part of t, in
        `_walk` order, whose class `messages` names."""
        for part in _walk(t):
            message = messages.get(type(part))
            if message is not None:
                raise self.fail(span, message)

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
        """Type e, against `expected` if given; returns the (annotated) type.
        e is at level `self.depth`, and its operands one level below."""
        depth = self.depth
        if depth > self.deepest:
            if depth > MAX_NESTING:
                raise self.fail(e.span, "nesting too deep")
            self.deepest = depth
        self.depth = depth + 1
        t = self.types[e.node_id] = self._type(ctx, e, expected)
        self.depth = depth
        # Subsumption is type equality only: no implicit widening.
        if expected is not None and t is not expected and t != expected:
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
                raise self.fail(e.span, f"literal {ast.number_text(e.value)} "
                                        f"does not fit in {expected.width} bits")
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
                return self._built(ast.VectorType(first, len(e.items)), e.span)
            if not isinstance(expected, ast.VectorType):
                raise self.fail(e.span, f"vector literal where {expected} is expected")
            if len(e.items) != expected.length:
                raise self.fail(
                    e.span,
                    f"vector literal has {len(e.items)} elements, "
                    f"expected {ast.number_text(expected.length)}")
            for item in e.items:
                self.check_expr(ctx, item, expected.elem)
            return expected
        if isinstance(e, ast.RecordLit):
            if expected is None:
                return self._built(ast.RecordType(
                    tuple((n, self.check_expr(ctx, v)) for n, v in e.fields)), e.span)
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
                    e.span, f"slice [{ast.number_text(e.hi)} downto {ast.number_text(e.lo)}] "
                    f"out of range for {base}")
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
                    e.span, f"slice [{ast.number_text(e.hi)} downto {ast.number_text(e.lo)}] "
                    f"out of range for {base}")
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
        # A Printf: the parser builds a Let only as a block item (`_block`).
        if ctx.init_expr:
            raise self.fail(e.span, "printf is not allowed here")
        for hole in e.holes:
            self.check_expr(ctx, hole)
        return ast.UNIT

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
            return t
        enum = self.enums.get(head)
        if enum is not None:
            if len(e.names) != 2:
                raise self.fail(e.span, f"expected {head}.<variant>")
            variant = e.names[1]
            if variant not in enum.variants:
                raise self.fail(e.span, f"enum {head} has no variant {variant!r}")
            self.variants[e.node_id] = enum.variants.index(variant)
            return enum
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
                raise self.fail(
                    span, f"index {ast.number_text(index.value)} out of range for {base}")
            w = max(1, (max(base.length, 2) - 1).bit_length())
            self.check_expr(ctx, index, ast.BitIntType(w))
            return
        it = self.check_expr(ctx, index)
        if not isinstance(it, ast.BitIntType):
            raise self.fail(span, f"vector index must be BitInt, found {it}")
        if (1 << it.width) > base.length:
            raise self.fail(
                span,
                f"index width {it.width} can exceed vector length "
                f"{ast.number_text(base.length)} "
                f"(need 2^width <= length)")

    def _binary(self, ctx, e: ast.Binary) -> ast.TypeExpr:
        op = e.op
        if op in ("&&", "||"):
            self.check_expr(ctx, e.left, ast.BOOL)
            self.check_expr(ctx, e.right, ast.BOOL)
            return ast.BOOL
        left_t = self._operand_pair(ctx, e.left, e.right)
        if op in ("==", "!="):
            self._forbid(left_t, _EQUALITY, e.span)
            return ast.BOOL
        if op in ("<", "<=", ">", ">="):
            if not isinstance(left_t, (ast.BitIntType, ast.IntType)):
                raise self.fail(e.span, f"comparison on non-numeric type {left_t}")
            return ast.BOOL
        # + - *: the parser builds no other operator.
        if not isinstance(left_t, (ast.BitIntType, ast.IntType)):
            raise self.fail(e.span, f"arithmetic on non-numeric type {left_t}")
        return left_t

    def _operand_pair(self, ctx, left, right) -> ast.TypeExpr:
        """Infer one operand, check the other against it: both widths must
        agree. The left one is inferred first unless it has no width."""
        first, second = (right, left) if self._unwidthed(left, self.depth) else (left, right)
        t = self.check_expr(ctx, first)
        self.check_expr(ctx, second, t)
        return t

    def _unwidthed(self, e: ast.Expr, depth: int) -> bool:
        """Does inference fail on e, at level `depth`, only because a literal
        lacks a width? Past the budget it says no: checking e reports that."""
        if depth > MAX_NESTING:
            return False
        if isinstance(e, ast.IntLit):
            return e.width is None
        if isinstance(e, ast.Unary) and e.op == "-":
            return self._unwidthed(e.operand, depth + 1)
        if isinstance(e, ast.Binary) and e.op in ("+", "-", "*"):
            return self._unwidthed(e.left, depth + 1) and self._unwidthed(e.right, depth + 1)
        return False

    # -- calls --------------------------------------------------------------

    def _builtin(self, ctx, e: ast.Builtin) -> ast.TypeExpr:
        problem = None if e.width is None else ast.width_problem(e.width)
        if problem is not None:
            raise self.fail(e.span, f"target width {problem}")
        if e.name == "from_int":
            self.check_expr(ctx, e.arg, ast.INT)
            return ast.BitIntType(e.width)
        at = self.check_expr(ctx, e.arg)
        if not isinstance(at, ast.BitIntType):
            raise self.fail(e.span, f"{e.name} takes a BitInt, found {at}")
        if e.name == "to_int":
            return ast.INT
        if e.name == "zero_extend" and e.width < at.width:
            raise self.fail(e.span, f"zero_extend<{e.width}> narrows {at}")
        if e.name == "truncate" and e.width > at.width:
            raise self.fail(e.span, f"truncate<{e.width}> widens {at}")
        return ast.BitIntType(e.width)

    def _call(self, ctx: TypingCtx, e: ast.Call) -> ast.TypeExpr:
        if len(e.path) == 1:
            return self._check_user_call(ctx, e, ctx.module.name)
        prefix, last = e.path[:-1], e.path[-1]
        target = self._resolve_instance_path(ctx, prefix, e.span)
        if isinstance(target, ast.ModuleDecl):
            if last == "havoc":
                return self._check_prim_call(ctx, e, [])
            return self._check_user_call(ctx, e, target.name)
        kind, vt, kt = target
        snapshot = vt if kind == "state" else ast.ArrayType(kt, vt)
        # Each method of a cell: its parameter types and its result.
        ops = {"get": ([], snapshot), "set": ([snapshot], ast.UNIT), "havoc": ([], ast.UNIT)}
        if kind == "array":
            ops.update(read=([kt], vt), write=([kt, vt], ast.UNIT))
        if last not in ops:
            raise self.fail(e.span, f"unknown operation {last!r} on a {kind} cell")
        param_types, ret = ops[last]
        self._check_prim_call(ctx, e, param_types)
        return ret

    def _check_prim_call(self, ctx, e: ast.Call, param_types) -> ast.TypeExpr:
        if ctx.pure:
            raise self.fail(e.span, "state access is not allowed in a pure fn")
        if len(e.args) != len(param_types):
            raise self.fail(e.span,
                            f"{e.path[-1]} expects {len(param_types)} arguments, "
                            f"got {len(e.args)}")
        for arg, pt in zip(e.args, param_types):
            self.check_expr(ctx, arg, pt)
        if e.path[-1] == "havoc":
            self.choice_sites.add(e.node_id)
        return ast.UNIT

    def _check_user_call(self, ctx: TypingCtx, e: ast.Call, module: str) -> ast.TypeExpr:
        fn = e.path[-1]
        if ctx.init_expr:
            raise self.fail(e.span, "calls are not allowed in state initializers")
        decl = self.fns.get((module, fn))
        if decl is None:
            where = f" in module {module}" if len(e.path) > 1 else ""
            raise self.fail(e.span, f"unknown function {fn!r}{where}")
        if ctx.pure and decl.is_mut:
            raise self.fail(e.span, f"mut fn {fn!r} cannot be called from a pure fn")
        if len(e.args) != len(decl.params):
            raise self.fail(e.span, f"{fn} expects {len(decl.params)} arguments, "
                                    f"got {len(e.args)}")
        for arg, p in zip(e.args, decl.params):
            self.check_expr(ctx, arg, self.resolve_type(p.type, p.span))
        key = self.calls[e.node_id] = (module, fn)
        if self._current_fn is not None:
            callees, level = self.call_edges[self._current_fn], self.depth - 1
            deepest = callees.get(key)
            if deepest is None or deepest[0] < level:
                callees[key] = (level, e.span)
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
        """Report each call that closes a cycle in the call graph, and if
        there is none, each call that nests past the budget. The walk
        finishes each function after its callees, so it learns in turn how
        deep each nests with its calls inlined."""
        # Each finished function and its levels, None if they pass the budget.
        done: Dict[Tuple[str, str], Optional[int]] = {}
        too_deep: list = []  # the span of each call that passes it
        errors = len(self.errors)

        def finish(fn: Tuple[str, str]) -> None:
            done[fn] = self._inlined_levels(fn, done, too_deep)

        def cycle(path: list, fn: Tuple[str, str]) -> None:
            pretty = " -> ".join(f"{m}.{f}" for m, f in path[path.index(fn):] + [fn])
            self.fail(self.fns[fn].span, f"recursive call cycle: {pretty}")

        _post_order(sorted(self.call_edges), lambda fn: sorted(self.call_edges.get(fn, ())),
                    done, finish, cycle)
        if len(self.errors) == errors:
            for span in too_deep:
                self.fail(span, "nesting too deep")

    def _inlined_levels(self, fn: Tuple[str, str], done, too_deep: list) -> Optional[int]:
        """How many levels deep fn nests with its calls inlined: a call at
        level d of a callee that nests n deep reaches level d + n. None past
        the budget, and the first call that passes it goes on `too_deep`
        unless it is in a callee (or a cycle leaves the callee unfinished)."""
        levels = self.body_levels.get(fn, 0)
        for callee, (level, span) in self.call_edges.get(fn, {}).items():
            inner = done.get(callee)
            if inner is None:
                return None
            if level + inner > MAX_NESTING:
                too_deep.append(span)
                return None
            levels = max(levels, level + inner)
        return levels


def check_program(program: ast.Program) -> TypedProgram:
    """Type-check a parsed program; raises TypeErrors on failure."""
    return Checker(program).run()


def _post_order(roots, successors, finished: dict, finish, cycle) -> None:
    """Walk depth first from each root not in `finished`, with a stack of
    its own, so a chain of any length is walked. `finish(node)` adds a node
    to `finished` once each of its successors is there or on the walk's
    path; `cycle(path, node)` is called for a successor on the path, which
    lists the nodes on it from the root."""
    for root in roots:
        if root in finished:
            continue
        # The nodes on the path, root first (a dict keeps insertion order),
        # and the successors of each left to visit.
        path, todo = {root: None}, [iter(successors(root))]
        while todo:
            succ = next(todo[-1], None)
            if succ is None:
                finish(path.popitem()[0])
                todo.pop()
            elif succ in path:
                cycle(list(path), succ)
            elif succ not in finished:
                path[succ] = None
                todo.append(iter(successors(succ)))


def _walk(t: ast.TypeExpr) -> Iterator[ast.TypeExpr]:
    """t, then each type it is made of, in pre-order. A part that occurs
    twice (through an alias, say) is walked once."""
    seen, todo = set(), [t]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            yield t
            todo.extend(reversed(t.parts()))


def _alias_names(t: ast.TypeExpr) -> dict:
    """The names that written type t refers to, in order."""
    return dict.fromkeys(p.name for p in _walk(t) if isinstance(p, ast.AliasRef))
