"""Scenario execution engine.

`Engine.code` compiles each expression node, once per engine, into a closure
`(env, frame) -> value`. What a tree walk would ask at every visit is settled
at compile time: the node's class, type and resolution, its literal term, its
operator's constructor, and the mode. One evaluator serves two modes:

* symbolic mode (no AnySource): every `if` whose condition is not a
  constant executes both arms. Each arm logs the value a cell had before the
  arm when it first writes it; after the arm the logged cells are restored,
  and only the cells either arm wrote are merged with ite terms. `any` and
  `havoc` register fresh choice variables; assume/assert are recorded under
  the guard of their path (`_Path`), a chain of branch conditions built into
  a term on demand, once per guard. The result is a VerificationCondition.

* concrete mode (interpreter and counterexample replayer): every fresh
  variable is immediately replaced by a constant term from an AnySource, so
  terms constant-fold, exactly one path runs, printf fires, and the first
  failing assume/assert stops the run. Constant terms are the only value
  model: a run's store, a solver model and a run result are trees of them.

A choice is named by its vid, its SMT-LIB name without the `c`: the node id
of the `any` or `havoc` that made the choice, the ids of the `Call` nodes
from the scenario down to it, and the number of the leaf among the values
that one evaluation of the site makes (a record, a vector or a havocked
module has several), joined by `_`. The language has no loops and no
recursion, so a site runs at most once per call path, and a choice is named
by its position in the inlined scenario, not by how many choices ran before
it: a symbolic run, which takes both arms of every branch, and a concrete
run, which takes one, give a choice the same vid, and replay asks a model for
exactly the vids that sym_exec registered. So a model names its choices
without the symbolic run that declared them. Both modes draw a choice by its
vid and the type it is registered with: a scalar, or `ArrayType(key, leaf)`
for a leaf of an array cell.

The store is keyed by cell, a State or Array leaf of the instance tree.
Records and vectors are trees of per-leaf terms: a record is a dict from
field name to tree, a vector a tuple. `tree_map` maps them leafwise and
`tree_of_type` builds them from a type.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from . import ast, terms
from .diagnostics import CapacityError, EngineError
from .elaborate import InstanceNode, StateLayout, resolve_instance
from .terms import Term
from .typecheck import EnumVariantRef, PrimCall, TypedProgram, UserCall

# ---------------------------------------------------------------------------
# Value trees: records/vectors explode into per-leaf terms. A record is a dict
# from field name to tree, built in its type's field order, and a vector is a
# tuple. Trees compare by value, as their constant leaves do.


def tree_map(fn, tree, *others):
    """Apply fn leafwise to trees of one shape, in the field order of `tree`.

    Records match by field name, not position: types compare fields by name,
    and an inferred record literal may hold them in another order.
    """
    if isinstance(tree, dict):
        return {n: tree_map(fn, v, *(o[n] for o in others)) for n, v in tree.items()}
    if isinstance(tree, tuple):
        return tuple(tree_map(fn, *xs) for xs in zip(tree, *others))
    return fn(tree, *others)


def tree_of_type(t: ast.TypeExpr, leaf):
    """The tree of type t whose leaves are leaf(scalar type), called in
    field/item order (the vids of choices follow it)."""
    if isinstance(t, ast.RecordType):
        return {n: tree_of_type(ft, leaf) for n, ft in t.fields}
    if isinstance(t, ast.VectorType):
        return tuple(tree_of_type(t.elem, leaf) for _ in range(t.length))
    return leaf(t)


def tree_ite(cond: Term, a, b):
    if a is b:
        return a
    if isinstance(a, (dict, tuple)):
        return tree_map(partial(terms.mk_ite, cond), a, b)
    return terms.mk_ite(cond, a, b)


def tree_eq(a, b) -> Term:
    """Leafwise equality of two records or scalars (never vectors: the type
    checker rejects equality on them), conjoined per record level."""
    return _conjoin(tree_map(terms.mk_eq, a, b))


def _conjoin(eqs) -> Term:
    if not isinstance(eqs, dict):
        return eqs
    acc = terms.TRUE
    for v in eqs.values():
        acc = terms.mk_and(acc, _conjoin(v))
    return acc


# ---------------------------------------------------------------------------
# Choice registry and nondeterminism sources

CallPath = str  # `_` and the id of each Call node from the scenario down


def choice_ids(site: int, calls: CallPath) -> Iterator[str]:
    """The vids of the leaves that one evaluation of `site` chooses, in leaf
    order; the evaluation is the only one on its call path."""
    prefix = f"{site}{calls}_"
    return (prefix + str(leaf) for leaf in itertools.count())


class ChoiceInfo(ast.Node):
    __slots__ = ("vid", "type", "sort")

    def __init__(self, vid: str, type: ast.TypeExpr, sort: tuple) -> None:
        self.vid = vid
        self.type = type  # scalar leaf type, or ArrayType(key, leaf) for arrays
        self.sort = sort


class Registry(ast.Node):
    __slots__ = ("infos",)

    def __init__(self) -> None:
        self.infos: List[ChoiceInfo] = []

    def register(self, vid: str, t: ast.TypeExpr, sort: tuple) -> None:
        self.infos.append(ChoiceInfo(vid, t, sort))


class AnySource:
    """Pluggable source of constant terms for `any` and `havoc` in concrete
    runs: `value` gives the choice named `vid`, of the type it is registered
    with (a SparseConst for an array type)."""

    def value(self, vid: str, t: ast.TypeExpr) -> Term:
        raise NotImplementedError


class SeededRandom(AnySource):
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def value(self, vid, t):
        if isinstance(t, ast.ArrayType):
            # A uniformly random huge array is not representable; draw a
            # random fill value and no modifications.
            return terms.mk_const_array(t.key.width, self.value(vid, t.value))
        if isinstance(t, ast.BoolType):
            return terms.mk_bool(self.rng.random() < 0.5)
        if isinstance(t, ast.BitIntType):
            return terms.mk_bv(t.width, self.rng.randrange(1 << t.width))
        if isinstance(t, ast.IntType):
            return terms.mk_int(self.rng.randint(-(1 << 31), 1 << 31))
        if isinstance(t, ast.EnumRef):
            return terms.mk_bv(t.width, self.rng.randrange(len(t.variants)))
        raise AssertionError(f"cannot draw {t}")


def zero(t: ast.TypeExpr) -> Term:
    """The zero of a scalar type; of an array type, the array of zeros."""
    if isinstance(t, ast.ArrayType):
        return terms.mk_const_array(t.key.width, zero(t.value))
    sort = sort_of(t)
    if sort == terms.BOOL_SORT:
        return terms.FALSE
    if sort == terms.INT_SORT:
        return terms.mk_int(0)
    return terms.mk_bv(sort[1], 0)


class ModelOracle(AnySource):
    """Replays a solver model, keyed by vid; absent choices default to zero.

    Each model value must be a constant of the choice's sort, and a scalar
    enum value must name a variant. An array's enum leaves are checked as a
    run reads them (`Engine._variant`), so keys it never reads may hold any
    value.
    """

    def __init__(self, values: Dict[str, Term]) -> None:
        self.values = values

    def value(self, vid, t):
        v = self.values.get(vid)
        if v is None:
            return zero(t)
        if v.sort == sort_of(t) and \
                not (isinstance(t, ast.EnumRef) and v.value >= len(t.variants)):
            return v
        if isinstance(t, ast.ArrayType):
            raise EngineError(f"model value for c{vid} is not an array "
                              f"of the expected sort")
        raise EngineError(f"model value for c{vid} has the wrong type "
                          f"(expected {t}, got {_leaf_text(v, None)})")


# ---------------------------------------------------------------------------
# Results


class Passed(ast.Node):
    __slots__ = ()


class AssertionFailed(ast.Node):
    __slots__ = ("site",)


class AssumeInfeasible(ast.Node):
    __slots__ = ("site",)


class RunResult(ast.Node):
    # The store maps a dotted cell path to a tree of constant terms.
    __slots__ = ("verdict", "transcript", "events", "store")


class VerificationCondition(ast.Node):
    """All assumptions hold and at least one assertion fails.

    `assumptions` holds (guard, body) pairs, `obligations` (guard, body,
    site) triples; `registry` declares their choices."""

    __slots__ = ("registry", "assumptions", "obligations")

    def assumes_term(self) -> Term:
        acc = terms.TRUE
        for guard, body in self.assumptions:
            acc = terms.mk_and(acc, terms.mk_or(terms.mk_not(guard), body))
        return acc

    def violations_term(self) -> Term:
        acc = terms.FALSE
        for guard, body, _ in self.obligations:
            acc = terms.mk_or(acc, terms.mk_and(guard, terms.mk_not(body)))
        return acc

    def query_term(self) -> Term:
        return terms.mk_and(self.assumes_term(), self.violations_term())


class _Stop(Exception):
    def __init__(self, verdict) -> None:
        self.verdict = verdict


# ---------------------------------------------------------------------------


def sort_of(t: ast.TypeExpr) -> tuple:
    """The sort of a scalar type, or of an array from a key to a scalar."""
    if isinstance(t, ast.ArrayType):
        return terms.arr_sort(t.key.width, sort_of(t.value))
    if isinstance(t, ast.BoolType):
        return terms.BOOL_SORT
    if isinstance(t, (ast.BitIntType, ast.EnumRef)):
        return terms.bv_sort(t.width)
    if isinstance(t, ast.IntType):
        return terms.INT_SORT
    raise AssertionError(f"no sort for {t}")


def format_value(tree, t: ast.TypeExpr, in_array: bool = False) -> str:
    """Render a constant value tree of type t the way traces print it.

    Records print their fields in declaration order, an array as its updates
    and its default. Only `printf` and the events of a concrete run format
    values. A symbolic leaf, a symbolic array or an enum value out of range
    is an EngineError.
    """
    if isinstance(t, ast.UnitType):
        return "()"
    if isinstance(t, ast.RecordType):
        inner = ", ".join(f"{n}: {format_value(tree[n], ft, in_array)}"
                          for n, ft in t.fields)
        return "{ " + inner + " }"
    if isinstance(t, ast.VectorType):
        return "[" + ", ".join(format_value(x, t.elem, in_array) for x in tree) + "]"
    if isinstance(t, ast.ArrayType):
        return format_value(tree, t.value, True)
    if in_array and not isinstance(tree, terms.SparseConst):
        raise EngineError("internal: symbolic array in a concrete run")
    if not in_array and isinstance(tree, terms.SparseConst):
        raise EngineError(f"internal: array value for {t} in a concrete run")
    return _leaf_text(tree, t)


def _leaf_text(v: Term, t: Optional[ast.TypeExpr]) -> str:
    """Text of a constant leaf; t, if given, names the variants of an enum.

    Small bitvector values print in decimal; larger ones print as grouped
    hex with a u<width> suffix.
    """
    if isinstance(v, terms.SparseConst):
        mods = ", ".join(f"{k}: {_leaf_text(x, t)}" for k, x in v.mods)
        return "array{" + mods + ("; " if mods else "") + \
            f"default {_leaf_text(v.default, t)}" + "}"
    if isinstance(v, terms.BoolC):
        return "true" if v.value else "false"
    if isinstance(v, terms.IntC):
        return terms.decimal(v.value)
    if not isinstance(v, terms.BVC):
        raise EngineError("internal: symbolic value in a concrete run")
    if isinstance(t, ast.EnumRef):
        if v.value >= len(t.variants):
            raise EngineError(f"enum value {v.value} out of range for {t.name}")
        return t.variants[v.value]
    if v.value < 256:
        return str(v.value)
    digits = f"{v.value:x}"
    rem = len(digits) % 4
    groups = ([digits[:rem]] if rem else []) + \
             [digits[i:i + 4] for i in range(rem, len(digits), 4)]
    return "0x" + "_".join(groups) + f"u{v.sort[1]}"


# ---------------------------------------------------------------------------
# The engine


class _Path:
    """The guard of a symbolic path: the branch conditions taken from the
    scenario's entry, innermost last. `term` builds their conjunction once
    and keeps it; the root path's term is TRUE."""

    __slots__ = ("parent", "cond", "polarity", "_term")

    def __init__(self, parent: Optional[_Path], cond: Optional[Term],
                 polarity: bool) -> None:
        self.parent = parent
        self.cond = cond
        self.polarity = polarity
        self._term: Optional[Term] = None if parent is not None else terms.TRUE

    def term(self) -> Term:
        # Iterative: climb to the nearest built ancestor, then build down.
        pending = []
        node = self
        while node._term is None:
            pending.append(node)
            node = node.parent
        for node in reversed(pending):
            cond = node.cond if node.polarity else terms.mk_not(node.cond)
            node._term = terms.mk_and(node.parent._term, cond)
        return self._term


class _Frame(ast.Node):
    __slots__ = ("inst", "calls")

    def __init__(self, inst: InstanceNode, calls: CallPath = "") -> None:
        self.inst, self.calls = inst, calls


class Engine:
    """Runs concretely exactly when `anys` is given, symbolically otherwise.
    A concrete run records its events (calls, returns, printf, a failed
    assertion) only if `record_events`: formatting every call's arguments
    and result is most of the run's time."""

    def __init__(self, tp: TypedProgram, root: InstanceNode, layout: StateLayout,
                 anys: Optional[AnySource] = None, capacity: Optional[int] = 64,
                 record_events: bool = False) -> None:
        self.tp = tp
        self.root = root
        self.layout = layout
        self.anys = anys
        self.capacity = capacity
        self.store: Dict[InstanceNode, object] = {}  # cell -> value tree
        self.path = _Path(None, None, True)
        self.registry = Registry()
        self.assumptions: List[Tuple[Term, Term]] = []
        self.obligations: List[Tuple[Term, Term, ast.SourceSpan]] = []
        self.transcript: List[str] = []
        self.events: List[dict] = []
        self.record_events = record_events
        self.log: Optional[dict] = None  # see `_write`
        self._code: Dict[int, object] = {}  # id(node) -> closure, see `code`
        self._init_store()

    # -- store -------------------------------------------------------------

    def _init_store(self) -> None:
        frame = _Frame(self.root)
        for cell in self.layout.cells:
            if cell.kind == "state":
                # Init expressions are closed and pure; they fold to constants.
                self.store[cell] = self.code(cell.init)({}, frame)
            else:
                key = cell.key_type
                self.store[cell] = tree_of_type(
                    cell.value_type, lambda t: zero(ast.ArrayType(key, t)))

    def concrete_store(self) -> Dict[str, object]:
        return {cell.dotted(): self.store[cell] for cell in self.layout.cells}

    def _write(self, cell: InstanceNode, value) -> None:
        """Set a cell; an arm's first write to it logs the value from before the arm."""
        if self.log is not None and cell not in self.log:
            self.log[cell] = self.store[cell]
        self.store[cell] = value

    def _branch(self, cond: Term, then, orelse, env, frame):
        """Both arms of an `if` on a symbolic condition, merged: each arm's
        logged cells are restored after it, and only cells either arm wrote
        are merged. Their value from before the `if` comes from the logs (the
        store holds the else arm's writes) and is logged into the enclosing
        arm, as if the `if` had written them."""
        store, path, outer = self.store, self.path, self.log
        self.path, self.log = _Path(path, cond, True), {}
        v_then = then(env, frame)
        before = self.log
        after_then = {k: store[k] for k in before}
        store.update(before)
        self.path, self.log = _Path(path, cond, False), {}
        v_else = orelse(env, frame)
        for k, v in self.log.items():
            before.setdefault(k, v)
        self.path, self.log = path, outer
        for k, v in before.items():
            if outer is not None:
                outer.setdefault(k, v)
            store[k] = tree_ite(cond, after_then.get(k, v), store[k])
        return tree_ite(cond, v_then, v_else)

    # -- choices ------------------------------------------------------------

    def fresh_tree(self, vids: Iterator[str], t: ast.TypeExpr,
                   key: Optional[ast.TypeExpr] = None):
        """A tree of type t of fresh choices named by `vids`, in leaf order.
        With `key`, the tree is an array cell's: each leaf is an array from
        key to the leaf type."""
        def leaf(lt: ast.TypeExpr):
            vid, ct = next(vids), lt if key is None else ast.ArrayType(key, lt)
            if self.anys is not None:
                return self.anys.value(vid, ct)
            sort = sort_of(ct)
            self.registry.register(vid, ct, sort)
            return self._variant(terms.Var(sort, vid), ct)

        return tree_of_type(t, leaf)

    def _variant(self, v: Term, t: ast.TypeExpr) -> Term:
        """v, a fresh choice or an array read of type t. A value of an enum
        names a variant, as every leaf of a valid array does: a constant is
        checked, and a symbolic value is assumed to on every path."""
        if isinstance(t, ast.EnumRef):
            n = len(t.variants)
            if not isinstance(v, terms.BVC):
                if n < (1 << t.width):
                    self.assumptions.append(
                        (terms.TRUE, terms.mk_lt(v, terms.mk_bv(t.width, n))))
            elif v.value >= n:
                raise EngineError(f"enum value {v.value} out of range for {t.name}")
        return v

    def _reader(self, t: ast.TypeExpr):
        """(array tree, key) -> the value tree at key, of an array whose
        values have type t."""
        shape, variant = tree_of_type(t, lambda lt: lt), self._variant
        return lambda tree, key: tree_map(
            lambda arr, lt: variant(terms.mk_arr_read(arr, key), lt), tree, shape)

    # -- compilation -----------------------------------------------------------

    def code(self, e: ast.Expr):
        """The closure (env, frame) -> value of e, compiled once and kept by node
        identity: nodes compare by value, but equal calls name their own sites."""
        f = self._code.get(id(e))
        if f is None:
            compiler = self._COMPILE.get(type(e))
            if compiler is None:
                raise AssertionError(f"unhandled node {type(e).__name__}")
            f = self._code[id(e)] = compiler(self, e)
        return f

    def _compile_int_lit(self, e: ast.IntLit):
        t = self.tp.types[e.node_id]
        return _const(terms.mk_int(e.value) if isinstance(t, ast.IntType)
                      else terms.mk_bv(t.width, e.value))

    def _compile_bool_lit(self, e: ast.BoolLit):
        return _const(terms.mk_bool(e.value))

    def _compile_unit_lit(self, e: ast.UnitLit):
        return _const(None)

    def _compile_vector_lit(self, e: ast.VectorLit):
        items = [self.code(x) for x in e.items]
        return lambda env, frame: tuple([f(env, frame) for f in items])

    def _compile_record_lit(self, e: ast.RecordLit):
        written = [(n, self.code(v)) for n, v in e.fields]
        order = [n for n, _ in self.tp.types[e.node_id].fields]

        def record(env, frame):
            values = {n: f(env, frame) for n, f in written}
            return {n: values[n] for n in order}
        return record

    def _compile_path(self, e: ast.PathExpr):
        res = self.tp.resolutions[e.node_id]
        if isinstance(res, EnumVariantRef):
            return _const(terms.mk_bv(res.enum.width, res.index))
        name, fields = res.name, res.fields

        def local(env, frame):
            v = env[name]
            for n in fields:
                v = v[n]
            return v
        return local

    def _compile_field(self, e: ast.FieldAccess):
        base, name = self.code(e.base), e.name
        return lambda env, frame: base(env, frame)[name]

    def _compile_slice(self, e: ast.Slice):
        base, hi, lo = self.code(e.base), e.hi, e.lo
        return lambda env, frame: terms.mk_extract(hi, lo, base(env, frame))

    def _compile_index_update(self, e: ast.IndexUpdate):
        base, index, value = self.code(e.base), self.code(e.index), self.code(e.value)
        return lambda env, frame: self._vector_update(
            base(env, frame), index(env, frame), value(env, frame))

    def _compile_slice_update(self, e: ast.SliceUpdate):
        base, value, lo, hi = self.code(e.base), self.code(e.value), e.lo, e.hi

        def update(env, frame):
            items = list(base(env, frame))
            items[lo:hi + 1] = value(env, frame)
            return tuple(items)
        return update

    def _compile_unary(self, e: ast.Unary):
        arg, mk = self.code(e.operand), terms.mk_not if e.op == "!" else terms.mk_neg
        return lambda env, frame: mk(arg(env, frame))

    def _compile_any(self, e: ast.AnyExpr):
        site, t, fresh = e.node_id, self.tp.types[e.node_id], self.fresh_tree
        return lambda env, frame: fresh(choice_ids(site, frame.calls), t)

    def _compile_let(self, e: ast.Let):
        name, value = e.name, self.code(e.value)

        def let(env, frame):
            env[name] = value(env, frame)
        return let

    def _compile_block(self, e: ast.Block):
        items = [self.code(x) for x in e.items]
        scoped = any(isinstance(x, ast.Let) for x in e.items)
        yields = e.yields_value

        def block(env, frame):
            inner = dict(env) if scoped else env
            result = None
            for f in items:
                result = f(inner, frame)
            return result if yields else None
        return block

    def _compile_assume(self, e: ast.Assume):
        cond, span = self.code(e.cond), e.span
        if self.anys is None:
            return self._guarded(self.assumptions, cond)

        def check_assume(env, frame):
            if not cond(env, frame).value:
                raise _Stop(AssumeInfeasible(span))
        return check_assume

    def _compile_assert(self, e: ast.Assert):
        cond, span = self.code(e.cond), e.span
        if self.anys is None:
            return self._guarded(self.obligations, cond, span)

        events = self.events if self.record_events else None

        def check_assert(env, frame):
            if not cond(env, frame).value:
                if events is not None:
                    events.append({"event": "assert_failed", "at": str(span)})
                raise _Stop(AssertionFailed(span))
        return check_assert

    def _guarded(self, records: list, cond, *site):
        """A symbolic assume or assert: its body, under the path guard."""
        def record(env, frame):
            body = cond(env, frame)
            records.append((self.path.term(), body, *site))
        return record

    def _compile_printf(self, e: ast.Printf):
        holes = [self.code(h) for h in e.holes]
        if self.anys is None:
            def printf(env, frame):
                for h in holes:
                    h(env, frame)
            return printf
        types, parts = [self.tp.types[h.node_id] for h in e.holes], e.parts
        events = self.events if self.record_events else None

        def print_text(env, frame):
            values = [h(env, frame) for h in holes]
            pieces = [parts[0]]
            for part, v, t in zip(parts[1:], values, types):
                pieces.append(format_value(v, t))
                pieces.append(part)
            text = "".join(pieces)
            self.transcript.append(text)
            if events is not None:
                events.append({"event": "printf", "text": text})
        return print_text

    def _compile_index(self, e: ast.Index):
        base, index, t = self.code(e.base), self.code(e.index), self.tp.types[e.base.node_id]
        # a vector, or an array snapshot (every leaf array is read at the key)
        read = self._vector_select if isinstance(t, ast.VectorType) else self._reader(t.value)
        return lambda env, frame: read(base(env, frame), index(env, frame))

    def _vector_select(self, base: tuple, idx: Term):
        if isinstance(idx, terms.BVC):
            return base[idx.value]
        width = idx.sort[1]
        acc = base[0]
        for i in range(1, 1 << width):
            acc = tree_ite(terms.mk_eq(idx, terms.mk_bv(width, i)), base[i], acc)
        return acc

    def _vector_update(self, base: tuple, idx: Term, val):
        if isinstance(idx, terms.BVC):
            items = list(base)
            items[idx.value] = val
            return tuple(items)
        width = idx.sort[1]
        return tuple(
            tree_ite(terms.mk_eq(idx, terms.mk_bv(width, i)), val, base[i])
            if i < (1 << width) else base[i]
            for i in range(len(base)))

    def _compile_binary(self, e: ast.Binary):
        left, right, mk = self.code(e.left), self.code(e.right), _BINARY.get(e.op)
        if mk is None:  # == or !=
            scalar = isinstance(self.tp.types[e.left.node_id], _SCALAR_TYPES)
            eq = terms.mk_eq if scalar else tree_eq
            mk = eq if e.op == "==" else lambda a, b: terms.mk_not(eq(a, b))
        return lambda env, frame: mk(left(env, frame), right(env, frame))

    def _compile_builtin(self, e: ast.Builtin):
        arg, w = self.code(e.arg), e.width
        mk = {"zero_extend": partial(terms.mk_zext, w), "to_int": terms.mk_bv2int,
              "truncate": lambda v: terms.mk_extract(w - 1, 0, v),
              "from_int": partial(terms.mk_int2bv, w)}[e.name]
        return lambda env, frame: mk(arg(env, frame))

    def _compile_if(self, e: ast.If):
        cond, then = self.code(e.cond), self.code(e.then)
        orelse = _const(None) if e.orelse is None else self.code(e.orelse)
        if self.anys is not None:
            return lambda env, frame: (then if cond(env, frame).value else orelse)(env, frame)
        branch = self._branch

        def if_(env, frame):
            c = cond(env, frame)
            if isinstance(c, terms.BoolC):
                return (then if c.value else orelse)(env, frame)
            return branch(c, then, orelse, env, frame)
        return if_

    # -- calls ----------------------------------------------------------------

    def _compile_call(self, e: ast.Call):
        res = self.tp.resolutions[e.node_id]
        args = [self.code(a) for a in e.args]
        target = _target(res.inst_path)
        if isinstance(res, PrimCall):
            return self._compile_prim(e, res.op, target, args)
        decl = self.tp.fns[(res.module, res.fn)]
        body, names, site = self.code(decl.body), [p.name for p in decl.params], f"_{e.node_id}"
        if self.anys is not None and self.record_events:
            # one traced body per fn, kept by its identity
            body = self._code.get(id(decl)) or \
                self._code.setdefault(id(decl), self._traced(body, decl))

        def call(env, frame):
            inst = target(frame)
            values = [a(env, frame) for a in args]
            return body(dict(zip(names, values)), _Frame(inst, frame.calls + site))
        return call

    def _traced(self, untraced, decl: ast.FnDecl):
        """A concrete call's body, which logs the call and its return."""
        fn, rt = decl.name, self.tp.resolve_type(decl.ret_type)
        params = [(p.name, self.tp.resolve_type(p.type)) for p in decl.params]

        def body(env, frame):
            fq = ".".join(frame.inst.path + (fn,)) if frame.inst.path else fn
            self.events.append({"event": "call", "fn": fq, "args": {
                n: format_value(env[n], t) for n, t in params}})
            result = untraced(env, frame)
            self.events.append({"event": "return", "fn": fq,
                                "value": format_value(result, rt)})
            return result
        return body

    def _compile_prim(self, e: ast.Call, op: str, target, args):
        store, write = self.store, self._write
        if op == "havoc":
            site, havoc = e.node_id, self._havoc
            return lambda env, frame: havoc(choice_ids(site, frame.calls), target(frame))
        if op == "get":
            return lambda env, frame: store[target(frame)]
        if op == "set":
            value = args[0]
            return lambda env, frame: write(target(frame), value(env, frame))
        if op == "read":
            key, read_at = args[0], self._reader(self.tp.types[e.node_id])

            def read(env, frame):
                cell, k = target(frame), key(env, frame)
                return read_at(store[cell], k)
            return read
        assert op == "write", op
        key, value = args
        capacity = self.capacity if self.anys is not None else None

        def write_array(env, frame):
            inst, k, v = target(frame), key(env, frame), value(env, frame)

            def leaf(arr, x):
                arr = terms.mk_arr_write(arr, k, x)
                if capacity is not None and len(arr.mods) > capacity:
                    raise CapacityError(inst.dotted(), capacity)
                return arr

            write(inst, tree_map(leaf, store[inst], v))
        return write_array

    def _havoc(self, vids: Iterator[str], target: InstanceNode) -> None:
        """Fresh values for the cells under `target`, in layout order."""
        todo = [target]
        while todo:
            node = todo.pop()
            todo.extend(reversed(node.children.values()))  # a cell has none
            if node.kind != "module":
                self._write(node, self.fresh_tree(vids, node.value_type, node.key_type))

    # One compiler per expression class; `code` dispatches on the exact class.
    _COMPILE = {
        ast.IntLit: _compile_int_lit,
        ast.BoolLit: _compile_bool_lit,
        ast.UnitLit: _compile_unit_lit,
        ast.VectorLit: _compile_vector_lit,
        ast.RecordLit: _compile_record_lit,
        ast.PathExpr: _compile_path,
        ast.FieldAccess: _compile_field,
        ast.Index: _compile_index,
        ast.Slice: _compile_slice,
        ast.IndexUpdate: _compile_index_update,
        ast.SliceUpdate: _compile_slice_update,
        ast.Unary: _compile_unary,
        ast.Binary: _compile_binary,
        ast.Call: _compile_call,
        ast.Builtin: _compile_builtin,
        ast.AnyExpr: _compile_any,
        ast.Let: _compile_let,
        ast.If: _compile_if,
        ast.Block: _compile_block,
        ast.Assume: _compile_assume,
        ast.Assert: _compile_assert,
        ast.Printf: _compile_printf,
    }

    # -- entry ------------------------------------------------------------------

    def run(self, scenario: str):
        root_mod = self.tp.modules[self.tp.root_name]
        decl = next((f for f in root_mod.fns if f.name == scenario), None)
        if decl is None:
            names = ", ".join(self.tp.scenarios()) or "(none)"
            raise EngineError(f"no scenario {scenario!r} in module "
                              f"{self.tp.root_name}; available: {names}")
        if not decl.is_mut or decl.params:
            raise EngineError(f"scenario {scenario!r} must be a zero-parameter mut fn")
        # The checker bounds how deep the body nests with its calls inlined,
        # and compiling and running each recurse a few frames per level.
        try:
            return self.code(decl.body)({}, _Frame(self.root))
        finally:
            # The closures refer to the engine (`self`, its bound methods), so
            # keeping them would make a cycle that holds the whole store.
            self._code.clear()


def _const(value):
    return lambda env, frame: value


def _target(inst_path):
    """frame -> the instance a call's dotted prefix names from the frame's
    instance, resolved once per caller instance."""
    targets: Dict[InstanceNode, InstanceNode] = {}

    def target(frame):
        inst = targets.get(frame.inst)
        if inst is None:
            inst = targets[frame.inst] = resolve_instance(frame.inst, inst_path)
        return inst
    return target


_SCALAR_TYPES = (ast.BoolType, ast.BitIntType, ast.IntType, ast.EnumRef)
# The constructor of each operator but equality; each picks its SMT-LIB name
# from the operand sort. `l > r` is `r < l`, and `l` is still evaluated first.
_BINARY = {"&&": terms.mk_and, "||": terms.mk_or,
           "+": terms.mk_add, "-": terms.mk_sub, "*": terms.mk_mul,
           "<": terms.mk_lt, "<=": terms.mk_le,
           ">": lambda l, r: terms.mk_lt(r, l), ">=": lambda l, r: terms.mk_le(r, l)}


# ---------------------------------------------------------------------------
# Public API


def run_scenario(tp: TypedProgram, root: InstanceNode, layout: StateLayout,
                 scenario: str, anys: AnySource, capacity: Optional[int] = 64,
                 record_events: bool = False) -> RunResult:
    eng = Engine(tp, root, layout, anys=anys, capacity=capacity,
                 record_events=record_events)
    verdict: object = Passed()
    try:
        eng.run(scenario)
    except _Stop as stop:
        verdict = stop.verdict
    return RunResult(verdict, eng.transcript, eng.events, eng.concrete_store())


def sym_exec(tp: TypedProgram, root: InstanceNode, layout: StateLayout,
             scenario: str) -> VerificationCondition:
    eng = Engine(tp, root, layout)
    eng.run(scenario)
    return VerificationCondition(eng.registry, eng.assumptions, eng.obligations)


def replay(tp: TypedProgram, root: InstanceNode, layout: StateLayout,
           scenario: str, model: Dict[str, Term],
           capacity: Optional[int] = None, record_events: bool = False) -> RunResult:
    """Replay a solver model: the symbolic engine with immediate concretization.
    The VC bounds no array's modifications, so by default neither does this.

    Every choice the model names must be an `any` or `havoc` of this program,
    reached through calls of this program. The numbers of a vid are compared
    as digit strings, so a name of any length is rejected without int().
    """
    sites = set(map(str, tp.choice_sites))
    calls = {str(n) for n, res in tp.resolutions.items() if isinstance(res, UserCall)}
    for vid in model:
        numbers = vid.split("_")
        if numbers[0] not in sites or not calls.issuperset(numbers[1:-1]):
            raise EngineError(f"model defines c{vid}, which names no "
                              f"choice of this program")
    return run_scenario(tp, root, layout, scenario, ModelOracle(model), capacity,
                        record_events)
