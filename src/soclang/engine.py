"""Scenario execution engine.

One traversal serves two modes:

* symbolic mode (no AnySource): every `if` whose condition is not a
  constant executes both arms and merges stores with ite terms; `any`/`havoc`
  register fresh choice variables; assume/assert are recorded under the
  current guard. The result is a VerificationCondition. A path guard is a
  chain of branch conditions (`_Path`), built into a term on demand: only
  assume and assert read it, most branches hold neither, and each guard's
  term is built once, so every assume and assert under it shares one term.

* concrete mode (interpreter and counterexample replayer): every fresh
  variable is immediately replaced by a constant term from an AnySource, so
  terms constant-fold, every branch condition is concrete, exactly one path
  runs, printf fires, and the first failing assume/assert stops the run.
  Constant terms are the only value model: a run's store, a solver model and
  a run result are trees of them.

A choice id is (site, (call sites, leaf number)): the node id of the `any`
or `havoc` that made the choice, the ids of the `Call` nodes from the
scenario down to it, and the number of the leaf among the values that one
evaluation of the site makes (a record, a vector or a havocked module has
several). The language has no loops and the type checker rejects recursion,
so a site runs at most once per call path, and a choice is named by its
position in the inlined, loop-free scenario, not by how many choices ran
before it. The symbolic run, which takes both arms of every branch, and a
concrete run, which takes one, therefore give a choice the same id, and
replay asks a model for exactly the ids that sym_exec registered. The
SMT-LIB name of a choice spells its id (`choice_vid`), so a model names its
choices without the symbolic run that declared them.

Records and vectors are trees of per-leaf terms. `tree_map` applies a
function leafwise to trees of one shape, and `tree_of_type` builds a tree
from a type; every per-shape walk in this module goes through the two,
except `format_value`, which reads a tree together with its type.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from . import ast, terms
from .diagnostics import CapacityError, EngineError
from .elaborate import InstanceNode, InstanceTree, StateLayout, resolve_instance
from .terms import Term
from .typecheck import (EnumVariantRef, LocalRef, PrimCall, TypedProgram,
                        UserCall, enum_width)

# ---------------------------------------------------------------------------
# Value trees: records/vectors explode into per-leaf terms. Trees compare by
# value, as their constant leaves do.


@dataclass(slots=True, unsafe_hash=True)
class RecV:
    fields: tuple  # tuple[tuple[str, tree], ...]

    def get(self, name: str):
        for n, v in self.fields:
            if n == name:
                return v
        raise KeyError(name)


@dataclass(slots=True, unsafe_hash=True)
class VecV:
    items: tuple


def tree_map(fn, tree, *others):
    """Apply fn leafwise to trees of one shape.

    Records match by field name, not position: types compare fields by name,
    and an inferred record literal may hold them in another order.
    """
    if isinstance(tree, RecV):
        return RecV(tuple((n, tree_map(fn, v, *(o.get(n) for o in others)))
                          for n, v in tree.fields))
    if isinstance(tree, VecV):
        return VecV(tuple(tree_map(fn, *xs)
                          for xs in zip(tree.items, *(o.items for o in others))))
    return fn(tree, *others)


def tree_of_type(t: ast.TypeExpr, leaf):
    """The tree of type t whose leaves are leaf(scalar type), called in
    field/item order (choice ids and registry vids follow it)."""
    if isinstance(t, ast.RecordType):
        return RecV(tuple((n, tree_of_type(ft, leaf)) for n, ft in t.fields))
    if isinstance(t, ast.VectorType):
        return VecV(tuple(tree_of_type(t.elem, leaf) for _ in range(t.length)))
    return leaf(t)


def tree_ite(cond: Term, a, b):
    if a is b:
        return a
    if isinstance(a, (RecV, VecV)):
        return tree_map(partial(terms.mk_ite, cond), a, b)
    return terms.mk_ite(cond, a, b)


def tree_eq(a, b) -> Term:
    """Leafwise equality of two records or scalars (never vectors: the type
    checker rejects equality on them), conjoined per record level."""
    def conj(eqs):
        if not isinstance(eqs, RecV):
            return eqs
        acc = terms.TRUE
        for _, v in eqs.fields:
            acc = terms.mk_and(acc, conj(v))
        return acc

    return conj(tree_map(terms.mk_eq, a, b))


# ---------------------------------------------------------------------------
# Choice registry and nondeterminism sources

CallPath = Tuple[int, ...]  # Call node ids from the scenario down
ChoiceId = Tuple[int, Tuple[CallPath, int]]  # (site, (call sites, leaf number))


def choice_ids(site: int, calls: CallPath) -> Iterator[ChoiceId]:
    """The ids of the leaves that one evaluation of `site` chooses, in
    leaf order; the evaluation is the only one on its call path."""
    return ((site, (calls, leaf)) for leaf in itertools.count())


def choice_vid(cid: ChoiceId) -> str:
    """The suffix of the choice's SMT-LIB name `c<vid>`: its site, call sites
    and leaf number joined by `_`. The first number is the site and the last
    the leaf, so every number between them is a call site."""
    site, (calls, leaf) = cid
    return "_".join(map(str, (site, *calls, leaf)))


@dataclass(slots=True)
class ChoiceInfo:
    vid: str
    site: int
    occ: Tuple[CallPath, int]
    type: ast.TypeExpr  # scalar leaf type, or ArrayType(key, leaf) for arrays
    sort: tuple

    @property
    def cid(self) -> ChoiceId:
        return (self.site, self.occ)


@dataclass
class Registry:
    infos: List[ChoiceInfo] = field(default_factory=list)

    def register(self, site: int, occ: tuple, t: ast.TypeExpr, sort: tuple) -> ChoiceInfo:
        info = ChoiceInfo(choice_vid((site, occ)), site, occ, t, sort)
        self.infos.append(info)
        return info


class AnySource:
    """Pluggable source of constant terms for `any` and `havoc` in concrete
    runs: `scalar` gives a leaf of the scalar type, `array` a SparseConst."""

    def scalar(self, cid: ChoiceId, t: ast.TypeExpr, enums):
        raise NotImplementedError

    def array(self, cid: ChoiceId, key_width: int, leaf: ast.TypeExpr, enums):
        raise NotImplementedError


class SeededRandom(AnySource):
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def scalar(self, cid, t, enums):
        if isinstance(t, ast.BoolType):
            return terms.mk_bool(self.rng.random() < 0.5)
        if isinstance(t, ast.BitIntType):
            return terms.mk_bv(t.width, self.rng.randrange(1 << t.width))
        if isinstance(t, ast.IntType):
            return terms.mk_int(self.rng.randint(-(1 << 31), 1 << 31))
        if isinstance(t, ast.EnumRef):
            n = len(enums[t.name])
            return terms.mk_bv(enum_width(n), self.rng.randrange(n))
        raise AssertionError(f"cannot draw {t}")

    def array(self, cid, key_width, leaf, enums):
        # A uniformly random huge array is not representable; draw a random
        # fill value and no modifications.
        return terms.mk_const_array(key_width, self.scalar(cid, leaf, enums))


def zero_scalar(t: ast.TypeExpr, enums) -> Term:
    sort = scalar_sort(t, enums)
    if sort == terms.BOOL_SORT:
        return terms.FALSE
    if sort == terms.INT_SORT:
        return terms.mk_int(0)
    return terms.mk_bv(sort[1], 0)


class ModelOracle(AnySource):
    """Replays a solver model; absent choice ids default to zero.

    Each model value must be a constant of the choice's sort, and an enum
    value must name a variant.
    """

    def __init__(self, values: Dict[ChoiceId, Term]) -> None:
        self.values = values

    def scalar(self, cid, t, enums):
        if cid not in self.values:
            return zero_scalar(t, enums)
        v = self.values[cid]
        if v.sort == scalar_sort(t, enums) and \
                not (isinstance(t, ast.EnumRef) and v.value >= len(enums[t.name])):
            return v
        raise EngineError(f"model value for c{choice_vid(cid)} has the wrong type "
                          f"(expected {t}, got {_leaf_text(v, None, enums)})")

    def array(self, cid, key_width, leaf, enums):
        if cid not in self.values:
            return terms.mk_const_array(key_width, zero_scalar(leaf, enums))
        v = self.values[cid]
        if not isinstance(v, terms.SparseConst) or \
                v.sort != terms.arr_sort(key_width, scalar_sort(leaf, enums)):
            raise EngineError(f"model value for c{choice_vid(cid)} is not an array "
                              f"of the expected sort")
        if isinstance(leaf, ast.EnumRef):
            for x in (v.default, *(x for _, x in v.mods)):
                if x.value >= len(enums[leaf.name]):
                    raise EngineError(f"enum value {x.value} out of range for {leaf.name}")
        return v


# ---------------------------------------------------------------------------
# Results


@dataclass
class Passed:
    pass


@dataclass
class AssertionFailed:
    site: ast.SourceSpan
    message: str


@dataclass
class AssumeInfeasible:
    site: ast.SourceSpan


@dataclass
class RunResult:
    verdict: object
    transcript: List[str]
    events: List[dict]
    store: Dict[str, object]  # dotted cell path -> tree of constant terms


@dataclass
class VerificationCondition:
    """All assumptions hold and at least one assertion fails."""

    registry: Registry
    assumptions: List[Tuple[Term, Term]]  # (guard, body)
    obligations: List[Tuple[Term, Term, ast.SourceSpan]]  # (guard, body, site)

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


def scalar_sort(t: ast.TypeExpr, enums) -> tuple:
    if isinstance(t, ast.BoolType):
        return terms.BOOL_SORT
    if isinstance(t, ast.BitIntType):
        return terms.bv_sort(t.width)
    if isinstance(t, ast.IntType):
        return terms.INT_SORT
    if isinstance(t, ast.EnumRef):
        return terms.bv_sort(enum_width(len(enums[t.name])))
    raise AssertionError(f"no scalar sort for {t}")


def format_value(tree, t: ast.TypeExpr, enums, in_array: bool = False) -> str:
    """Render a constant value tree of type t the way traces print it.

    Records print their fields in declaration order, an array as its updates
    and its default. A symbolic leaf, a symbolic array or an enum value out
    of range is an EngineError: the concrete engine checks with this walk
    that a value matches its static type.
    """
    if isinstance(t, ast.UnitType):
        return "()"
    if isinstance(t, ast.RecordType):
        inner = ", ".join(f"{n}: {format_value(tree.get(n), ft, enums, in_array)}"
                          for n, ft in t.fields)
        return "{ " + inner + " }"
    if isinstance(t, ast.VectorType):
        return "[" + ", ".join(format_value(x, t.elem, enums, in_array)
                               for x in tree.items) + "]"
    if isinstance(t, ast.ArrayType):
        return format_value(tree, t.value, enums, True)
    if in_array and not isinstance(tree, terms.SparseConst):
        raise EngineError("internal: symbolic array in a concrete run")
    if not in_array and isinstance(tree, terms.SparseConst):
        raise EngineError(f"internal: array value for {t} in a concrete run")
    return _leaf_text(tree, t, enums)


def _leaf_text(v: Term, t: Optional[ast.TypeExpr], enums) -> str:
    """Text of a constant leaf; t, if given, names the variants of an enum.

    Small bitvector values print in decimal; larger ones print as grouped
    hex with a u<width> suffix.
    """
    if isinstance(v, terms.SparseConst):
        mods = ", ".join(f"{k}: {_leaf_text(x, t, enums)}" for k, x in v.mods)
        return "array{" + mods + ("; " if mods else "") + \
            f"default {_leaf_text(v.default, t, enums)}" + "}"
    if isinstance(v, terms.BoolC):
        return "true" if v.value else "false"
    if isinstance(v, terms.IntC):
        return str(v.value)
    if not isinstance(v, terms.BVC):
        raise EngineError("internal: symbolic value in a concrete run")
    if isinstance(t, ast.EnumRef):
        variants = enums[t.name]
        if v.value >= len(variants):
            raise EngineError(f"enum value {v.value} out of range for {t.name}")
        return variants[v.value]
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


@dataclass
class _Frame:
    inst: InstanceNode
    calls: CallPath = ()


class Engine:
    """Runs concretely exactly when `anys` is given, symbolically otherwise."""

    def __init__(self, tp: TypedProgram, tree: InstanceTree, layout: StateLayout,
                 anys: Optional[AnySource] = None, capacity: int = 64) -> None:
        self.tp = tp
        self.tree = tree
        self.layout = layout
        self.anys = anys
        self.capacity = capacity
        self.enums = tp.enums
        self.store: Dict[Tuple[str, ...], object] = {}
        self.path = _Path(None, None, True)
        self.registry = Registry()
        self.assumptions: List[Tuple[Term, Term]] = []
        self.obligations: List[Tuple[Term, Term, ast.SourceSpan]] = []
        self.transcript: List[str] = []
        self.events: List[dict] = []
        self._init_store()

    # -- store -------------------------------------------------------------

    def _init_store(self) -> None:
        frame = _Frame(self.tree.root)
        enums = self.enums
        for cell in self.layout.cells:
            if cell.kind == "state":
                # Init expressions are closed and pure; they fold to constants.
                self.store[cell.path] = self.eval(cell.init, {}, frame)
            else:
                kw = cell.key_type.width
                self.store[cell.path] = tree_of_type(cell.value_type, lambda t: (
                    terms.mk_const_array(kw, zero_scalar(t, enums))))

    def concrete_store(self) -> Dict[str, object]:
        return {cell.dotted(): self.store[cell.path] for cell in self.layout.cells}

    # -- choices ------------------------------------------------------------

    def fresh_scalar(self, cid: ChoiceId, t: ast.TypeExpr) -> Term:
        if self.anys is not None:
            return self.anys.scalar(cid, t, self.enums)
        info = self.registry.register(*cid, t, scalar_sort(t, self.enums))
        var = terms.Var(scalar_sort(t, self.enums), info.vid)
        if isinstance(t, ast.EnumRef):
            n = len(self.enums[t.name])
            w = enum_width(n)
            if n < (1 << w):
                self.assumptions.append((terms.TRUE, terms.mk_ult(var, terms.mk_bv(w, n))))
        return var

    def fresh_tree(self, cids: Iterator[ChoiceId], t: ast.TypeExpr):
        return tree_of_type(t, lambda leaf: self.fresh_scalar(next(cids), leaf))

    def fresh_array_tree(self, cids: Iterator[ChoiceId], cell):
        kw = cell.key_type.width

        def leaf(t: ast.TypeExpr):
            cid = next(cids)
            if self.anys is not None:
                return self.anys.array(cid, kw, t, self.enums)
            sort = terms.arr_sort(kw, scalar_sort(t, self.enums))
            info = self.registry.register(*cid, ast.ArrayType(cell.key_type, t), sort)
            return terms.Var(sort, info.vid)

        return tree_of_type(cell.value_type, leaf)

    # -- evaluation ----------------------------------------------------------

    def eval(self, e: ast.Expr, env: dict, frame: _Frame):
        handler = self._EVAL.get(type(e))
        if handler is None:
            raise AssertionError(f"unhandled node {type(e).__name__}")
        return handler(self, e, env, frame)

    def _eval_int_lit(self, e: ast.IntLit, env, frame):
        t = self.tp.types[e.node_id]
        if isinstance(t, ast.IntType):
            return terms.mk_int(e.value)
        return terms.mk_bv(t.width, e.value)

    def _eval_bool_lit(self, e: ast.BoolLit, env, frame):
        return terms.mk_bool(e.value)

    def _eval_unit_lit(self, e: ast.UnitLit, env, frame):
        return None

    def _eval_vector_lit(self, e: ast.VectorLit, env, frame):
        return VecV(tuple(self.eval(x, env, frame) for x in e.items))

    def _eval_record_lit(self, e: ast.RecordLit, env, frame):
        written = {n: self.eval(v, env, frame) for n, v in e.fields}
        return RecV(tuple((n, written[n]) for n, _ in self.tp.types[e.node_id].fields))

    def _eval_path(self, e: ast.PathExpr, env, frame):
        res = self.tp.resolutions[e.node_id]
        if isinstance(res, LocalRef):
            v = env[res.name]
            for name in res.fields:
                v = v.get(name)
            return v
        assert isinstance(res, EnumVariantRef)
        w = enum_width(len(self.enums[res.enum]))
        return terms.mk_bv(w, res.index)

    def _eval_field(self, e: ast.FieldAccess, env, frame):
        return self.eval(e.base, env, frame).get(e.name)

    def _eval_slice(self, e: ast.Slice, env, frame):
        return terms.mk_extract(e.hi, e.lo, self.eval(e.base, env, frame))

    def _eval_index_update(self, e: ast.IndexUpdate, env, frame):
        base = self.eval(e.base, env, frame)
        idx = self.eval(e.index, env, frame)
        val = self.eval(e.value, env, frame)
        return self._vector_update(base, idx, val)

    def _eval_slice_update(self, e: ast.SliceUpdate, env, frame):
        base = self.eval(e.base, env, frame)
        val = self.eval(e.value, env, frame)
        items = list(base.items)
        items[e.lo:e.hi + 1] = list(val.items)
        return VecV(tuple(items))

    def _eval_unary(self, e: ast.Unary, env, frame):
        v = self.eval(e.operand, env, frame)
        return terms.mk_not(v) if e.op == "!" else terms.mk_neg(v)

    def _eval_any(self, e: ast.AnyExpr, env, frame):
        return self.fresh_tree(choice_ids(e.node_id, frame.calls),
                               self.tp.types[e.node_id])

    def _eval_let(self, e: ast.Let, env, frame):
        v = self.eval(e.value, env, frame)
        if __debug__ and self.anys is not None:
            # Type preservation: a produced value's runtime shape always
            # matches its static annotation (formatting raises otherwise).
            format_value(v, self.tp.types[e.value.node_id], self.enums)
        env[e.name] = v
        return None

    def _eval_block(self, e: ast.Block, env, frame):
        inner = dict(env)
        result = None
        for item in e.items:
            result = self.eval(item, inner, frame)
        return result if e.yields_value else None

    def _eval_assume(self, e: ast.Assume, env, frame):
        body = self.eval(e.cond, env, frame)
        if self.anys is None:
            self.assumptions.append((self.path.term(), body))
            return None
        if not body.value:
            raise _Stop(AssumeInfeasible(e.span))
        return None

    def _eval_assert(self, e: ast.Assert, env, frame):
        body = self.eval(e.cond, env, frame)
        if self.anys is None:
            self.obligations.append((self.path.term(), body, e.span))
            return None
        if not body.value:
            msg = ast.expr_source(e.cond)
            self.events.append({"event": "assert_failed", "at": str(e.span)})
            raise _Stop(AssertionFailed(e.span, msg))
        return None

    def _eval_printf(self, e: ast.Printf, env, frame):
        holes = [self.eval(h, env, frame) for h in e.holes]
        if self.anys is not None:
            rendered = [format_value(v, self.tp.types[h.node_id], self.enums)
                        for h, v in zip(e.holes, holes)]
            pieces = [e.parts[0]]
            for part, r in zip(e.parts[1:], rendered):
                pieces.append(r)
                pieces.append(part)
            text = "".join(pieces)
            self.transcript.append(text)
            self.events.append({"event": "printf", "text": text})
        return None

    def _eval_index(self, e: ast.Index, env, frame):
        base = self.eval(e.base, env, frame)
        idx = self.eval(e.index, env, frame)
        bt = self.tp.types[e.base.node_id]
        if isinstance(bt, ast.VectorType):
            return self._vector_select(base, idx)
        # array snapshot: read every leaf array at the key
        return tree_map(lambda arr: terms.mk_arr_read(arr, idx), base)

    def _vector_select(self, base: VecV, idx: Term):
        if isinstance(idx, terms.BVC):
            return base.items[idx.value]
        width = idx.sort[1]
        acc = base.items[0]
        for i in range(1, 1 << width):
            acc = tree_ite(terms.mk_eq(idx, terms.mk_bv(width, i)), base.items[i], acc)
        return acc

    def _vector_update(self, base: VecV, idx: Term, val):
        if isinstance(idx, terms.BVC):
            items = list(base.items)
            items[idx.value] = val
            return VecV(tuple(items))
        width = idx.sort[1]
        items = [
            tree_ite(terms.mk_eq(idx, terms.mk_bv(width, i)), val, base.items[i])
            if i < (1 << width) else base.items[i]
            for i in range(len(base.items))
        ]
        return VecV(tuple(items))

    def _eval_binary(self, e: ast.Binary, env, frame):
        l = self.eval(e.left, env, frame)
        r = self.eval(e.right, env, frame)
        op = e.op
        if op == "&&":
            return terms.mk_and(l, r)
        if op == "||":
            return terms.mk_or(l, r)
        if op == "==":
            return tree_eq(l, r)
        if op == "!=":
            return terms.mk_not(tree_eq(l, r))
        lt = self.tp.types[e.left.node_id]
        if op in ("<", "<=", ">", ">="):
            if op == ">":
                l, r, op = r, l, "<"
            elif op == ">=":
                l, r, op = r, l, "<="
            if isinstance(lt, ast.IntType):
                return terms.mk_lt(l, r) if op == "<" else terms.mk_le(l, r)
            return terms.mk_ult(l, r) if op == "<" else terms.mk_ule(l, r)
        if op == "+":
            return terms.mk_add(l, r)
        if op == "-":
            return terms.mk_sub(l, r)
        if op == "*":
            return terms.mk_mul(l, r)
        raise AssertionError(f"unknown operator {op}")

    def _eval_builtin(self, e: ast.Builtin, env, frame):
        v = self.eval(e.arg, env, frame)
        if e.name == "zero_extend":
            return terms.mk_zext(e.width, v)
        if e.name == "truncate":
            return terms.mk_extract(e.width - 1, 0, v)
        if e.name == "to_int":
            return terms.mk_bv2int(v)
        if e.name == "from_int":
            return terms.mk_int2bv(e.width, v)
        raise AssertionError(f"unknown builtin {e.name}")

    def _eval_if(self, e: ast.If, env, frame):
        cond = self.eval(e.cond, env, frame)
        if isinstance(cond, terms.BoolC):
            if cond.value:
                return self.eval(e.then, env, frame)
            if e.orelse is not None:
                return self.eval(e.orelse, env, frame)
            return None
        assert self.anys is None
        saved_store = dict(self.store)
        saved_path = self.path
        self.path = _Path(saved_path, cond, True)
        v_then = self.eval(e.then, env, frame)
        store_then = self.store
        self.store = saved_store
        self.path = _Path(saved_path, cond, False)
        v_else = self.eval(e.orelse, env, frame) if e.orelse is not None else None
        self.path = saved_path
        self.store = merge_stores(cond, store_then, self.store)
        return tree_ite(cond, v_then, v_else)

    # -- calls ----------------------------------------------------------------

    def _eval_call(self, e: ast.Call, env, frame: _Frame):
        res = self.tp.resolutions[e.node_id]
        if isinstance(res, UserCall):
            return self._user_call(e, res, env, frame)
        return self._prim_call(e, res, env, frame)

    def _user_call(self, e: ast.Call, res: UserCall, env, frame: _Frame):
        target = resolve_instance(self.tree, frame.inst, res.inst_path)
        args = [self.eval(a, env, frame) for a in e.args]
        decl = self.tp.fns[(res.module, res.fn)]
        fq = ".".join(target.path + (res.fn,)) if target.path else res.fn
        if self.anys is not None:
            arg_text = {p.name: format_value(v, self.tp.resolve_type(p.type), self.enums)
                        for p, v in zip(decl.params, args)}
            self.events.append({"event": "call", "fn": fq, "args": arg_text})
        new_env = {p.name: v for p, v in zip(decl.params, args)}
        new_frame = _Frame(target, frame.calls + (e.node_id,))
        result = self.eval(decl.body, new_env, new_frame)
        if self.anys is not None:
            rt = self.tp.resolve_type(decl.ret_type)
            self.events.append({"event": "return", "fn": fq,
                                "value": format_value(result, rt, self.enums)})
        return result

    def _prim_call(self, e: ast.Call, res: PrimCall, env, frame: _Frame):
        target = resolve_instance(self.tree, frame.inst, res.inst_path)
        args = [self.eval(a, env, frame) for a in e.args]
        op = res.op
        if op == "havoc":
            self._havoc(choice_ids(e.node_id, frame.calls), target)
            return None
        path = target.path
        if op == "state_get":
            return self.store[path]
        if op == "state_set":
            self.store[path] = args[0]
            return None
        if op == "array_get":
            return self.store[path]
        if op == "array_set":
            self.store[path] = args[0]
            return None
        if op == "array_read":
            return tree_map(lambda arr: terms.mk_arr_read(arr, args[0]), self.store[path])
        if op == "array_write":
            def write(arr, v):
                arr = terms.mk_arr_write(arr, args[0], v)
                if self.anys is not None and len(arr.mods) > self.capacity:
                    raise CapacityError(target.dotted(), self.capacity)
                return arr

            self.store[path] = tree_map(write, self.store[path], args[1])
            return None
        raise AssertionError(f"unknown primitive op {op}")

    def _havoc(self, cids: Iterator[ChoiceId], target: InstanceNode) -> None:
        for cell in self.layout.subtree(target.path):
            if cell.kind == "state":
                self.store[cell.path] = self.fresh_tree(cids, cell.value_type)
            else:
                self.store[cell.path] = self.fresh_array_tree(cids, cell)

    # One handler per expression class; `eval` dispatches on the exact class.
    _EVAL = {
        ast.IntLit: _eval_int_lit,
        ast.BoolLit: _eval_bool_lit,
        ast.UnitLit: _eval_unit_lit,
        ast.VectorLit: _eval_vector_lit,
        ast.RecordLit: _eval_record_lit,
        ast.PathExpr: _eval_path,
        ast.FieldAccess: _eval_field,
        ast.Index: _eval_index,
        ast.Slice: _eval_slice,
        ast.IndexUpdate: _eval_index_update,
        ast.SliceUpdate: _eval_slice_update,
        ast.Unary: _eval_unary,
        ast.Binary: _eval_binary,
        ast.Call: _eval_call,
        ast.Builtin: _eval_builtin,
        ast.AnyExpr: _eval_any,
        ast.Let: _eval_let,
        ast.If: _eval_if,
        ast.Block: _eval_block,
        ast.Assume: _eval_assume,
        ast.Assert: _eval_assert,
        ast.Printf: _eval_printf,
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
        return self.eval(decl.body, {}, _Frame(self.tree.root))


def merge_stores(cond: Term, then_store: dict, else_store: dict) -> dict:
    return {k: tree_ite(cond, a, else_store[k]) for k, a in then_store.items()}


# ---------------------------------------------------------------------------
# Public API


def run_scenario(tp: TypedProgram, tree: InstanceTree, layout: StateLayout,
                 scenario: str, anys: AnySource, capacity: int = 64) -> RunResult:
    eng = Engine(tp, tree, layout, anys=anys, capacity=capacity)
    verdict: object = Passed()
    try:
        eng.run(scenario)
    except _Stop as stop:
        verdict = stop.verdict
    return RunResult(verdict, eng.transcript, eng.events, eng.concrete_store())


def sym_exec(tp: TypedProgram, tree: InstanceTree, layout: StateLayout,
             scenario: str) -> VerificationCondition:
    eng = Engine(tp, tree, layout)
    eng.run(scenario)
    return VerificationCondition(eng.registry, eng.assumptions, eng.obligations)


def replay(tp: TypedProgram, tree: InstanceTree, layout: StateLayout,
           scenario: str, model: Dict[ChoiceId, Term],
           capacity: int = 64) -> RunResult:
    """Replay a solver model: the symbolic engine with immediate concretization.

    Every choice the model names must be an `any` or `havoc` of this program,
    reached through calls of this program.
    """
    for cid in model:
        site, (calls, _) = cid
        if site not in tp.choice_sites or not all(
                isinstance(tp.resolutions.get(c), UserCall) for c in calls):
            raise EngineError(f"model defines c{choice_vid(cid)}, which names no "
                              f"choice of this program")
    return run_scenario(tp, tree, layout, scenario, ModelOracle(model), capacity)
