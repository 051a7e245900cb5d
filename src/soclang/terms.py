"""Typed term algebra for symbolic execution.

Constructors constant-fold: operations on constant terms evaluate immediately,
which is exactly what makes replay (concrete) mode a special case of the
symbolic executor. Ite additionally folds equal arms and constant conditions;
everything else is left to the solver.

Terms are plain slotted classes, each with a `_fields` tuple of its slots in
constructor order, cheap to build, and immutable by convention: no code
assigns to a term's field after construction. The one exception is the
emitter's scratch slot, `Compound.mark`, which is no field: only
`smtlib.write_smtlib` reads or writes it, it means something only during one
such call, and only one emission may run at a time on a DAG. Constants
(`BoolC`, `BVC`, `IntC`, `SparseConst`) are the values of concrete runs,
solver models and run results, so they compare and hash by value, equal only
to a constant of their own class. Every other term compares and hashes by
identity: large merged states share subterms as a DAG, and deep structural
equality would be quadratic. `children` gives the subterms of any term, in
field order. A `Bin`'s `op` is its operator's SMT-LIB name, which the
constructor picks from the operand sort. No term is a dataclass, so building
terms loads neither `dataclasses` nor `inspect`. `_DataclassView` only keeps
`dataclasses.fields` working on terms for `bench/traced.py::_dag_counts`:
delete it once that walks with `children` (ROADMAP item 11).
"""

from __future__ import annotations

import operator
from typing import Tuple

from .diagnostics import ToolError

BOOL_SORT = ("bool",)
INT_SORT = ("int",)


def bv_sort(width: int):
    return ("bv", width)


def arr_sort(key_width: int, leaf):
    return ("arr", key_width, leaf)


class _DataclassView:
    """What `dataclasses` reads of a term class, taken from a dataclass with
    its `_fields` made on first read: only then does `dataclasses` load."""

    made: dict = {}  # term class -> the dataclass made for it

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, cls):
        made = self.made.get(cls)
        if made is None:
            from dataclasses import make_dataclass
            made = self.made[cls] = make_dataclass(cls.__name__, cls._fields)
        return getattr(made, self.name)


class Term:
    __slots__ = ("sort",)
    _fields: tuple = ("sort",)
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __init_subclass__(cls) -> None:
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls.__base__._fields + tuple(s for s in slots if s != "mark")

    def __repr__(self) -> str:
        # Bounded: a DAG printed as a tree grows exponentially with its depth
        # of sharing, so a compound child shows only as <ClassName>, and a
        # constant array shows its first few updates.
        parts = [repr(self.sort)]
        for name in self._fields[1:]:
            value = getattr(self, name)
            if name == "mods":
                shown = [f"({k}, {_brief(v)})" for k, v in value[:_MODS_SHOWN]]
                if len(value) > _MODS_SHOWN:
                    shown.append(f"... {len(value) - _MODS_SHOWN} more")
                text = f"({', '.join(shown)})"
            else:
                text = _brief(value)
            parts.append(f"{name}={text}")
        return f"{type(self).__name__}({', '.join(parts)})"


class _Scalar(Term):
    """A scalar constant. Its `__eq__` and `__hash__`, which `SparseConst`
    shares, compare the `_key` of two terms of one class."""

    __slots__ = ("value",)
    _key = operator.attrgetter("sort", "value")

    def __init__(self, sort: tuple, value) -> None:
        self.sort, self.value = sort, value

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class BoolC(_Scalar):
    __slots__ = ()


class BVC(_Scalar):
    __slots__ = ()


class IntC(_Scalar):
    __slots__ = ()


class Var(Term):
    __slots__ = ("vid",)

    def __init__(self, sort: tuple, vid: str) -> None:
        self.sort, self.vid = sort, vid

    @property
    def name(self) -> str:
        return f"c{self.vid}"


class Compound(Term):
    """A term with subterms, which the emitter may let-bind. `mark` is the
    emitter's scratch slot (see the module docstring): not in `_fields`, so
    no repr, equality, hash or `fields` sees it."""

    __slots__ = ("mark",)


class _Unary(Compound):
    __slots__ = ("arg",)

    def __init__(self, sort: tuple, arg: Term) -> None:
        self.sort, self.arg, self.mark = sort, arg, None


class Not(_Unary):
    __slots__ = ()


class Bin(Compound):
    # op, an SMT-LIB name: and or = bvult bvule < <= bvadd + bvsub - bvmul *
    __slots__ = ("op", "left", "right")

    def __init__(self, sort: tuple, op: str, left: Term, right: Term) -> None:
        self.sort, self.op, self.left, self.right, self.mark = sort, op, left, right, None


class Ite(Compound):
    __slots__ = ("cond", "then", "other")

    def __init__(self, sort: tuple, cond: Term, then: Term, other: Term) -> None:
        self.sort, self.cond, self.then, self.other, self.mark = sort, cond, then, other, None


class Extract(Compound):
    __slots__ = ("hi", "lo", "arg")

    def __init__(self, sort: tuple, hi: int, lo: int, arg: Term) -> None:
        self.sort, self.hi, self.lo, self.arg, self.mark = sort, hi, lo, arg, None


class ZeroExt(_Unary):
    __slots__ = ()


class Bv2Int(_Unary):
    __slots__ = ()


class Int2Bv(_Unary):
    __slots__ = ()


class ArrRead(Compound):
    __slots__ = ("arr", "key")

    def __init__(self, sort: tuple, arr: Term, key: Term) -> None:
        self.sort, self.arr, self.key, self.mark = sort, arr, key, None


class ArrWrite(Compound):
    __slots__ = ("arr", "key", "value")

    def __init__(self, sort: tuple, arr: Term, key: Term, value: Term) -> None:
        self.sort, self.arr, self.key, self.value, self.mark = sort, arr, key, value, None


class SparseConst(Compound):
    """Constant array: a default leaf plus (key, value) updates, at most one
    per key; capacity is enforced by the engine, not here."""

    __slots__ = ("default", "mods")
    _key = operator.attrgetter("sort", "default", "mods")
    __eq__, __hash__ = _Scalar.__eq__, _Scalar.__hash__

    def __init__(self, sort: tuple, default: Term,
                 mods: Tuple[Tuple[int, Term], ...] = ()) -> None:
        self.sort, self.default, self.mods, self.mark = sort, default, mods, None

    @property
    def key_width(self) -> int:
        return self.sort[1]

    def read(self, key: int) -> Term:
        for k, v in self.mods:
            if k == key:
                return v
        return self.default

    def write(self, key: int, value: Term) -> "SparseConst":
        mods = self.mods
        for i, (k, _) in enumerate(mods):
            if k == key:
                mods = mods[:i] + ((key, value),) + mods[i + 1:]
                break
        else:
            mods += ((key, value),)
        return SparseConst(self.sort, self.default, mods)


_CHILDREN = {
    Not: lambda t: (t.arg,),
    Bin: lambda t: (t.left, t.right),
    Ite: lambda t: (t.cond, t.then, t.other),
    Extract: lambda t: (t.arg,),
    ZeroExt: lambda t: (t.arg,),
    Bv2Int: lambda t: (t.arg,),
    Int2Bv: lambda t: (t.arg,),
    ArrRead: lambda t: (t.arr, t.key),
    ArrWrite: lambda t: (t.arr, t.key, t.value),
    SparseConst: lambda t: (t.default, *(v for _, v in t.mods)),
}


_MODS_SHOWN = 4


def _brief(v) -> str:
    """A field's text in a term's repr: a compound term shows as its class."""
    if isinstance(v, Term) and type(v) in _CHILDREN:
        return f"<{type(v).__name__}>"
    return repr(v)


def _no_children(t: Term) -> tuple:
    return ()


def children(t: Term) -> tuple:
    """The subterms of t in field order: a constant array's default, then
    the values of its updates; none for a constant or a choice variable."""
    return _CHILDREN.get(type(t), _no_children)(t)


TRUE = BoolC(BOOL_SORT, True)
FALSE = BoolC(BOOL_SORT, False)


def is_const(t: Term) -> bool:
    return isinstance(t, (BoolC, BVC, IntC, SparseConst))


def mk_bool(v: bool) -> Term:
    return TRUE if v else FALSE


def mk_bv(width: int, value: int) -> Term:
    return BVC(bv_sort(width), value & ((1 << width) - 1))


def mk_int(value: int) -> Term:
    return IntC(INT_SORT, value)


def decimal(value: int) -> str:
    """An Int constant's decimal text; past str()'s digit limit, a ToolError."""
    try:
        return str(value)
    except ValueError:
        bits = value.bit_length()
        raise ToolError(f"Int value of {bits} bits is too long to write in decimal") from None


def mk_not(a: Term) -> Term:
    if isinstance(a, BoolC):
        return mk_bool(not a.value)
    if isinstance(a, Not):
        return a.arg
    return Not(BOOL_SORT, a)


def mk_and(a: Term, b: Term) -> Term:
    if isinstance(a, BoolC):
        return b if a.value else FALSE
    if isinstance(b, BoolC):
        return a if b.value else FALSE
    return Bin(BOOL_SORT, "and", a, b)


def mk_or(a: Term, b: Term) -> Term:
    if isinstance(a, BoolC):
        return TRUE if a.value else b
    if isinstance(b, BoolC):
        return TRUE if b.value else a
    return Bin(BOOL_SORT, "or", a, b)


def mk_eq(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if isinstance(a, (BoolC, BVC, IntC)) and isinstance(b, (BoolC, BVC, IntC)):
        return mk_bool(a.value == b.value)
    return Bin(BOOL_SORT, "=", a, b)


def _compare(bv_op: str, int_op: str, fold, a: Term, b: Term) -> Term:
    if isinstance(a, (BVC, IntC)) and isinstance(b, (BVC, IntC)):
        return mk_bool(fold(a.value, b.value))
    return Bin(BOOL_SORT, int_op if a.sort == INT_SORT else bv_op, a, b)


def mk_lt(a: Term, b: Term) -> Term:
    return _compare("bvult", "<", operator.lt, a, b)


def mk_le(a: Term, b: Term) -> Term:
    return _compare("bvule", "<=", operator.le, a, b)


def _arith(bv_op: str, int_op: str, fold, a: Term, b: Term) -> Term:
    if isinstance(a, BVC) and isinstance(b, BVC):
        return mk_bv(a.sort[1], fold(a.value, b.value))
    if isinstance(a, IntC) and isinstance(b, IntC):
        return mk_int(fold(a.value, b.value))
    return Bin(a.sort, int_op if a.sort == INT_SORT else bv_op, a, b)


def mk_add(a: Term, b: Term) -> Term:
    return _arith("bvadd", "+", operator.add, a, b)


def mk_sub(a: Term, b: Term) -> Term:
    return _arith("bvsub", "-", operator.sub, a, b)


def mk_mul(a: Term, b: Term) -> Term:
    return _arith("bvmul", "*", operator.mul, a, b)


def mk_neg(a: Term) -> Term:
    if a.sort == INT_SORT:
        return mk_sub(mk_int(0), a)
    return mk_sub(mk_bv(a.sort[1], 0), a)


def mk_ite(cond: Term, then: Term, other: Term) -> Term:
    if isinstance(cond, BoolC):
        return then if cond.value else other
    if then is other:
        return then
    if isinstance(then, (BoolC, BVC, IntC)) and isinstance(other, (BoolC, BVC, IntC)) \
            and then.value == other.value and then.sort == other.sort:
        return then
    return Ite(then.sort, cond, then, other)


def mk_extract(hi: int, lo: int, a: Term) -> Term:
    if isinstance(a, BVC):
        return mk_bv(hi - lo + 1, a.value >> lo)
    if lo == 0 and hi + 1 == a.sort[1]:
        return a
    return Extract(bv_sort(hi - lo + 1), hi, lo, a)


def mk_zext(width: int, a: Term) -> Term:
    if a.sort[1] == width:
        return a
    if isinstance(a, BVC):
        return mk_bv(width, a.value)
    return ZeroExt(bv_sort(width), a)


def mk_bv2int(a: Term) -> Term:
    if isinstance(a, BVC):
        return mk_int(a.value)
    return Bv2Int(INT_SORT, a)


def mk_int2bv(width: int, a: Term) -> Term:
    if isinstance(a, IntC):
        return mk_bv(width, a.value)
    return Int2Bv(bv_sort(width), a)


def mk_arr_read(arr: Term, key: Term) -> Term:
    """A read at a constant key looks through the writes at other constant
    keys, in a loop, so a chain of any length is read without recursion."""
    if isinstance(key, BVC):
        while isinstance(arr, ArrWrite) and isinstance(arr.key, BVC):
            if arr.key.value == key.value:
                return arr.value
            arr = arr.arr
        if isinstance(arr, SparseConst):
            return arr.read(key.value)
    return ArrRead(arr.sort[2], arr, key)


def mk_arr_write(arr: Term, key: Term, value: Term) -> Term:
    if isinstance(arr, SparseConst) and isinstance(key, BVC) and is_const(value):
        return arr.write(key.value, value)
    return ArrWrite(arr.sort, arr, key, value)


def mk_const_array(key_width: int, default: Term) -> SparseConst:
    return SparseConst(arr_sort(key_width, default.sort), default)
