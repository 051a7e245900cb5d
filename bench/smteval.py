"""A small SMT-LIB v2 evaluator, independent of `soclang.terms`.

It reads the text `soclang verify --dump-smt` writes and evaluates its
assertions under a full assignment of the declared constants. The benchmark
uses it to check verification conditions without a solver: a hand-written
exploit must make the query true, and so must any assignment whose replay
fails an assertion.

Covered: `let`, `ite`, `and`, `or`, `not`, `=`, `bvult`, `bvule`, `bvadd`,
`bvsub`, `bvmul`, `extract`, `zero_extend`, `select`, `store`,
`(as const ...)`, the Int operators `+ - * < <=`, `bv2nat` and `int2bv`.
Evaluation uses explicit stacks, so deeply nested `let` chains do not
exhaust the Python stack.

Values: Bool is `bool`, Int is `int`, a bit-vector is `BV`, an array is
`Arr`. Sorts are tuples: `("Bool",)`, `("Int",)`, `("BitVec", w)`,
`("Array", key_sort, value_sort)`.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple

BOOL = ("Bool",)
INT = ("Int",)


class EvalError(Exception):
    """Malformed or ill-sorted input, or an incomplete assignment."""


class BV(NamedTuple):
    width: int
    value: int


class Arr:
    """An array value: a default plus the keys whose value differs from it."""

    __slots__ = ("sort", "default", "mods")

    def __init__(self, sort: tuple, default, mods: Dict[object, object] = None):
        self.sort = sort
        self.default = default
        self.mods = {k: v for k, v in (mods or {}).items() if v != default}

    def select(self, key):
        return self.mods.get(key, self.default)

    def store(self, key, value) -> "Arr":
        mods = dict(self.mods)
        mods[key] = value
        return Arr(self.sort, self.default, mods)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Arr) and self.sort == other.sort
                and self.default == other.default and self.mods == other.mods)


def bv_sort(width: int) -> tuple:
    return ("BitVec", width)


def sort_of(value) -> tuple:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, BV):
        return bv_sort(value.width)
    if isinstance(value, Arr):
        return value.sort
    raise EvalError(f"not a value: {value!r}")


# ---------------------------------------------------------------------------
# Reading

_TOKEN = re.compile(r"\(|\)|\|[^|]*\||;[^\n]*|[^\s()|;]+")


def parse(text: str) -> list:
    """All top-level s-expressions of `text`; atoms are strings."""
    stack: List[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise EvalError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        elif tok[0] != ";":
            stack[-1].append(tok)
    if len(stack) != 1:
        raise EvalError("unbalanced '('")
    return stack[0]


def parse_sort(node) -> tuple:
    if node == "Bool":
        return BOOL
    if node == "Int":
        return INT
    if isinstance(node, list) and len(node) == 3 and node[:2] == ["_", "BitVec"]:
        return bv_sort(int(node[2]))
    if isinstance(node, list) and len(node) == 3 and node[0] == "Array":
        return ("Array", parse_sort(node[1]), parse_sort(node[2]))
    raise EvalError(f"unknown sort {node!r}")


def sort_text(sort: tuple) -> str:
    if sort[0] == "BitVec":
        return f"(_ BitVec {sort[1]})"
    if sort[0] == "Array":
        return f"(Array {sort_text(sort[1])} {sort_text(sort[2])})"
    return sort[0]


class Query:
    """The declarations and compiled assertions of one SMT-LIB script."""

    def __init__(self, decls: Dict[str, tuple], assertions: list) -> None:
        self.decls = decls
        self.code = [compile_term(a) for a in assertions]


def read_query(text: str) -> Query:
    decls: Dict[str, tuple] = {}
    assertions = []
    for cmd in parse(text):
        if not isinstance(cmd, list) or not cmd:
            raise EvalError(f"not a command: {cmd!r}")
        head = cmd[0]
        if head == "declare-const" and len(cmd) == 3:
            decls[cmd[1]] = parse_sort(cmd[2])
        elif head == "declare-fun" and len(cmd) == 4 and cmd[2] == []:
            decls[cmd[1]] = parse_sort(cmd[3])
        elif head == "assert" and len(cmd) == 2:
            assertions.append(cmd[1])
        elif head in ("set-logic", "set-option", "set-info", "check-sat",
                      "get-model", "exit"):
            continue
        else:
            raise EvalError(f"unsupported command {head!r}")
    return Query(decls, assertions)


# ---------------------------------------------------------------------------
# Operators


def _want(cond: bool, what: str) -> None:
    if not cond:
        raise EvalError(what)


def _bools(op: str):
    def check(args):
        _want(all(isinstance(a, bool) for a in args), f"{op} needs Bool arguments")
        return args
    return check


def _ints(op: str):
    def check(args):
        _want(all(isinstance(a, int) and not isinstance(a, bool) for a in args),
              f"{op} needs Int arguments")
        return args
    return check


def _bv_pair(op: str, fn):
    def apply(args):
        _want(len(args) == 2 and isinstance(args[0], BV) and isinstance(args[1], BV)
              and args[0].width == args[1].width,
              f"{op} needs two equal-width bit-vectors")
        return fn(args[0].width, args[0].value, args[1].value)
    return apply


def _not(args):
    _want(len(args) == 1 and isinstance(args[0], bool), "not needs one Bool")
    return not args[0]


def _eq(args):
    _want(len(args) >= 2 and all(sort_of(a) == sort_of(args[0]) for a in args),
          "= needs arguments of one sort")
    return all(a == args[0] for a in args[1:])


def _ite(args):
    _want(len(args) == 3 and isinstance(args[0], bool)
          and sort_of(args[1]) == sort_of(args[2]), "ill-sorted ite")
    return args[1] if args[0] else args[2]


def _minus(args):
    xs = _ints("-")(args)
    _want(len(xs) >= 1, "- needs an argument")
    return -xs[0] if len(xs) == 1 else xs[0] - sum(xs[1:])


def _times(args):
    r = 1
    for x in _ints("*")(args):
        r *= x
    return r


def _int_cmp(op: str, fn):
    def apply(args):
        _want(len(args) == 2, f"{op} takes two arguments")
        a, b = _ints(op)(args)
        return fn(a, b)
    return apply


def _bv2nat(args):
    _want(len(args) == 1 and isinstance(args[0], BV), "bv2nat needs a bit-vector")
    return args[0].value


def _select(args):
    _want(len(args) == 2 and isinstance(args[0], Arr)
          and sort_of(args[1]) == args[0].sort[1], "ill-sorted select")
    return args[0].select(args[1])


def _store(args):
    _want(len(args) == 3 and isinstance(args[0], Arr)
          and sort_of(args[1]) == args[0].sort[1]
          and sort_of(args[2]) == args[0].sort[2], "ill-sorted store")
    return args[0].store(args[1], args[2])


OPS = {
    "and": lambda args: all(_bools("and")(args)),
    "or": lambda args: any(_bools("or")(args)),
    "not": _not,
    "=": _eq,
    "ite": _ite,
    "bvadd": _bv_pair("bvadd", lambda w, a, b: BV(w, (a + b) % (1 << w))),
    "bvsub": _bv_pair("bvsub", lambda w, a, b: BV(w, (a - b) % (1 << w))),
    "bvmul": _bv_pair("bvmul", lambda w, a, b: BV(w, (a * b) % (1 << w))),
    "bvult": _bv_pair("bvult", lambda w, a, b: a < b),
    "bvule": _bv_pair("bvule", lambda w, a, b: a <= b),
    "+": lambda args: sum(_ints("+")(args)),
    "-": _minus,
    "*": _times,
    "<": _int_cmp("<", lambda a, b: a < b),
    "<=": _int_cmp("<=", lambda a, b: a <= b),
    "bv2nat": _bv2nat,
    "select": _select,
    "store": _store,
}


def _indexed(head: list):
    """The function of an indexed operator `(_ name i...)` or `(as const S)`."""
    if len(head) == 3 and head[:2] == ["as", "const"]:
        sort = parse_sort(head[2])
        _want(sort[0] == "Array", "const needs an array sort")

        def const(args):
            _want(len(args) == 1 and sort_of(args[0]) == sort[2], "ill-sorted const array")
            return Arr(sort, args[0])
        return const
    _want(len(head) >= 3 and head[0] == "_" and all(i.isdigit() for i in head[2:]),
          f"unsupported operator {head!r}")
    name, idx = head[1], [int(i) for i in head[2:]]

    def one_bv(args):
        _want(len(args) == 1 and isinstance(args[0], BV), f"{name} needs a bit-vector")
        return args[0]

    if name == "extract" and len(idx) == 2:
        hi, lo = idx

        def extract(args):
            a = one_bv(args)
            _want(0 <= lo <= hi < a.width, "extract out of range")
            return BV(hi - lo + 1, (a.value >> lo) & ((1 << (hi - lo + 1)) - 1))
        return extract
    if name == "zero_extend" and len(idx) == 1:
        def zero_extend(args):
            a = one_bv(args)
            return BV(a.width + idx[0], a.value)
        return zero_extend
    if name == "int2bv" and len(idx) == 1:
        def int2bv(args):
            _want(len(args) == 1, "int2bv takes one argument")
            (a,) = _ints("int2bv")(args)
            return BV(idx[0], a % (1 << idx[0]))
        return int2bv
    raise EvalError(f"unsupported operator {head!r}")


# ---------------------------------------------------------------------------
# Evaluation: terms compile to postfix code, run on a value stack.

_PUSH, _LOAD, _APPLY, _BIND, _UNBIND = range(5)
_MISSING = object()


def _literal(atom: str):
    if atom == "true":
        return True
    if atom == "false":
        return False
    if atom.isdigit():
        return int(atom)
    if atom.startswith("#b") and len(atom) > 2:
        return BV(len(atom) - 2, int(atom[2:], 2))
    if atom.startswith("#x") and len(atom) > 2:
        return BV(4 * (len(atom) - 2), int(atom[2:], 16))
    return None


def compile_term(node) -> list:
    """Postfix code for a term. Iterative, so nesting depth is unbounded."""
    code: list = []
    todo: list = [(False, node)]
    while todo:
        ready, item = todo.pop()
        if ready:
            code.append(item)
        elif isinstance(item, str):
            lit = _literal(item)
            code.append((_PUSH, lit) if lit is not None else (_LOAD, item))
        elif not item:
            raise EvalError("empty application")
        elif item[0] == "let":
            _want(len(item) == 3 and isinstance(item[1], list) and item[1]
                  and all(isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)
                          for b in item[1]), "malformed let")
            names = tuple(b[0] for b in item[1])
            todo.append((True, (_UNBIND, names)))
            todo.append((False, item[2]))
            todo.append((True, (_BIND, names)))
            todo.extend((False, b[1]) for b in reversed(item[1]))
        elif item[0] == "_" and len(item) == 3 and isinstance(item[1], str) \
                and item[1].startswith("bv") and item[1][2:].isdigit():
            w = int(item[2])
            code.append((_PUSH, BV(w, int(item[1][2:]) % (1 << w))))
        else:
            head, args = item[0], item[1:]
            if isinstance(head, list):
                fn = _indexed(head)
            elif head in OPS:
                fn = OPS[head]
            else:
                raise EvalError(f"unsupported operator {head!r}")
            todo.append((True, (_APPLY, fn, len(args))))
            todo.extend((False, a) for a in reversed(args))
    return code


def run_code(code: list, env: Dict[str, object]):
    """Value of compiled code; `env` maps free symbols to values and is the
    scope `let` binds in, restored on return."""
    values: list = []
    saved: list = []
    for ins in code:
        tag = ins[0]
        if tag == _PUSH:
            values.append(ins[1])
        elif tag == _LOAD:
            if ins[1] not in env:
                raise EvalError(f"unbound symbol {ins[1]!r}")
            values.append(env[ins[1]])
        elif tag == _APPLY:
            n = ins[2]
            args = values[len(values) - n:]
            del values[len(values) - n:]
            values.append(ins[1](args))
        elif tag == _BIND:
            names = ins[1]
            bound = values[len(values) - len(names):]
            del values[len(values) - len(names):]
            saved.append([(n, env.get(n, _MISSING)) for n in names])
            env.update(zip(names, bound))
        else:
            for n, old in saved.pop():
                if old is _MISSING:
                    del env[n]
                else:
                    env[n] = old
    (result,) = values
    return result


def evaluate(query: Query, assignment: Dict[str, object]) -> bool:
    """Truth of the conjunction of `query`'s assertions under `assignment`.

    The assignment must give every declared constant a value of its sort.
    """
    env: Dict[str, object] = {}
    for name, sort in query.decls.items():
        if name not in assignment:
            raise EvalError(f"no value for {name}")
        value = assignment[name]
        if sort_of(value) != sort:
            raise EvalError(f"value for {name} has sort {sort_of(value)}, "
                            f"declared {sort}")
        env[name] = value
    for code in query.code:
        v = run_code(code, env)
        if not isinstance(v, bool):
            raise EvalError("assertion is not Bool")
        if not v:
            return False
    return True
