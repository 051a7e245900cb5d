"""SMT-LIB v2 backend: serialize a VerificationCondition, drive an external
solver process, parse the model it returns. Jobs and verdicts are `ast.Node`
classes: slotted, with `==` and `repr` over their fields.

Emission makes two passes over the term DAG and keeps no table of its
nodes and no `id()` key: each pass marks a compound node in its own `mark`
slot. The first stamps each node as reached once or again. The second hands
the text to a `write` callable, each let-binding as soon as it is made:
`verify` streams the query into the solver's file.

`run_solver` imports `subprocess` and `shlex` itself: `trace` parses a model
and never starts a solver, so it does not load them.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, List, Optional, Tuple

from . import ast, terms
from .diagnostics import ToolError
from .engine import Registry, VerificationCondition
from .terms import Term

DEFAULT_SOLVER = "z3 -smt2 {file}"
SOLVER_ENV_VAR = "SOC_SOLVER"
# The solver is waited for with poll(2), whose timeout is a C int of milliseconds.
MAX_TIMEOUT_S = (2**31 - 1) // 1000


class ModelParseError(ToolError):
    pass


# ---------------------------------------------------------------------------
# Emission


def _sort_text(sort: tuple) -> str:
    if sort == terms.BOOL_SORT:
        return "Bool"
    if sort == terms.INT_SORT:
        return "Int"
    if sort[0] == "bv":
        return f"(_ BitVec {sort[1]})"
    if sort[0] == "arr":
        return f"(Array (_ BitVec {sort[1]}) {_sort_text(sort[2])})"
    raise AssertionError(f"unknown sort {sort}")


def _has_int(sort: tuple) -> bool:
    """Whether `sort` is Int or an array with Int leaves."""
    return sort == terms.INT_SORT or sort[0] == "arr" and _has_int(sort[2])


# The text of each atom class, keyed on the exact class.
_ATOM_TEXT: Dict[type, Callable[[Term], str]] = {
    terms.BoolC: lambda t: "true" if t.value else "false",
    terms.BVC: lambda t: f"(_ bv{t.value} {t.sort[1]})",
    terms.IntC: lambda t: (terms.decimal(t.value) if t.value >= 0
                           else f"(- {terms.decimal(-t.value)})"),
    terms.Var: lambda t: t.name,
}


def _mark_refs(root: Term, once: object, again: object) -> Tuple[List[Term], bool]:
    """Pass 1 of the emitter: the compound nodes children first, and whether
    an Int sort is reachable.

    The walk is iterative, so term depth has no limit. A compound node's
    mark becomes `once` when first reached and `again` when reached again;
    a mark left by another call, whole or cut short, reads as not seen.
    Atoms are never let-bound, so they are not marked; only their sort is
    looked at. The root is reached once, so it needs no stamp.
    """
    order: List[Term] = []
    has_int = False
    # The root is a Bool: not a SparseConst, not Int.
    stack = [] if type(root) in _ATOM_TEXT else [(root, iter(terms.children(root)))]
    while stack:
        node, kids = stack[-1]
        for child in kids:
            if child.sort == terms.INT_SORT:
                has_int = True
            if type(child) in _ATOM_TEXT:
                continue
            mark = child.mark
            if mark is once or mark is again:
                child.mark = again
                continue
            child.mark = once
            stack.append((child, iter(terms.children(child))))
            break
        else:
            stack.pop()
            order.append(node)
    return order, has_int


def _sparse_const_text(t: terms.SparseConst, n: Callable[[Term], str]) -> str:
    acc = f"((as const {_sort_text(t.sort)}) {n(t.default)})"
    for k, v in t.mods:
        acc = f"(store {acc} (_ bv{k} {t.key_width}) {n(v)})"
    return acc


# The text of each compound class, keyed on the exact class; each takes its
# children's texts from `n(child)`.
_NODE_TEXT: Dict[type, Callable[[Term, Callable[[Term], str]], str]] = {
    terms.Not: lambda t, n: f"(not {n(t.arg)})",
    terms.Bin: lambda t, n: f"({t.op} {n(t.left)} {n(t.right)})",
    terms.Ite: lambda t, n: f"(ite {n(t.cond)} {n(t.then)} {n(t.other)})",
    terms.Extract: lambda t, n: f"((_ extract {t.hi} {t.lo}) {n(t.arg)})",
    terms.ZeroExt: lambda t, n: f"((_ zero_extend {t.sort[1] - t.arg.sort[1]}) {n(t.arg)})",
    terms.Bv2Int: lambda t, n: f"(bv2nat {n(t.arg)})",
    terms.Int2Bv: lambda t, n: f"((_ int2bv {t.sort[1]}) {n(t.arg)})",
    terms.ArrRead: lambda t, n: f"(select {n(t.arr)} {n(t.key)})",
    terms.ArrWrite: lambda t, n: f"(store {n(t.arr)} {n(t.key)} {n(t.value)})",
    terms.SparseConst: _sparse_const_text,
}


def write_smtlib(vc: VerificationCondition, write: Callable[[str], object]) -> None:
    """Self-contained SMT-LIB v2 text for a verification condition, handed
    to `write` piece by piece, every shared compound subterm let-bound.

    Pass 1 (`_mark_refs`) stamps the compound nodes with this call's own
    stamps. Pass 2 writes the header, the declarations and each
    `(let ((tN ...))` as soon as it is made, then the root. A let-bound
    node's mark holds its name; a node used once holds its text only until
    its one parent takes it, so the whole query is never held.
    """
    once, again = object(), object()
    root = vc.query_term()
    order, has_int = _mark_refs(root, once, again)
    has_int = has_int or any(_has_int(i.sort) for i in vc.registry.infos)
    write(f"(set-logic {'ALL' if has_int else 'QF_ABV'})\n"
          "(set-option :produce-models true)\n")
    for info in vc.registry.infos:
        write(f"(declare-const c{info.vid} {_sort_text(info.sort)})\n")
    write("(assert ")

    def text(x: Term) -> str:
        atom = _ATOM_TEXT.get(type(x))
        if atom is not None:
            return atom(x)
        t = x.mark
        if t[0] == "(":  # a node's text, not a let name `tN`: taken once
            x.mark = None
        return t

    lets = 0
    for node in order:
        body = _NODE_TEXT[type(node)](node, text)
        if node.mark is again:
            node.mark = name = f"t{lets}"
            lets += 1
            write(f"(let (({name} {body}))\n  ")
        else:
            node.mark = body
    write(text(root))
    write(")" * lets + ")\n(check-sat)\n(get-model)\n")


def emit_smtlib(vc: VerificationCondition) -> str:
    """The text `write_smtlib` writes, joined."""
    parts: List[str] = []
    write_smtlib(vc, parts.append)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Solver driving


class SolverJob(ast.Node):
    # The command is a template containing {file}; the query is `smtlib`,
    # which `run_solver` writes to `file_path`, or None if it is there already.
    __slots__ = ("command", "timeout", "smtlib", "file_path")


class Unsat(ast.Node):
    __slots__ = ()


class Sat(ast.Node):
    __slots__ = ("model", "raw_model")  # vid -> constant term, model text


class Unknown(ast.Node):
    __slots__ = ("reason",)


class SolverError(ast.Node):
    __slots__ = ("exit_code", "stderr")


def solver_command(override: Optional[str] = None) -> str:
    if override:
        return override
    return os.environ.get(SOLVER_ENV_VAR) or DEFAULT_SOLVER


def run_solver(job: SolverJob, registry: Registry):
    """Run the external solver on the job file and classify its answer."""
    import shlex
    import subprocess

    if not 0 < job.timeout <= MAX_TIMEOUT_S:  # also rejects NaN
        raise ToolError(f"bad solver timeout {job.timeout}: "
                        f"must be a positive number of seconds up to {MAX_TIMEOUT_S}")
    try:
        argv = [part.replace("{file}", job.file_path)
                for part in shlex.split(job.command)]
    except ValueError as err:
        raise ToolError(f"bad solver command {job.command!r}: {err}") from None
    if not argv:
        raise ToolError(f"bad solver command {job.command!r}: it names no program")
    if job.smtlib is not None:
        with open(job.file_path, "w") as f:
            f.write(job.smtlib)
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=job.timeout)
    except subprocess.TimeoutExpired:
        return Unknown("timeout")
    except FileNotFoundError:
        return SolverError(127, f"solver executable not found: {argv[0]}")
    # A byte that is not UTF-8 becomes U+FFFD, which no verdict or model holds.
    out = proc.stdout.decode("utf-8", errors="replace")
    # Solvers may emit warnings before the verdict; find the verdict line.
    lines = out.splitlines()
    idx, verdict_line = next(
        ((i, ln.strip()) for i, ln in enumerate(lines)
         if ln.strip() in ("sat", "unsat", "unknown")), (None, ""))
    if verdict_line == "unsat":
        return Unsat()
    if verdict_line == "sat":
        rest = "\n".join(lines[idx + 1:])
        model = parse_model(rest, registry)
        return Sat(model, rest.strip())
    if verdict_line == "unknown":
        return Unknown("unknown")
    return SolverError(proc.returncode,
                       proc.stderr.decode("utf-8", errors="replace") or out)


# ---------------------------------------------------------------------------
# Model parsing


# A token of a model is a parenthesis, an atom, a quoted symbol `|...|` or a
# string `"...`, which a `"` may close; an atom may hold `|`, `"` or `;` after
# its first character. A comment runs from `;` to the end of the line, and a
# `|` that no later `|` closes stands alone. Whitespace separates tokens.
_SEXP_TOKEN = re.compile(r'[()]|[^\s()|";][^\s()]*|\|[^|]*\||"[^"]*"?|;[^\n]*|\|')


def _sexp_tokens(text: str):
    for tok in _SEXP_TOKEN.findall(text):
        if tok == "|":
            raise ModelParseError("unterminated quoted symbol")
        if tok[0] != ";":
            yield tok


def parse_sexprs(text: str) -> list:
    stack: List[list] = [[]]
    for tok in _sexp_tokens(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise ModelParseError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ModelParseError("unbalanced '('")
    return stack[0]


_NUM = "(?:0|[1-9][0-9]*)"
# The names emit_smtlib declares: `c` and the vid (engine.choice_ids), the
# site, call sites and leaf number in ASCII digits with no leading zero,
# joined by `_`. Any other definition is auxiliary, as z3's `k!0` is, except
# a name of the form choices had before they spelled their ids.
_CHOICE_NAME = re.compile(f"c{_NUM}(?:_{_NUM})+")
_OLD_CHOICE_NAME = re.compile(f"c{_NUM}")
# SMT-LIB numerals and bitvector literals: ASCII digits, no sign and no `_`.
_NUMERAL = re.compile(r"[0-9]+")
_BV_LITERAL = re.compile(r"#b[01]+|#x[0-9a-fA-F]+")


def _show(node, limit: int = 60) -> str:
    """The SMT-LIB text of a parsed node, cut after about `limit` characters.
    The walk is iterative, so a node of any depth renders."""
    pieces: List[str] = []
    size = 0
    stack = [node]
    while stack and size <= limit:
        x = stack.pop()
        if isinstance(x, list):
            stack.append(")")
            for item in reversed(x[:limit]):  # `limit` items fill the text
                stack += (item, " ")
            if x:
                stack.pop()  # no space before the first item
            x = "("
        pieces.append(x)
        size += len(x)
    text = "".join(pieces)
    return text if not stack and size <= limit else text[:limit] + "..."


def parse_model(output: str, registry: Optional[Registry]) -> Dict[str, Term]:
    """Parse solver `get-model` output into vid -> constant term.

    The definitions are the `define-fun`s at the top level or one level
    down, in `(model ...)` or a bare list; any other node is skipped. A
    choice's name is `c` and its vid, and its `define-fun` header gives its
    sort, by which `_value_of` reads its value. Given the registry of the
    query the model answers, each choice must be declared there with that
    sort.
    """
    defs = [d for node in parse_sexprs(output) if isinstance(node, list)
            for d in ([node] if node[:1] == ["define-fun"] else node)
            if isinstance(d, list) and d[:1] == ["define-fun"]]
    aux: Dict[str, list] = {}
    mains: List[list] = []
    for d in defs:
        name = d[1] if len(d) > 1 else None
        if not isinstance(name, str):
            continue
        if _CHOICE_NAME.fullmatch(name):
            mains.append(d)
        elif _OLD_CHOICE_NAME.fullmatch(name):
            raise ModelParseError(
                f"model defines {_show(name)}, a choice name of the format used "
                f"before names spelled choice ids; re-run verify to write the model")
        elif len(d) >= 5:
            aux[name] = d
    declared = None if registry is None else {i.vid: i.sort for i in registry.infos}
    model: Dict[str, Term] = {}
    for d in mains:
        name, vid = _show(d[1]), d[1][1:]
        if len(d) < 5:
            raise ModelParseError(f"malformed definition of {name}")
        args, body = d[2], d[4]
        if vid in model:
            raise ModelParseError(f"model defines {name} twice")
        if args:
            raise ModelParseError(f"unexpected arguments on {name}")
        if declared is not None and vid not in declared:
            raise ModelParseError(f"model defines unregistered variable {name}")
        try:
            sort = _parse_sort(d[3])
            if declared is not None and declared[vid] != sort:
                raise ModelParseError(f"sort {_sort_text(sort)}, but the query "
                                      f"declares {_sort_text(declared[vid])}")
            model[vid] = _value_of(body, sort, aux)
        except ModelParseError as err:
            raise ModelParseError(f"model value of {name}: {err}") from None
    return model


def _app(node, head: str, size: int) -> bool:
    """Whether `node` is the list `(head ...)` of `size` items."""
    return isinstance(node, list) and len(node) == size and node[0] == head


def _parse_sort(node) -> tuple:
    """The sort a choice's `define-fun` header gives: Bool, Int,
    (_ BitVec w), or an array from bitvectors to one of these."""
    if _app(node, "Array", 3):
        key, leaf = _leaf_sort(node[1]), _leaf_sort(node[2])
        if key is not None and key[0] == "bv" and leaf is not None:
            return terms.arr_sort(key[1], leaf)
    sort = _leaf_sort(node)
    if sort is None:
        raise ModelParseError(f"unsupported sort {_show(node)}")
    return sort


def _leaf_sort(node) -> Optional[tuple]:
    if node == "Bool":
        return terms.BOOL_SORT
    if node == "Int":
        return terms.INT_SORT
    if _app(node, "_", 3) and node[1] == "BitVec":
        width = _numeral(node[2])
        if width is not None and ast.width_problem(width) is None:
            return terms.bv_sort(width)
    return None


def _parse_scalar(node, sort: tuple) -> Term:
    if sort == terms.BOOL_SORT:
        if node == "true":
            return terms.TRUE
        if node == "false":
            return terms.FALSE
        raise ModelParseError(f"expected Bool, got {_show(node)}")
    if sort == terms.INT_SORT:
        return terms.mk_int(_parse_int(node))
    return terms.mk_bv(sort[1], _parse_bv(node, sort[1]))


def _parse_bv(node, width: int) -> int:
    """The value of a bitvector literal that has exactly `width` bits."""
    lit = None
    if isinstance(node, str) and _BV_LITERAL.fullmatch(node):
        digits = node[2:]
        lit = (int(digits, 2), len(digits)) if node[1] == "b" else \
            (int(digits, 16), 4 * len(digits))
    elif _app(node, "_", 3) and isinstance(node[1], str) and node[1].startswith("bv"):
        value, w = _numeral(node[1][2:]), _numeral(node[2])
        if value is not None and w is not None:
            lit = value, w
    if lit is None:
        raise ModelParseError(f"expected bitvector, got {_show(node)}")
    value, w = lit
    if w != width or value >> width:
        raise ModelParseError(f"bitvector literal {_show(node)} is not a "
                              f"(_ BitVec {width}) value")
    return value


def _numeral(node) -> Optional[int]:
    """The value of an SMT-LIB numeral, or None for anything else."""
    if isinstance(node, str) and _NUMERAL.fullmatch(node):
        try:
            return int(node)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _parse_int(node) -> int:
    """The value of a numeral or of a negated one, `(- numeral)`."""
    neg = _app(node, "-", 2)
    value = _numeral(node[1] if neg else node)
    if value is None:
        raise ModelParseError(f"expected integer, got {_show(node)}")
    return -value if neg else value


def _value_of(body, sort: tuple, aux: Dict[str, list]) -> Term:
    """The constant a `define-fun` body gives for `sort`: a Bool, an integer,
    a bitvector literal (#b, #x, (_ bvN w)) of exactly the sort's width, or
    an array given as a store chain over `((as const ...) v)`, as a `lambda`
    whose body is an ite chain on `(= x k)` or `(= k x)`, x its argument, or
    as an `as-array` reference to a definition, read as its `lambda`. Either
    chain holds the latest update outermost, so a key updated twice keeps the
    place of its first update and the value of its latest.
    """
    if sort[0] != "arr":
        return _parse_scalar(body, sort)
    key_width, leaf = sort[1], sort[2]
    if _app(body, "_", 3) and body[1] == "as-array":
        d = aux.get(body[2]) if isinstance(body[2], str) else None
        if d is None:
            raise ModelParseError(f"as-array references unknown {_show(body[2])}")
        body = ["lambda", d[2], d[4]]
    mods: List[Tuple[int, Term]] = []  # outermost (latest) first
    if _app(body, "lambda", 3):
        args, node = body[1], body[2]
        if not (isinstance(args, list) and len(args) == 1 and args[0]
                and isinstance(args[0][0], str)):
            raise ModelParseError("array function must take one argument")
        var = args[0][0]
        while _app(node, "ite", 4):
            cond = node[1]
            if not (_app(cond, "=", 3) and var in cond[1:]):
                raise ModelParseError(f"unsupported array ite condition {_show(cond)}")
            key = cond[2] if cond[1] == var else cond[1]
            mods.append((_parse_bv(key, key_width), _parse_scalar(node[2], leaf)))
            node = node[3]
        default = _parse_scalar(node, leaf)
    else:
        node = body
        while _app(node, "store", 4):
            mods.append((_parse_bv(node[2], key_width), _parse_scalar(node[3], leaf)))
            node = node[1]
        if not (isinstance(node, list) and len(node) == 2 and isinstance(node[0], list)
                and node[0][:2] == ["as", "const"]):
            raise ModelParseError(f"unrecognized array value {_show(body)}")
        default = _parse_scalar(node[1], leaf)
    return terms.SparseConst(sort, default, tuple(dict(reversed(mods)).items()))


# ---------------------------------------------------------------------------
# Model files (cache written by verify, consumed by trace)


def load_model_file(path: str, registry: Optional[Registry] = None
                    ) -> Dict[str, Term]:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ModelParseError(f"invalid UTF-8 byte 0x{data[err.start]:02x} "
                              f"at offset {err.start} of {path}") from None
    return parse_model(text, registry)
