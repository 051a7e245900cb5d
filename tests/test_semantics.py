"""The semantics of every operator and built-in, as a table.

Each row is an operation at bit widths 1, 8 and 64 or on Int, with its
reference written in Python here, and is tried on edge values. A row is
checked two ways:

* concretely: a scenario binds the operands to literals and `printf`s the
  operation, and `run` must print the reference value;
* symbolically: a scenario asserts that the operation on `any` choices
  equals a third choice. The benchmark's SMT-LIB evaluator, which shares no
  code with `soclang.terms`, reads the emitted VC; under each assignment of
  the operands, it must find no violation when the third choice is the
  reference value, and a violation when it is not.

Replay and the VC share the term constructors, so they can agree with each
other and both be wrong; a reference written apart from them cannot.
"""

import random
import sys

import pytest

from soclang import engine as eng
from soclang import smtlib

from conftest import REPO_ROOT, load_source

sys.path.insert(0, str(REPO_ROOT / "bench"))
from smteval import BV, evaluate, read_query  # noqa: E402

EDGES = {1: [0, 1], 8: [0, 1, 127, 128, 255], 64: [0, 1, 2**63 - 1, 2**63, 2**64 - 1]}
INTS = [0, 1, -1, 2**64 + 1, -(2**63)]


def _width(t: str) -> int:
    return int(t[len("BitInt("):-1])


def _edges(t: str) -> list:
    return INTS if t == "Int" else EDGES[_width(t)]


def _wrap(t: str, v: int) -> int:
    return v if t == "Int" else v % (1 << _width(t))


def _rows():
    """(id, operand types, result type, expression over a and b, reference)."""
    rows = []
    for t in ["BitInt(1)", "BitInt(8)", "BitInt(64)", "Int"]:
        rows.append((f"-a {t}", [t], t, "-a", lambda a, t=t: _wrap(t, -a)))
        for op, fn in [("+", int.__add__), ("-", int.__sub__), ("*", int.__mul__)]:
            rows.append((f"a {op} b {t}", [t, t], t, f"a {op} b",
                         lambda a, b, t=t, fn=fn: _wrap(t, fn(a, b))))
        for op, fn in [("<", int.__lt__), ("<=", int.__le__), (">", int.__gt__),
                       (">=", int.__ge__), ("==", int.__eq__), ("!=", int.__ne__)]:
            rows.append((f"a {op} b {t}", [t, t], "Bool", f"a {op} b", fn))
    slices = {1: [(0, 0)], 8: [(7, 0), (3, 0), (7, 4), (5, 2)],
              64: [(63, 0), (31, 0), (63, 32), (40, 8)]}
    for w in (1, 8, 64):
        t = f"BitInt({w})"
        for k in sorted({1, w // 2 or 1, w}):
            rows.append((f"truncate<{k}> {t}", [t], f"BitInt({k})", f"truncate<{k}>(a)",
                         lambda a, k=k: a % (1 << k)))
        for k in sorted({w, w + 1, 64} - set(range(w))):
            rows.append((f"zero_extend<{k}> {t}", [t], f"BitInt({k})",
                         f"zero_extend<{k}>(a)", lambda a: a))
        rows.append((f"to_int {t}", [t], "Int", "to_int(a)", lambda a: a))
        for hi, lo in slices[w]:
            ref = (lambda a, hi=hi, lo=lo: (a >> lo) % (1 << (hi - lo + 1)))
            rows.append((f"[{hi} downto {lo}] {t}", [t], f"BitInt({hi - lo + 1})",
                         f"a[{hi} downto {lo}]", ref))
            # Widening emits the difference of the widths, so a slice of the
            # wrong width shows.
            rows.append((f"zero_extend<65>([{hi} downto {lo}]) {t}", [t], "BitInt(65)",
                         f"zero_extend<65>(a[{hi} downto {lo}])", ref))
    for k in (1, 8, 64):
        rows.append((f"from_int<{k}> Int", ["Int"], f"BitInt({k})", f"from_int<{k}>(a)",
                     lambda a, k=k: a % (1 << k)))
    return rows


ROWS = _rows()


def _cases(types: list) -> list:
    """Every combination of the operands' edge values."""
    if len(types) == 1:
        return [(a,) for a in _edges(types[0])]
    return [(a, b) for a in _edges(types[0]) for b in _edges(types[1])]


def _text(v, t: str) -> str:
    """`printf`'s text of a value: Bool and Int plainly, a bit-vector below
    256 in decimal and above in hex, in groups of four digits, with its width."""
    if t == "Bool":
        return "true" if v else "false"
    if t == "Int" or v < 256:
        return str(v)
    digits = f"{v:x}"
    groups = [digits[max(i - 4, 0):i] for i in range(len(digits), 0, -4)]
    return "0x" + "_".join(reversed(groups)) + f"u{_width(t)}"


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_operation_runs_to_its_reference_value(row):
    _, types, result, expr, ref = row
    cases = _cases(types)
    blocks = []
    for values in cases:
        lets = "".join(f"let {n}: {t} = {v}; " for n, t, v in zip("ab", types, values))
        blocks.append(f"    {{ {lets}printf(\"{{{expr}}}\") }};\n")
    tp, tree, layout = load_source(f"module Main {{\n  mut fn s() {{\n{''.join(blocks)}"
                                   f"    ()\n  }}\n}}\n")
    run = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
    assert isinstance(run.verdict, eng.Passed)
    assert run.transcript == [_text(ref(*values), result) for values in cases]


def _value(v, t: str):
    """The evaluator's value of a choice of type t."""
    if t == "Bool":
        return bool(v)
    return v if t == "Int" else BV(_width(t), v)


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_operation_in_the_vc_holds_at_its_reference_value(row):
    _, types, result, expr, ref = row
    lets = "".join(f"let {n} = any<{t}>; " for n, t in zip("ab", types))
    tp, tree, layout = load_source(
        f"module Main {{ mut fn s() {{ {lets}let r = any<{result}>; assert(({expr}) == r) }} }}")
    vc = eng.sym_exec(tp, tree, layout, "s")
    query = read_query(smtlib.emit_smtlib(vc))
    names = [f"c{info.vid}" for info in vc.registry.infos]
    assert len(names) == len(types) + 1
    for values in _cases(types):
        expected = ref(*values)
        wrong = (not expected) if result == "Bool" else _wrap(result, expected + 1)
        operands = {n: _value(v, t) for n, v, t in zip(names, values, types)}
        for r, violated in [(expected, False), (wrong, True)]:
            assignment = {**operands, names[-1]: _value(r, result)}
            assert evaluate(query, assignment) is violated, (values, r)


@pytest.mark.parametrize("seed", range(4))
def test_run_draws_an_int_choice_from_its_seed(seed):
    # `run` draws an Int uniformly from [-2^31, 2^31].
    tp, tree, layout = load_source(
        "module Main { mut fn s() { let n = any<Int>; printf(\"{n} {n + 1}\") } }")
    run = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(seed))
    n = random.Random(seed).randint(-(1 << 31), 1 << 31)
    assert run.transcript == [f"{n} {n + 1}"]
