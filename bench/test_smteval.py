"""Tests of the benchmark's SMT-LIB evaluator.

    python3 -m pytest bench/test_smteval.py
"""

import pytest

from smteval import (BV, Arr, EvalError, bv_sort, compile_term, evaluate, parse,
                     read_query, run_code)

ARR8 = ("Array", bv_sort(4), bv_sort(8))


def value(text: str, env=None):
    (node,) = parse(text)
    return run_code(compile_term(node), dict(env or {}))


@pytest.mark.parametrize("text, expected", [
    ("true", True),
    ("(not false)", True),
    ("(and true true false)", False),
    ("(or false false true)", True),
    ("(= (_ bv3 4) #b0011)", True),
    ("(= #x0f (_ bv15 8))", True),
    ("(ite false (_ bv1 2) (_ bv2 2))", BV(2, 2)),
    ("(bvadd #xff #x02)", BV(8, 1)),
    ("(bvsub #x00 #x01)", BV(8, 255)),
    ("(bvmul #x10 #x10)", BV(8, 0)),
    ("(bvult #x01 #x02)", True),
    ("(bvule #x02 #x02)", True),
    ("(bvult #x02 #x02)", False),
    ("((_ extract 7 4) #xa5)", BV(4, 0xa)),
    ("((_ extract 0 0) #x01)", BV(1, 1)),
    ("((_ zero_extend 8) #xff)", BV(16, 0xff)),
    ("(+ 1 2 3)", 6),
    ("(- 5)", -5),
    ("(- 5 7)", -2),
    ("(* 3 (- 4))", -12),
    ("(< (- 1) 0)", True),
    ("(<= 2 1)", False),
    ("(bv2nat #xff)", 255),
    ("((_ int2bv 4) 18)", BV(4, 2)),
])
def test_operators(text, expected):
    assert value(text) == expected


def test_arrays():
    base = "((as const (Array (_ BitVec 4) (_ BitVec 8))) #x00)"
    assert value(f"(select {base} #x3)") == BV(8, 0)
    assert value(f"(select (store {base} #x3 #x07) #x3)") == BV(8, 7)
    assert value(f"(select (store {base} #x3 #x07) #x4)") == BV(8, 0)
    # Storing the default value leaves the array equal to the constant one.
    assert value(f"(= (store {base} #x3 #x00) {base})") is True
    assert value(f"(= (store {base} #x3 #x01) {base})") is False
    a = Arr(ARR8, BV(8, 1), {BV(4, 2): BV(8, 9)})
    assert value("(select a #x2)", {"a": a}) == BV(8, 9)


def test_let_is_parallel_and_scoped():
    assert value("(let ((x #x01)) (let ((x #x02) (y x)) (bvadd x y)))") == BV(8, 3)
    env = {"x": BV(8, 5)}
    assert value("(let ((x #x01)) x)", env) == BV(8, 1)
    assert env == {"x": BV(8, 5)}


def test_deep_let_chain_does_not_recurse():
    depth = 5000
    text = "x0"
    for i in range(1, depth + 1):
        text = f"(let ((x{i - 1} (bvadd x{i} #x01)))\n {text})"
    assert value(text, {f"x{depth}": BV(8, 0)}) == BV(8, depth % 256)


def test_evaluate_query():
    query = read_query("""
        (set-logic QF_ABV)
        (set-option :produce-models true)
        (declare-const c0 (_ BitVec 8))
        (declare-const c1 Bool)
        (assert (let ((t0 (bvult c0 #x10))) (and t0 c1)))
        (check-sat)
        (get-model)
    """)
    assert evaluate(query, {"c0": BV(8, 3), "c1": True}) is True
    assert evaluate(query, {"c0": BV(8, 0x10), "c1": True}) is False
    with pytest.raises(EvalError):
        evaluate(query, {"c0": BV(8, 3)})
    with pytest.raises(EvalError):
        evaluate(query, {"c0": BV(4, 3), "c1": True})


@pytest.mark.parametrize("text", [
    "(bvadd #x01 #b1)",          # width mismatch
    "(and true #x01)",           # non-Bool argument
    "(ite #b1 true false)",      # non-Bool condition
    "(select #x01 #x01)",        # not an array
    "((_ extract 8 0) #x01)",    # out of range
    "(frobnicate true)",         # unknown operator
    "undeclared",                # unbound symbol
])
def test_rejects_ill_sorted_input(text):
    with pytest.raises(EvalError):
        value(text)


def test_unbalanced_input():
    with pytest.raises(EvalError):
        parse("(and true")
    with pytest.raises(EvalError):
        parse("true)")
