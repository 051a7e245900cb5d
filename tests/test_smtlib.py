import dataclasses
import hashlib
import sys
import time
import tracemalloc

import pytest

from soclang import ast, cli
from soclang import engine as eng
from soclang import smtlib, terms
from soclang.engine import Registry
from soclang.smtlib import (ModelParseError, Sat, SolverError, SolverJob,
                            Unknown, Unsat, emit_smtlib, parse_model,
                            run_solver)
from soclang.terms import mk_bv

from conftest import CORPUS, load_file, load_source, requires_z3, solve_vc


def vc_of(source: str, scenario: str = "s"):
    tp, tree, layout = load_source(source)
    return tp, tree, layout, eng.sym_exec(tp, tree, layout, scenario)


# -- emission -----------------------------------------------------------------


def test_bitvector_choice_declared_with_its_sort():
    tp, _, _, vc = vc_of("""
module Main {
  mut fn s() {
    let a = any<BitInt(48)>;
    assert(a != 0u48)
  }
}
""")
    text = emit_smtlib(vc)
    # A choice is named by its vid: the site (the `any`), no calls, leaf 0.
    (site,), (info,) = tp.choice_sites, vc.registry.infos
    assert info.vid == f"{site}_0"
    assert f"(declare-const c{site}_0 (_ BitVec 48))" in text
    assert text.startswith("(set-logic QF_ABV)\n(set-option :produce-models true)")
    assert text.count("(assert ") == 1
    assert text.rstrip().endswith("(check-sat)\n(get-model)")


def test_dram_havoc_declares_an_array_sort():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_fixed.soc")
    vc = eng.sym_exec(tp, tree, layout, "inductive_step")
    text = emit_smtlib(vc)
    assert "(Array (_ BitVec 31) (_ BitVec 64))" in text


def test_empty_obligations_emit_assert_false():
    _, _, _, vc = vc_of("module Main { mut fn s() { let x = any<Bool>; () } }")
    text = emit_smtlib(vc)
    assert "(assert false)" in text


@requires_z3
def test_empty_obligations_solve_unsat(tmp_path):
    _, _, _, vc = vc_of("module Main { mut fn s() { let x = any<Bool>; () } }")
    assert isinstance(solve_vc(vc, tmpdir=tmp_path), Unsat)


def test_emission_is_deterministic():
    def text():
        tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
        vc = eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")
        return emit_smtlib(vc)

    assert text() == text()


def test_int_choices_switch_the_logic():
    _, _, _, vc = vc_of("""
module Main {
  mut fn s() {
    let n = any<Int>;
    assume(n > to_int(4u8));
    assert(n * n > to_int(16u8))
  }
}
""")
    text = emit_smtlib(vc)
    assert text.startswith("(set-logic ALL)")
    assert f"(declare-const c{vc.registry.infos[0].vid} Int)" in text


def test_an_unused_array_with_int_leaves_switches_the_logic():
    # The havocked table never reaches the query, so only its declared
    # sort shows that the logic needs Int.
    _, _, _, vc = vc_of("""
module Main {
  instance tbl: Array<BitInt(2), Int>;
  mut fn s() {
    tbl.havoc();
    assert(true)
  }
}
""")
    text = emit_smtlib(vc)
    assert "(Array (_ BitVec 2) Int)" in text
    assert text.startswith("(set-logic ALL)")


@requires_z3
def test_int_logic_is_accepted_by_z3(tmp_path):
    _, _, _, vc = vc_of("""
module Main {
  mut fn s() {
    let n = any<Int>;
    assume(n > to_int(4u8));
    assert(n * n > to_int(16u8))
  }
}
""")
    assert isinstance(solve_vc(vc, tmpdir=tmp_path), Unsat)


def test_enum_choices_add_range_assumptions():
    _, _, _, vc = vc_of("""
enum Tri { A, B, C }
module Main {
  mut fn s() {
    let t = any<Tri>;
    assert(t == Tri.A || t == Tri.B || t == Tri.C)
  }
}
""")
    text = emit_smtlib(vc)
    assert f"(bvult c{vc.registry.infos[0].vid} (_ bv3 2))" in text


# SHA-256 of the emitted text for every manifest entry. Emission is part of
# the contract (`--dump-vc`): any change to its bytes must be deliberate.
# Re-recorded when choice names came to spell their ids (`c395_0`, not
# `c8`); the text is otherwise the same, name for name.
GOLDEN_SMTLIB_SHA256 = {
    ("mini_tx1_vulnerable.soc", "test_secure_area_unchanged"):
        "218c2887e34879797e8dc99bb26e290694077f90343c0207c149008b40b16d50",
    ("mini_tx1_fixed.soc", "test_secure_area_unchanged"):
        "a14321e0c75f83353d113486e1df41d18d9f1931dfcd849551bb408e8e15ddb6",
    ("mini_tx1_fixed.soc", "base_case"):
        "0b92ff8ad3d2914bcf8c0e3f6176d96b9cde9e95a7976bff19ff16c00b6aaf32",
    ("mini_tx1_fixed.soc", "inductive_step"):
        "18ed980e8b33c42eb33870c7be89fcd42e3e98a88b0b7ebc494cc9c94b974834",
    ("mini_tx1_fixed.soc", "invariant_is_useful"):
        "141f94966e92665f2c36ba90646432de982fbddb5b6b229830511ed61ae4c1f0",
    ("monitor_read_detect.soc", "read_protection_holds"):
        "d511e9fdb844531cb0ef58d0e338626365fb0b1b13be2d08d92cf7d3b9371a00",
    ("monitor_read_detect.soc", "write_protection_holds"):
        "6f6ef80febceb78000591dc117ed6f35e0958159cc3d945129c153541a4f2d9e",
    ("assume_assert_invariant.soc", "locked_rows_preserved"):
        "19a7cb527a8e44a9454619575ddabb19c5e3f0638b8907f9400c1129f5532cca",
    ("assume_assert_invariant.soc", "unlocked_write_breaks_rows"):
        "3a83446e83dde01e4a7dd0ab66b149cabbdc297c489c60d05afcb05856b4bade",
}


def _manifest_scenarios():
    from test_corpus import MANIFEST
    return [(e["file"], e["scenario"], e["verify"]) for e in MANIFEST]


@pytest.mark.parametrize("fname,scenario,_verdict", _manifest_scenarios(),
                         ids=[f"{f}::{s}" for f, s, _ in _manifest_scenarios()])
def test_emission_matches_golden_digest(fname, scenario, _verdict):
    tp, tree, layout = load_file(CORPUS / fname)
    text = emit_smtlib(eng.sym_exec(tp, tree, layout, scenario))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SMTLIB_SHA256[fname, scenario]


def unrolled_mini_tx1(variant: str, steps: int) -> str:
    """mini_tx1 with test_secure_area_unchanged taking `steps` steps."""
    pair = "    miniTX1.step();\n    miniTX1.step();\n"
    source = (CORPUS / f"mini_tx1_{variant}.soc").read_text()
    assert pair in source
    return source.replace(pair, "    miniTX1.step();\n" * steps, 1)


@pytest.mark.parametrize("variant,steps", [("fixed", 512), ("vulnerable", 1024)])
def test_long_unrolls_emit_without_recursion_limit(variant, steps):
    tp, tree, layout = load_source(unrolled_mini_tx1(variant, steps))
    vc = eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")
    text = emit_smtlib(vc)
    assert text.startswith("(set-logic QF_ABV)\n")
    assert text.count("(declare-const ") == len(vc.registry.infos)
    for info in vc.registry.infos:
        assert f"(declare-const c{info.vid} " in text
    assert text.endswith("(check-sat)\n(get-model)\n")


# SHA-256 of the emitted text for mini_tx1 unrolled `steps` steps. The
# manifest pins cover two steps; these also pin the merges, shared subterms
# and let-bindings of longer runs.
UNROLL_SMTLIB_SHA256 = {
    ("fixed", 8): "91673d057cda705f6c33b8ba74cb76385e59a5ea71e1c73e1f213f1b027f58fa",
    ("fixed", 64): "46fdc0df963d9b1cb847651bd94ac3b20071afea239323c0fce9df20bd495a8f",
    ("vulnerable", 8): "acfb4d34dad0bbda79f45840d36389eb785c8e788683f99041c33e9083d8bc60",
    ("vulnerable", 64): "20b714085dd8c4c42c5231d12db307791c8cf3b4fba0ba8b015fecccf310fb71",
}


@pytest.mark.parametrize("variant,steps", sorted(UNROLL_SMTLIB_SHA256))
def test_unroll_emission_matches_golden_digest(variant, steps):
    tp, tree, layout = load_source(unrolled_mini_tx1(variant, steps))
    text = emit_smtlib(eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged"))
    assert hashlib.sha256(text.encode()).hexdigest() == UNROLL_SMTLIB_SHA256[variant, steps]


def _distinct_nodes(root: terms.Term) -> int:
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(terms.children(t))
    return len(seen)


def test_verify_holds_a_bounded_number_of_bytes_per_query_node(tmp_path):
    # `verify` streams the query into the solver's file and marks each
    # compound node in place, with no table of them: at 256 steps (32,684
    # nodes) it peaks at ≈108 bytes per node, the DAG included, where
    # tables keyed by node took ≈150, and a joined text and `id()` keys ≈230.
    source = unrolled_mini_tx1("vulnerable", 256)
    tp, tree, layout = load_source(source)
    nodes = _distinct_nodes(eng.sym_exec(tp, tree, layout,
                                         "test_secure_area_unchanged").query_term())
    del tp, tree, layout
    path = tmp_path / "k256.soc"
    path.write_text(source)
    argv = ["verify", str(path), "--scenario", "test_secure_area_unchanged",
            "--solver", "sh -c 'echo unknown' {file}", "--dump-smt", str(tmp_path / "q.smt2")]
    assert cli.main(argv) == 3  # loads the modules the measured call uses
    tracemalloc.start()
    try:
        assert cli.main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 130 * nodes, f"{peak / nodes:.0f} bytes per node over {nodes} nodes"

def _vc_of_root(registry: Registry, root: terms.Term) -> eng.VerificationCondition:
    """A VC whose query term is `root`: its one obligation is `root` failing."""
    vc = eng.VerificationCondition(registry, [], [(root, terms.FALSE, None)])
    assert vc.query_term() is root
    return vc


_HEADER = "(set-logic QF_ABV)\n(set-option :produce-models true)\n"
_FOOTER = "(check-sat)\n(get-model)\n"


def test_value_equal_constant_arrays_are_bound_apart():
    # Constant arrays compare by value, but each object is its own node: two
    # equal ones, each reached twice, get a let-binding each.
    sort = terms.arr_sort(2, terms.bv_sort(4))
    a = terms.SparseConst(sort, mk_bv(4, 0), ((1, mk_bv(4, 5)),))
    b = terms.SparseConst(sort, mk_bv(4, 0), ((1, mk_bv(4, 5)),))
    assert a == b and a is not b
    bool_ = terms.BOOL_SORT
    root = terms.Bin(bool_, "and", terms.Bin(bool_, "=", a, b), terms.Bin(bool_, "=", b, a))
    const = "(store ((as const (Array (_ BitVec 2) (_ BitVec 4))) (_ bv0 4)) (_ bv1 2) (_ bv5 4))"
    assert emit_smtlib(_vc_of_root(Registry(), root)) == (
        f"{_HEADER}(assert (let ((t0 {const}))\n"
        f"  (let ((t1 {const}))\n"
        f"  (and (= t0 t1) (= t1 t0)))))\n{_FOOTER}")


def test_query_that_is_an_atom_emits():
    reg = _registry((ast.BoolType(), terms.BOOL_SORT))
    root = terms.Var(terms.BOOL_SORT, reg.infos[0].vid)
    assert emit_smtlib(_vc_of_root(reg, root)) == \
        f"{_HEADER}(declare-const c100_0 Bool)\n(assert c100_0)\n{_FOOTER}"


def test_int_reached_only_through_an_atom_switches_the_logic():
    # The Int variable is in no registry: only the atom itself shows the sort.
    n = terms.Var(terms.INT_SORT, "100_0")
    root = terms.Bin(terms.BOOL_SORT, "=", n, terms.mk_int(-3))
    assert emit_smtlib(_vc_of_root(Registry(), root)) == (
        "(set-logic ALL)\n(set-option :produce-models true)\n"
        f"(assert (= c100_0 (- 3)))\n{_FOOTER}")


# Emission marks each compound node in place; these pin that the marks of
# one emission never change the text of the next.


def _unrolled_vc(variant: str, steps: int) -> eng.VerificationCondition:
    tp, tree, layout = load_source(unrolled_mini_tx1(variant, steps))
    return eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_vc_emitted_twice_gives_its_pinned_bytes_both_times():
    vc = _unrolled_vc("vulnerable", 8)
    pin = UNROLL_SMTLIB_SHA256["vulnerable", 8]
    assert _sha256(emit_smtlib(vc)) == pin
    assert _sha256(emit_smtlib(vc)) == pin


def test_vcs_sharing_subterms_emitted_alternately_give_their_own_bytes():
    # `s`, `arr` and `read` are let-bound in the first VC, which reaches
    # each twice, and written in place in the second, which reaches each once.
    bool_, bv4 = terms.BOOL_SORT, terms.bv_sort(4)
    x, y = terms.Var(bv4, "100_0"), terms.Var(bv4, "101_0")
    s = terms.Bin(bv4, "bvadd", x, y)
    arr = terms.SparseConst(terms.arr_sort(2, bv4), mk_bv(4, 0), ((1, s),))
    read = terms.ArrRead(bv4, arr, mk_bv(2, 1))
    first = terms.Bin(bool_, "and", terms.Bin(bool_, "=", s, read),
                      terms.Bin(bool_, "=", read, terms.ArrRead(bv4, arr, x)))
    second = terms.Not(bool_, terms.Bin(bool_, "bvult", read, y))
    const = "(store ((as const (Array (_ BitVec 2) (_ BitVec 4))) (_ bv0 4)) (_ bv1 2) t0)"
    texts = {
        first: (f"{_HEADER}(assert (let ((t0 (bvadd c100_0 c101_0)))\n"
                f"  (let ((t1 {const}))\n"
                f"  (let ((t2 (select t1 (_ bv1 2))))\n"
                f"  (and (= t0 t2) (= t2 (select t1 c100_0)))))))\n{_FOOTER}"),
        second: (f"{_HEADER}(assert (not (bvult (select (store ((as const (Array "
                 f"(_ BitVec 2) (_ BitVec 4))) (_ bv0 4)) (_ bv1 2) (bvadd c100_0 "
                 f"c101_0)) (_ bv1 2)) c101_0)))\n{_FOOTER}"),
    }
    for root in [first, second, first, second, second, first]:
        assert emit_smtlib(_vc_of_root(Registry(), root)) == texts[root]


class _Cut(Exception):
    pass


def test_an_emission_cut_short_does_not_change_the_next():
    vc = _unrolled_vc("vulnerable", 8)
    pieces: list = []
    smtlib.write_smtlib(vc, pieces.append)
    pin = UNROLL_SMTLIB_SHA256["vulnerable", 8]
    assert _sha256("".join(pieces)) == pin
    for cut in [0, 1, 3, len(pieces) // 2, len(pieces) - 2, len(pieces) - 1]:
        written: list = []

        def write(text: str) -> None:
            if len(written) == cut:
                raise _Cut
            written.append(text)

        with pytest.raises(_Cut):
            smtlib.write_smtlib(vc, write)
        assert written == pieces[:cut]
        assert _sha256(emit_smtlib(vc)) == pin


# Each term class's dataclass fields, which `Term.__repr__`, constant
# equality and hashing, and the benchmark's DAG counts read.
TERM_FIELDS = {
    terms.Term: ("sort",),
    terms.BoolC: ("sort", "value"),
    terms.BVC: ("sort", "value"),
    terms.IntC: ("sort", "value"),
    terms.Var: ("sort", "vid"),
    terms.Not: ("sort", "arg"),
    terms.Bin: ("sort", "op", "left", "right"),
    terms.Ite: ("sort", "cond", "then", "other"),
    terms.Extract: ("sort", "hi", "lo", "arg"),
    terms.ZeroExt: ("sort", "arg"),
    terms.Bv2Int: ("sort", "arg"),
    terms.Int2Bv: ("sort", "arg"),
    terms.ArrRead: ("sort", "arr", "key"),
    terms.ArrWrite: ("sort", "arr", "key", "value"),
    terms.SparseConst: ("sort", "default", "mods"),
}


def test_the_emitters_mark_is_no_term_field():
    for cls, names in TERM_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
    # Emission marks one of two equal constant arrays, which stay equal.
    sort = terms.arr_sort(2, terms.bv_sort(4))
    a = terms.SparseConst(sort, mk_bv(4, 0), ((1, mk_bv(4, 5)),))
    b = terms.SparseConst(sort, mk_bv(4, 0), ((1, mk_bv(4, 5)),))
    emit_smtlib(_vc_of_root(Registry(), terms.Bin(terms.BOOL_SORT, "=", a, a)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)


# -- model parsing ---------------------------------------------------------------


SEXP_TOKENS = {
    "atoms holding | \" ; after the first character":
        ('(a|b c"d e;f g|h|)', ["(", "a|b", 'c"d', "e;f", "g|h|", ")"]),
    "comments run to the end of the line":
        ("; head ( |\n(a ; tail \" )\nb);", ["(", "a", "b", ")"]),
    "quoted symbols hold spaces, parens and semicolons":
        ("(|a (b) ;c| ||)", ["(", "|a (b) ;c|", "||", ")"]),
    "strings end at the next quote": ('"a (b"c "" d', ['"a (b"', "c", '""', "d"]),
    "an unterminated string runs to the end": ('(a "b c)\n', ["(", "a", '"b c)\n']),
}


@pytest.mark.parametrize("case", sorted(SEXP_TOKENS))
def test_model_tokens(case):
    text, tokens = SEXP_TOKENS[case]
    assert list(smtlib._sexp_tokens(text)) == tokens


@pytest.mark.parametrize("text", ["(a |b c)", "|", "(a ; |b|\n |b)"])
def test_unterminated_quoted_symbol_is_a_model_error(text):
    with pytest.raises(ModelParseError, match="unterminated quoted symbol"):
        smtlib.parse_sexprs(text)


def test_model_errors_come_in_text_order():
    # The tokens before an unterminated `|` are read first.
    with pytest.raises(ModelParseError, match=r"unbalanced '\)'"):
        smtlib.parse_sexprs(") |b")


def _registry(*entries):
    reg = Registry()
    for t, sort in entries:
        reg.register(f"{100 + len(reg.infos)}_0", t, sort)
    return reg


def test_parse_hex_bitvector_definition():
    reg = Registry()
    for _ in range(4):
        reg.register(f"{100 + len(reg.infos)}_0", ast.BitIntType(64), ("bv", 64))
    model = parse_model(
        "((define-fun c103_0 () (_ BitVec 64) #x0000000000000001))", reg)
    assert model["103_0"] == mk_bv(64, 1)


def test_parse_binary_and_bv_literals_and_bools():
    reg = _registry((ast.BitIntType(5), ("bv", 5)),
                    (ast.BoolType(), ("bool",)),
                    (ast.BitIntType(31), ("bv", 31)))
    out = """
(
  (define-fun c100_0 () (_ BitVec 5) #b00110)
  (define-fun c101_0 () Bool true)
  (define-fun c102_0 () (_ BitVec 31) (_ bv5 31))
)
"""
    model = parse_model(out, reg)
    assert model["100_0"] == mk_bv(5, 6)
    assert model["101_0"] is terms.TRUE
    assert model["102_0"] == mk_bv(31, 5)


def test_parse_store_chain_array_value():
    t = ast.ArrayType(ast.BitIntType(31), ast.BitIntType(64))
    reg = _registry((t, ("arr", 31, ("bv", 64))))
    out = """
((define-fun c100_0 () (Array (_ BitVec 31) (_ BitVec 64))
   (store ((as const (Array (_ BitVec 31) (_ BitVec 64))) (_ bv0 64))
          (_ bv7 31) (_ bv9 64))))
"""
    model = parse_model(out, reg)
    arr = model["100_0"]
    assert isinstance(arr, terms.SparseConst) and arr.key_width == 31
    assert arr.default == mk_bv(64, 0)
    assert arr.read(7) == mk_bv(64, 9)
    assert arr.read(8) == mk_bv(64, 0)


def test_parse_as_array_with_ite_lambda():
    t = ast.ArrayType(ast.BitIntType(4), ast.BitIntType(8))
    reg = _registry((t, ("arr", 4, ("bv", 8))))
    out = """
(
  (define-fun c100_0 () (Array (_ BitVec 4) (_ BitVec 8)) (_ as-array k!0))
  (define-fun k!0 ((x!0 (_ BitVec 4))) (_ BitVec 8)
    (ite (= x!0 (_ bv3 4)) (_ bv255 8) (_ bv1 8)))
)
"""
    arr = parse_model(out, reg)["100_0"]
    assert isinstance(arr, terms.SparseConst) and arr.key_width == 4
    assert arr.read(3) == mk_bv(8, 255)
    assert arr.read(0) == mk_bv(8, 1)


def test_unregistered_model_name_is_an_error():
    reg = _registry((ast.BoolType(), ("bool",)))
    with pytest.raises(ModelParseError, match="unregistered"):
        parse_model("((define-fun c109_0 () Bool true))", reg)


@pytest.mark.parametrize("defs,message", [
    ("(define-fun c100_0 () Bool true) (define-fun c100_0 () Bool false)",
     "model defines c100_0 twice"),
    ("(define-fun c100_0 () Bool)", "malformed definition of c100_0"),
], ids=["defined twice", "truncated"])
def test_duplicate_or_truncated_choice_definition_is_an_error(defs, message):
    reg = _registry((ast.BoolType(), ("bool",)))
    with pytest.raises(ModelParseError, match=message):
        parse_model(f"({defs})", reg)


def test_model_wrapped_in_model_keyword():
    reg = _registry((ast.BoolType(), ("bool",)))
    model = parse_model("(model (define-fun c100_0 () Bool false))", reg)
    assert model["100_0"] is terms.FALSE


# A literal must have exactly its variable's width; none is masked to fit.
@pytest.mark.parametrize("literal", ["#x0100", "(_ bv300 8)", "#b1", "(_ bv1 16)"])
def test_bitvector_literal_of_another_width_is_an_error(literal):
    reg = _registry((ast.BitIntType(8), ("bv", 8)))
    with pytest.raises(ModelParseError, match="c100_0"):
        parse_model(f"((define-fun c100_0 () (_ BitVec 8) {literal}))", reg)


ARRAY_4_8 = (ast.ArrayType(ast.BitIntType(4), ast.BitIntType(8)), ("arr", 4, ("bv", 8)))


@pytest.mark.parametrize("key,leaf", [("(_ bv99 4)", "#x01"), ("#x10", "#x01"),
                                      ("#x1", "#x001"), ("#x1", "(_ bv256 8)")])
def test_array_key_or_leaf_outside_its_sort_is_an_error(key, leaf):
    reg = _registry(ARRAY_4_8)
    sort = "(Array (_ BitVec 4) (_ BitVec 8))"
    store = f"(store ((as const {sort}) #x00) {key} {leaf})"
    with pytest.raises(ModelParseError, match="c100_0"):
        parse_model(f"((define-fun c100_0 () {sort} {store}))", reg)
    lam = f"(lambda ((x (_ BitVec 4))) (ite (= x {key}) {leaf} #x00))"
    with pytest.raises(ModelParseError, match="c100_0"):
        parse_model(f"((define-fun c100_0 () {sort} {lam}))", reg)


def test_enum_literal_has_the_backend_width():
    # Three variants take two bits.
    reg = _registry((ast.EnumRef("Mode", ("Off", "On", "Standby")), ("bv", 2)))
    assert parse_model("((define-fun c100_0 () (_ BitVec 2) #b10))", reg)["100_0"] \
        == mk_bv(2, 2)
    with pytest.raises(ModelParseError, match="c100_0"):
        parse_model("((define-fun c100_0 () (_ BitVec 1) #b1))", reg)


_DEEP_X = "(" * 3000 + "x" + ")" * 3000


@pytest.mark.parametrize("value", ["(lambda)", "(lambda (()) #x00)",
                                   "(lambda () #x00)", "(_ as-array k!0)",
                                   "(_ as-array (k!0))",
                                   pytest.param(f"(lambda (({_DEEP_X} (_ BitVec 4))) "
                                                f"(ite (= {_DEEP_X} #x1) #x01 #x00))",
                                                id="deep lambda variable")])
def test_malformed_array_function_is_an_error(value):
    reg = _registry(ARRAY_4_8)
    aux = "(define-fun k!0 (()) (_ BitVec 8) #x00)"
    with pytest.raises(ModelParseError, match="c100_0"):
        parse_model(f"((define-fun c100_0 () (Array (_ BitVec 4) (_ BitVec 8)) {value}) "
                    f"{aux})", reg)


def test_malformed_bitvector_literal_is_an_error():
    # Digits are ASCII binary, hex or decimal digits only: no sign, no `_`
    # and no other Unicode digits, even where int() would take them.
    reg = _registry((ast.BitIntType(8), ("bv", 8)))
    for literal in ["#b102", "#x", "(_ bvx 8)", "(_ bv1 (8))",
                    "#x+f", "#x-1", "#b0000_101", "#b١٠١٠١٠١٠", "#x٠f",
                    "(_ bv1_0 8)", "(_ bv+3 8)", "(_ bv٣ 8)", "(_ bv3 ８)",
                    "(_ bv3 +8)"]:
        with pytest.raises(ModelParseError, match="c100_0: expected bitvector"):
            parse_model(f"((define-fun c100_0 () (_ BitVec 8) {literal}))", reg)


def test_integer_values_are_numerals_or_negated_numerals():
    reg = _registry((ast.IntType(), terms.INT_SORT))
    for literal, value in [("0", 0), ("42", 42), ("(- 7)", -7), ("007", 7)]:
        model = parse_model(f"((define-fun c100_0 () Int {literal}))", reg)
        assert model["100_0"] == terms.mk_int(value)


def test_malformed_integer_literal_is_an_error():
    # `-3` is an SMT-LIB symbol, not a numeral.
    reg = _registry((ast.IntType(), terms.INT_SORT))
    for literal in ["+5", "-3", "1_000", "٣", "１", "5.0", "#x05", "(- -3)",
                    "(- (- 3))", "(- )", "(+ 3)", "9" * 5000]:
        with pytest.raises(ModelParseError, match="c100_0: expected integer"):
            parse_model(f"((define-fun c100_0 () Int {literal}))", reg)


@pytest.mark.parametrize("name", ["c²", "c٠", "c00", "c01", "C0", "c+0", "c0x",
                                  "c100_00", "c0100_0", "c100_", "c_0", "c100__0",
                                  "c100_0x", "c100_٠", "c100_0_", "(c100_0)"])
def test_only_emitted_choice_names_define_choices(name):
    # emit_smtlib declares `c` and the vid, numbers in ASCII digits with no
    # leading zero joined by `_`; any other name is an auxiliary definition,
    # as `k!0` is.
    reg = _registry((ast.BoolType(), ("bool",)))
    assert parse_model(f"((define-fun {name} () Bool true))", reg) == {}
    model = parse_model(f"((define-fun c100_0 () Bool false) "
                        f"(define-fun {name} () Bool true))", reg)
    assert model == {"100_0": terms.FALSE}


def test_choice_name_spells_its_id_and_header_gives_its_sort():
    # No registry: the name gives the vid (site, call sites, leaf) and the
    # `define-fun` header the sort the value is read by.
    out = """(
  (define-fun c7_3_12_1 () (_ BitVec 5) #b00110)
  (define-fun c8_0 () Bool true)
  (define-fun c9_4_0 () Int (- 3))
  (define-fun c0_2 () (Array (_ BitVec 4) (_ BitVec 8))
    (store ((as const (Array (_ BitVec 4) (_ BitVec 8))) #x01) #x3 #xff))
  (define-fun k!0 () Bool false))"""
    model = parse_model(out, None)
    assert model == {"7_3_12_1": mk_bv(5, 6), "8_0": terms.TRUE,
                     "9_4_0": terms.mk_int(-3),
                     "0_2": terms.SparseConst(("arr", 4, ("bv", 8)),
                                              mk_bv(8, 1)).write(3, mk_bv(8, 255))}


@pytest.mark.parametrize("name", ["c0", "c17"])
def test_choice_name_of_the_old_format_is_an_error(name):
    # Before names spelled ids, a choice was `c` and its index. Such a model
    # must not replay as if it defined nothing.
    for reg in (None, _registry((ast.BoolType(), ("bool",)))):
        with pytest.raises(ModelParseError, match=f"{name}, a choice name of the "
                                                  f"format used before.*re-run verify"):
            parse_model(f"((define-fun {name} () Bool true))", reg)


def test_choice_name_with_a_huge_number_is_a_model_error():
    # int() refuses more than 4,300 digits from Python 3.11 on.
    name = "c" + "1" * 5000 + "_0"
    try:
        model = parse_model(f"((define-fun {name} () Bool true))", None)
    except ModelParseError as err:
        assert str(err).startswith("choice name c111") and str(err).endswith("is too long")
    else:
        assert list(model) == [name[1:]]


@pytest.mark.parametrize("sort", ["Real", "(_ BitVec 0)", "(_ BitVec 08x)",
                                  "(Array Int Bool)", "(Array Bool Bool)",
                                  "(Array (_ BitVec 4) (Array (_ BitVec 4) Bool))",
                                  "(_ FloatingPoint 8 24)", "bool"])
def test_choice_of_an_unsupported_sort_is_an_error(sort):
    with pytest.raises(ModelParseError, match="c100_0: unsupported sort"):
        parse_model(f"((define-fun c100_0 () {sort} true))", None)


def test_choice_declared_with_another_sort_than_the_query_is_an_error():
    reg = _registry((ast.BoolType(), ("bool",)))
    with pytest.raises(ModelParseError, match=r"c100_0: sort \(_ BitVec 1\), but "
                                              r"the query declares Bool"):
        parse_model("((define-fun c100_0 () (_ BitVec 1) #b1))", reg)


def _nested(atom: str, depth: int = 3000) -> str:
    return "(" * depth + atom + ")" * depth


@pytest.mark.parametrize("sort,value", [
    ("Bool", _nested("x")), ("(_ BitVec 8)", _nested("#x01")),
    ("Int", _nested("5")), ("(Array (_ BitVec 4) (_ BitVec 8))", _nested("#x01")),
    ("(Array (_ BitVec 4) (_ BitVec 8))",
     f"(store ((as const (Array (_ BitVec 4) (_ BitVec 8))) #x00) #x1 {_nested('#x01')})"),
    (_nested("Bool"), "true")])
def test_deeply_nested_model_value_is_a_short_error(sort, value):
    # The message shows the bad node cut short, however deep it nests.
    with pytest.raises(ModelParseError) as info:
        parse_model(f"((define-fun c100_0 () {sort} {value}))", None)
    message = str(info.value)
    assert message.startswith("model value of c100_0: ") and len(message) < 200
    assert message.endswith("...")


# How the definitions of a model may be laid out: bare at the top level, or
# one level down in a list, which may also hold an `(error ...)` entry or
# other nodes that are not definitions.
MODEL_LAYOUTS = {
    "bare top-level definitions":
        "(define-fun c100_0 () Bool true)\n(define-fun c101_0 () (_ BitVec 4) #x9)",
    "an error entry beside the model":
        '(error "line 3 column 1: unsupported")\n'
        "((define-fun c100_0 () Bool true) (define-fun c101_0 () (_ BitVec 4) #x9))",
    "a list that holds a non-definition":
        "((declare-fun f () Bool) (define-fun c100_0 () Bool true) x!0 () "
        "(define-fun c101_0 () (_ BitVec 4) #x9))",
}


@pytest.mark.parametrize("case", list(MODEL_LAYOUTS))
def test_model_layouts(case):
    reg = _registry((ast.BoolType(), ("bool",)), (ast.BitIntType(4), ("bv", 4)))
    model = parse_model(MODEL_LAYOUTS[case], reg)
    assert model == {"100_0": terms.TRUE, "101_0": mk_bv(4, 9)}


def test_choice_with_arguments_is_an_error():
    reg = _registry((ast.BoolType(), ("bool",)))
    with pytest.raises(ModelParseError) as info:
        parse_model("((define-fun c100_0 ((x Bool)) Bool x))", reg)
    assert str(info.value) == "unexpected arguments on c100_0"


def test_array_ite_condition_that_is_not_an_equality_is_an_error():
    reg = _registry(ARRAY_4_8)
    value = "(lambda ((x (_ BitVec 4))) (ite (bvult x #x3) #x01 #x00))"
    with pytest.raises(ModelParseError) as info:
        parse_model(f"((define-fun c100_0 () {ARRAY_4_8_TEXT} {value}))", reg)
    assert str(info.value) == ("model value of c100_0: unsupported array ite "
                               "condition (bvult x #x3)")


def test_array_ite_condition_that_does_not_hold_the_argument_is_an_error():
    # `(= #x1 #x3)` is false, so this array is the constant #x00; it must not
    # read as an update at key 1.
    reg = _registry(ARRAY_4_8)
    value = "(lambda ((x (_ BitVec 4))) (ite (= #x1 #x3) #x05 #x00))"
    with pytest.raises(ModelParseError) as info:
        parse_model(f"((define-fun c100_0 () {ARRAY_4_8_TEXT} {value}))", reg)
    assert str(info.value) == ("model value of c100_0: unsupported array ite "
                               "condition (= #x1 #x3)")


def test_array_ite_condition_may_hold_the_argument_on_either_side():
    reg = _registry(ARRAY_4_8)
    value = "(lambda ((x (_ BitVec 4))) (ite (= #x1 x) #x05 #x00))"
    arr = parse_model(f"((define-fun c100_0 () {ARRAY_4_8_TEXT} {value}))", reg)["100_0"]
    assert arr == terms.SparseConst(terms.arr_sort(4, ("bv", 8)), mk_bv(8, 0),
                                    ((1, mk_bv(8, 5)),))


ARRAY_4_8_TEXT = "(Array (_ BitVec 4) (_ BitVec 8))"


@pytest.mark.parametrize("value", [
    f"(store (store (store ((as const {ARRAY_4_8_TEXT}) #x00) #x1 #x05) #x2 #x06) #x1 #x07)",
    "(lambda ((x (_ BitVec 4))) (ite (= x #x1) #x07 (ite (= x #x2) #x06 "
    "(ite (= x #x1) #x05 #x00))))",
], ids=["store chain", "ite chain"])
def test_repeated_array_key_keeps_its_first_place_and_its_latest_value(value):
    # The latest write to key 1 is the outermost store, and the first ite
    # that matches it; key 1 was written before key 2.
    reg = _registry(ARRAY_4_8)
    model = parse_model(f"((define-fun c100_0 () {ARRAY_4_8_TEXT} {value}))", reg)
    assert model["100_0"] == terms.SparseConst(
        ARRAY_4_8[1], mk_bv(8, 0), ((1, mk_bv(8, 7)), (2, mk_bv(8, 6))))


def test_long_store_chain_loads_in_linear_time(tmp_path):
    # The array is built once from its updates, not by one copy per update:
    # 20,000 stores took ≈9 s that way on a 2-CPU machine, ≈0.15 s this way.
    n, sort = 20_000, "(Array (_ BitVec 16) (_ BitVec 8))"
    path = tmp_path / "m.smt2"
    path.write_text(f"((define-fun c100_0 () {sort} " + "(store " * n
                    + f"((as const {sort}) #x00)"
                    + "".join(f" (_ bv{k} 16) #x{k % 256:02x})" for k in range(n)) + "))")
    start = time.perf_counter()
    model = smtlib.load_model_file(str(path))
    assert time.perf_counter() - start < 2.0
    arr = model["100_0"]
    assert [k for k, _ in arr.mods] == list(range(n))
    assert arr.read(n - 1) == mk_bv(8, (n - 1) % 256)


# -- solver driving ----------------------------------------------------------------


@requires_z3
def test_sat_model_roundtrip_pins_stay_sat(tmp_path):
    # For a Sat verdict, conjoining equalities that pin every choice variable
    # to its model value must still be Sat (second solver call as oracle).
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    vc = eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")
    verdict = solve_vc(vc, tmpdir=tmp_path)
    assert isinstance(verdict, Sat)
    pins = [(terms.TRUE, terms.mk_eq(terms.Var(info.sort, info.vid),
                                     verdict.model[info.vid]))
            for info in vc.registry.infos if info.vid in verdict.model]
    pinned = emit_smtlib(eng.VerificationCondition(vc.registry, vc.assumptions + pins,
                                                   vc.obligations))
    job = SolverJob(smtlib.DEFAULT_SOLVER, 120, pinned, str(tmp_path / "pin.smt2"))
    assert isinstance(run_solver(job, vc.registry), Sat)


def test_timeout_maps_to_unknown(tmp_path):
    _, _, _, vc = vc_of("module Main { mut fn s() { assert(any<Bool>) } }")
    slow = f"{sys.executable} -c \"import time; time.sleep(30)\""
    job = SolverJob(slow + " {file}", 0.5, emit_smtlib(vc), str(tmp_path / "t.smt2"))
    verdict = run_solver(job, vc.registry)
    assert isinstance(verdict, Unknown) and verdict.reason == "timeout"


def test_solver_failure_without_verdict_is_reported(tmp_path):
    _, _, _, vc = vc_of("module Main { mut fn s() { assert(any<Bool>) } }")
    bad = f"{sys.executable} -c \"import sys; sys.exit(3)\""
    job = SolverJob(bad + " {file}", 10, emit_smtlib(vc), str(tmp_path / "t.smt2"))
    verdict = run_solver(job, vc.registry)
    assert isinstance(verdict, SolverError) and verdict.exit_code == 3


def test_missing_solver_binary(tmp_path):
    _, _, _, vc = vc_of("module Main { mut fn s() { assert(any<Bool>) } }")
    job = SolverJob("definitely-not-a-solver {file}", 10, emit_smtlib(vc),
                    str(tmp_path / "t.smt2"))
    verdict = run_solver(job, vc.registry)
    assert isinstance(verdict, SolverError)


def test_env_var_overrides_default_command(monkeypatch):
    monkeypatch.setenv(smtlib.SOLVER_ENV_VAR, "mysolver --flag {file}")
    assert smtlib.solver_command() == "mysolver --flag {file}"
    assert smtlib.solver_command("explicit {file}") == "explicit {file}"
    monkeypatch.delenv(smtlib.SOLVER_ENV_VAR)
    assert smtlib.solver_command() == smtlib.DEFAULT_SOLVER


# -- two independent solvers agree on the whole corpus ---------------------------


@pytest.mark.parametrize("fname,scenario,expected", _manifest_scenarios(),
                         ids=[f"{f}::{s}" for f, s, _ in _manifest_scenarios()])
def test_corpus_verdicts_agree_across_solvers(fname, scenario, expected, tmp_path):
    pytest.importorskip("cvc5")
    if not __import__("shutil").which("z3"):
        pytest.skip("z3 binary not on PATH")
    cvc5_cmd = f"{sys.executable} -m soclang.cvc5_shim {{file}}"
    tp, tree, layout = load_file(CORPUS / fname)
    vc = eng.sym_exec(tp, tree, layout, scenario)
    z3_verdict = solve_vc(vc, tmpdir=tmp_path)
    cvc5_verdict = solve_vc(vc, command=cvc5_cmd, tmpdir=tmp_path, timeout=300)
    classify = lambda v: "sat" if isinstance(v, Sat) else \
        ("unsat" if isinstance(v, Unsat) else f"other:{v}")
    assert classify(z3_verdict) == classify(cvc5_verdict) \
        == ("sat" if expected == "exploit" else "unsat")
