import re

import pytest

from soclang import ast
from soclang import engine as eng
from soclang import smtlib, terms
from soclang.terms import mk_bv

from conftest import (CORPUS, brute_force_violating, enumerate_assignments,
                      load_file, load_source, registry_bits, requires_z3,
                      solve_vc)
from microgen import all_micro_scenarios
from printer import walk


# -- merge laws ---------------------------------------------------------------


MERGE_MODEL = """
module Main {
  instance touched: State<BitInt(8)>(0);
  instance untouched: State<BitInt(8)>(7);
  mut fn s() {
    if any<Bool> { touched.set(1u8) } else { touched.set(2u8) };
    assert(touched.get() != 0u8)
  }
  mut fn only_then() {
    if any<Bool> { assert(false) } else { () };
    ()
  }
}
"""


def test_untouched_cell_is_not_wrapped_in_ite():
    tp, tree, layout = load_source(MERGE_MODEL)
    e = eng.Engine(tp, tree, layout)
    touched, untouched = tree.children["touched"], tree.children["untouched"]
    before = e.store[untouched]
    e.run("s")
    assert e.store[untouched] is before
    merged = e.store[touched]
    assert isinstance(merged, terms.Ite)
    assert isinstance(merged.then, terms.BVC) and merged.then.value == 1
    assert isinstance(merged.other, terms.BVC) and merged.other.value == 2


def test_obligation_raised_in_then_arm_carries_the_branch_guard():
    tp, tree, layout = load_source(MERGE_MODEL)
    vc = eng.sym_exec(tp, tree, layout, "only_then")
    (guard, body, _site) = vc.obligations[0]
    assert isinstance(guard, terms.Var)  # true ∧ c folds to c
    assert isinstance(body, terms.BoolC) and body.value is False


def test_ite_with_equal_arms_folds():
    folded = terms.mk_ite(terms.Var(terms.BOOL_SORT, 0),
                          terms.mk_bv(4, 9), terms.mk_bv(4, 9))
    assert isinstance(folded, terms.BVC) and folded.value == 9
    x = terms.mk_bv(4, 1)
    assert terms.mk_ite(terms.TRUE, x, terms.mk_bv(4, 2)) is x
    assert terms.mk_ite(terms.FALSE, x, terms.mk_bv(4, 2)).value == 2


# A term's repr shows its compound children by class only, so a shared DAG
# prints in bounded text however deep it is; as a tree this one is 2^60 leaves.
def test_term_repr_is_bounded_on_a_deep_shared_dag():
    t = terms.Var(terms.BOOL_SORT, "0_0")
    for _ in range(60):
        t = terms.mk_and(t, t)
    assert repr(t) == "Bin(('bool',), op='and', left=<Bin>, right=<Bin>)"
    arr = terms.SparseConst(terms.arr_sort(4, ("bv", 4)), mk_bv(4, 0))
    for k in range(16):
        arr = arr.write(k, terms.mk_ite(t, mk_bv(4, k), mk_bv(4, 0)))
    text = repr(arr)
    assert len(text) < 1024 and text.endswith(", ... 12 more))")
    assert repr(terms.Extract(("bv", 2), 1, 0, arr.read(1))) == \
        "Extract(('bv', 2), hi=1, lo=0, arg=<Ite>)"


def test_assert_of_any_or_true_is_vacuous():
    tp, tree, layout = load_source(
        "module Main { mut fn s() { assert(any<Bool> || true) } }")
    vc = eng.sym_exec(tp, tree, layout, "s")
    assert isinstance(vc.violations_term(), terms.BoolC)
    assert vc.violations_term().value is False


FIELD_ORDER_MODEL = """
type P = { a: BitInt(2), b: Bool };
module Cells { instance slots: Array<BitInt(1), P>; }
module Main {
  instance m: Cells;
  mut fn s() {
    let c = any<Bool>;
    let x = any<BitInt(2)>;
    let lit = { b: c, a: x };
    let decl: P = { a: 3u2, b: true };
    let merged = if c { lit } else { decl };
    assert((merged == decl) == (!c || x == 3u2));
    m.slots.write(0u1, lit);
    assert(m.slots.read(0u1) == lit)
  }
}
"""


def _ill_sorted(root):
    """Ite arms, equality sides and array-write values whose sorts differ."""
    bad, seen, stack = [], set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if (isinstance(t, terms.Ite) and t.then.sort != t.other.sort
                or isinstance(t, terms.Bin) and t.op == "=" and t.left.sort != t.right.sort
                or isinstance(t, terms.ArrWrite) and t.value.sort != t.arr.sort[2]):
            bad.append(t)
        stack.extend(terms.children(t))
    return bad


def test_records_match_by_field_name_not_position():
    # `lit` is inferred with its fields in written order (b, a); `decl` and
    # the array cell hold them in declaration order (a, b).
    tp, tree, layout = load_source(FIELD_ORDER_MODEL)
    let_lit = tp.fns[("Main", "s")].body.items[2]
    assert [n for n, _ in tp.types[let_lit.value.node_id].fields] == ["b", "a"]
    for seed in range(4):
        r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(seed))
        assert isinstance(r.verdict, eng.Passed), seed
    assert not brute_force_violating(tp, tree, layout, "s")
    vc = eng.sym_exec(tp, tree, layout, "s")
    assert _ill_sorted(vc.query_term()) == []


@requires_z3
def test_vacuous_violation_solves_unsat(tmp_path):
    tp, tree, layout = load_source(
        "module Main { mut fn s() { assert(any<Bool> || true) } }")
    vc = eng.sym_exec(tp, tree, layout, "s")
    from soclang import smtlib
    assert isinstance(solve_vc(vc, tmpdir=tmp_path), smtlib.Unsat)


# -- dispatch -------------------------------------------------------------------


def test_every_expression_class_has_an_eval_handler():
    exprs = {c for c in vars(ast).values()
             if isinstance(c, type) and issubclass(c, ast.Expr) and c is not ast.Expr}
    assert set(eng.Engine._COMPILE) == exprs


def test_expression_without_a_handler_is_an_internal_error():
    class Stray(ast.Expr):
        pass

    tp, tree, layout = load_source(MERGE_MODEL)
    e = eng.Engine(tp, tree, layout)
    with pytest.raises(AssertionError, match="unhandled node Stray"):
        e.code(Stray(ast.SYNTHETIC))


# -- choice-id discipline ------------------------------------------------------


def test_choice_ids_pair_site_with_occurrence():
    tp, tree, layout = load_source("""
module Roll {
  mut fn two() -> BitInt(2) { let unused = any<BitInt(1)>; any<BitInt(2)> }
}
module Main {
  instance r: Roll;
  mut fn s() {
    let a = r.two();
    let b = r.two();
    assert(a == b)
  }
}
""")
    # A vid is the site, the call sites and the leaf number joined by `_`:
    # each `any` keeps its site in both calls, and the call path tells the
    # two calls apart.
    vc = eng.sym_exec(tp, tree, layout, "s")
    infos = vc.registry.infos
    assert len({i.vid for i in infos}) == 4
    first, second = [[i.vid.split("_") for i in half] for half in (infos[:2], infos[2:])]
    assert [v[0] for v in first] == [v[0] for v in second]
    assert first[0][0] != first[1][0]
    for (_, *calls_a, leaf_a), (_, *calls_b, leaf_b) in zip(first, second):
        assert len(calls_a) == len(calls_b) == 1 and calls_a != calls_b
        assert leaf_a == leaf_b == "0"


def test_ghost_counting_keeps_ids_aligned_across_skipped_arms():
    # The else-arm consumes ids in the VC ordering; replay down the then-arm
    # must still give the post-if `any` the same (site, occurrence) pair.
    tp, tree, layout = load_source("""
module Main {
  mut fn s() {
    let c = any<Bool>;
    let v = if c { 1u4 } else { any<BitInt(4)> + any<BitInt(4)> };
    let w = any<BitInt(4)>;
    assert(v + w != 9u4)
  }
}
""")
    vc = eng.sym_exec(tp, tree, layout, "s")
    infos = vc.registry.infos
    assert [str(i.type) for i in infos] == [
        "Bool", "BitInt(4)", "BitInt(4)", "BitInt(4)"]
    w_info = infos[3]
    # Violate via the then-arm: v = 1, w = 8.
    model = {infos[0].vid: terms.TRUE, w_info.vid: mk_bv(4, 8)}
    r = eng.replay(tp, tree, layout, "s", model)
    assert isinstance(r.verdict, eng.AssertionFailed)
    # And via the else-arm: 2 + 3 + 4 = 9.
    model = {infos[0].vid: terms.FALSE, infos[1].vid: mk_bv(4, 2),
             infos[2].vid: mk_bv(4, 3), w_info.vid: mk_bv(4, 4)}
    r = eng.replay(tp, tree, layout, "s", model)
    assert isinstance(r.verdict, eng.AssertionFailed)


class RecordingOracle(eng.ModelOracle):
    """A ModelOracle that records each vid it is asked for, with the type
    the asking run expects (an array as ArrayType(key, leaf))."""

    def __init__(self, values) -> None:
        super().__init__(values)
        self.asked = []

    def value(self, vid, t):
        self.asked.append((vid, t))
        return super().value(vid, t)


def declared_choices(vc) -> dict:
    """Name -> sort text of each choice the emitted query declares."""
    text = smtlib.emit_smtlib(vc)
    return dict(re.findall(r"^\(declare-const (\S+) (.*)\)$", text, re.M))


def assert_replay_asks_registered_choices(tp, tree, layout, scenario, vc, model,
                                          declared):
    """Replay asks only for vids that sym_exec registered, each once and
    with its registered type, and the emitted query declares each under the
    name `c<vid>`, with the sort of that type: a model is read by the vids it
    was solved for, whichever branch arms the replay takes. `declared` is
    `declared_choices(vc)`."""
    registered = {i.vid: i.type for i in vc.registry.infos}
    assert len(registered) == len(vc.registry.infos), "two choices share a vid"
    oracle = RecordingOracle(model)
    result = eng.run_scenario(tp, tree, layout, scenario, oracle)
    asked = [vid for vid, _ in oracle.asked]
    assert len(set(asked)) == len(asked), "a vid was asked for twice"
    for vid, t in oracle.asked:
        assert vid in registered, f"replay asked for unregistered choice {vid}"
        assert registered[vid] == t, f"choice {vid}: {registered[vid]} vs {t}"
        name = f"c{vid}"
        assert declared.get(name) == smtlib._sort_text(eng.sort_of(t)), \
            f"choice {vid}: the query declares {name} as {declared.get(name)}"
    return result


@pytest.mark.parametrize("name,source", all_micro_scenarios(),
                         ids=[n for n, _ in all_micro_scenarios()])
def test_replay_asks_registered_choices_on_every_micro_assignment(name, source):
    tp, tree, layout = load_source(source, name)
    vc = eng.sym_exec(tp, tree, layout, "s")
    assert registry_bits(vc.registry) <= 16
    query = vc.query_term()
    declared = declared_choices(vc)
    for model in enumerate_assignments(vc.registry):
        r = assert_replay_asks_registered_choices(tp, tree, layout, "s", vc, model,
                                                  declared)
        # A registered id that names the wrong choice shows here: the query
        # holds under the model, but replay reads other values and passes.
        if _eval_term(query, vc, model):
            assert isinstance(r.verdict, eng.AssertionFailed), model
        # A wrong merge shows the other way: replay fails an assertion under
        # the model, but the VC has no violation there.
        if isinstance(r.verdict, eng.AssertionFailed) and \
                _eval_term(vc.assumes_term(), vc, model):
            assert _eval_term(vc.violations_term(), vc, model), model


CORPUS_SCENARIOS = [(path.name, s) for path in sorted(CORPUS.glob("*.soc"))
                    for s in load_file(path)[0].scenarios()]


@pytest.mark.parametrize("fname,scenario", CORPUS_SCENARIOS,
                         ids=[f"{f}::{s}" for f, s in CORPUS_SCENARIOS])
def test_replay_asks_registered_choices_on_corpus_scenarios(fname, scenario):
    tp, tree, layout = load_file(CORPUS / fname)
    vc = eng.sym_exec(tp, tree, layout, scenario)
    models = [{}]
    for seed in range(4):
        draw = eng.SeededRandom(seed)
        models.append({i.vid: draw.value(i.vid, i.type) for i in vc.registry.infos})
    declared = declared_choices(vc)
    for model in models:
        assert_replay_asks_registered_choices(tp, tree, layout, scenario, vc, model,
                                              declared)


def test_choice_names_do_not_depend_on_what_was_parsed_before():
    # Node ids restart for each parse, so a choice's name (its site and call
    # sites are node ids) is the same in every process that loads the file.
    def parse(name):
        tp, tree, layout = load_file(CORPUS / name)
        ids = [n.node_id for fn in tp.fns.values() for n in walk(fn.body)]
        vids = [i.vid for scenario in tp.scenarios()
                for i in eng.sym_exec(tp, tree, layout, scenario).registry.infos]
        return ids, vids

    first = parse("mini_tx1_vulnerable.soc")
    other = parse("monitor_read_detect.soc")
    assert parse("mini_tx1_vulnerable.soc") == first
    assert first[1] and other[1]


# -- corpus-level verdicts -----------------------------------------------------


@requires_z3
def test_vulnerable_scenario_is_satisfiable(tmp_path):
    from soclang import smtlib
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    vc = eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")
    verdict = solve_vc(vc, tmpdir=tmp_path)
    assert isinstance(verdict, smtlib.Sat)
    r = eng.replay(tp, tree, layout, "test_secure_area_unchanged", verdict.model)
    assert isinstance(r.verdict, eng.AssertionFailed)


@requires_z3
def test_fixed_scenario_is_unsatisfiable(tmp_path):
    from soclang import smtlib
    tp, tree, layout = load_file(CORPUS / "mini_tx1_fixed.soc")
    vc = eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")
    assert isinstance(solve_vc(vc, tmpdir=tmp_path), smtlib.Unsat)


# -- solver vs exhaustive interpretation (sample; full set in acceptance) ------


@requires_z3
@pytest.mark.parametrize("name,source", all_micro_scenarios()[:6],
                         ids=[n for n, _ in all_micro_scenarios()[:6]])
def test_micro_agreement_sample(name, source, tmp_path):
    from soclang import smtlib
    tp, tree, layout = load_source(source, name)
    verdict = solve_vc(eng.sym_exec(tp, tree, layout, "s"), tmpdir=tmp_path)
    solver_sat = isinstance(verdict, smtlib.Sat)
    assert solver_sat == brute_force_violating(tp, tree, layout, "s")


# -- guard correctness ----------------------------------------------------------


@requires_z3
def test_failing_site_guard_is_true_under_the_model(tmp_path):
    from soclang import smtlib
    tp, tree, layout = load_source("""
module Main {
  mut fn s() {
    let x = any<BitInt(3)>;
    if x < 4u3 { assert(x != 2u3) } else { assert(x != 6u3) }
  }
}
""")
    vc = eng.sym_exec(tp, tree, layout, "s")
    verdict = solve_vc(vc, tmpdir=tmp_path)
    assert isinstance(verdict, smtlib.Sat)
    r = eng.replay(tp, tree, layout, "s", verdict.model)
    assert isinstance(r.verdict, eng.AssertionFailed)
    failing = [o for o in vc.obligations if o[2] == r.verdict.site]
    assert failing, "failing site must be a recorded obligation"
    guard = failing[0][0]
    assert _eval_term(guard, vc, verdict.model) is True


def _eval_term(t, vc, model):
    """Tiny substitution evaluator for ground terms over a model."""
    if isinstance(t, terms.BoolC):
        return t.value
    if isinstance(t, terms.BVC):
        return t.value
    if isinstance(t, terms.Var):
        info = next(i for i in vc.registry.infos if i.vid == t.vid)
        v = model.get(info.vid)
        if v is None:
            return 0 if t.sort[0] == "bv" else False
        return v.value
    if isinstance(t, terms.Not):
        return not _eval_term(t.arg, vc, model)
    if isinstance(t, terms.Bin):
        l = _eval_term(t.left, vc, model)
        r = _eval_term(t.right, vc, model)
        width = t.left.sort[1] if t.left.sort[0] == "bv" else None
        ops = {
            "and": lambda: l and r,
            "or": lambda: l or r,
            "=": lambda: l == r,
            "bvult": lambda: l < r,
            "bvule": lambda: l <= r,
            "<": lambda: l < r,
            "<=": lambda: l <= r,
            "bvadd": lambda: (l + r) & ((1 << width) - 1),
            "bvsub": lambda: (l - r) & ((1 << width) - 1),
            "bvmul": lambda: (l * r) & ((1 << width) - 1),
        }
        return ops[t.op]()
    if isinstance(t, terms.Ite):
        return _eval_term(t.then if _eval_term(t.cond, vc, model) else t.other,
                          vc, model)
    if isinstance(t, terms.Extract):
        return (_eval_term(t.arg, vc, model) >> t.lo) & ((1 << (t.hi - t.lo + 1)) - 1)
    if isinstance(t, terms.ZeroExt):
        return _eval_term(t.arg, vc, model)
    raise AssertionError(f"unhandled {type(t).__name__}")


@requires_z3
def test_havocked_array_model_parses_and_replays(tmp_path):
    from soclang import smtlib
    tp, tree, layout = load_source("""
module Mem { instance cells: Array<BitInt(4), BitInt(8)>; }
module Main {
  instance m: Mem;
  mut fn s() {
    m.havoc();
    let k = any<BitInt(4)>;
    assert(m.cells.read(k) != 7u8)
  }
}
""")
    vc = eng.sym_exec(tp, tree, layout, "s")
    verdict = solve_vc(vc, tmpdir=tmp_path)
    assert isinstance(verdict, smtlib.Sat)
    arr_info = next(i for i in vc.registry.infos
                    if isinstance(i.type, ast.ArrayType))
    assert arr_info.vid in verdict.model
    r = eng.replay(tp, tree, layout, "s", verdict.model)
    assert isinstance(r.verdict, eng.AssertionFailed)


@requires_z3
def test_symbolic_key_on_record_valued_array(tmp_path):
    from soclang import smtlib
    tp, tree, layout = load_source("""
type Entry = { tag: BitInt(4), val: BitInt(8) };
module T { instance slots: Array<BitInt(3), Entry>; }
module Main {
  instance t: T;
  mut fn s() {
    let k = any<BitInt(3)>;
    t.slots.write(k, { tag: 1u4, val: 7u8 });
    assert(t.slots.read(k).val == 7u8)
  }
}
""")
    vc = eng.sym_exec(tp, tree, layout, "s")
    assert isinstance(solve_vc(vc, tmpdir=tmp_path), smtlib.Unsat)


# -- havoc ------------------------------------------------------------------------


def test_havoc_registers_fresh_variables_for_the_whole_subtree():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_fixed.soc")
    vc = eng.sym_exec(tp, tree, layout, "inductive_step")
    kinds = [str(i.type) for i in vc.registry.infos]
    # 13 scalar cells (cpu flag + 12 region registers) + the DRAM array.
    assert kinds.count("Bool") >= 1
    assert kinds.count("BitInt(64)") >= 12
    assert any(isinstance(i.type, ast.ArrayType) for i in vc.registry.infos)
    arr = next(i for i in vc.registry.infos if isinstance(i.type, ast.ArrayType))
    assert arr.sort == ("arr", 31, ("bv", 64))
