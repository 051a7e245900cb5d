import math

import pytest

from soclang import ast
from soclang.diagnostics import TypeErrors
from soclang.parser import parse_program
from soclang.typecheck import Checker, TypingCtx, check_program

from conftest import CORPUS, call_chain, module_of, parse_expr
from printer import walk

REQUEST_HANDLER = """\
type PhysAddr = BitInt(48);
type Request = { is_write: Bool, is_secure: Bool, address: PhysAddr, value: BitInt(64) };
type Response = { ok: Bool, value: BitInt(64) };

module Dram {
  instance storage: Array<BitInt(31), BitInt(64)>;
  mut fn store(addr: PhysAddr, value: BitInt(64)) -> Response {
    storage.write(addr[33 downto 3], value);
    { ok: true, value: 0 }
  }
}
module Asc {
  callee dram: Dram;
  mut fn request(r: Request) -> Response {
    let region_id = r.address[6 downto 5];
    if r.is_write {
      dram.store(r.address, r.value)
    } else {
      { ok: false, value: any<BitInt(64)> }
    }
  }
}
module Main {
  instance asc: Asc;
  instance dram: Dram;
  asc.dram -> dram;
  mut fn go() {
    let rep = asc.request({ is_write: true, is_secure: true, address: 1u48, value: 0 });
    assert(rep.ok)
  }
}
"""


def errors_of(source: str):
    with pytest.raises(TypeErrors) as exc:
        check_program(parse_program(source, "t.soc"))
    return exc.value.errors


def find_expr(program, pred):
    for mod in program.modules:
        for fn in mod.fns:
            for node in walk(fn.body):
                if pred(node):
                    return node
    raise AssertionError("expression not found")


def test_request_handler_is_well_typed_and_slices_have_exact_widths():
    program = parse_program(REQUEST_HANDLER, "h.soc")
    tp = check_program(program)
    sl = find_expr(program, lambda n: isinstance(n, ast.Slice) and n.hi == 6)
    assert tp.types[sl.node_id] == ast.BitIntType(2)
    word = find_expr(program, lambda n: isinstance(n, ast.Slice) and n.hi == 33)
    assert tp.types[word.node_id] == ast.BitIntType(31)


def test_width_mismatch_reports_both_types():
    errs = errors_of("""
module Main {
  mut fn go() {
    let x = 1u32;
    let y = 2u64;
    let z = x + y;
    ()
  }
}
""")
    assert any("BitInt(32)" in e.message and "BitInt(64)" in e.message for e in errs)


def test_indexed_collection_equality_is_rejected():
    errs = errors_of("""
module Mem { instance cells: Array<BitInt(4), BitInt(8)>; }
module Main {
  instance m: Mem;
  mut fn go() {
    let orig_mem = m.cells.get();
    let new_mem = m.cells.get();
    assert(orig_mem == new_mem)
  }
}
""")
    assert any("equality on indexed collections is not supported" in e.message
               for e in errs)


def test_any_expands_aliases():
    program = parse_program("""
type PhysAddr = BitInt(48);
module Main {
  mut fn go() {
    let a = any<PhysAddr>;
    ()
  }
}
""")
    tp = check_program(program)
    anynode = find_expr(program, lambda n: isinstance(n, ast.AnyExpr))
    assert tp.types[anynode.node_id] == ast.BitIntType(48)


def test_if_checked_against_width_propagates_to_both_arms():
    program = parse_program("""
module Main {
  mut fn go() {
    let c = any<Bool>;
    let x: BitInt(64) = if c { 1 } else { 0 };
    ()
  }
}
""")
    tp = check_program(program)
    one = find_expr(program, lambda n: isinstance(n, ast.IntLit) and n.value == 1)
    zero = find_expr(program, lambda n: isinstance(n, ast.IntLit) and n.value == 0)
    assert tp.types[one.node_id] == ast.BitIntType(64)
    assert tp.types[zero.node_id] == ast.BitIntType(64)


def test_bare_literal_without_context_cannot_infer_width():
    errs = errors_of("module Main { mut fn go() { let x = 1; () } }")
    assert any("cannot infer width" in e.message for e in errs)


def test_record_literal_field_order_is_free():
    program = parse_program("""
type Response = { ok: Bool, value: BitInt(64) };
module Main {
  mut fn go() {
    let r: Response = { value: 3, ok: true };
    assert(r.ok)
  }
}
""")
    check_program(program)


def test_record_literal_missing_fields_listed():
    errs = errors_of("""
type Request = { is_write: Bool, address: BitInt(16), value: BitInt(8) };
module Main {
  mut fn go() {
    let r: Request = { is_write: true };
    ()
  }
}
""")
    assert any("missing fields: address, value" in e.message for e in errs)


def test_operands_widths_always_equal_on_corpus():
    # No implicit coercions: both operand widths equal on every arithmetic
    # or comparison node of the bundled models.
    for path in sorted(CORPUS.glob("*.soc")):
        program = parse_program(path.read_text(), path.name)
        tp = check_program(program)
        for mod in program.modules:
            for fn in mod.fns:
                for node in walk(fn.body):
                    if isinstance(node, ast.Binary) and node.op in (
                            "+", "-", "*", "<", "<=", ">", ">=", "==", "!="):
                        lt = tp.types[node.left.node_id]
                        rt = tp.types[node.right.node_id]
                        assert lt == rt, (path.name, node.op, lt, rt)


def test_infer_and_check_expr_api():
    program = parse_program("module Main { mut fn go() { () } }")
    chk = Checker(program)
    chk.collect_decls()
    ctx = TypingCtx(module_of(program, "Main"), {"x": ast.BitIntType(48)})
    e = parse_expr("x[6 downto 5]")
    assert chk.check_expr(ctx, e) == ast.BitIntType(2)
    lit = parse_expr("1")
    assert chk.check_expr(ctx, lit, ast.BitIntType(64)) == ast.BitIntType(64)
    with pytest.raises(Exception):
        chk.check_expr(ctx, parse_expr("1"))


def test_recursion_cycle_named_in_error():
    errs = errors_of("""
module Main {
  fn f(n: BitInt(8)) -> BitInt(8) { g(n) }
  fn g(n: BitInt(8)) -> BitInt(8) { f(n) }
  mut fn go() { let x = f(1u8); () }
}
""")
    assert any("recursive call cycle" in e.message for e in errs)


def test_enum_type_carries_its_variants():
    # Each enum resolves once: every use of it is the one EnumRef, and its
    # width is ceil(log2(max(n, 2))) for n variants.
    tp = check_program(parse_program(
        "enum Mode { Off, On, Standby }\n"
        "module Main { instance m: State<Mode>(Mode.Off);\n"
        "  mut fn s() { let x: Mode = any<Mode>; assert(x != Mode.On) } }", "t.soc"))
    modes = [t for t in (*tp.types.values(), *tp.resolved.values())
             if isinstance(t, ast.EnumRef)]
    assert len(modes) > 4 and all(t is modes[0] for t in modes)
    assert modes[0].variants == ("Off", "On", "Standby")
    for n in range(1, 70):
        assert ast.EnumRef("E", ("v",) * n).width == max(1, math.ceil(math.log2(max(n, 2))))


def test_call_chain_of_any_length_is_checked():
    # The call graph is walked with an explicit stack, so a chain deeper than
    # Python's recursion limit is checked. It nests past the budget at the
    # call in f1371, which nests 129 deep, and only there: its callers are
    # not reported again. A cycle at its end is named, and the depth is not.
    (err,) = errors_of(call_chain(1500))
    assert err.report() == "t.soc:1373:20: error: nesting too deep"
    closed = call_chain(1500).replace("f1499() { () }", "f1499() { f1498() }")
    (err,) = errors_of(closed)
    assert err.report() == ("t.soc:1500:3: error: recursive call cycle: "
                            "Main.f1498 -> Main.f1499 -> Main.f1498")


def test_an_invalid_alias_is_reported_once():
    # Each alias is resolved once, after the aliases it names: one that
    # closes a cycle or names an unknown type is one diagnostic, at its
    # declaration, and an alias or a use that names it adds none.
    (err,) = errors_of("type A = B;\ntype B = A;\ntype C = Vector<A, 2>;\n"
                       "module Main { mut fn go() { let x: C = any<C>; () } }\n")
    assert err.report() == "t.soc:1:1: error: type alias cycle through 'A'"
    (err,) = errors_of("type A = { a: Nope };\ntype B = Vector<A, 2>;\n"
                       "module Main { mut fn go() { let x = any<B>; () } }\n")
    assert err.report() == "t.soc:1:1: error: unknown type 'Nope'"


def test_unwidthed_literal_keeps_the_other_operands_error():
    # Only an operand whose every leaf is a bare literal is inferred second;
    # `y + 1` has its own error, which must not be replaced by the `3`'s.
    (err,) = errors_of("module Main {\n  mut fn s() {\n    assert((y + 1) == 3)\n  }\n}\n")
    assert err.report() == "t.soc:3:13: error: unknown name 'y'"
    # Both widths come from the other side, on either side of `==`.
    check_program(parse_program("module Main { mut fn s() { let y = 2u4; "
                                "assert((1 + 1) == y); assert(y == 1 + 1) } }"))


def test_vector_index_width_must_cover_length():
    errs = errors_of("""
module Main {
  mut fn go() {
    let v = [1u8, 2u8, 3u8];
    let x = v[any<BitInt(2)>];
    ()
  }
}
""")
    assert any("2^width <= length" in e.message for e in errs)


def test_int_supports_arithmetic_and_comparisons_only():
    program = parse_program("""
module Main {
  mut fn go() {
    let a = to_int(5u8);
    let b = a * a + a - to_int(1u8);
    assume(b > a);
    let back = from_int<16>(b);
    assert(back == 29u16)
  }
}
""")
    check_program(program)


def test_truncate_and_zero_extend_direction_checked():
    errs = errors_of("""
module Main {
  mut fn go() {
    let x = zero_extend<8>(any<BitInt(16)>);
    ()
  }
}
""")
    assert any("narrows" in e.message for e in errs)


def _in_go(item: str) -> str:
    return ("module Main {\n  mut fn go() {\n    let x = any<BitInt(8)>;\n    "
            f"{item};\n    ()\n  }}\n}}\n")


# Each built-in's diagnostics, message and location: the target width is
# checked first, then the argument.
@pytest.mark.parametrize("item, report", [
    ("let y = to_int(true)", "4:13: error: to_int takes a BitInt, found Bool"),
    ("let y = zero_extend<0>(x)", "4:13: error: target width must be at least 1"),
    ("let y = from_int<8>(true)", "4:25: error: type mismatch: expected Int, found Bool"),
    ("let y = truncate<9>(x)", "4:13: error: truncate<9> widens BitInt(8)"),
    ("let y = zero_extend<4>(x)", "4:13: error: zero_extend<4> narrows BitInt(8)"),
    ("let y = to_int<8>(x)", "4:13: error: unknown name 'to_int'"),
    ("let y = zero_extend(x)", "4:13: error: unknown function 'zero_extend'"),
])
def test_builtin_diagnostics_are_pinned(item, report):
    assert [e.report() for e in errors_of(_in_go(item))] == [f"t.soc:{report}"]


# A type's parts are searched in order, the type before its parts: the
# first offending part names the message.
@pytest.mark.parametrize("decl, report", [
    ("instance s: State<{ u: (), a: Array<BitInt(2), Bool> }>(());",
     "2:3: error: state values may not have unit type"),
    ("instance s: State<{ a: Array<BitInt(2), Bool>, u: () }>(());",
     "2:3: error: state values may not contain arrays"),
    ("instance s: State<{ u: (), v: Vector<Bool, 2> }>(());",
     "2:3: error: state values may not have unit type"),
    ("instance s: Array<BitInt(2), { u: (), a: Array<BitInt(2), Bool> }>;",
     "2:3: error: state values may not have unit type"),
    ("fn f(r: { u: (), v: Vector<Bool, 2> }) -> Bool { r == r }",
     "2:52: error: equality on unit values is not supported"),
    ("fn f(r: { u: (), a: Array<BitInt(2), Bool> }) -> Bool { r == r }",
     "2:59: error: equality on unit values is not supported"),
    ("fn f(r: { v: Vector<(), 2>, u: () }) -> Bool { r == r }",
     "2:50: error: equality on indexed collections is not supported "
     "(compare elements at an any-chosen index instead)"),
])
def test_the_first_offending_part_of_a_type_is_reported(decl, report):
    source = f"module Main {{\n  {decl}\n}}\n"
    assert [e.report() for e in errors_of(source)] == [f"t.soc:{report}"]


# Type equality is `==`: a record type is the set of its (name, type) fields.
def test_record_types_are_equal_as_sets_of_fields():
    ab = ast.RecordType((("a", ast.BOOL), ("b", ast.INT)))
    ba = ast.RecordType((("b", ast.INT), ("a", ast.BOOL)))
    assert ab == ba and hash(ab) == hash(ba)
    assert ast.VectorType(ab, 2) == ast.VectorType(ba, 2)
    assert ab != ast.RecordType((("a", ast.BOOL), ("b", ast.BOOL)))
    assert ab != ast.RecordType((("a", ast.BOOL),))
    assert ab != ast.RecordType((("a", ast.BOOL), ("c", ast.INT)))
    assert ab != ast.VectorType(ast.BOOL, 2)


# T<i> holds T<i-1> twice, so T60 written out has 2^60 leaves; the checker
# visits each of its 61 distinct parts a fixed number of times.
def test_a_type_that_shares_its_parts_is_checked_in_linear_time(monkeypatch):
    n = 60
    source = "type T0 = Bool;\n" + "".join(
        f"type T{i} = {{ a: T{i - 1}, b: T{i - 1} }};\n" for i in range(1, n + 1)) + (
        f"module Main {{\n  instance s: Array<BitInt(2), T{n}>;\n"
        f"  fn f(x: T{n}) -> Bool {{ x == x }}\n}}\n")
    walked, parts = [], ast.RecordType.parts
    monkeypatch.setattr(ast.RecordType, "parts", lambda t: walked.append(t) or parts(t))
    check_program(parse_program(source))
    # Once for the aliases' written types, for the state value's walk and
    # for equality's walk, and at most three times for the levels' memo.
    assert len(walked) < 6 * n


def test_scenarios_listed():
    tp = check_program(parse_program("""
module Main {
  mut fn setup(x: BitInt(8)) { () }
  fn helper() -> Bool { true }
  mut fn scenario_a() { () }
  mut fn scenario_b() { assert(true) }
}
"""))
    assert tp.scenarios() == ["scenario_a", "scenario_b"]


def test_multiple_errors_collected():
    errs = errors_of("""
module Main {
  mut fn one() { let x = 1; () }
  mut fn two() { assert(5u8) }
}
""")
    assert len(errs) >= 2


def test_member_names_are_checked_across_instances_callees_and_fns():
    # One name space per module: instances, then callees, then fns.
    errs = errors_of("""\
module Other { }
module Main {
  instance a: Other;
  instance a: Other;
  callee a: Other;
  fn a() { () }
}
""")
    assert [e.report() for e in errs] == [
        "t.soc:4:3: error: duplicate name 'a' in module Main",
        "t.soc:5:3: error: duplicate name 'a' in module Main",
        "t.soc:6:3: error: duplicate name 'a' in module Main",
    ]


def test_array_type_as_a_let_annotation():
    program = parse_program("""
module Main {
  instance m: Array<BitInt(2), BitInt(8)>;
  mut fn go() {
    let x: Array<BitInt(2), BitInt(8)> = m.get();
    assert(x[1u2] == 0u8)
  }
}
""")
    tp = check_program(program)
    let = find_expr(program, lambda n: isinstance(n, ast.Let))
    assert let.annot == ast.ArrayType(ast.BitIntType(2), ast.BitIntType(8))
    assert tp.types[let.value.node_id] == let.annot
