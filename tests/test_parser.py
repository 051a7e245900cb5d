import hashlib
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclang import ast
from soclang.diagnostics import ParseError, SocError
from soclang.lexer import STRING_ESCAPES, tokenize
from soclang.parser import parse_program

from conftest import CORPUS, REPO_ROOT, module_of, parse_expr
from printer import expr_source, to_source, walk

sys.path.insert(0, str(REPO_ROOT / "bench"))
from workloads import fresh_names, wide_model  # noqa: E402

RECORD_TYPES_SOURCE = """\
type PhysAddr = BitInt(48);
type Request = {
  is_write: Bool,
  is_secure: Bool,
  address: PhysAddr,
  value: BitInt(64)
};
type Response = {
  ok: Bool,
  value: BitInt(64)
};
"""


def test_aliases_and_record_types():
    p = parse_program(RECORD_TYPES_SOURCE, "types.soc")
    assert [a.name for a in p.aliases] == ["PhysAddr", "Request", "Response"]
    assert p.aliases[0].type == ast.BitIntType(48)
    req = p.aliases[1].type
    assert isinstance(req, ast.RecordType)
    assert [n for n, _ in req.fields] == ["is_write", "is_secure", "address", "value"]
    assert dict(req.fields)["address"] == ast.AliasRef("PhysAddr")


def test_wiring_statement():
    p = parse_program("""
module A { callee dram: B; }
module B { }
module Main {
  instance asc: A;
  instance dram: B;
  asc.dram -> dram;
}
""")
    w = module_of(p, "Main").wirings[0]
    assert w.child_path == ["asc", "dram"]
    assert w.target_path == ["dram"]


def test_instance_primitives():
    p = parse_program("""
module Main {
  instance flag: State<Bool>(true);
  instance mem: Array<BitInt(31), BitInt(64)>;
}
""")
    flag, mem = module_of(p, "Main").instances
    assert isinstance(flag.ref, ast.StatePrim)
    assert flag.ref.value_type == ast.BOOL
    assert isinstance(mem.ref, ast.ArrayPrim)
    assert mem.ref.key_type == ast.BitIntType(31)


@pytest.mark.parametrize("ref,message", [
    ("Array", "1:32: error: expected '<', found ';'"),
    ("Array<BitInt(2)>", "1:42: error: expected ',', found '>'"),
], ids=["no parameters", "one parameter"])
def test_array_instance_needs_a_key_and_a_value_type(ref, message):
    with pytest.raises(ParseError) as exc:
        parse_program(f"module Main {{ instance a: {ref}; }}", "t.soc")
    assert exc.value.report() == f"t.soc:{message}"


def test_syntax_error_on_missing_expression():
    with pytest.raises(ParseError) as exc:
        parse_program("module Main { mut fn go() { let x = ; () } }")
    assert exc.value.span.line == 1
    assert "expected expression" in exc.value.message


def test_precedence_chain():
    e = parse_expr("a || b && c == d < e + f * g")
    assert isinstance(e, ast.Binary) and e.op == "||"
    rhs = e.right
    assert rhs.op == "&&"
    eq = rhs.right
    assert eq.op == "=="
    cmp = eq.right
    assert cmp.op == "<"
    add = cmp.right
    assert add.op == "+"
    assert add.right.op == "*"


def test_slice_binds_tighter_than_unary():
    e = parse_expr("r.address[6 downto 5]")
    assert isinstance(e, ast.Slice)
    assert (e.hi, e.lo) == (6, 5)
    assert isinstance(e.base, ast.PathExpr)
    assert e.base.names == ["r", "address"]


def test_reversed_slice_rejected():
    with pytest.raises(ParseError, match="hi >= lo"):
        parse_expr("x[2 downto 5]")


def test_reversed_slice_update_rejected():
    with pytest.raises(ParseError, match="hi >= lo, got 2 downto 5"):
        parse_expr("x[2 downto 5 := [1u8]]")


def test_the_first_reversed_slice_in_a_file_is_reported():
    src = ("module Main {\n  mut fn go() {\n    let v = [1u8, 2u8];\n"
           "    let w = v[0 downto 1 := [3u8, 4u8]];\n    let x = 0u8;\n"
           "    x[1 downto 2]\n  }\n}\n")
    with pytest.raises(ParseError, match="got 0 downto 1") as info:
        parse_program(src)
    assert info.value.span.line == 4


# Each index and slice form's syntax errors, message and location.
@pytest.mark.parametrize("item, report", [
    ("let y = x[2 downto 3]",
     "4:13: error: slice bounds must satisfy hi >= lo, got 2 downto 3"),
    ("let y = x[2 downto 3 := v]",
     "4:13: error: slice bounds must satisfy hi >= lo, got 2 downto 3"),
    ("let y = x[i := v", "4:21: error: expected ']', found ';'"),
    ("let y = x[1 downto y]", "4:24: error: expected slice bound, found 'y'"),
    ("let y = x[y downto 1]", "4:15: error: slice bounds must be plain integer literals"),
    ("let y = x[1 downto 0u1]", "4:24: error: slice bound takes no width suffix"),
])
def test_index_and_slice_syntax_errors_are_pinned(item, report):
    source = f"module Main {{\n  mut fn go() {{\n    let x = 0u8;\n    {item};\n  }}\n}}\n"
    with pytest.raises(ParseError) as exc:
        parse_program(source, "t.soc")
    assert exc.value.report() == f"t.soc:{report}"


def test_dotted_call_paths():
    e = parse_expr("miniTX1.dram.storage.get()")
    assert isinstance(e, ast.Call)
    assert e.path == ["miniTX1", "dram", "storage", "get"]
    assert e.args == []


def test_record_literal_vs_block():
    rec = parse_expr("{ ok: false, value: x }")
    assert isinstance(rec, ast.RecordLit)
    blk = parse_expr("{ f(); g() }")
    assert isinstance(blk, ast.Block)
    assert blk.yields_value


def test_trailing_semicolon_yields_unit():
    blk = parse_expr("{ f(); }")
    assert isinstance(blk, ast.Block)
    assert not blk.yields_value


def test_else_if_chain():
    e = parse_expr("if a { 1u8 } else if b { 2u8 } else { 3u8 }")
    assert isinstance(e.orelse, ast.If)
    assert isinstance(e.orelse.orelse, ast.Block)


def test_printf_holes_are_parsed_expressions():
    e = parse_expr('printf("r = {r.address} done\\n")')
    assert isinstance(e, ast.Printf)
    assert e.parts == ["r = ", " done\n"]
    assert isinstance(e.holes[0], ast.PathExpr)
    assert e.holes[0].names == ["r", "address"]


def test_printf_escaped_braces():
    e = parse_expr(r'printf("literal \{x\}\n")')
    assert e.parts == ["literal {x}\n"]
    assert e.holes == []


# A piece of a format string: its source text and the text it decodes to,
# or None for a hole `{a}` with spaces and `\t` escapes around its name.
_format_pieces = st.one_of(
    st.text(alphabet="ab $%.:=n", min_size=1, max_size=4).map(lambda t: (t, t)),
    st.sampled_from(sorted(STRING_ESCAPES)).map(
        lambda k: ("\\" + k, STRING_ESCAPES[k])),
    st.tuples(st.sampled_from(["", " ", "\\t", " \\t "]), st.sampled_from(["", " ", "\\t"]))
    .map(lambda pad: ("{" + pad[0] + "a" + pad[1] + "}", None)),
)


@given(st.lists(_format_pieces, max_size=8))
@settings(max_examples=300, deadline=None)
def test_random_formats_split_into_decoded_parts_and_located_holes(pieces):
    prefix = 'printf("'
    e = parse_expr(prefix + "".join(written for written, _ in pieces) + '")')
    parts, cols, buf = [], [], ""
    col = len(prefix) + 1  # the column of the piece's first character
    for written, decoded in pieces:
        if decoded is None:
            parts.append(buf)
            buf = ""
            cols.append(col + written.index("a"))
        else:
            buf += decoded
        col += len(written)
    parts.append(buf)
    assert e.parts == parts
    assert "".join(e.parts) == "".join(d for _, d in pieces if d is not None)
    assert [(h.span.line, h.span.col) for h in e.holes] == [(1, c) for c in cols]


def test_vector_literal_and_updates():
    e = parse_expr("[1u8, 2u8][0 downto 0 := [9u8]]")
    assert isinstance(e, ast.SliceUpdate)
    e2 = parse_expr("v[i := 3u8]")
    assert isinstance(e2, ast.IndexUpdate)


def test_any_and_builtins():
    assert isinstance(parse_expr("any<BitInt(64)>"), ast.AnyExpr)
    b = parse_expr("zero_extend<64>(x)")
    assert isinstance(b, ast.Builtin) and b.width == 64
    assert parse_expr("to_int(x)").name == "to_int"
    assert parse_expr("from_int<8>(n)").width == 8


def test_enum_declaration():
    p = parse_program("enum Op { Read, Write }")
    assert p.enums[0].variants == ["Read", "Write"]


def _in_fn(statement: str) -> str:
    return "module Main { fn g() { " + statement + "; } }"


# Every comma-separated list: one closed by `}` needs an item and may end in a
# comma; one closed by `)` or `]` may be empty and may not end in a comma.
# Each source maps to None when it parses, else to its syntax error.
LIST_GRAMMAR = {
    "enum variants, trailing comma": ("enum E { A, }", None),
    "enum variants, empty": ("enum E { }", "expected variant name, found '}'"),
    "record type, trailing comma": ("type T = { a: Bool, };", None),
    "record type, empty": ("type T = { };", "expected field name, found '}'"),
    "record literal, trailing comma": (_in_fn("{ a: 1u8, }"), None),
    "params, trailing comma": ("module Main { fn g(x: Bool,) { () } }",
                               "expected parameter name, found ')'"),
    "params, empty": ("module Main { fn g() { () } }", None),
    "call args, trailing comma": (_in_fn("f(1u8,)"), "expected expression, found ')'"),
    "call args, empty": (_in_fn("f()"), None),
    "vector literal, trailing comma": (_in_fn("[1u8,]"), "expected expression, found ']'"),
    "vector literal, empty": (_in_fn("[]"), None),
}


@pytest.mark.parametrize("case", list(LIST_GRAMMAR))
def test_comma_list_grammar(case):
    source, error = LIST_GRAMMAR[case]
    if error is not None:
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        assert exc.value.message == error
        return
    program = parse_program(source)
    # A trailing comma changes nothing.
    assert program == parse_program(source.replace(", }", " }"))


def test_spans_cover_declarations_and_nest():
    src = "module Main {\n  mut fn go() {\n    f(x[6 downto 5])\n  }\n}\n"
    p = parse_program(
        "module F { }\n" + src.replace("f(", "noop("), "spans.soc")
    mod = p.modules[1]
    span = mod.span
    assert (span.line, span.file) == (2, "spans.soc")
    assert not span.synthetic
    call = mod.fns[0].body.items[0]
    sl = call.args[0]
    assert isinstance(sl, ast.Slice)
    # Nested slice span sits inside its enclosing call's span.
    assert call.span.line <= sl.span.line
    assert sl.span.col >= call.span.col
    assert ast.Program([], [], []).span.synthetic


# -- node semantics -------------------------------------------------------------


def test_node_equality_ignores_span_node_id_and_hex():
    here = ast.SourceSpan("a.soc", 1, 2, 1, 6)
    there = ast.SourceSpan("b.soc", 9, 9, 9, 13)
    a = ast.Binary(here, "+", ast.IntLit(here, 16, 8, hex=True), ast.PathExpr(here, ["x"]))
    b = ast.Binary(there, "+", ast.IntLit(there, 16, 8), ast.PathExpr(there, ["x"]))
    assert a.node_id != b.node_id
    assert a == b and not a != b
    assert a != ast.Binary(here, "-", a.left, a.right)
    assert ast.IntLit(here, 16, 8) != ast.IntLit(here, 16, 16)
    assert ast.IntLit(here, 1) != ast.BoolLit(here, True)
    assert ast.Param("p", ast.BOOL, here) == ast.Param("p", ast.BOOL, there)


def test_spans_and_type_nodes_are_hashable_by_value():
    assert ast.SourceSpan("a.soc", 1, 2, 1, 6) == ast.SourceSpan("a.soc", 1, 2, 1, 6)
    assert ast.SourceSpan("a.soc", 1, 2, 1, 6) != ast.SourceSpan("a.soc", 1, 2, 1, 7)
    assert len({ast.SourceSpan("a.soc", 1, 2, 1, 6), ast.SourceSpan("a.soc", 1, 2, 1, 6)}) == 1
    record = ast.RecordType((("ok", ast.BOOL), ("v", ast.VectorType(ast.BitIntType(8), 4))))
    table = {ast.BitIntType(8): "byte", ast.BoolType(): "bool", record: "record",
             ast.ArrayType(ast.BitIntType(3), ast.INT): "array"}
    assert table[ast.BitIntType(8)] == "byte"
    assert table[ast.BOOL] == "bool"
    assert table[ast.RecordType((("ok", ast.BoolType()),
                                 ("v", ast.VectorType(ast.BitIntType(8), 4))))] == "record"
    assert table[ast.ArrayType(ast.BitIntType(3), ast.IntType())] == "array"
    mode = ast.EnumRef("Mode", ("Off", "On"))
    assert ast.BitIntType(16) not in table and mode not in table
    assert mode == ast.EnumRef("Mode", ("Off", "On")) != ast.AliasRef("Mode")
    assert hash(mode) == hash(ast.EnumRef("Mode", ("Off", "On")))
    assert ast.BoolType() != ast.IntType()


def test_node_repr_shows_the_compared_fields():
    span = ast.SourceSpan("a.soc", 1, 2, 1, 6)
    assert repr(ast.IntLit(span, 16, 8, hex=True)) == "IntLit(value=16, width=8)"
    assert repr(ast.VectorType(ast.BitIntType(8), 4)) == \
        "VectorType(elem=BitIntType(width=8), length=4)"
    assert repr(ast.BOOL) == "BoolType()"
    assert repr(span) == ("SourceSpan(file='a.soc', line=1, col=2, end_line=1, "
                          "end_col=6, synthetic=False)")
    assert ast.IntLit._fields == ("span", "node_id", "value", "width", "hex")


# -- round trips -------------------------------------------------------------


def corpus_files():
    return sorted(CORPUS.glob("*.soc"))


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_parse_pretty_roundtrip_on_corpus(path: Path):
    source = path.read_text()
    program = parse_program(source, path.name)
    printed = to_source(program)
    reparsed = parse_program(printed, path.name)
    assert reparsed == program  # structural equality ignores spans
    assert to_source(reparsed) == printed  # pretty-print fixpoint


# The round trip catches a printer that writes a record type's fields in
# another order, though record types compare their fields as a set.
@pytest.mark.parametrize("name", ["mini_tx1_fixed.soc", "mini_tx1_vulnerable.soc"])
def test_roundtrip_fails_for_a_printer_that_reverses_record_type_fields(monkeypatch, name):
    def reversed_fields(t: ast.RecordType) -> str:
        return "{ " + ", ".join(f"{n}: {ft}" for n, ft in reversed(t.fields)) + " }"

    monkeypatch.setattr(ast.RecordType, "__str__", reversed_fields)
    with pytest.raises(AssertionError):
        test_parse_pretty_roundtrip_on_corpus(CORPUS / name)


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
def test_ast_is_a_tree_not_a_dag(path: Path):
    program = parse_program(path.read_text(), path.name)
    seen = set()
    for mod in program.modules:
        for fn in mod.fns:
            for node in walk(fn.body):
                assert id(node) not in seen, "AST node shared between parents"
                seen.add(id(node))


# Random expression round trips through the pretty printer.

_names = st.sampled_from(["a", "b", "c", "r"])


def _exprs():
    leaves = st.one_of(
        st.builds(lambda v: ast.IntLit(ast.SYNTHETIC, v, 8), st.integers(0, 255)),
        st.builds(lambda b: ast.BoolLit(ast.SYNTHETIC, b), st.booleans()),
        st.builds(lambda n: ast.PathExpr(ast.SYNTHETIC, [n]), _names),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda l, r, op: ast.Binary(ast.SYNTHETIC, op, l, r),
                      children, children,
                      st.sampled_from(["+", "-", "*", "==", "<", "&&", "||"])),
            st.builds(lambda x, op: ast.Unary(ast.SYNTHETIC, op, x),
                      children, st.sampled_from(["!", "-"])),
            st.builds(lambda x: ast.Slice(ast.SYNTHETIC, x, 6, 5), children),
            st.builds(lambda x, i: ast.Index(ast.SYNTHETIC, x, i), children, children),
            # The parser keeps pure name chains as PathExpr, so a canonical
            # FieldAccess only appears over non-path bases.
            st.builds(
                lambda x, n: ast.PathExpr(ast.SYNTHETIC, x.names + [n])
                if isinstance(x, ast.PathExpr)
                else ast.FieldAccess(ast.SYNTHETIC, x, n),
                children, _names),
            st.builds(lambda c, t, e: ast.If(
                ast.SYNTHETIC, c,
                ast.Block(ast.SYNTHETIC, [t], True),
                ast.Block(ast.SYNTHETIC, [e], True)), children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_random_expr_roundtrip(e):
    printed = expr_source(e)
    reparsed = parse_expr(printed)
    assert reparsed == e, f"round trip failed for {printed!r}"


# -- parity pin ----------------------------------------------------------------
# Recorded from the parser with one method per precedence level that the
# precedence-climbing loop replaced. Unlike `==`, the dump includes every
# span and the order in which nodes were created (node ids, which count
# from 0 in each parse, dumped from 1 as when the pin was recorded).
# Re-recorded once since, when printf holes took their place in the file:
# only the spans of the nodes inside holes changed.

CORPUS_ASTS_SHA256 = "e8aac4bbb690a9e312513815fd35697cfcd7d82c137dafeee3b1a85cf4ef4fca"


def _dump(node, base: int) -> str:
    if isinstance(node, ast.Node):
        parts = [type(node).__name__]
        for name in node._fields:
            value = getattr(node, name)
            text = str(value - base) if name == "node_id" else _dump(value, base)
            parts.append(f"{name}={text}")
        return "(" + " ".join(parts) + ")"
    if isinstance(node, (list, tuple)):
        return "[" + ", ".join(_dump(x, base) for x in node) + "]"
    return repr(node)


def test_corpus_asts_with_spans_are_pinned():
    digest = hashlib.sha256()
    paths = sorted(CORPUS.rglob("*.soc"))
    for path in paths:
        name = path.relative_to(CORPUS).as_posix()
        digest.update(f"file {name}\n".encode())
        try:
            program = parse_program(path.read_text(encoding="utf-8"), name)
        except SocError as err:
            digest.update(f"{type(err).__name__} {err.report()}\n".encode())
            continue
        digest.update(_dump(program, -1).encode() + b"\n")
    assert len(paths) == 29
    assert digest.hexdigest() == CORPUS_ASTS_SHA256


# The parser frees each token once it has moved past it, so parsing holds
# little beyond the AST it returns. A parse that kept every token to the end
# would peak ≈85 bytes per token above its AST.
def test_parse_peaks_at_most_32_bytes_per_token_above_its_ast():
    model = (CORPUS / "mini_tx1_vulnerable.soc").read_text(encoding="utf-8")
    source = wide_model(model, fresh_names(random.Random(1), 12))
    parse_program(model, "warm-up.soc")
    tracemalloc.start()
    try:
        program = parse_program(source, "wide.soc")
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tokens = len(tokenize(source))
    assert len(program.modules) > 12 and tokens >= 10_000
    assert (peak - live) / tokens <= 32
