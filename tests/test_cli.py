import json
import os
import re
import subprocess
import sys

import pytest

from soclang import engine as eng
from soclang.ast import MAX_NESTING

from conftest import (CORPUS, INSTANCE_NESTING, REPO_ROOT, call_chain, instance_chain, load_file,
                      requires_z3, run_cli)

VULN = str(CORPUS / "mini_tx1_vulnerable.soc")
FIXED = str(CORPUS / "mini_tx1_fixed.soc")


def _choice_names(path: str, scenario: str) -> list:
    """The names `verify` declares for the scenario's choices, in order."""
    tp, tree, layout = load_file(path)
    return [f"c{i.vid}" for i in eng.sym_exec(tp, tree, layout, scenario).registry.infos]


# Step 1 (is_write, address, value, denied-response filler), step 2 (the
# same), then the probed address.
VULN_CHOICES = _choice_names(VULN, "test_secure_area_unchanged")


def test_check_ok_on_corpus_model():
    code, out, err = run_cli("check", VULN)
    assert code == 0 and err == ""


def test_check_reports_diagnostics_with_location():
    bad = str(CORPUS / "ill-typed" / "vector_equality.soc")
    code, out, err = run_cli("check", bad)
    assert code == 1
    assert "error:" in err
    assert "vector_equality.soc:5" in err
    assert "not supported" in err


def test_check_missing_file():
    code, _, err = run_cli("check", "no/such/file.soc")
    assert code == 1 and "error" in err


# A command line that does not parse is an error like any other: one
# `error:` line and exit 1, never argparse's exit 2, which `run`, `trace`
# and `verify` use for a failed assertion.
USAGE_ERRORS = {
    "verify without --scenario": (["verify", FIXED],
                                  "the following arguments are required: --scenario"),
    "run with a seed that is no int": (["run", FIXED, "--scenario", "base_case",
                                        "--seed", "abc"],
                                       "argument --seed: invalid int value: 'abc'"),
    "trace without --model": (["trace", FIXED, "--scenario", "base_case"],
                              "the following arguments are required: --model"),
    "unknown command": (["frob"], "argument command: invalid choice: 'frob'"),
    "no command": ([], "the following arguments are required: command"),
    "negative capacity": (["run", FIXED, "--scenario", "base_case", "--capacity", "-3"],
                          "argument --capacity: must be at least 0, got -3"),
    "capacity that is no int": (["trace", FIXED, "--scenario", "base_case", "--model", "m",
                                 "--capacity", "1.5"],
                                "argument --capacity: invalid int value: '1.5'"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_is_one_error_line(capsys, case):
    from soclang import cli

    argv, message = USAGE_ERRORS[case]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_usage_error_exits_1_from_the_process():
    code, out, err = run_cli("verify", FIXED)
    assert (code, out) == (1, "")
    assert err == "error: the following arguments are required: --scenario\n"


def test_help_exits_0(capsys):
    from soclang import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: soclang run")


@pytest.mark.parametrize("text, line", [("", 1), ("// only a comment\n/* and\n this */\n", 4)],
                         ids=["empty", "comments only"])
def test_check_without_modules_is_located_in_the_file(tmp_path, capsys, text, line):
    from soclang import cli

    path = tmp_path / "empty.soc"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:{line}:1: error: no root module 'Main'\n"


# A printf hole is located in the file: its tokens take the line of the
# format string and the column of their text in the source, where an
# escape, before the hole or inside it, counts as its two source characters.
# A hole that does not lex is reported at the string, as one that does not
# parse is.
HOLES = {
    "unknown name": (["check"], 'printf("value {a.f} and {nope}")',
                     1, "", ":4:30: error: unknown name 'nope'\n"),
    "assertion": (["run", "--scenario", "s"], 'printf("v {assert(a.f == 3u8)}")',
                  2, "FAILED ASSERTION at {path}:4\n", ""),
    "bad character": (["check"], 'printf("v {a $ 1}")', 1, "",
                      ":4:12: error: bad format hole {a $ 1}: unexpected character '$'\n"),
    "after an escape": (["check"], 'printf("x\\ty {a.g}")', 1, "",
                        ":4:19: error: record { f: BitInt(8) } has no field 'g'\n"),
    "escape inside the hole": (["check"], 'printf("v {\\ta.g}")', 1, "",
                               ":4:18: error: record { f: BitInt(8) } has no field 'g'\n"),
    "newline inside the hole": (["check"], 'printf("v {a.f +\\n nope}")', 1, "",
                                ":4:24: error: unknown name 'nope'\n"),
}


@pytest.mark.parametrize("case", list(HOLES))
def test_printf_hole_is_located_in_the_file(tmp_path, capsys, case):
    from soclang import cli

    command, printf, code, out, err = HOLES[case]
    path = tmp_path / "hole.soc"
    path.write_text("module Main {\n  mut fn s() {\n    let a = { f: 2u8 };\n"
                    f"    {printf}\n  }}\n}}\n")
    assert cli.main([command[0], str(path), *command[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == out.format(path=path)
    assert captured.err == (f"{path}{err}" if err else "")


# An escaped backslash before a brace is a backslash: the brace after it
# opens a hole or is a stray one.
ESCAPED_BACKSLASHES = {
    "before a hole": (["run", "--scenario", "s"], 'printf("x\\\\{a.f}\\n")',
                      0, "x\\2\npassed\n", ""),
    "before a stray brace": (["check"], 'printf("x\\\\}")', 1, "",
                             ":4:12: error: stray '}' in format string (escape as \\})\n"),
}


@pytest.mark.parametrize("case", list(ESCAPED_BACKSLASHES))
def test_escaped_backslash_before_a_brace(tmp_path, capsys, case):
    from soclang import cli

    command, printf, code, out, err = ESCAPED_BACKSLASHES[case]
    path = tmp_path / "fmt.soc"
    path.write_text("module Main {\n  mut fn s() {\n    let a = { f: 2u8 };\n"
                    f"    {printf}\n  }}\n}}\n")
    assert cli.main([command[0], str(path), *command[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == (f"{path}{err}" if err else "")


def _deep_parentheses(tmp_path, depth):
    f = tmp_path / "deep.soc"
    expr = "(" * depth + "1u8" + ")" * depth
    f.write_text("module Main {\n  mut fn go() {\n"
                 f"    let x = {expr};\n    assert(x == 1u8)\n  }}\n}}\n")
    return f


def test_deep_parentheses_within_the_stack_pass_check_and_run(tmp_path):
    f = _deep_parentheses(tmp_path, 100)
    assert run_cli("check", str(f)) == (0, "", "")
    code, out, err = run_cli("run", str(f), "--scenario", "go")
    assert (code, out.strip(), err) == (0, "passed", "")


@pytest.mark.parametrize("depth", [500, 5000])
def test_check_deep_parentheses_is_a_located_diagnostic(tmp_path, depth):
    f = _deep_parentheses(tmp_path, depth)
    code, _, err = run_cli("check", str(f))
    assert code == 1
    assert f"{f}:3:" in err and "error:" in err
    assert "Traceback" not in err


# Sources are UTF-8: an invalid byte is a located error, even in a comment.
def test_check_invalid_utf8_is_a_located_diagnostic(tmp_path):
    f = tmp_path / "f.soc"
    f.write_bytes(b"module Main {\n  // caf\xc3\xa9 \xff\xfe\n}\n")
    assert run_cli("check", str(f)) == (1, "", f"{f}:2:11: error: invalid UTF-8 byte 0xff\n")


# Identifiers and digits are ASCII: other characters, and a literal cut off
# after `0x`, are located errors and never a traceback.
BAD_NUMBERS = {
    "non-ASCII digit": ("module Main {\n  fn f() {\n    let x = \u00b2;\n  }\n}\n",
                        ":3:13: error: unexpected character"),
    "0x at end of file": ("module Main {\n  fn f() {\n    0x", ":3:5: error: expected hex digits"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_check_bad_number_is_a_located_diagnostic(tmp_path, case):
    source, where = BAD_NUMBERS[case]
    f = tmp_path / "bad.soc"
    f.write_text(source, encoding="utf-8")
    code, _, err = run_cli("check", str(f))
    assert code == 1
    assert f"{f}{where}" in err
    assert "Traceback" not in err


# Numbers the toolchain does not build, each one `error:` line and exit 1
# from every command that reaches it: a bit width past `ast.MAX_WIDTH`,
# checked where the width is read; decimal text past the interpreter's digit
# limit; an Int constant too long to print or to emit in decimal; and a model
# sort past the width budget. `{file}` is the model, `{tmp}` the test's
# directory, and `zeros.smt2` there an empty solver model.
HUGE, DIGITS, HEX_INT = "100000000000000", "9" * 5000, "0x" + "f" * 4000
HUGE_NUMBERS = {
    "BitInt width": (f"let x: BitInt({HUGE}) = 5", ["check", "{file}"],
                     ":3:12: error: BitInt width must be at most 4096"),
    "u suffix": (f"let x = 5u{HUGE}", ["check", "{file}"],
                 ":3:13: error: bit width must be at most 4096"),
    "built-in width": (f"let x = zero_extend<{HUGE}>(1u8)", ["check", "{file}"],
                       ":3:13: error: target width must be at most 4096"),
    "run of a wide any": (f"let x = any<BitInt({HUGE}000000)>",
                          ["run", "{file}", "--scenario", "go"],
                          ":3:17: error: BitInt width must be at most 4096"),
    "trace of a wide any": (f"let x = any<BitInt({HUGE}000000)>",
                            ["trace", "{file}", "--scenario", "go", "--model", "{tmp}/zeros.smt2"],
                            ":3:17: error: BitInt width must be at most 4096"),
    "5,000-digit value": (f"let x: Int = {DIGITS}", ["check", "{file}"],
                          ":3:18: error: number literal has too many digits"),
    "5,000-digit BitInt width": (f"let x: BitInt({DIGITS}) = 1", ["check", "{file}"],
                                 ":3:19: error: number literal has too many digits"),
    "5,000-digit suffix": (f"let x = 1u{DIGITS}", ["check", "{file}"],
                           ":3:13: error: number literal has too many digits"),
    "hex literal past the digit limit": (
        f"let x: BitInt(8) = {HEX_INT}", ["check", "{file}"],
        f":3:24: error: literal {HEX_INT} does not fit in 8 bits"),
    "hex index past the digit limit": (
        f"let v = [true, false];\n    let b = v[{HEX_INT}]", ["check", "{file}"],
        f":4:13: error: index {HEX_INT} out of range for Vector<Bool, 2>"),
    "hex vector length past the digit limit": (
        f"let v: Vector<Bool, {HEX_INT}> = [true]", ["check", "{file}"],
        f":3:{29 + len(HEX_INT)}: error: vector literal has 1 elements, expected {HEX_INT}"),
    "Int too long to print": (f'let n: Int = {HEX_INT};\n    printf("{{n}}")',
                              ["run", "{file}", "--scenario", "go"],
                              "error: Int value of 16000 bits is too long to write in decimal"),
    "Int too long to emit": (f"let n = any<Int>;\n    assert(n != {HEX_INT})",
                             ["verify", "{file}", "--scenario", "go",
                              "--solver", "sh -c 'echo unknown'"],
                             "error: Int value of 16000 bits is too long to write in decimal"),
    "model sort past the width budget": (
        None, ["trace", FIXED, "--scenario", "base_case", "--model", "{tmp}/wide.smt2"],
        "error: model value of c5_0: unsupported sort (_ BitVec 100000000000000000000)"),
}


@pytest.mark.parametrize("case", list(HUGE_NUMBERS))
def test_numbers_past_the_budget_are_one_error_line(tmp_path, capsys, case):
    from soclang import cli

    item, argv, where = HUGE_NUMBERS[case]
    path = tmp_path / "n.soc"
    path.write_text(_in_go(item or "()"))
    (tmp_path / "zeros.smt2").write_text("")
    (tmp_path / "wide.smt2").write_text(
        "((define-fun c5_0 () (_ BitVec 100000000000000000000) (_ bv0 100000000000000000000)))")
    argv = [a.replace("{file}", str(path)).replace("{tmp}", str(tmp_path)) for a in argv]
    expected = (where if where.startswith("error:") else f"{path}{where}") + "\n"
    assert run_cli(*argv) == (1, "", expected)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", expected)


def _tree_text(levels: int) -> str:
    return "Bool" if levels == 0 else \
        f"{{ a: {_tree_text(levels - 1)}, b: {_tree_text(levels - 1)} }}"


def test_a_type_that_doubles_per_level_is_one_short_error_line(tmp_path, capsys):
    # T<i> names T<i - 1> twice, so the text of T20 as a tree is 16.8 MB;
    # a message cuts a type's text after `ast.TYPE_TEXT_LIMIT` characters.
    from soclang import ast, cli

    aliases = "".join(f"type T{i} = {{ a: T{i - 1}, b: T{i - 1} }};\n" for i in range(1, 21))
    path = tmp_path / "t20.soc"
    path.write_text("type T0 = Bool;\n" + aliases
                    + "module Main {\n  fn f(x: T20) -> Bool { x }\n}\n")
    # The first 14 levels open before T6's text begins; T6's text is longer than the cut.
    found = ("{ a: " * 14 + _tree_text(6))[:ast.TYPE_TEXT_LIMIT] + "..."
    expected = f"{path}:23:26: error: type mismatch: expected Bool, found {found}\n"
    assert run_cli("check", str(path)) == (1, "", expected)
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", expected)


# Syntax errors where the parser looks ahead or runs out of input: each
# `check` diagnostic is pinned whole, message and location.
CUT_SHORT = {
    "block at end of file": ("module Main { fn f() -> Bool { {x",
                             ":1:34: error: expected '}', found 'end of file'\n"),
    "record literal at end of file": ("module Main { fn f() -> Bool { { x :",
                                      ":1:37: error: expected expression, found 'end of file'\n"),
    "hole that ends early": ('module Main {\n  mut fn s() {\n    let a = { f: 2u8 };\n'
                             '    printf("{a +}")\n  }\n}\n',
                             ":4:12: error: bad format hole {a +}: expected expression, "
                             "found 'end of file'\n"),
    "unterminated hole": ('module Main {\n  mut fn s() {\n    let a = { f: 2u8 };\n'
                          '    printf("{a" )\n  }\n}\n',
                          ":4:12: error: unterminated format hole\n"),
}


@pytest.mark.parametrize("case", list(CUT_SHORT))
def test_check_cut_short_syntax_is_pinned(tmp_path, case):
    source, where = CUT_SHORT[case]
    f = tmp_path / "cut.soc"
    f.write_text(source, encoding="utf-8")
    assert run_cli("check", str(f)) == (1, "", f"{f}{where}")


# The parser counts its levels: the `let`'s value is at level 1, so the 129th
# parenthesis opens the first level past the budget.
def test_check_300_deep_parentheses_is_nesting_too_deep(tmp_path):
    f = _deep_parentheses(tmp_path, 300)
    assert run_cli("check", str(f)) == (
        1, "", f"{f}:3:{13 + MAX_NESTING}: error: nesting too deep, found '('\n")


# The front end alone serves these commands; the engine and SMT-LIB layers,
# `dataclasses` with the `inspect` it pulls in, and `json`, which only
# `--trace-json` uses, must not load, since every `check` would pay for
# their import.
@pytest.mark.parametrize("command", ["check", "dump-tree"])
def test_front_end_commands_do_not_import_the_engine(command):
    probe = ("import sys\n"
             "from soclang import cli\n"
             f"code = cli.main([{command!r}, {VULN!r}])\n"
             "heavy = ['soclang.engine', 'soclang.smtlib', 'soclang.terms',\n"
             "         'dataclasses', 'inspect', 'json']\n"
             "print(code, [m for m in heavy if m in sys.modules], file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stderr.strip() == "0 []"


# `run`, `trace` and `verify` build terms, which are no dataclasses, so
# neither `dataclasses` nor the `inspect` it pulls in may load: every
# answer's process would pay for their import.
@pytest.mark.parametrize("command", ["run", "trace", "verify"])
def test_engine_commands_do_not_import_dataclasses(tmp_path, command):
    zero = tmp_path / "zero.smt2"
    zero.write_text("()\n")
    options, code = {"run": ([], 0), "trace": (["--model", str(zero)], 0),
                     "verify": (["--solver", "sh -c 'echo unknown' {file}"], 3)}[command]
    argv = [command, FIXED, "--scenario", "base_case", *options]
    probe = ("import sys\n"
             "from soclang import cli\n"
             f"code = cli.main({argv!r})\n"
             "print(code, [m for m in ('dataclasses', 'inspect') if m in sys.modules],\n"
             "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stderr.strip() == f"{code} []"


# `trace` parses a model and replays it; it starts no solver, so the solver
# layer's `subprocess` and `shlex` must not load.
def test_trace_does_not_import_the_solver_process_modules(tmp_path):
    empty = tmp_path / "zero.smt2"
    empty.write_text("()\n")
    probe = ("import sys\n"
             "from soclang import cli\n"
             f"code = cli.main(['trace', {FIXED!r}, '--scenario', 'base_case',\n"
             f"                 '--model', {str(empty)!r}])\n"
             "print(code, [m for m in ('subprocess', 'shlex') if m in sys.modules],\n"
             "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stderr.strip() == "0 []"


# The chain and its `true` fill the budget: the `let`'s value is at level 1.
def test_negation_chain_within_the_stack_passes_check_and_run(tmp_path):
    f = tmp_path / "deep.soc"
    f.write_text("module Main {\n  mut fn go() {\n    let x = " + "!" * (MAX_NESTING - 1)
                 + "true;\n    assert(!x)\n  }\n}\n")
    assert run_cli("check", str(f)) == (0, "", "")
    code, out, err = run_cli("run", str(f), "--scenario", "go")
    assert (code, out.strip(), err) == (0, "passed", "")


# Both parse: the parser reads a chain of prefix operators or of `else if`s
# in a loop. The checker counts the levels of the tree; the diagnostic points
# into the expression that nests too deep: the `!` chain on line 3, or an
# `else if` on lines 4 to 503.
DEEP_FOR_THE_CHECKER = {
    "negation": ("    let x = " + "!" * 600 + "true;\n    assert(x)\n", range(3, 4)),
    "else-if": ("    let x = any<Bool>;\n    if x { () }\n"
                + "    else if x { () }\n" * 499 + "    else { () }\n", range(4, 504)),
}


@pytest.mark.parametrize("shape", sorted(DEEP_FOR_THE_CHECKER))
def test_check_deep_expression_is_a_located_diagnostic(tmp_path, shape):
    body, lines = DEEP_FOR_THE_CHECKER[shape]
    f = tmp_path / "deep.soc"
    f.write_text("module Main {\n  mut fn go() {\n" + body + "  }\n}\n")
    code, _, err = run_cli("check", str(f))
    assert code == 1
    match = re.fullmatch(re.escape(str(f)) + r":(\d+):\d+: error: nesting too deep\n", err)
    assert match and int(match.group(1)) in lines, err


# Instance cycles and instance chains deeper than the stack are located errors
# from every front-end command, never a traceback.
@pytest.mark.parametrize("command", ["check", "dump-tree"])
@pytest.mark.parametrize("case", list(INSTANCE_NESTING))
def test_instance_cycle_is_a_located_diagnostic(tmp_path, command, case):
    source, where = INSTANCE_NESTING[case]
    f = tmp_path / "cyc.soc"
    f.write_text(source)
    assert run_cli(command, str(f)) == (1, "", f"{f}{where}\n")


def test_dump_tree_is_stable():
    code1, out1, _ = run_cli("dump-tree", VULN)
    code2, out2, _ = run_cli("dump-tree", VULN)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "Main : Main"
    assert any("miniTX1.asc.region3.ATTR" in ln for ln in out1.splitlines())


def test_run_trivial_assert_passes(tmp_path):
    f = tmp_path / "triv.soc"
    f.write_text("module Main { mut fn s() { assert(true) } }\n")
    code, out, _ = run_cli("run", str(f), "--scenario", "s")
    assert code == 0
    assert out.strip() == "passed"


def test_run_assume_failure_exits_4(tmp_path):
    f = tmp_path / "asm.soc"
    f.write_text("module Main { mut fn s() { assume(false); () } }\n")
    code, out, _ = run_cli("run", str(f), "--scenario", "s")
    assert code == 4
    assert "ASSUMPTION INFEASIBLE at" in out


def test_run_assertion_failure_exits_2(tmp_path):
    f = tmp_path / "bad.soc"
    f.write_text("module Main { mut fn s() { assert(false) } }\n")
    code, out, _ = run_cli("run", str(f), "--scenario", "s")
    assert code == 2
    assert "FAILED ASSERTION at" in out


def test_run_unknown_scenario_is_a_tool_error(tmp_path):
    f = tmp_path / "t.soc"
    f.write_text("module Main { mut fn s() { assert(true) } }\n")
    code, _, err = run_cli("run", str(f), "--scenario", "nope")
    assert code == 1 and "no scenario" in err


def test_trace_json_events(tmp_path):
    f = tmp_path / "ev.soc"
    f.write_text("""
module Helper { mut fn hello(n: BitInt(8)) -> BitInt(8) { printf("n={n}\\n"); n } }
module Main {
  instance h: Helper;
  mut fn s() { let x = h.hello(7u8); assert(x == 7u8) }
}
""")
    code, out, _ = run_cli("run", str(f), "--scenario", "s", "--trace-json")
    assert code == 0
    events = [json.loads(ln) for ln in out.splitlines()
              if ln.startswith("{")]
    calls = [e for e in events if e["event"] == "call"]
    assert calls and calls[0]["fn"] == "h.hello"
    assert calls[0]["args"] == {"n": "7"}
    assert any(e["event"] == "printf" for e in events)
    assert any(e["event"] == "return" and e["value"] == "7" for e in events)


# A record flows between equal record types whose fields are declared in
# different orders, through a symbolic `if` that writes `p` in one arm and
# `q` in the other; a record holding an empty vector is printed too. The
# values print in each type's declaration order, and the VC's conjuncts
# follow the field order of each merged tree.
FIELD_ORDER_CLI_MODEL = """\
type A = { x: BitInt(8), y: Bool };
type B = { y: Bool, x: BitInt(8) };
type H = { tag: BitInt(2), none: Vector<BitInt(2), 0> };
module Main {
  instance p: State<B>({ y: false, x: 0u8 });
  instance q: State<B>({ x: 5u8, y: true });
  mut fn s() {
    let a: A = { x: any<BitInt(8)>, y: any<Bool> };
    if any<Bool> { p.set(a) } else { q.set(a) };
    let b = p.get();
    let c = q.get();
    printf("a={a} p={b} q={c} eq={b == a} {a == c}\\n");
    let h: H = { tag: 1u2, none: [] };
    printf("h={h}\\n");
    assert(b == a || c == a)
  }
}
"""

FIELD_ORDER_RUNS = {
    0: ("{ x: 197, y: false }", "{ y: false, x: 197 }", "{ y: true, x: 5 }", "true false"),
    1: ("{ x: 68, y: false }", "{ y: false, x: 0 }", "{ y: false, x: 68 }", "false true"),
    2: ("{ x: 28, y: true }", "{ y: true, x: 28 }", "{ y: true, x: 5 }", "true false"),
    3: ("{ x: 121, y: false }", "{ y: false, x: 121 }", "{ y: true, x: 5 }", "true false"),
}


@pytest.mark.parametrize("seed", sorted(FIELD_ORDER_RUNS))
def test_records_of_reordered_types_run_and_print_in_declaration_order(tmp_path, seed):
    f = tmp_path / "fo.soc"
    f.write_text(FIELD_ORDER_CLI_MODEL)
    a, p, q, eq = FIELD_ORDER_RUNS[seed]
    lines = [f"a={a} p={p} q={q} eq={eq}\n", "h={ tag: 1, none: [] }\n"]
    code, out, err = run_cli("run", str(f), "--scenario", "s", "--seed", str(seed),
                             "--trace-json")
    assert (code, err) == (0, "")
    assert out == "".join(lines) + "".join(
        json.dumps({"event": "printf", "text": ln}) + "\n" for ln in lines) + "passed\n"


def test_records_of_reordered_types_dump_vc(tmp_path):
    f = tmp_path / "fo.soc"
    f.write_text(FIELD_ORDER_CLI_MODEL)
    code, out, err = run_cli("verify", str(f), "--scenario", "s", "--dump-vc",
                             "--solver", "sh -c 'echo unknown'")
    assert (code, err) == (3, "")
    assert out == """\
(set-logic QF_ABV)
(set-option :produce-models true)
(declare-const c6_0 (_ BitVec 8))
(declare-const c7_0 Bool)
(declare-const c10_0 Bool)
(assert (not (or (and (= (ite c10_0 c6_0 (_ bv0 8)) c6_0) (= (ite c10_0 c7_0 false) c7_0)) \
(and (= (ite c10_0 true c7_0) c7_0) (= (ite c10_0 (_ bv5 8) c6_0) c6_0)))))
(check-sat)
(get-model)
unknown: unknown
"""


# Each comparison on BitInt(8) and on Int operands, and an enum-valued `any`,
# whose range bound is a `bvult`: the emitted names are pinned byte for byte.
COMPARISONS_MODEL = """\
enum Mode { Off, Idle, On }
module Main {
  mut fn go() {
    let a = any<BitInt(8)>;
    let b = any<BitInt(8)>;
    let m = any<Int>;
    let n = any<Int>;
    let k = any<Mode>;
    assert(a < b || a <= b || a > b || a >= b || k == Mode.On);
    assert(m < n || m <= n || m > n || m >= n)
  }
}
"""


def test_comparisons_dump_vc(tmp_path):
    f = tmp_path / "cmp.soc"
    f.write_text(COMPARISONS_MODEL)
    assert run_cli("verify", str(f), "--scenario", "go", "--dump-vc",
                   "--solver", "sh -c 'echo unknown'") == (3, """\
(set-logic ALL)
(set-option :produce-models true)
(declare-const c0_0 (_ BitVec 8))
(declare-const c2_0 (_ BitVec 8))
(declare-const c4_0 Int)
(declare-const c6_0 Int)
(declare-const c8_0 (_ BitVec 2))
(assert (and (bvult c8_0 (_ bv3 2)) (or (not (or (or (or (or (bvult c0_0 c2_0) \
(bvule c0_0 c2_0)) (bvult c2_0 c0_0)) (bvule c2_0 c0_0)) (= c8_0 (_ bv2 2)))) \
(not (or (or (or (< c4_0 c6_0) (<= c4_0 c6_0)) (< c6_0 c4_0)) (<= c6_0 c4_0))))))
(check-sat)
(get-model)
unknown: unknown
""", "")


@requires_z3
def test_verify_exit_codes_and_model_cache(tmp_path):
    model = tmp_path / "m.smt2"
    smt = tmp_path / "q.smt2"
    code, out, _ = run_cli("verify", VULN, "--scenario", "test_secure_area_unchanged",
                           "--dump-model", str(model), "--dump-smt", str(smt))
    assert code == 2
    assert "FAILED ASSERTION at" in out
    assert model.exists() and smt.exists()
    assert "(set-logic QF_ABV)" in smt.read_text()

    code2, out2, _ = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                             "--model", str(model))
    assert code2 == 2
    # Byte-for-byte: verify output ends with the model path line; strip it.
    verify_lines = out.splitlines(keepends=True)
    assert verify_lines[-1].startswith("model written to")
    assert "".join(verify_lines[:-1]) == out2


@requires_z3
def test_verify_proven_prints_manual_step_note(tmp_path):
    code, out, _ = run_cli("verify", FIXED, "--scenario", "inductive_step")
    assert code == 0
    assert out.startswith("unsat:")
    assert "manual step" in out


@requires_z3
def test_verify_dump_vc_prints_smtlib(tmp_path):
    code, out, _ = run_cli("verify", FIXED, "--scenario", "base_case", "--dump-vc")
    assert code == 0
    assert "(set-logic" in out and "(check-sat)" in out


@requires_z3
def test_emitted_smtlib_is_identical_across_processes(tmp_path):
    # Choice-variable names and emission order must be stable run to run.
    a, b = tmp_path / "a.smt2", tmp_path / "b.smt2"
    for path in (a, b):
        code, _, _ = run_cli("verify", VULN, "--scenario",
                             "test_secure_area_unchanged",
                             "--dump-smt", str(path),
                             "--dump-model", str(tmp_path / "m.smt2"))
        assert code == 2
    assert a.read_bytes() == b.read_bytes()


def test_verify_timeout_exits_3(tmp_path):
    slow = f"{sys.executable} -c \"import time; time.sleep(30)\" {{file}}"
    code, out, _ = run_cli("verify", FIXED, "--scenario", "base_case",
                           "--solver", slow, "--timeout", "0.5")
    assert code == 3
    assert "unknown: timeout" in out


# A solver's output is decoded leniently: a byte that is not UTF-8 does not
# hide the verdict.
def test_verify_solver_output_that_is_not_utf8_still_gives_its_verdict():
    code, out, err = run_cli("verify", FIXED, "--scenario", "base_case",
                             "--solver", "printf 'unknown\\n\\377'")
    assert (code, out, err) == (3, "unknown: unknown\n", "")


def test_verify_reads_an_array_through_many_constant_key_writes(tmp_path):
    # A read at 2 looks through 1,500 writes at 1 to the havocked array; it
    # once recursed once per write and ended in a RecursionError.
    f = tmp_path / "writes.soc"
    f.write_text("module Mem {\n  instance a: Array<BitInt(8), BitInt(8)>;\n"
                 "  mut fn put(v: BitInt(8)) { a.write(1u8, v) }\n}\n"
                 "module Main {\n  instance m: Mem;\n  mut fn s() {\n    m.havoc();\n"
                 + "    m.put(any<BitInt(8)>);\n" * 1500
                 + "    assert(m.a.read(2u8) == 0u8)\n  }\n}\n")
    code, out, err = run_cli("verify", str(f), "--scenario", "s",
                             "--solver", "sh -c 'echo unknown' {file}")
    assert (code, out, err) == (3, "unknown: unknown\n", "")


def _vc_sources():
    """(id, file name, source, scenario) of every manifest entry and of the
    pinned mini_tx1 unrolls."""
    from test_corpus import MANIFEST
    from test_smtlib import UNROLL_SMTLIB_SHA256, unrolled_mini_tx1

    cases = [(f"{e['file']}::{e['scenario']}", e["file"],
              (CORPUS / e["file"]).read_text(), e["scenario"]) for e in MANIFEST]
    cases += [(f"{variant} x{steps}", f"{variant}{steps}.soc",
               unrolled_mini_tx1(variant, steps), "test_secure_area_unchanged")
              for variant, steps in sorted(UNROLL_SMTLIB_SHA256)]
    return cases


@pytest.mark.parametrize("name, source, scenario",
                         [case[1:] for case in _vc_sources()],
                         ids=[case[0] for case in _vc_sources()])
def test_dump_vc_and_dump_smt_write_the_emitted_bytes(tmp_path, name, source, scenario):
    from soclang.smtlib import emit_smtlib

    path, smt = tmp_path / name, tmp_path / "q.smt2"
    path.write_text(source)
    proc = subprocess.run([sys.executable, "-m", "soclang.cli", "verify", str(path),
                           "--scenario", scenario, "--dump-vc", "--dump-smt", str(smt),
                           "--solver", "sh -c 'echo unknown' {file}"],
                          capture_output=True, cwd=REPO_ROOT)
    assert (proc.returncode, proc.stderr) == (3, b"")
    text = emit_smtlib(eng.sym_exec(*load_file(path), scenario)).encode()
    assert proc.stdout == text + b"unknown: unknown\n"
    assert smt.read_bytes() == text


# Without --dump-smt the query goes to a temporary file, which is removed
# whatever the verdict. `tempfile` reads TMPDIR once per process, so each
# run is a child with its own.
@pytest.mark.parametrize("options, code", [
    # The stand-in solver answers only if it finds the query in TMPDIR.
    (["--solver", "sh -c 'test -s \"$0\" && test \"${0%/*}\" = \"$TMPDIR\" "
                  "&& echo unknown' {file}"], 3),
    (["--solver", "sh -c 'echo unknown' {file}", "--timeout", "0"], 1),
], ids=["unknown", "rejected timeout"])
def test_verify_leaves_no_temporary_query_file(tmp_path, options, code):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.run([sys.executable, "-m", "soclang.cli", "verify", FIXED,
                           "--scenario", "base_case", *options],
                          capture_output=True, text=True, cwd=REPO_ROOT,
                          env={**os.environ, "TMPDIR": str(tmp)})
    assert proc.returncode == code, proc.stderr
    assert list(tmp.glob("soclang-*.smt2")) == []


def test_rejected_timeout_leaves_the_dump_smt_file_written(tmp_path):
    # The query is written as it is emitted, before the solver's options
    # are checked.
    smt = tmp_path / "q.smt2"
    code, out, err = run_cli("verify", FIXED, "--scenario", "base_case", "--dump-smt",
                             str(smt), "--solver", "sh -c 'echo unknown'", "--timeout", "0")
    assert (code, out) == (1, "") and err.startswith("error: bad solver timeout 0.0")
    assert smt.read_text().endswith("(check-sat)\n(get-model)\n")


def test_verify_solver_error_exits_1(tmp_path):
    code, _, err = run_cli("verify", FIXED, "--scenario", "base_case",
                           "--solver", "definitely-not-a-solver {file}")
    assert code == 1
    assert "solver error" in err


def test_trace_all_zero_model_on_fixed_passes(tmp_path):
    empty = tmp_path / "zero.smt2"
    empty.write_text("()\n")
    code, out, _ = run_cli("trace", FIXED, "--scenario", "test_secure_area_unchanged",
                           "--model", str(empty))
    assert code == 0
    assert out.strip().endswith("passed")


def test_trace_replays_missing_choices_as_zeros(tmp_path):
    f, model = tmp_path / "z.soc", tmp_path / "zero.smt2"
    f.write_text("""\
enum Mode { Idle, Busy }
module Mem { instance cells: Array<BitInt(2), BitInt(4)>; }
module Main {
  instance m: Mem;
  mut fn s() {
    let b = any<Bool>;
    let x = any<BitInt(8)>;
    let n = any<Int>;
    let k = any<Mode>;
    m.havoc();
    printf("{b} {x} {n} {k} {m.cells.get()}\\n")
  }
}
""")
    model.write_text("()\n")
    assert run_cli("trace", str(f), "--scenario", "s", "--model", str(model)) == \
        (0, "false 0 0 Idle array{default 0}\npassed\n", "")


def test_trace_replays_an_array_given_as_a_lambda(tmp_path):
    # A solver may give an array as a function of its key: an ite chain on
    # the argument, the latest update outermost.
    f, model = tmp_path / "lam.soc", tmp_path / "lam.smt2"
    f.write_text("""\
module Main {
  instance cells: Array<BitInt(4), BitInt(8)>;
  mut fn s() {
    cells.havoc();
    printf("{cells.read(1u4)} {cells.read(2u4)} {cells.get()}\\n");
    assert(cells.read(1u4) == 0u8)
  }
}
""")
    (vid,) = _choice_names(str(f), "s")
    model.write_text(f"((define-fun {vid} () (Array (_ BitVec 4) (_ BitVec 8))\n"
                     "  (lambda ((x (_ BitVec 4)))\n"
                     "    (ite (= x #x1) #x2a (ite (= #x3 x) #x05 #x07)))))\n")
    assert run_cli("trace", str(f), "--scenario", "s", "--model", str(model)) == \
        (2, f"42 7 array{{3: 5, 1: 42; default 7}}\nFAILED ASSERTION at {f}:6\n", "")


def test_trace_model_with_wrong_sort_exits_1(tmp_path):
    # The first step's Bool choice; give it a bitvector instead.
    bad = tmp_path / "bad.smt2"
    bad.write_text(f"((define-fun {VULN_CHOICES[0]} () (_ BitVec 8) #x01))\n")
    code, _, err = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                           "--model", str(bad))
    assert code == 1
    assert "expected Bool" in err


def test_trace_model_literal_of_another_width_exits_1(tmp_path):
    # The first step's BitInt(48) address; #x01 has 8 bits, not 48.
    bad = tmp_path / "narrow.smt2"
    bad.write_text(f"((define-fun {VULN_CHOICES[1]} () (_ BitVec 48) #x01))\n")
    code, _, err = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                           "--model", str(bad))
    assert code == 1
    assert VULN_CHOICES[1] in err and "(_ BitVec 48)" in err


def test_trace_corrupt_model_file_exits_1(tmp_path):
    bad = tmp_path / "corrupt.smt2"
    bad.write_text("(((((\n")
    code, _, err = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                           "--model", str(bad))
    assert code == 1


def test_trace_model_that_is_not_utf8_exits_1(tmp_path):
    bad = tmp_path / "bad.smt2"
    bad.write_bytes(b"(\xff)")
    code, out, err = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                             "--model", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: invalid UTF-8 byte 0xff at offset 1 of {bad}\n"


def test_trace_model_defining_a_choice_twice_exits_1(tmp_path):
    bad = tmp_path / "dup.smt2"
    name = VULN_CHOICES[0]
    bad.write_text(f"((define-fun {name} () Bool true) (define-fun {name} () Bool false))\n")
    code, out, err = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                             "--model", str(bad))
    assert (code, out, err) == (1, "", f"error: model defines {name} twice\n")


def test_trace_model_name_that_is_not_a_choice_is_auxiliary(tmp_path):
    # emit_smtlib never declares `c²`: the definition is auxiliary, so the
    # model is the empty one and every choice replays as zero.
    odd = tmp_path / "odd.smt2"
    odd.write_text("((define-fun c² () Bool true))\n")
    empty = tmp_path / "empty.smt2"
    empty.write_text("()\n")
    args = ("trace", VULN, "--scenario", "test_secure_area_unchanged", "--model")
    code, out, err = run_cli(*args, str(odd))
    assert (code, out, err) == run_cli(*args, str(empty))
    assert code == 0 and err == ""


# The published attack (see test_eval), written as a model file.
ATTACK = "(\n" + "\n".join(
    f"  (define-fun {VULN_CHOICES[i]} () {sort} {value})" for i, sort, value in [
        (0, "Bool", "true"), (1, "(_ BitVec 48)", "#x800000000070"),
        (2, "(_ BitVec 64)", "(_ bv1 64)"), (4, "Bool", "true"),
        (5, "(_ BitVec 48)", "(_ bv0 48)"), (6, "(_ BitVec 64)", "#x48adc33cfdc999d4"),
        (8, "(_ BitVec 31)", "(_ bv0 31)")]) + ")\n"


def test_trace_runs_no_symbolic_execution(tmp_path, monkeypatch, capsys):
    from soclang import cli

    def refuse(*args):
        raise AssertionError("trace ran sym_exec")

    monkeypatch.setattr(eng, "sym_exec", refuse)
    model = tmp_path / "attack.smt2"
    model.write_text(ATTACK)
    code = cli.main(["trace", VULN, "--scenario", "test_secure_area_unchanged",
                     "--model", str(model)])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out.endswith(f"FAILED ASSERTION at {VULN}:191\n")
    assert (code, out, err) == run_cli("trace", VULN, "--scenario",
                                       "test_secure_area_unchanged", "--model", str(model))


# `run` and `trace` format values only for `printf` and `--trace-json`
# events: a `let` costs no formatting. The file has five `let`s and no
# `printf`; the test runs the engine as the CLI does, without the tests'
# type-preservation check.
@pytest.mark.without_type_oracle
@pytest.mark.parametrize("command, code", [("run", 0), ("trace", 2)])
def test_run_and_trace_format_no_let_values(tmp_path, monkeypatch, capsys, command, code):
    from soclang import cli

    model = tmp_path / "zero.smt2"
    model.write_text("()\n")
    options = {"run": ["--scenario", "locked_rows_preserved", "--seed", "0"],
               "trace": ["--scenario", "unlocked_write_breaks_rows", "--model", str(model)]}
    calls, format_value = [], eng.format_value
    monkeypatch.setattr(eng, "format_value",
                        lambda *args: calls.append(args) or format_value(*args))
    assert cli.main([command, str(CORPUS / "assume_assert_invariant.soc"),
                     *options[command]]) == code
    assert capsys.readouterr().err == ""
    assert len(calls) == 0


def _trace_error(tmp_path, model: str):
    path = tmp_path / "m.smt2"
    path.write_text(model)
    code, out, err = run_cli("trace", VULN, "--scenario", "test_secure_area_unchanged",
                             "--model", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("name", ["c0", "c17"])
def test_trace_model_with_old_choice_names_exits_1(tmp_path, name):
    # Written before names spelled choice ids: it must not replay as zeros.
    err = _trace_error(tmp_path, f"((define-fun {name} () Bool true))\n")
    assert "re-run verify" in err


def test_trace_model_choice_that_is_not_in_the_program_exits_1(tmp_path):
    site, call, *_ = VULN_CHOICES[0][1:].split("_")
    for name in [f"c{call}_0",                 # a call, not an any or havoc
                 f"c{site}_{site}_0",          # an any as a call site
                 "c99999_0"]:                  # no node of the program
        err = _trace_error(tmp_path, f"((define-fun {name} () Bool true))\n")
        assert err == f"error: model defines {name}, which names no choice of this program\n"


@pytest.mark.parametrize("sort,atom", [("Bool", "x"), ("(_ BitVec 48)", "#x01"),
                                       ("Int", "5"),
                                       ("(Array (_ BitVec 31) (_ BitVec 64))", "#x01")])
def test_trace_deeply_nested_model_value_exits_1(tmp_path, sort, atom):
    value = "(" * 3000 + atom + ")" * 3000
    err = _trace_error(tmp_path, f"((define-fun {VULN_CHOICES[-1]} () {sort} {value}))\n")
    assert err.startswith(f"error: model value of {VULN_CHOICES[-1]}: ") and len(err) < 200


def _sat_with(model: str) -> str:
    """A stand-in solver that answers `sat` with the given model."""
    return f"sh -c \"echo sat; echo '{model}'\""


# Failures outside the model source: each is one `error:` line and exit 1.
# `{tmp}` is the test's directory; `{file}` is the query file, which is not
# executable.
VERIFY_FAILURES = {
    "malformed model": ["--solver",
                        _sat_with(f"((define-fun {VULN_CHOICES[0]} () Bool #x01))")],
    "model that is not UTF-8": ["--solver", f"printf 'sat\\n((define-fun "
                                            f"{VULN_CHOICES[0]} () Bool tr\\377ue))'"],
    "model choice of another sort than the query's": [
        "--solver", _sat_with(f"((define-fun {VULN_CHOICES[0]} () (_ BitVec 1) #b1))")],
    "model choice the query does not declare": [
        "--solver", _sat_with(f"((define-fun {VULN_CHOICES[0]}_0 () Bool true))")],
    "model with an old choice name": ["--solver", _sat_with("((define-fun c0 () Bool true))")],
    "model path in a missing directory": ["--solver", _sat_with("()"),
                                          "--dump-model", "{tmp}/missing/m.smt2"],
    "query path in a missing directory": ["--solver", "sh -c 'echo unknown'",
                                          "--dump-smt", "{tmp}/missing/q.smt2"],
    "solver not executable": ["--solver", "{file}"],
    "solver command names no program": ["--solver", " "],
    "solver command with an open quote": ["--solver", "sh -c 'echo unknown"],
    "timeout not a number": ["--solver", "sh -c 'echo unknown'", "--timeout", "nan"],
    "timeout not positive": ["--solver", "sh -c 'echo unsat'", "--timeout", "0"],
}


@pytest.mark.parametrize("case", list(VERIFY_FAILURES))
def test_verify_failure_is_one_error_line(tmp_path, case):
    options = [arg.replace("{tmp}", str(tmp_path)) for arg in VERIFY_FAILURES[case]]
    code, _, err = run_cli("verify", VULN, "--scenario", "test_secure_area_unchanged",
                           *options)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_replay_error_is_an_error_line(tmp_path):
    model = tmp_path / "full.soc"
    model.write_text("module Main {\n  instance cells: Array<BitInt(4), BitInt(8)>;\n"
                     "  mut fn full() {\n    cells.write(1u4, 1u8);\n    assert(false)\n"
                     "  }\n}\n")
    code, out, err = run_cli("verify", str(model), "--scenario", "full",
                             "--solver", _sat_with("()"), "--capacity", "0",
                             "--dump-model", str(tmp_path / "m.smt2"))
    assert (code, out) == (1, "")
    assert err == "error: sparse array cells: capacity of 0 modifications exceeded\n"


# An enum-valued array holds only variants: the VC bounds every symbolic
# read of one, and replay checks only the leaves a run reads.
ENUM_ARRAY = """\
enum Mode { A, B, C }
module Main {
  instance modes: Array<BitInt(2), Mode>;
  mut fn probe() {
    modes.havoc();
    let m = modes.read(1u2);
    assert(m == Mode.A || m == Mode.B || m == Mode.C)
  }
  mut fn probe_c() {
    modes.havoc();
    assert(modes.read(1u2) != Mode.C)
  }
  mut fn pick() {
    let b = any<BitInt(2)>;
    let m = any<Mode>;
    modes.havoc();
    assert(b == 0u2)
  }
}
"""


@pytest.fixture
def enum_array(tmp_path) -> str:
    path = tmp_path / "e.soc"
    path.write_text(ENUM_ARRAY)
    return str(path)


def test_verify_bounds_every_read_of_an_enum_valued_array(enum_array):
    code, out, err = run_cli("verify", enum_array, "--scenario", "probe", "--dump-vc",
                             "--solver", "sh -c 'echo unknown'")
    assert (code, err) == (3, "")
    assert out == """\
(set-logic QF_ABV)
(set-option :produce-models true)
(declare-const c1_0 (Array (_ BitVec 2) (_ BitVec 2)))
(assert (let ((t0 (select c1_0 (_ bv1 2))))
  (and (bvult t0 (_ bv3 2)) (not (or (or (= t0 (_ bv0 2)) (= t0 (_ bv1 2))) (= t0 (_ bv2 2)))))))
(check-sat)
(get-model)
unknown: unknown
"""


def _modes(vid: str, stores: str) -> str:
    """A model that defines the Array<BitInt(2), Mode> choice `vid` as zeros
    with the given `(key value)` stores."""
    arr = "((as const (Array (_ BitVec 2) (_ BitVec 2))) #b00)"
    for store in stores.split(";"):
        arr = f"(store {arr} {store})"
    return f"((define-fun {vid} () (Array (_ BitVec 2) (_ BitVec 2)) {arr}))\n"


@pytest.mark.parametrize("stores, code, stdout, stderr", [
    # Junk at key 2, which the run never reads, replays.
    ("#b01 #b10;#b10 #b11", 2, "FAILED ASSERTION at {file}:11\n", ""),
    ("#b01 #b10", 2, "FAILED ASSERTION at {file}:11\n", ""),
    # A leaf the run reads must name a variant.
    ("#b01 #b11", 1, "", "error: enum value 3 out of range for Mode\n"),
], ids=["junk at an unread key", "no junk", "junk at the read key"])
def test_trace_checks_the_enum_leaves_a_run_reads(enum_array, tmp_path, stores, code,
                                                  stdout, stderr):
    (vid,) = _choice_names(enum_array, "probe_c")
    model = tmp_path / "m.smt2"
    model.write_text(_modes(vid, stores))
    assert run_cli("trace", enum_array, "--scenario", "probe_c", "--model", str(model)) \
        == (code, stdout.format(file=enum_array), stderr)


# The model values replay rejects, each with its exact message.
@pytest.mark.parametrize("choice, definition, message", [
    (0, "(_ BitVec 3) #b101", "has the wrong type (expected BitInt(2), got 5)"),
    (2, "Bool true", "is not an array of the expected sort"),
    (1, "(_ BitVec 2) #b11", "has the wrong type (expected Mode, got 3)"),
], ids=["header sort", "array sort", "enum value"])
def test_trace_model_value_of_the_wrong_type_exits_1(enum_array, tmp_path, choice,
                                                     definition, message):
    vid = _choice_names(enum_array, "pick")[choice]
    model = tmp_path / "m.smt2"
    model.write_text(f"((define-fun {vid} () {definition}))\n")
    assert run_cli("trace", enum_array, "--scenario", "pick", "--model", str(model)) \
        == (1, "", f"error: model value for {vid} {message}\n")


# Calls nested past the budget are `check`'s located diagnostic, at the call
# that crosses it: f171's, on line 173, which nests 129 levels deep.
@pytest.mark.parametrize("command, options", [
    ("run", []), ("verify", ["--solver", "sh -c 'echo unknown'"]),
    ("trace", ["--model", "{tmp}/zeros.smt2"])])
def test_calls_nested_past_the_stack_are_an_error_line(tmp_path, command, options):
    path = tmp_path / "chain.soc"
    path.write_text(call_chain(300))
    (tmp_path / "zeros.smt2").write_text("()\n")
    options = [o.replace("{tmp}", str(tmp_path)) for o in options]
    assert run_cli(command, str(path), "--scenario", "f0", *options) == (
        1, "", f"{path}:173:19: error: nesting too deep\n")


def _in_go(item: str) -> str:
    return f"module Main {{\n  mut fn go() {{\n    {item};\n    assert(true)\n  }}\n}}\n"


def _alias_chain(levels: int) -> str:
    """A0 through A<levels - 1>, each a vector of the next, the last Bool;
    `go` chooses an A0."""
    aliases = "".join(f"type A{i} = Vector<A{i + 1}, 1>;\n" for i in range(levels - 1))
    return aliases + f"type A{levels - 1} = Bool;\n" + _in_go("let x = any<A0>")


def _let_chain(levels: int, open_: str, close: str) -> str:
    """v0 = true, then v<i> = `open_` v<i - 1> `close`, so the type of
    v<levels - 1> nests `levels` deep, and `printf` prints it."""
    lets = "".join(f"    let v{i} = {open_}v{i - 1}{close};\n" for i in range(1, levels))
    return "let v0 = true;\n" + lets + f'    printf("{{v{levels - 1}}}")'


def _printed_after_calls(levels: int) -> str:
    """f0 calls f1 and so on, and the last prints a vector that nests to the
    budget: its hole is at level 2, so the chain fills the budget too."""
    fns = "".join(f"  mut fn f{i}() {{ f{i + 1}() }}\n" for i in range(levels - 2))
    last = _let_chain(MAX_NESTING, "[", "]")
    return f"module Main {{\n{fns}  mut fn f{levels - 2}() {{\n    {last}\n  }}\n}}\n"


def _instance_chain_with_go(levels: int) -> str:
    return instance_chain(levels).replace(
        "module Main { instance x: M0; }", "module Main { instance x: M0; mut fn go() { () } }")


# Each shape of nesting: the function that writes it `levels` deep (see
# `ast.MAX_NESTING`), the scenario, and the one diagnostic `check` gives one
# level past the budget, at the token that opens that level, or the
# expression, type declaration, call or instance there. In the function
# `go`, the `let`'s value is at level 1.
NESTING_SHAPES = {
    "negation": (lambda n: _in_go("let x = " + "!" * (n - 1) + "true"),
                 "go", ":3:141: error: nesting too deep"),
    "parentheses": (lambda n: _in_go("let x = " + "(" * (n - 1) + "1u8" + ")" * (n - 1)),
                    "go", ":3:141: error: nesting too deep, found '1u8'"),
    "blocks": (lambda n: _in_go("let x = " + "{ " * (n - 1) + "1u8" + " }" * (n - 1)),
               "go", ":3:269: error: nesting too deep, found '1u8'"),
    # Each `if` is one level below the one before; the last one's blocks and
    # the `()` in them are two more.
    "else if": (lambda n: _in_go("let x = any<Bool>;\n    if x { () }\n"
                                 + "    else if x { () }\n" * (n - 3) + "    else { () }"),
                "go", ":130:17: error: nesting too deep"),
    "records": (lambda n: _in_go("let x = " + "{ a: " * (n - 1) + "1u8" + " }" * (n - 1)),
                "go", ":3:653: error: nesting too deep, found '1u8'"),
    "vectors": (lambda n: _in_go("let x = " + "[" * (n - 1) + "1u8" + "]" * (n - 1)),
                "go", ":3:141: error: nesting too deep, found '1u8'"),
    # A flat chain nests to the left: its first operand is the deepest.
    "flat sum": (lambda n: _in_go("let x = " + " + ".join(["1u8"] * n)),
                 "go", ":3:13: error: nesting too deep"),
    "flat and": (lambda n: _in_go("let x = " + " && ".join(["true"] * n)),
                 "go", ":3:13: error: nesting too deep"),
    "unsuffixed sum": (lambda n: _in_go("let x: BitInt(8) = " + " + ".join(["1"] * n)),
                       "go", ":3:24: error: nesting too deep"),
    "vector type": (lambda n: _in_go("let x = any<" + "Vector<" * (n - 1) + "Bool"
                                     + ", 1>" * (n - 1) + ">"),
                    "go", ":3:913: error: nesting too deep, found 'Bool'"),
    "alias chain": (_alias_chain, "go", ":1:1: error: nesting too deep"),
    # Each `let` is at level 1, yet its value's type is one level deeper than
    # the last: the diagnostic is at the literal whose type passes the budget.
    "let-chained vectors": (lambda n: _in_go(_let_chain(n, "[", "]")),
                            "go", ":131:16: error: nesting too deep"),
    "let-chained records": (lambda n: _in_go(_let_chain(n, "{ a: ", " }")),
                            "go", ":131:16: error: nesting too deep"),
    # f0 calls f1 and so on: f0's call is at level 1 and f<levels - 1>'s `()`
    # at level `levels`.
    "call chain": (call_chain, "f0", ":2:17: error: nesting too deep"),
    # Both budgets at once: the engine's deepest calls print the deepest value.
    "vector printed after the call chain": (_printed_after_calls, "f0",
                                            ":2:17: error: nesting too deep"),
    "instances": (_instance_chain_with_go, "go", ":128:15: error: instance nesting too deep"),
}


# At the budget every command runs the model, from a caller already some
# frames deep; one level past it every command gives `check`'s diagnostic.
@pytest.mark.parametrize("shape", list(NESTING_SHAPES))
def test_nesting_at_the_budget_runs_and_one_level_past_is_rejected(tmp_path, capsys, shape):
    from soclang import cli

    build, scenario, where = NESTING_SHAPES[shape]
    f = tmp_path / "deep.soc"
    model = tmp_path / "zeros.smt2"
    model.write_text("()\n")
    commands = {"check": ([], 0), "dump-tree": ([], 0),
                "run": (["--scenario", scenario], 0),
                "verify": (["--scenario", scenario, "--solver", "sh -c 'echo unknown'"], 3),
                "trace": (["--scenario", scenario, "--model", str(model)], 0)}
    f.write_text(build(MAX_NESTING))
    for command, (options, code) in commands.items():
        assert (command, cli.main([command, str(f), *options])) == (command, code)
        assert capsys.readouterr().err == ""
    f.write_text(build(MAX_NESTING + 1))
    for command, (options, _) in commands.items():
        assert (command, cli.main([command, str(f), *options])) == (command, 1)
        assert capsys.readouterr() == ("", f"{f}{where}\n")


# Shapes that `check` once passed and no other command could run (the alias
# chain ended every command in a traceback): each is now one diagnostic from
# `check`, which every command gives.
PAST_THE_BUDGET = {
    "1,500 aliases": (NESTING_SHAPES["alias chain"][0](1500), ":1372:1: error: nesting too deep"),
    "600-deep vector type": (NESTING_SHAPES["vector type"][0](600),
                             ":3:913: error: nesting too deep, found 'Vector'"),
    "492-term unsuffixed sum": (NESTING_SHAPES["unsuffixed sum"][0](492),
                                ":3:24: error: nesting too deep"),
}


@pytest.mark.parametrize("command, options", [
    ("check", []), ("run", ["--scenario", "go"]),
    ("verify", ["--scenario", "go", "--solver", "sh -c 'echo unknown'"]),
    ("trace", ["--scenario", "go", "--model", "{tmp}/zeros.smt2"])])
@pytest.mark.parametrize("case", list(PAST_THE_BUDGET))
def test_nesting_that_only_check_passed_is_its_diagnostic(tmp_path, case, command, options):
    source, where = PAST_THE_BUDGET[case]
    path = tmp_path / "deep.soc"
    path.write_text(source)
    (tmp_path / "zeros.smt2").write_text("()\n")
    options = [o.replace("{tmp}", str(tmp_path)) for o in options]
    assert run_cli(command, str(path), *options) == (1, "", f"{path}{where}\n")


def _called_deeper(frames: int, argv: list) -> int:
    from soclang import cli

    return cli.main(argv) if frames == 0 else _called_deeper(frames - 1, argv)


# The levels are counted, so a diagnostic does not depend on how deep the
# caller's stack is: a child process, `cli.main`, and `cli.main` called 100
# frames deeper all report the same.
@pytest.mark.parametrize("source, where", [
    pytest.param("let x = " + "(" * 300 + "1u8" + ")" * 300,
                 ":3:141: error: nesting too deep, found '('", id="300-deep parentheses"),
    pytest.param("let x = " + "!" * 600 + "true", ":3:141: error: nesting too deep",
                 id="600-deep negation"),
    pytest.param(None, ":2:17: error: nesting too deep", id="call chain past the budget")])
def test_nesting_diagnostic_is_the_same_at_every_entry_depth(tmp_path, capsys, source, where):
    path = tmp_path / "deep.soc"
    path.write_text(call_chain(MAX_NESTING + 1) if source is None else _in_go(source))
    expected = f"{path}{where}\n"
    assert run_cli("check", str(path)) == (1, "", expected)
    for frames in (0, 100):
        assert _called_deeper(frames, ["check", str(path)]) == 1
        assert capsys.readouterr() == ("", expected)


# The VC bounds no array's modifications, so replaying a solver model bounds
# none unless --capacity is given; `run` keeps its default bound of 64.
CAPACITY = """\
module Main {
  instance mem: Array<BitInt(8), BitInt(8)>;
  mut fn go() {
    mem.havoc();
    mem.write(0u8, 1u8);
    assert(mem.read(200u8) == 0u8)
  }
}
"""


def _many_stores() -> str:
    """A model of `mem` with 66 stores, one of them 200 -> 5, so the write
    at key 0 makes 67 modifications."""
    arr = "((as const (Array (_ BitVec 8) (_ BitVec 8))) #x00)"
    for key in [*range(1, 66), 0xc8]:
        arr = f"(store {arr} #x{key:02x} #x{5 if key == 0xc8 else 1:02x})"
    return f"((define-fun c1_0 () (Array (_ BitVec 8) (_ BitVec 8)) {arr}))"


@pytest.mark.parametrize("command, options, code, stdout, stderr", [
    ("trace", [], 2, "FAILED ASSERTION at {file}:6\n", ""),
    ("trace", ["--capacity", "1000"], 2, "FAILED ASSERTION at {file}:6\n", ""),
    ("trace", ["--capacity", "64"], 1, "",
     "error: sparse array mem: capacity of 64 modifications exceeded\n"),
    ("verify", ["--solver", _sat_with(_many_stores())], 2,
     "FAILED ASSERTION at {file}:6\nmodel written to {tmp}/m.smt2\n", ""),
], ids=["trace", "trace with a larger bound", "trace with the run bound", "verify"])
def test_replay_of_a_solver_model_has_no_capacity_bound_by_default(
        tmp_path, command, options, code, stdout, stderr):
    path = tmp_path / "cap.soc"
    path.write_text(CAPACITY)
    (tmp_path / "m.smt2").write_text(_many_stores())
    model = ["--model", str(tmp_path / "m.smt2")] if command == "trace" else \
        ["--dump-model", str(tmp_path / "m.smt2")]
    assert run_cli(command, str(path), "--scenario", "go", *model, *options) == (
        code, stdout.format(file=path, tmp=tmp_path), stderr)


def test_run_keeps_its_capacity_bound(tmp_path):
    path = tmp_path / "full.soc"
    writes = "".join(f"    cells.write({k}u8, 1u8);\n" for k in range(65))
    path.write_text("module Main {\n  instance cells: Array<BitInt(8), BitInt(8)>;\n"
                    f"  mut fn full() {{\n{writes}    ()\n  }}\n}}\n")
    assert run_cli("run", str(path), "--scenario", "full") == (
        1, "", "error: sparse array cells: capacity of 64 modifications exceeded\n")
    assert run_cli("run", str(path), "--scenario", "full", "--capacity", "65") == (
        0, "passed\n", "")
