import json
import re
import subprocess
import sys

import pytest

from soclang import engine as eng

from conftest import CORPUS, INSTANCE_NESTING, load_file, requires_z3, run_cli

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


def test_negation_chain_within_the_stack_passes_check_and_run(tmp_path):
    f = tmp_path / "deep.soc"
    f.write_text("module Main {\n  mut fn go() {\n    let x = " + "!" * 350
                 + "true;\n    assert(x)\n  }\n}\n")
    assert run_cli("check", str(f)) == (0, "", "")
    code, out, err = run_cli("run", str(f), "--scenario", "go")
    assert (code, out.strip(), err) == (0, "passed", "")


# Both parse; the type checker recurses once per nested expression. The
# diagnostic points into the expression that nests too deep: the `!` chain on
# line 3, or an `else if` on lines 4 to 503.
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
