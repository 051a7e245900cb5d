"""Commands build no reference cycles.

A `soclang` process runs its command with the cyclic garbage collector off
(`cli.entry`), so a cycle that the program's own data forms stays in memory
until the process exits. Each case here runs one command in-process with
the collector off and `gc.DEBUG_SAVEALL` on, then collects: the collection
must find no instance of a class of the package, and none of its functions
or classes. Cycles of the standard library (argparse's parser, for one)
are not the package's to break and are not counted.
"""

import gc
import subprocess
import sys
from pathlib import Path

import pytest

from soclang import cli

from conftest import CORPUS, call_chain

WELL_FORMED = sorted(CORPUS.glob("*.soc"))
ILL_TYPED = sorted((CORPUS / "ill-typed").glob("*.soc"))
VULN = str(CORPUS / "mini_tx1_vulnerable.soc")
FIXED = str(CORPUS / "mini_tx1_fixed.soc")
# All-zero choices break this scenario's assertion.
BREAKS_ON_ZEROS = [str(CORPUS / "assume_assert_invariant.soc"),
                   "--scenario", "unlocked_write_breaks_rows"]


def _ours(obj) -> bool:
    """Is obj a function or class of the package, or an instance of one?"""
    if isinstance(obj, type) or callable(obj) and hasattr(obj, "__code__"):
        module = getattr(obj, "__module__", None) or ""
    else:
        module = type(obj).__module__
    return module == "soclang" or module.startswith("soclang.")


def _describe(obj) -> str:
    return getattr(obj, "__qualname__", None) or type(obj).__qualname__


def _cyclic_garbage(argv, capsys):
    """Run `soclang argv` in-process; its exit code and the names of the
    package's objects that only the cyclic collector would free."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = cli.main(argv)
        gc.collect()
        found = sorted({_describe(o) for o in gc.garbage if _ours(o)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    return code, found


@pytest.mark.parametrize("command", ["check", "dump-tree"])
@pytest.mark.parametrize("path", WELL_FORMED, ids=lambda p: p.name)
def test_front_end_commands_leave_no_cycles(command, path, capsys):
    assert _cyclic_garbage([command, str(path)], capsys) == (0, [])


@pytest.mark.parametrize("path", ILL_TYPED, ids=lambda p: p.name)
def test_rejected_models_leave_no_cycles(path, capsys):
    assert _cyclic_garbage(["check", str(path)], capsys) == (1, [])


def _engine_commands(tmp_path):
    zeros = tmp_path / "zeros.smt2"
    zeros.write_text("()\n")
    scenario = ["--scenario", "test_secure_area_unchanged"]
    return {
        "run": (0, ["run", FIXED, "--scenario", "base_case", "--seed", "1"]),
        "trace that passes": (0, ["trace", VULN, *scenario, "--model", str(zeros)]),
        "trace that fails": (2, ["trace", *BREAKS_ON_ZEROS, "--model", str(zeros)]),
        "verify, unknown": (3, ["verify", VULN, *scenario,
                                "--solver", "sh -c 'echo unknown'"]),
        "verify, sat and replayed": (2, ["verify", *BREAKS_ON_ZEROS,
                                         "--solver", "sh -c \"echo sat; echo '()'\"",
                                         "--dump-model", str(tmp_path / "m.smt2")]),
    }


@pytest.mark.parametrize("case", ["run", "trace that passes", "trace that fails",
                                  "verify, unknown", "verify, sat and replayed"])
def test_engine_commands_leave_no_cycles(case, tmp_path, capsys):
    code, argv = _engine_commands(tmp_path)[case]
    assert _cyclic_garbage(argv, capsys) == (code, [])


# Callee bindings that close a loop: the usual CPU and interrupt-controller
# shape, where two siblings are wired to each other, and an instance wired
# to itself.
WIRED_IN_A_LOOP = {
    "to each other": """
module Cpu {
  callee gic: Gic;
  instance pc: State<BitInt(8)>(0u8);
  mut fn read() -> BitInt(8) { pc.get() }
  mut fn step() { pc.set(gic.pending()) }
}
module Gic {
  callee cpu: Cpu;
  instance line: State<BitInt(8)>(1u8);
  mut fn pending() -> BitInt(8) { line.get() }
  mut fn poll() { line.set(cpu.read()) }
}
module Main {
  instance cpu: Cpu;
  instance gic: Gic;
  cpu.gic -> gic;
  gic.cpu -> cpu;
  mut fn go() { gic.havoc(); gic.poll(); cpu.step(); assert(cpu.read() == 0u8) }
}
""",
    "to itself": """
module Node {
  callee me: Node;
  instance n: State<BitInt(8)>(0u8);
  mut fn get() -> BitInt(8) { n.get() }
  mut fn bump() { n.set(me.get() + 1u8) }
}
module Main {
  instance a: Node;
  a.me -> a;
  mut fn go() { a.bump(); assert(a.get() == 1u8) }
}
""",
}
LOOP_COMMANDS = {
    "check": (0, []),
    "dump-tree": (0, []),
    "run": (0, ["--scenario", "go", "--seed", "1"]),
    "verify": (3, ["--scenario", "go", "--solver", "sh -c 'echo unknown'"]),
}


@pytest.mark.parametrize("command", list(LOOP_COMMANDS))
@pytest.mark.parametrize("model", list(WIRED_IN_A_LOOP))
def test_models_wired_in_a_loop_leave_no_cycles(model, command, tmp_path, capsys):
    path = tmp_path / "loop.soc"
    path.write_text(WIRED_IN_A_LOOP[model])
    code, options = LOOP_COMMANDS[command]
    assert _cyclic_garbage([command, str(path), *options], capsys) == (code, [])


# A scenario whose calls nest past the budget is `check`'s diagnostic, from
# every command; the checker's tables it leaves behind hold no cycle.
@pytest.mark.parametrize("command, options", [
    ("run", []), ("verify", ["--solver", "sh -c 'echo unknown'"])])
def test_calls_nested_past_the_stack_leave_no_cycles(command, options, tmp_path, capsys):
    path = tmp_path / "chain.soc"
    path.write_text(call_chain(300))
    assert _cyclic_garbage([command, str(path), "--scenario", "f0", *options],
                           capsys) == (1, [])


@pytest.mark.parametrize("argv", [["verify", FIXED], ["frob"],
                                  ["run", FIXED, "--scenario", "base_case", "--capacity", "-1"]],
                         ids=["missing option", "unknown command", "negative capacity"])
def test_usage_errors_leave_no_cycles(argv, capsys):
    assert _cyclic_garbage(argv, capsys) == (1, [])


# An import leaves no cyclic garbage, as a class built and then replaced would
# (`dataclass(slots=True)` builds each class twice; no module uses it, and
# terms are no dataclasses). A fresh interpreter sees each import's own.
@pytest.mark.parametrize("module", ["soclang.terms", "soclang.engine", "soclang.smtlib"])
def test_import_leaves_no_cycles(module):
    # The garbage list is complete after the collection; importing this
    # file (and with it the rest of the package) runs no further one.
    probe = ("import gc, sys\n"
             "gc.disable()\n"
             "gc.set_debug(gc.DEBUG_SAVEALL)\n"
             f"import {module}\n"
             "gc.collect()\n"
             f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
             "from test_gc import _describe, _ours\n"
             "print(sorted({_describe(o) for o in gc.garbage if _ours(o)}))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr
