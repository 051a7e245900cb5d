"""Command-line interface.

Exit code contract (frozen for scripting):
  check:  0 ok, 1 diagnostics/tool error
  run:    0 passed, 2 assertion failed, 4 assume infeasible, 1 tool error
  verify: 0 proven (unsat), 2 counterexample found, 3 unknown/timeout, 1 tool error
  trace:  like run
All results go to stdout; diagnostics go to stderr. A command line that
does not parse is an error too: one `error:` line and exit 1.

A `soclang` process enters through `entry`, which runs its one command with
the cyclic garbage collector off and freezes the heap before exit, so the
interpreter's exit-time collection does not walk it. That is safe because
the program's data forms no reference cycles: reference counting frees each
object as soon as it is unused. The rule that keeps it so: no nested
function that refers to itself (a recursive helper is a module-level
function or a method), and no closure stored on an object it captures
(`Engine` keeps its compiled closures only while `Engine.run` runs).
`tests/test_gc.py` runs every command under `gc.DEBUG_SAVEALL` and fails on
any cyclic garbage of the package's own. `main(argv)`, for in-process
callers, leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, NoReturn, Optional, Tuple

from .diagnostics import SocError, ToolError, TypeErrors
from .elaborate import InstanceNode, StateLayout, dump_tree, elaborate
from .lexer import decode_source
from .parser import parse_program
from .typecheck import TypedProgram, check_program

# `check` and `dump-tree` run the front end only. The engine and the SMT-LIB
# layer (with `subprocess` and `tempfile`) are imported by the commands that
# use them, so those two start without loading them.
if TYPE_CHECKING:
    from .engine import RunResult

_INDUCTION_NOTE = (
    "note: an induction triple (base case, inductive step, invariant usefulness) "
    "proves an unbounded property only together with the manual step of checking "
    "that the invariant implies the property."
)


def load(path: str) -> Tuple[TypedProgram, InstanceNode, StateLayout]:
    # No name holds the bytes or the text: each is freed once it is used.
    with open(path, "rb") as f:
        program = parse_program(decode_source(f.read(), path), path)
    tp = check_program(program)
    tree, layout = elaborate(tp)
    return tp, tree, layout


def cmd_check(args) -> int:
    load(args.file)
    return 0


def cmd_dump_tree(args) -> int:
    tp, tree, _ = load(args.file)
    sys.stdout.write(dump_tree(tp, tree))
    return 0


def _report_run(result: RunResult, trace_json: bool) -> int:
    from . import engine as eng

    for line in result.transcript:
        sys.stdout.write(line if line.endswith("\n") else line + "\n")
    if trace_json:
        import json

        for event in result.events:
            print(json.dumps(event))
    v = result.verdict
    if isinstance(v, eng.Passed):
        print("passed")
        return 0
    if isinstance(v, eng.AssertionFailed):
        print(f"FAILED ASSERTION at {v.site.file}:{v.site.line}")
        return 2
    print(f"ASSUMPTION INFEASIBLE at {v.site.file}:{v.site.line}")
    return 4


def cmd_run(args) -> int:
    from . import engine as eng

    tp, tree, layout = load(args.file)
    result = eng.run_scenario(tp, tree, layout, args.scenario,
                              eng.SeededRandom(args.seed), args.capacity, args.trace_json)
    return _report_run(result, args.trace_json)


def cmd_verify(args) -> int:
    import tempfile

    from . import engine as eng
    from . import smtlib
    from .smtlib import Sat, SolverError, Unknown, Unsat

    tp, tree, layout = load(args.file)
    vc = eng.sym_exec(tp, tree, layout, args.scenario)
    if args.dump_smt:
        smt_path = args.dump_smt
    else:
        fd, smt_path = tempfile.mkstemp(suffix=".smt2", prefix="soclang-")
        os.close(fd)
    command = smtlib.solver_command(args.solver)
    try:
        # The query streams into its file (and to stdout for --dump-vc).
        with open(smt_path, "w") as f:
            write = f.write
            if args.dump_vc:
                def write(piece: str) -> None:
                    f.write(piece)
                    sys.stdout.write(piece)
            smtlib.write_smtlib(vc, write)
        job = smtlib.SolverJob(command, args.timeout, None, smt_path)
        verdict = smtlib.run_solver(job, vc.registry)
    finally:
        if not args.dump_smt and os.path.exists(smt_path):
            os.unlink(smt_path)
    if isinstance(verdict, Unsat):
        print(f"unsat: scenario {args.scenario!r} cannot violate its assertions "
              f"for any nondeterministic choices (within this scenario's bounds).")
        print(_INDUCTION_NOTE)
        return 0
    if isinstance(verdict, Unknown):
        print(f"unknown: {verdict.reason}")
        return 3
    if isinstance(verdict, SolverError):
        print(f"solver error (exit {verdict.exit_code}):\n{verdict.stderr}",
              file=sys.stderr)
        return 1
    assert isinstance(verdict, Sat)
    model_path = args.dump_model or f"{args.scenario}.model.smt2"
    with open(model_path, "w") as f:
        f.write(verdict.raw_model + "\n")
    result = eng.replay(tp, tree, layout, args.scenario, verdict.model,
                        args.capacity, args.trace_json)
    code = _report_run(result, args.trace_json)
    if code != 2:
        print("error: solver reported sat but the replay did not fail an "
              "assertion", file=sys.stderr)
        return 1
    print(f"model written to {model_path}")
    return 2


def cmd_trace(args) -> int:
    from . import engine as eng
    from . import smtlib

    tp, tree, layout = load(args.file)
    # A choice's name spells its id, so the model needs no symbolic run.
    model = smtlib.load_model_file(args.model)
    result = eng.replay(tp, tree, layout, args.scenario, model, args.capacity,
                        args.trace_json)
    return _report_run(result, args.trace_json)


def _usage_error(message: str) -> NoReturn:
    """Each parser's `error`: a usage error is a ToolError, which the caller
    reports as one `error:` line and exit 1, not argparse's exit 2."""
    raise ToolError(message)


def _capacity(text: str) -> int:
    """A --capacity value: an int, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# The VC bounds no array, so replaying a solver model bounds none by default.
_REPLAY_CAPACITY = "modifications each array may hold in the replay (default: no bound)"


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soclang",
        description="Model SoCs as component graphs and prove or break "
                    "security scenarios with an SMT solver.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, type-check, and elaborate a model")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run a scenario with random choices")
    p.add_argument("file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=_capacity, default=64,
                   help="modifications each array may hold (default 64)")
    p.add_argument("--trace-json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="prove a scenario or find an exploit")
    p.add_argument("file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--solver", help="command template, e.g. 'z3 -smt2 {file}'")
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--dump-smt", metavar="PATH")
    p.add_argument("--dump-model", metavar="PATH")
    p.add_argument("--dump-vc", action="store_true",
                   help="print the SMT-LIB verification condition")
    p.add_argument("--capacity", type=_capacity, help=_REPLAY_CAPACITY)
    p.add_argument("--trace-json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("trace", help="replay a saved solver model")
    p.add_argument("file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--capacity", type=_capacity, help=_REPLAY_CAPACITY)
    p.add_argument("--trace-json", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("dump-tree", help="print the elaborated instance tree")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dump_tree)
    # Set on each parser rather than by a subclass: argparse's parsers form
    # reference cycles, which must hold no instance of a class of ours.
    for parser in (ap, *sub.choices.values()):
        parser.error = _usage_error
    return ap


def main(argv: Optional[list] = None) -> int:
    """Run one command. Its failures are reported on stderr and exit 1."""
    args = _parse_args(argv)
    return 1 if args is None else _run(args)


def _parse_args(argv: Optional[list]) -> Optional[argparse.Namespace]:
    """The parsed command line, or None once a usage error is reported."""
    try:
        return build_arg_parser().parse_args(argv)
    except ToolError as err:
        print(f"error: {err}", file=sys.stderr)
        return None


def _run(args) -> int:
    try:
        return args.fn(args)
    except (SocError, TypeErrors) as err:
        print(err.report(), file=sys.stderr)
    except (OSError, ToolError) as err:
        print(f"error: {err}", file=sys.stderr)
    return 1


def entry() -> int:
    """The `soclang` process: one command from `sys.argv`, run without the
    cyclic garbage collector (see the module docstring)."""
    args = _parse_args(None)
    if args is None:
        return 1
    gc.collect(1)  # the parser is a reference cycle of argparse's
    gc.disable()
    code = _run(args)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
