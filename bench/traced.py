"""Traced in-process run: replays a workload's operations through the
package's public functions and records a span around each call.

Run by `run.py --trace 1` as a fresh process:

    python bench/traced.py SPEC_JSON SPANS_JSON

SPEC_JSON holds {"ops": [op spec, ...], "seconds": s}. The process imports
`soclang.cli` (timed as span `cli.import`), then runs whole passes over the
operations until `seconds` have elapsed. Spans are kept in memory and
written to SPANS_JSON at the end as rows
`[span_id, parent_id, op_id, pass, name, start, end]`, with one counts
record per operation. Nothing in the package is changed, except that the
names `soclang.parser.tokenize` and `soclang.smtlib.parse_model` are wrapped
for this process, so the lexer and model-parser shares of the enclosing
calls appear as child spans.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


class Tracer:
    """Spans in memory; each has a parent and belongs to one operation."""

    def __init__(self) -> None:
        self.rows: list = []
        self.stack: list = []
        self.op_id = -1
        self.pass_no = -1

    def span(self, name: str, fn, *args):
        sid = len(self.rows)
        parent = self.stack[-1] if self.stack else -1
        row = [sid, parent, self.op_id, self.pass_no, name, clock(), 0.0]
        self.rows.append(row)
        self.stack.append(sid)
        try:
            return fn(*args)
        finally:
            row[6] = clock()
            self.stack.pop()


def _dag_counts(root) -> tuple:
    """(id-distinct nodes, structurally distinct nodes) reachable from a term.

    Nodes are numbered bottom-up, a node's structural key holding the numbers
    of its children, so two nodes get one number exactly when they are equal
    terms.
    """
    from dataclasses import fields
    from soclang.terms import Term

    number: dict = {}      # id(node) -> structural number
    interned: dict = {}    # structural key -> number

    def shape(v):
        if isinstance(v, Term):
            return number[id(v)]
        if isinstance(v, tuple):
            return tuple(shape(x) for x in v)
        return v

    def kids(t):
        for f in fields(t):
            v = getattr(t, f.name)
            items = v if isinstance(v, tuple) else (v,)
            for x in items:
                if isinstance(x, Term):
                    yield x
                elif isinstance(x, tuple):
                    yield from (y for y in x if isinstance(y, Term))

    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if id(t) in number:
            continue
        if not expanded:
            stack.append((t, True))
            stack.extend((c, False) for c in kids(t) if id(c) not in number)
            continue
        key = (type(t).__name__,) + tuple(shape(getattr(t, f.name)) for f in fields(t))
        number[id(t)] = interned.setdefault(key, len(interned))
    return len(number), len(interned)


def main(spec_path: str, spans_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    tracer = Tracer()
    start = clock()
    tracer.span("cli.import", __import__, "soclang.cli")
    import_s = clock() - start

    from soclang import engine as eng
    from soclang import parser, smtlib
    from soclang.diagnostics import CapacityError, EngineError, SocError, TypeErrors
    from soclang.elaborate import dump_tree, elaborate
    from soclang.typecheck import check_program

    counts: dict = {}
    real_tokenize = parser.tokenize
    real_parse_model = smtlib.parse_model

    def tokenize(source, filename="<input>"):
        toks = tracer.span("lexer.tokenize", real_tokenize, source, filename)
        counts["tokens"] = counts.get("tokens", 0) + len(toks)
        return toks

    def parse_model(output, registry):
        counts["model_bytes"] = counts.get("model_bytes", 0) + len(output.encode())
        return tracer.span("smtlib.parse_model", real_parse_model, output, registry)

    parser.tokenize = tokenize
    smtlib.parse_model = parse_model

    def front(path):
        with open(path, encoding="utf-8") as f:
            source = f.read()
        program = tracer.span("parser.parse_program", parser.parse_program, source, path)
        tp = tracer.span("typecheck.check_program", check_program, program)
        tree, layout = tracer.span("elaborate.elaborate", elaborate, tp)
        counts["cells"] = len(layout.cells)
        return tp, tree, layout

    def exit_of(result) -> int:
        return {eng.Passed: 0, eng.AssertionFailed: 2}.get(type(result.verdict), 4)

    def run_op(op) -> int:
        cmd, path, scenario = op["argv"][0], op["file"], op["scenario"]
        try:
            tp, tree, layout = front(path)
        except TypeErrors as err:
            counts["type_errors"] = len(err.errors)
            return 1
        except SocError:
            return 1
        if cmd == "check":
            return 0
        if cmd == "dump-tree":
            tracer.span("elaborate.dump_tree", dump_tree, tp, tree)
            return 0
        if cmd == "run":
            seed = int(op["argv"][op["argv"].index("--seed") + 1])
            result = tracer.span("engine.run_scenario", eng.run_scenario, tp, tree,
                                 layout, scenario, eng.SeededRandom(seed), 64)
            return exit_of(result)
        vc = tracer.span("engine.sym_exec", eng.sym_exec, tp, tree, layout, scenario)
        counts["choices"] = len(vc.registry.infos)
        counts["vc"] = vc
        if cmd == "trace":
            model = tracer.span("smtlib.load_model_file", smtlib.load_model_file,
                                op["model"], vc.registry)
            result = tracer.span("engine.replay", eng.replay, tp, tree, layout,
                                 scenario, model, 64)
            return exit_of(result)
        text = tracer.span("smtlib.emit_smtlib", smtlib.emit_smtlib, vc)
        counts["smt_bytes"] = len(text.encode())
        counts["let_bindings"] = text.count("(let ((")
        smt = op["argv"][op["argv"].index("--dump-smt") + 1]
        solver = op["argv"][op["argv"].index("--solver") + 1]
        job = smtlib.SolverJob(smtlib.solver_command(solver), 600.0, text, smt)
        verdict = tracer.span("smtlib.run_solver", smtlib.run_solver, job, vc.registry)
        return 3 if isinstance(verdict, smtlib.Unknown) else 1

    records = []
    passes = 0
    loop_start = clock()
    while passes == 0 or clock() - loop_start < spec["seconds"]:
        tracer.pass_no = passes
        for i, op in enumerate(spec["ops"]):
            tracer.op_id = len(records)
            counts.clear()
            try:
                code = tracer.span("op", run_op, op)
            except (OSError, EngineError, CapacityError, smtlib.ModelParseError):
                code = 1
            vc = counts.pop("vc", None)
            if vc is not None and passes == 0:  # counts repeat on every pass
                counts["dag_nodes"], counts["distinct_nodes"] = _dag_counts(vc.query_term())
            records.append({"op": i, "pass": passes, "exit": code, "counts": dict(counts)})
        passes += 1

    with open(spans_path, "w") as f:
        json.dump({"import_s": import_s, "passes": passes, "ops": records,
                   "spans": tracer.rows}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
