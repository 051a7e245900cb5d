"""Benchmark of the soclang command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. Workloads (inputs are generated from --seed
by workloads.py and written under .bench_work/):

  frontend  `check` and `dump-tree` on the corpus, the ill-typed files and
            wide models; lexer, parser, type checker and elaborator only.
  vcgen     `verify` with a stand-in solver (`sh -c 'echo unknown'`) on the
            manifest entries and mini_tx1 unrolled 8..256 steps; symbolic
            execution and SMT-LIB emission.
  replay    `trace --model` on generated model files and `run --seed`;
            concrete execution and model parsing.

--trace 0 is a closed loop with one client: it runs `python -m soclang.cli`
as fresh child processes (forked by spawner.py, so that each reports its own
peak memory), one at a time, in whole shuffled rounds over the
workload's operations until --seconds have passed and at least 100
operations ran; every sample goes to .bench_work/<workload>/samples.json.
It reports the end-to-end metrics:

  setup_s        median wall time of a fresh `python -c "import soclang.cli"`,
                 sampled before every SETUP_EVERY-th operation
  cli_s.p50      median wall time of one CLI child, spawn to exit
  cli_s.p90      90th percentile (nearest rank) of the same
  cli_cpu_s.p50  median user+sys CPU time of one child (os.wait4 rusage)
  peak_rss_mb    highest child ru_maxrss

--trace 1 runs one round of CLI children plus the two crash probes, then a
separate traced in-process run (traced.py) that records spans around the
package's public functions. It reports the per-layer metrics (self times
and counts per round), the crash-probe failed ratio and the SMT-LIB bytes
dumped for the distinct inputs.
Spans and the per-module report go to .bench_work/<workload>/.

Every run checks the outputs (exit codes, diagnostics on the marked line,
transcript fragments, each dumped query with the evaluator in smteval.py,
and each trace and run result against the same replay done in-process)
and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. `--workload
all` runs every workload in both modes, prints each metric by name and
unit, and exits non-zero if any check failed.

There is no SMT solver here: solver time is not measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

TIMED_SPANS = ("lexer.tokenize", "parser.parse_program", "typecheck.check_program",
               "elaborate.elaborate", "engine.sym_exec", "smtlib.emit_smtlib",
               "smtlib.run_solver", "smtlib.parse_model", "engine.replay",
               "engine.run_scenario")
# Per-layer counts: metric name -> key of the traced run's count records.
COUNTS = {"lexer.tokens": "tokens", "typecheck.errors": "type_errors",
          "elaborate.cells": "cells", "engine.choices": "choices",
          "terms.dag_nodes": "dag_nodes", "terms.distinct_nodes": "distinct_nodes",
          "smtlib.smt_bytes": "smt_bytes", "smtlib.let_bindings": "let_bindings",
          "smtlib.model_bytes": "model_bytes"}

SETUP_EVERY = 16       # one import sample per this many operations
MIN_OPS = 100          # so that cli_s.p90 has at least ten samples beyond it
CHILD_TIMEOUT = 120


@dataclass
class Child:
    """Outcome of one CLI child process."""

    code: int
    wall: float     # seconds, spawn to exit
    cpu: float      # user + sys seconds
    rss_kb: int     # ru_maxrss
    out: str
    err: str


class Runner:
    """Runs children one at a time through spawner.py, which measures each
    with os.wait4. Call close() when done."""

    def __init__(self, work: str) -> None:
        self.work = work
        tmp = os.path.join(work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmp)
        self.out_path = os.path.join(work, "child.out")
        self.err_path = os.path.join(work, "child.err")
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv) -> Child:
        request = {"argv": argv, "out": self.out_path, "err": self.err_path,
                   "timeout": CHILD_TIMEOUT}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise SystemExit("error: the spawner stopped")
        r = json.loads(line)
        with open(self.out_path, encoding="utf-8", errors="replace") as f:
            out_text = f.read()
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            err_text = f.read()
        return Child(r["code"], r["wall"], r["cpu"], r["rss_kb"], out_text, err_text)

    def cli(self, op) -> Child:
        return self.spawn([sys.executable, "-m", "soclang.cli", *op.argv])

    def import_s(self) -> float:
        """Wall time of a fresh `import soclang.cli`."""
        child = self.spawn([sys.executable, "-c", "import soclang.cli"])
        if child.code != 0:
            raise SystemExit(f"error: cannot import soclang.cli:\n{child.err}")
        return child.wall


# ---------------------------------------------------------------------------
# Checks


def known_answer(op, child: Child) -> list:
    """Problems with one CLI result; empty when it is the expected answer."""
    problems = []
    if child.code not in op.exits:
        problems.append(f"exit {child.code}, expected one of {list(op.exits)}")
    if "Traceback" in child.err:
        problems.append("printed a traceback")
    if op.diag_line is not None and f"{op.file}:{op.diag_line}:" not in child.err:
        problems.append(f"no diagnostic on line {op.diag_line}")
    for fragment in op.fragments:
        if fragment not in child.out:
            problems.append(f"transcript lacks {fragment!r}")
    if op.cmd == "verify" and not op.probe and "unknown" not in child.out:
        problems.append("verify did not report unknown")
    if op.cmd == "dump-tree" and not child.out.strip():
        problems.append("empty dump-tree output")
    return [f"{op.name}: {p}" for p in problems]


class Outputs:
    """Outputs that must repeat exactly across rounds: dump-tree text, the
    exit code and output of trace and run, and dumped queries. Keeps the
    first of each for the checks after timing."""

    def __init__(self) -> None:
        self.first: dict = {}

    def record(self, op, child: Child) -> list:
        if op.cmd == "dump-tree":
            text = child.out
        elif op.cmd in ("trace", "run"):
            text = (child.code, child.out)
        elif op.smt_path and child.code in op.exits and os.path.exists(op.smt_path):
            with open(op.smt_path) as f:
                text = f.read()
        else:
            return []
        seen = self.first.setdefault(op.name, text)
        return [] if seen == text else [f"{op.name}: output differs between rounds"]


def check_queries(builder, outputs: Outputs, seed: int) -> list:
    """Evaluate every dumped query under the op's assignments and replay
    each assignment. Exploits must make the query true and no assignment
    may make a proven query true. In every scenario here each assume comes
    before each assert, so a replay fails an assertion exactly when the
    query holds. Runs once per distinct output, outside any timed interval."""
    from soclang import engine, smtlib
    from smteval import EvalError, evaluate, read_query
    from workloads import ModelWriter

    writer = ModelWriter(random.Random(seed))
    problems = []
    for op in {o.name: o for o in builder.ops}.values():
        if op.vc is None:
            continue
        text = outputs.first.get(op.name)
        if text is None:
            problems.append(f"{op.name}: no query was dumped")
            continue
        tp, tree, layout, vc = builder.program(op.file, op.scenario)
        decls = builder.decls(op.file, op.scenario)
        try:
            query = read_query(text)
            for i, a in enumerate(op.vc.exploits + op.vc.samples):
                holds = evaluate(query, a)
                model = smtlib.parse_model(writer.text(decls, a), vc.registry)
                verdict = engine.replay(tp, tree, layout, op.scenario, model).verdict
                if i < len(op.vc.exploits) and not holds:
                    problems.append(f"{op.name}: exploit {i} does not satisfy the query")
                if holds and op.vc.verdict == "proven":
                    problems.append(f"{op.name}: an assignment satisfies a proven query")
                if holds != isinstance(verdict, engine.AssertionFailed):
                    problems.append(f"{op.name}: query is {holds} but replay gives "
                                    f"{type(verdict).__name__}")
        except EvalError as err:
            problems.append(f"{op.name}: cannot evaluate the query: {err}")
    return problems


def check_replays(builder, outputs: Outputs, seed: int) -> list:
    """Each trace and run result must equal the same replay done in-process:
    trace with the assignment written out again in other literal and array
    forms, run with the same seed. Runs once per distinct output, outside
    any timed interval."""
    from soclang import engine, smtlib
    from workloads import ModelWriter

    writer = ModelWriter(random.Random(seed + 1))
    problems = []
    for op in {o.name: o for o in builder.ops}.values():
        if op.name not in outputs.first or op.cmd not in ("trace", "run"):
            continue
        tp, tree, layout, vc = builder.program(op.file, op.scenario)
        if op.cmd == "trace":
            text = writer.text(builder.decls(op.file, op.scenario), op.assignment)
            result = engine.replay(tp, tree, layout, op.scenario,
                                   smtlib.parse_model(text, vc.registry))
        else:
            seed_arg = int(op.argv[op.argv.index("--seed") + 1])
            result = engine.run_scenario(tp, tree, layout, op.scenario,
                                         engine.SeededRandom(seed_arg))
        code = {engine.Passed: 0, engine.AssertionFailed: 2}.get(type(result.verdict), 4)
        transcript = "".join(line if line.endswith("\n") else line + "\n"
                             for line in result.transcript)
        cli_code, cli_out = outputs.first[op.name]
        if cli_code != code or not cli_out.startswith(transcript):
            problems.append(f"{op.name}: CLI gave exit {cli_code}, in-process replay "
                            f"exit {code}" + ("" if cli_out.startswith(transcript)
                                              else " and another transcript"))
    return problems


# ---------------------------------------------------------------------------
# Measurement


def p90(values) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_round(runner: Runner, ops, outputs: Outputs, setup=None) -> tuple:
    """Run `ops` as CLI children in order; (op, child, ok) rows and problems.
    Appends an import time to the list `setup`, if given, before every
    SETUP_EVERY-th operation, so that the samples see the same machine as
    the operations."""
    results, problems = [], []
    for i, op in enumerate(ops):
        if setup is not None and i % SETUP_EVERY == 0:
            setup.append(runner.import_s())
        child = runner.cli(op)
        bad = known_answer(op, child) + outputs.record(op, child)
        problems += bad
        results.append((op, child, not bad))
    return results, problems


def timed_loop(runner: Runner, builder, outputs: Outputs, rng: random.Random,
               seconds: float, setup: list) -> tuple:
    """Whole shuffled rounds: at least MIN_OPS operations, and as many rounds
    as bring the elapsed time nearest to `seconds`. Whole rounds keep the
    mix of operations, and so the percentiles, the same in every run."""
    results, problems = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        order = list(builder.ops)
        rng.shuffle(order)
        rows, bad = run_round(runner, order, outputs, setup)
        results += rows
        problems += bad
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_OPS and elapsed + elapsed / rounds / 2 >= seconds:
            return results, problems


def end_to_end(results, setup: float) -> dict:
    walls = [c.wall if ok else math.inf for _, c, ok in results]
    p90_wall = p90(walls)
    return {"setup_s": setup,
            "cli_s.p50": statistics.median(walls),
            "cli_s.p90": p90_wall if p90_wall != math.inf else None,
            "cli_cpu_s.p50": statistics.median(c.cpu for _, c, _ in results),
            "peak_rss_mb": max(c.rss_kb for _, c, _ in results) / 1024}


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    own = {row[0]: row[6] - row[5] for row in spans}
    for row in spans:
        if row[1] >= 0:
            own[row[1]] -= row[6] - row[5]
    return own


def traced_run(runner: Runner, builder, seconds: float) -> dict:
    spec = os.path.join(runner.work, "traced-spec.json")
    spans_path = os.path.join(runner.work, "spans.json")
    with open(spec, "w") as f:
        json.dump({"ops": [op.spec() for op in builder.ops], "seconds": seconds}, f)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "traced.py"), spec,
                           spans_path], env=runner.env, cwd=ROOT, capture_output=True,
                          text=True, timeout=seconds + 150)
    if proc.returncode != 0:
        raise SystemExit(f"error: traced run failed:\n{proc.stderr}")
    with open(spans_path) as f:
        return json.load(f)


def layer_metrics(trace: dict, builder, cli_results, setup: float) -> tuple:
    """Per-layer metrics of a traced run, the per-module report, the
    problems found in the traced results and the number of traced ops
    that failed."""
    spans = trace["spans"]
    own = self_times(spans)
    n_ops = len(builder.ops)
    passes = trace["passes"]
    problems = []

    per_pass = [dict.fromkeys(TIMED_SPANS, 0.0) for _ in range(passes)]
    module_self = {}
    op_time = [0.0] * passes
    unrolled_sym = [0.0] * passes     # sym_exec self time on unrolled inputs
    path_error = 0.0
    by_op = {}
    for row in spans:
        sid, parent, op_id, pass_no, name = row[:5]
        if pass_no < 0:
            continue
        module = name.split(".")[0] if "." in name else "bench"
        module_self[module] = module_self.get(module, 0.0) + own[sid]
        if name in per_pass[pass_no]:
            per_pass[pass_no][name] += own[sid]
        if name == "engine.sym_exec" and builder.ops[trace["ops"][op_id]["op"]].steps:
            unrolled_sym[pass_no] += own[sid]
        by_op.setdefault(op_id, []).append(sid)
        if name == "op":
            op_time[pass_no] += row[6] - row[5]
    # Single-threaded, so an op's blocking path is its whole span tree: the
    # self times of its spans must add up to the op span's duration.
    for op_id, sids in by_op.items():
        root = next(s for s in sids if spans[s][4] == "op")
        total = sum(own[s] for s in sids)
        path_error = max(path_error, abs(total - (spans[root][6] - spans[root][5])))
    if path_error > 1e-6:
        problems.append(f"traced run: self times miss the op time by {path_error:.3g} s")

    metrics = {f"{name}_s": statistics.median(pp[name] for pp in per_pass)
               for name in TIMED_SPANS}
    first = [r for r in trace["ops"] if r["pass"] == 0]
    for metric, key in COUNTS.items():
        metrics[metric] = sum(r["counts"].get(key, 0) for r in first)
    traced_failed = 0
    for r in trace["ops"]:
        op = builder.ops[r["op"]]
        if r["exit"] not in op.exits:
            traced_failed += 1
            problems.append(f"traced {op.name}: exit {r['exit']}, "
                            f"expected one of {list(op.exits)}")
    metrics["cli.import_s"] = trace["import_s"]
    tok_s = metrics["lexer.tokenize_s"]
    metrics["lexer.tokens_per_s"] = metrics["lexer.tokens"] / tok_s if tok_s else 0.0
    steps = sum(op.steps for op in builder.ops)
    metrics["engine.sym_exec_s_per_step"] = \
        statistics.median(unrolled_sym) / steps if steps else 0.0
    dag = metrics["terms.dag_nodes"]
    metrics["terms.distinct_ratio"] = metrics["terms.distinct_nodes"] / dag if dag else 0.0
    in_process = statistics.median(op_time) / n_ops
    cli = sum(c.wall - setup for op, c, _ in cli_results if not op.probe) / n_ops
    metrics["bench.trace_overhead_s"] = in_process - cli
    report = {"passes": passes, "ops_per_pass": n_ops,
              "module_self_s_per_pass": {m: v / passes for m, v in sorted(module_self.items())},
              "in_process_op_s_per_pass": statistics.median(op_time),
              "path_sum_max_error_s": path_error}
    return metrics, report, problems, traced_failed


# ---------------------------------------------------------------------------


def environment() -> dict:
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        sha = ref
    except OSError:
        pass
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": os.cpu_count(), "solver": "stand-in (sh echo unknown)"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    runner = Runner(work)
    try:
        return measure(runner, workload, work, seed, seconds, trace, env)
    finally:
        runner.close()


def measure(runner: Runner, workload: str, work: str, seed: int, seconds: float,
            trace: bool, env: dict) -> int:
    import workloads

    runner.import_s()  # may write bytecode caches; not a sample
    setup: list = []
    builder = workloads.build(workload, ROOT, os.path.join(work, "inputs"), seed)
    rng = random.Random(seed)
    outputs = Outputs()

    if not trace:
        results, problems = timed_loop(runner, builder, outputs, rng, seconds, setup)
        problems += check_queries(builder, outputs, seed)
        problems += check_replays(builder, outputs, seed)
        metrics = end_to_end(results, statistics.median(setup))
        with open(os.path.join(work, "samples.json"), "w") as f:
            json.dump({"setup_s": setup, "ops": [[op.name, c.wall, c.cpu, c.rss_kb, ok]
                                                  for op, c, ok in results]}, f)
        listed = "end_to_end"
        attempted = len(results)
        failed = sum(1 for _, _, ok in results if not ok)
    else:
        # One round of CLI children and the crash probes, then the traced run
        # for the rest of the measuring time.
        start = time.perf_counter()
        order = list(builder.ops)
        rng.shuffle(order)
        results, problems = run_round(runner, order, outputs, setup)
        probes, probe_problems = run_round(runner, builder.probes, outputs)
        results += probes
        for p in probe_problems:
            print(f"probe {p}", file=sys.stderr)
        trace_data = traced_run(runner, builder, seconds - (time.perf_counter() - start))
        problems += check_queries(builder, outputs, seed)
        problems += check_replays(builder, outputs, seed)
        metrics, report, traced_problems, traced_failed = layer_metrics(
            trace_data, builder, results, statistics.median(setup))
        problems += traced_problems
        # smt_bytes counts each distinct input once; an op repeated in a round
        # counts as often in the per-pass smtlib.smt_bytes.
        dumped = sum(len(outputs.first[op.name].encode())
                     for op in {o.name: o for o in builder.ops}.values()
                     if op.smt_path and op.name in outputs.first)
        emitted = sum({builder.ops[r["op"]].name: r["counts"].get("smt_bytes", 0)
                       for r in trace_data["ops"] if r["pass"] == 0}.values())
        if dumped != emitted:
            problems.append(f"CLI dumped {dumped} SMT-LIB bytes, the traced run "
                            f"emitted {emitted}")
        metrics["smt_bytes"] = dumped
        metrics["failed_ratio"] = sum(1 for _, _, ok in results if not ok) / len(results)
        listed = "per_layer"
        attempted = sum(1 for op, _, _ in results if not op.probe) + len(trace_data["ops"])
        failed = sum(1 for op, _, ok in results if not op.probe and not ok) + traced_failed
        report.update(environment=env, workload=workload, seed=seed, metrics=metrics,
                      spans_file=os.path.relpath(os.path.join(work, "spans.json"), ROOT))
        with open(os.path.join(work, "report.json"), "w") as f:
            json.dump(report, f, indent=2)
        print("self time per module, per pass (s): " + ", ".join(
            f"{m}={v:.4f}" for m, v in report["module_self_s_per_pass"].items()),
            file=sys.stderr)
        print(f"in-process op time per pass {report['in_process_op_s_per_pass']:.4f} s; "
              f"self times add up to it within {report['path_sum_max_error_s']:.2g} s",
              file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[listed]}
    problems += [f"metric {name} was not measured" for name in units
                 if metrics.get(name) is None]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics.get(k), "unit": u}
                                  for k, u in units.items()}}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each as its own process."""
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: benchmark failed", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']!s:>24} {m['unit']}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in (os.path.join(SRC, "soclang", "cli.py"),
                           os.path.join(ROOT, "corpus", "manifest.txt"))
               if not os.path.isfile(p)]
    if missing:
        print(f"error: run from a soclang checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
