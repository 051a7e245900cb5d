from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from soclang import ast, terms
from soclang import engine as eng
from soclang import parser, smtlib
from soclang.elaborate import elaborate
from soclang.lexer import tokenize
from soclang.parser import parse_program
from soclang.typecheck import check_program

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"

Z3_AVAILABLE = shutil.which("z3") is not None

requires_z3 = pytest.mark.skipif(not Z3_AVAILABLE, reason="z3 binary not on PATH")


def has_cvc5() -> bool:
    try:
        import cvc5  # noqa: F401
        return True
    except ImportError:
        return False


requires_cvc5 = pytest.mark.skipif(not has_cvc5(), reason="cvc5 package not installed")


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


# ---------------------------------------------------------------------------
# Type preservation: in every concrete run of a test, each `let` checks that
# its value is a constant of the value's static type. A test marked
# `without_type_oracle` runs the engine as the CLI does.


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "without_type_oracle: run `let`s without the type-preservation check")


def check_value(tree, t: ast.TypeExpr, where: str, key_width=None) -> None:
    """Fail an assertion unless `tree` is a constant value of type t:
    unit is None, a record has the type's field names, a vector its length,
    and a leaf is a constant of `sort_of(t)` naming a variant if t is an
    enum. Inside an array snapshot (`key_width` set) a leaf is a constant
    array from `key_width`-bit keys to such constants."""
    def fail(value, t) -> None:
        raise AssertionError(f"{where}: {value!r} is not a value of type {t}")

    if isinstance(t, ast.UnitType):
        if tree is not None:
            fail(tree, t)
    elif isinstance(t, ast.RecordType):
        if not isinstance(tree, dict) or tree.keys() != {n for n, _ in t.fields}:
            fail(tree, t)
        for n, ft in t.fields:
            check_value(tree[n], ft, where, key_width)
    elif isinstance(t, ast.VectorType):
        if not isinstance(tree, tuple) or len(tree) != t.length:
            fail(tree, t)
        for x in tree:
            check_value(x, t.elem, where, key_width)
    elif isinstance(t, ast.ArrayType):
        check_value(tree, t.value, where, t.key.width)
    else:
        sort, leaves = eng.sort_of(t), (tree,)
        if key_width is not None:
            if not isinstance(tree, terms.SparseConst) or \
                    tree.sort != terms.arr_sort(key_width, sort):
                fail(tree, f"Array<BitInt({key_width}), {t}>")
            leaves = (tree.default, *(v for _, v in tree.mods))
        for leaf in leaves:
            if not isinstance(leaf, (terms.BoolC, terms.BVC, terms.IntC)) or \
                    leaf.sort != sort or \
                    isinstance(t, ast.EnumRef) and leaf.value >= len(t.variants):
                fail(leaf, t)


_compile_let = eng.Engine._COMPILE[ast.Let]


def _compile_checked_let(engine: eng.Engine, e: ast.Let):
    let = _compile_let(engine, e)
    if engine.anys is None:
        return let
    name, t = e.name, engine.tp.types[e.value.node_id]
    where = f"{e.span}: let {name}"

    def checked_let(env, frame):
        let(env, frame)
        check_value(env[name], t, where)
    return checked_let


@pytest.fixture(autouse=True)
def type_preservation_oracle(request, monkeypatch) -> None:
    if request.node.get_closest_marker("without_type_oracle") is None:
        monkeypatch.setitem(eng.Engine._COMPILE, ast.Let, _compile_checked_let)


def parse_expr(source: str, filename: str = "<expr>") -> ast.Expr:
    """One expression, parsed as a printf hole is, at nesting level 1."""
    return parser._expr(tokenize(source, filename), filename, 0)


def module_of(program: ast.Program, name: str) -> ast.ModuleDecl:
    return next(m for m in program.modules if m.name == name)


def load_source(source: str, name: str = "<test>"):
    tp = check_program(parse_program(source, name))
    tree, layout = elaborate(tp)
    return tp, tree, layout


def load_file(path):
    return load_source(Path(path).read_text(), str(path))


def instance_chain(depth: int) -> str:
    """Main instances M0, which instances M1, ... down to M<depth-1>."""
    mods = [f"module M{i} {{ instance x: M{i + 1}; }}\n" for i in range(depth - 1)]
    return "".join(mods) + f"module M{depth - 1} {{ }}\nmodule Main {{ instance x: M0; }}\n"


def call_chain(n: int) -> str:
    """Main with scenario f0, which calls f1, ... down to f<n-1>."""
    fns = "".join(f"  mut fn f{i}() {{ f{i + 1}() }}\n" for i in range(n - 1))
    return f"module Main {{\n{fns}  mut fn f{n - 1}() {{ () }}\n}}\n"


# Sources that elaboration rejects, each with the location and message of its
# one diagnostic: the instance declaration that closes a cycle, or the one
# that nests past the budget (`ast.MAX_NESTING`). M0 is at level 1, so that
# is the declaration of M128, in M127 on line 128.
INSTANCE_NESTING = {
    "self": ("module Main {\n  instance m: Main;\n}\n",
             ":2:3: error: instance cycle: Main -> Main"),
    "two modules": ("module Main {\n  instance a: A;\n}\nmodule A {\n  instance m: Main;\n}\n",
                    ":5:3: error: instance cycle: Main -> A -> Main"),
    "1,500-level chain": (instance_chain(1500), ":128:15: error: instance nesting too deep"),
}


def solve_vc(vc, timeout: float = 120.0, command: str | None = None,
             tmpdir: Path | None = None):
    """Emit, run the external solver, return its verdict."""
    import tempfile

    text = smtlib.emit_smtlib(vc)
    d = tmpdir or Path(tempfile.mkdtemp(prefix="soclang-test-"))
    path = d / "query.smt2"
    job = smtlib.SolverJob(command or smtlib.DEFAULT_SOLVER, timeout, text, str(path))
    return smtlib.run_solver(job, vc.registry)


def enumerate_assignments(registry):
    """All total assignments to a registry's choice variables (scalars only)."""
    domains = []
    for info in registry.infos:
        t = info.type
        if isinstance(t, ast.BoolType):
            domains.append([terms.FALSE, terms.TRUE])
        elif isinstance(t, ast.BitIntType):
            domains.append([terms.mk_bv(t.width, v) for v in range(1 << t.width)])
        elif isinstance(t, ast.EnumRef):
            domains.append([terms.mk_bv(t.width, i) for i in range(len(t.variants))])
        else:
            raise AssertionError(f"cannot enumerate {t}")
    for combo in itertools.product(*domains):
        yield {info.vid: v for info, v in zip(registry.infos, combo)}


def brute_force_violating(tp, tree, layout, scenario: str) -> bool:
    """Does any total choice assignment make the scenario fail an assertion?

    Exhaustive interpreter enumeration: the independent route against the
    solver verdict.
    """
    vc = eng.sym_exec(tp, tree, layout, scenario)
    bits = registry_bits(vc.registry)
    assert bits <= 16, f"scenario too wide for enumeration: {bits} bits"
    for model in enumerate_assignments(vc.registry):
        result = eng.replay(tp, tree, layout, scenario, model)
        if isinstance(result.verdict, eng.AssertionFailed):
            return True
    return False


def registry_bits(registry) -> int:
    total = 0
    for info in registry.infos:
        t = info.type
        if isinstance(t, ast.BoolType):
            total += 1
        elif isinstance(t, ast.BitIntType):
            total += t.width
        elif isinstance(t, ast.EnumRef):
            total += t.width
        else:
            raise AssertionError(f"array choice in a micro scenario: {t}")
    return total


def run_cli(*args: str, cwd=None):
    """Run the installed CLI in a subprocess; returns (exit, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "soclang.cli", *args],
        capture_output=True, text=True, cwd=cwd or REPO_ROOT)
    return proc.returncode, proc.stdout, proc.stderr
