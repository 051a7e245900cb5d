"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to watch them). Tolerances are fixed here:

  1. exploit rediscovery on the vulnerable model, < 120 s
  2. fix proof (unsat) on the fixed model, < 120 s
  3. induction triple proven, < 300 s total
  4. solver verdict == exhaustive enumeration on >= 20 micro scenarios
  5. replay of every dumped model reproduces the verify transcript exactly
  6. 10,000 sparse-array sequences agree with a dense oracle at every read
  7. >= 15 ill-typed files rejected on their marked lines; corpus checks pass
  8. 10,000 random slice evaluations obey x[hi downto lo] = (x >> lo) mod 2^n
"""

import random
import re
import time

from soclang import engine as eng
from soclang import smtlib, terms
from soclang.terms import mk_bv, mk_const_array

from conftest import (CORPUS, brute_force_violating, load_source,
                      registry_bits, requires_z3, run_cli, solve_vc)
from microgen import all_micro_scenarios
from test_corpus import ILL_TYPED, MANIFEST, marked_line

VULN = str(CORPUS / "mini_tx1_vulnerable.soc")
FIXED = str(CORPUS / "mini_tx1_fixed.soc")

CONFIG_BASE = 0x8000_0000_0000
SECURE_TOP = 0xFF_FFFF


def report(n: int, name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS {detail}".rstrip())


def parse_trace_int(text: str) -> int:
    text = text.strip()
    text = re.sub(r"u\d+$", "", text)
    return int(text.replace("_", ""), 0)


def cpu_request_fields(line: str):
    m = re.match(r"CPU: request is \{ (.*) \}", line.strip())
    if not m:
        return None
    fields = {}
    for part in m.group(1).split(", "):
        key, _, value = part.partition(": ")
        fields[key] = value
    return fields


@requires_z3
def test_criterion_1_exploit_rediscovery(tmp_path):
    start = time.monotonic()
    code, out, err = run_cli(
        "verify", VULN, "--scenario", "test_secure_area_unchanged",
        "--dump-model", str(tmp_path / "m.smt2"))
    elapsed = time.monotonic() - start
    assert code == 2, f"expected exit 2, got {code}: {err}"
    assert elapsed < 120, f"took {elapsed:.1f}s"

    lines = out.splitlines()
    grant_at = None
    for i, line in enumerate(lines):
        fields = cpu_request_fields(line)
        if not fields or fields.get("is_write") != "true":
            continue
        addr = parse_trace_int(fields["address"])
        if (addr >> 7) != (CONFIG_BASE >> 7):
            continue
        if (addr >> 3) & 0b11 != 2:  # not an ATTR register
            continue
        region = (addr >> 5) & 0b11
        follow = lines[i + 1] if i + 1 < len(lines) else ""
        m = re.match(rf"ASC: Setting region{region}\.ATTR to (\S+)", follow)
        if m and parse_trace_int(m.group(1)) == 1:
            grant_at = i
            break
    assert grant_at is not None, \
        f"no CPU write granting non-secure access via an ATTR register:\n{out}"

    store_ok = False
    for line in lines[grant_at + 1:]:
        m = re.match(r"DRAM: Storing \S+ to (\S+)", line.strip())
        if m and parse_trace_int(m.group(1)) <= SECURE_TOP:
            store_ok = True
            break
    assert store_ok, f"no subsequent store into [0x0, 0xff_ffff]:\n{out}"
    report(1, "exploit rediscovery",
           f"({elapsed:.1f}s; ATTR grant then secure-range store)")


@requires_z3
def test_criterion_2_fix_proof():
    start = time.monotonic()
    code, out, err = run_cli("verify", FIXED, "--scenario",
                             "test_secure_area_unchanged")
    elapsed = time.monotonic() - start
    assert code == 0, f"expected exit 0, got {code}: {out}{err}"
    assert out.startswith("unsat:")
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(2, "fix proof", f"({elapsed:.1f}s, unsat)")


@requires_z3
def test_criterion_3_induction_triple():
    start = time.monotonic()
    for scenario in ("base_case", "inductive_step", "invariant_is_useful"):
        code, out, err = run_cli("verify", FIXED, "--scenario", scenario)
        assert code == 0, f"{scenario}: exit {code}\n{out}{err}"
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"triple took {elapsed:.1f}s"
    report(3, "induction triple", f"({elapsed:.1f}s total, 3x unsat)")


@requires_z3
def test_criterion_4_brute_force_oracle_agreement(tmp_path):
    scenarios = all_micro_scenarios()
    assert len(scenarios) >= 20
    agreements = 0
    for name, source in scenarios:
        tp, tree, layout = load_source(source, name)
        vc = eng.sym_exec(tp, tree, layout, "s")
        assert registry_bits(vc.registry) <= 16, name
        verdict = solve_vc(vc, tmpdir=tmp_path)
        assert isinstance(verdict, (smtlib.Sat, smtlib.Unsat)), (name, verdict)
        solver_sat = isinstance(verdict, smtlib.Sat)
        oracle_sat = brute_force_violating(tp, tree, layout, "s")
        assert solver_sat == oracle_sat, \
            f"{name}: solver={'sat' if solver_sat else 'unsat'} " \
            f"enumeration={'sat' if oracle_sat else 'unsat'}"
        agreements += 1
    report(4, "brute-force oracle",
           f"({agreements}/{len(scenarios)} scenarios agree)")


@requires_z3
def test_criterion_5_replay_fidelity(tmp_path):
    checked = 0
    for entry in MANIFEST:
        if entry["verify"] != "exploit":
            continue
        path = CORPUS / entry["file"]
        model = tmp_path / f"{entry['scenario']}.model.smt2"
        code, vout, _ = run_cli("verify", str(path), "--scenario",
                                entry["scenario"], "--dump-model", str(model))
        assert code == 2
        code2, tout, _ = run_cli("trace", str(path), "--scenario",
                                 entry["scenario"], "--model", str(model))
        assert code2 == 2
        vlines = vout.splitlines(keepends=True)
        assert vlines[-1].startswith("model written to")
        assert "".join(vlines[:-1]) == tout, \
            f"{entry['file']}::{entry['scenario']} transcripts differ"
        assert "FAILED ASSERTION at" in tout
        checked += 1

    # Every satisfiable micro scenario round-trips through its model file too.
    for name, source in all_micro_scenarios():
        tp, tree, layout = load_source(source, name)
        vc = eng.sym_exec(tp, tree, layout, "s")
        verdict = solve_vc(vc, tmpdir=tmp_path)
        if not isinstance(verdict, smtlib.Sat):
            continue
        model_path = tmp_path / f"{name}.model.smt2"
        model_path.write_text(verdict.raw_model + "\n")
        model = smtlib.load_model_file(str(model_path), vc.registry)
        first = eng.replay(tp, tree, layout, "s", model)
        second = eng.replay(tp, tree, layout, "s", model)
        assert isinstance(first.verdict, eng.AssertionFailed), name
        assert first.transcript == second.transcript
        checked += 1
    assert checked >= 4
    report(5, "replay fidelity", f"({checked} sat verdicts reproduced)")


def test_criterion_6_sparse_array_oracle():
    rng = random.Random(2024)
    sequences = 10_000
    reads_checked = 0
    for _ in range(sequences):
        pool = rng.sample(range(256), rng.randint(1, 48))
        sparse = mk_const_array(8, mk_bv(8, 0))
        dense = {}
        for _ in range(rng.randint(2, 12)):
            key = rng.choice(pool)
            if rng.random() < 0.6:
                val = mk_bv(8, rng.randrange(256))
                sparse = sparse.write(key, val)
                dense[key] = val
                assert len(sparse.mods) <= 64, "capacity exceeded despite compaction"
            else:
                expected = dense.get(key, mk_bv(8, 0))
                assert sparse.read(key) == expected
                reads_checked += 1
        probe = rng.randrange(256)
        assert sparse.read(probe) == dense.get(probe, mk_bv(8, 0))
        reads_checked += 1
    report(6, "sparse array oracle",
           f"({sequences} sequences, {reads_checked} reads checked)")


def test_criterion_7_type_checker_suite():
    assert len(ILL_TYPED) >= 15
    for path in ILL_TYPED:
        code, _, err = run_cli("check", str(path))
        assert code == 1, f"{path.name} unexpectedly accepted"
        expected = marked_line(path)
        reported = [int(m.group(1)) for m in
                    re.finditer(rf"{re.escape(path.name)}:(\d+):\d+: error:", err)]
        assert expected in reported, \
            f"{path.name}: wanted line {expected}, diagnostics: {err!r}"
    well_typed = sorted(CORPUS.glob("*.soc"))
    for path in well_typed:
        code, _, err = run_cli("check", str(path))
        assert code == 0, f"{path.name} rejected: {err}"
    report(7, "type-checker suite",
           f"({len(ILL_TYPED)} rejections on marked lines, "
           f"{len(well_typed)} models accepted)")


def test_criterion_8_slice_law():
    rng = random.Random(7)
    # The engine lowers every slice (both execution modes) to mk_extract.
    for _ in range(10_000):
        width = rng.randint(1, 64)
        x = rng.randrange(1 << width)
        hi = rng.randrange(width)
        lo = rng.randint(0, hi)
        got = terms.mk_extract(hi, lo, terms.mk_bv(width, x))
        assert isinstance(got, terms.BVC)
        assert got.value == (x >> lo) % (1 << (hi - lo + 1)), (x, hi, lo)
    # And end to end through the language for a sample.
    for _ in range(20):
        width = rng.randint(2, 48)
        x = rng.randrange(1 << width)
        hi = rng.randrange(width)
        lo = rng.randint(0, hi)
        expected = (x >> lo) % (1 << (hi - lo + 1))
        tp, tree, layout = load_source(f"""
module Main {{
  mut fn s() {{
    let x = {x}u{width};
    assert(x[{hi} downto {lo}] == {expected}u{hi - lo + 1})
  }}
}}
""")
        r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
        assert isinstance(r.verdict, eng.Passed), (x, hi, lo)
    report(8, "slice law", "(10,000 extract checks + 20 end-to-end)")
