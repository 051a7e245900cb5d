"""Harness over the bundled corpus: the manifest drives verify expectations,
and every ill-typed file must be rejected on its marked line."""

import re
from pathlib import Path

import pytest

from soclang import ast
from soclang.parser import parse_program

from conftest import CORPUS, module_of, requires_z3, run_cli
from printer import walk


def parse_manifest(path: Path):
    entries = []
    current = None
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[entry]":
            current = {"fragments": []}
            entries.append(current)
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "fragment":
            current["fragments"].append(value)
        else:
            current[key] = value
    return entries


MANIFEST = parse_manifest(CORPUS / "manifest.txt")
EXPECTED_EXIT = {"proven": 0, "exploit": 2}


def test_manifest_covers_the_required_entries():
    by_file = {}
    for e in MANIFEST:
        by_file.setdefault(e["file"], set()).add(e["scenario"])
    assert by_file["mini_tx1_vulnerable.soc"] == {"test_secure_area_unchanged"}
    assert {"base_case", "inductive_step", "invariant_is_useful",
            "test_secure_area_unchanged"} <= by_file["mini_tx1_fixed.soc"]
    assert "monitor_read_detect.soc" in by_file
    assert "assume_assert_invariant.soc" in by_file


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[f"{e['file']}::{e['scenario']}" for e in MANIFEST])
@requires_z3
def test_manifest_entry(entry, tmp_path):
    path = CORPUS / entry["file"]
    args = ["verify", str(path), "--scenario", entry["scenario"],
            "--dump-model", str(tmp_path / "m.smt2")]
    code, out, err = run_cli(*args)
    assert code == EXPECTED_EXIT[entry["verify"]], (out, err)
    for fragment in entry["fragments"]:
        assert fragment in out, f"missing fragment {fragment!r} in:\n{out}"


def test_all_wellformed_corpus_files_pass_check():
    for path in sorted(CORPUS.glob("*.soc")):
        code, _, err = run_cli("check", str(path))
        assert code == 0, f"{path.name}: {err}"


# -- ill-typed suite -----------------------------------------------------------

ILL_TYPED = sorted((CORPUS / "ill-typed").glob("*.soc"))


def marked_line(path: Path) -> int:
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if "//!" in line:
            return i
    raise AssertionError(f"{path.name} has no //! marker")


def test_ill_typed_suite_is_large_enough():
    assert len(ILL_TYPED) >= 15


# The whole of `check`'s stderr for each file, after its path: message text
# and column are part of the contract, not only the line.
ILL_TYPED_DIAGNOSTICS = {
    "any_in_pure.soc": "3:5: error: 'any' is not allowed in a pure fn",
    "arity_mismatch.soc": "4:13: error: double expects 1 arguments, got 2",
    "array_snapshot_equality.soc":
        "10:12: error: equality on indexed collections is not supported "
        "(compare elements at an any-chosen index instead)",
    "assume_non_bool.soc": "3:12: error: type mismatch: expected Bool, found BitInt(8)",
    "callee_misuse.soc": "10:5: error: only the root module may reach through "
                         "nested instances; use a callee",
    "cannot_infer_width.soc": "3:13: error: cannot infer width of integer literal "
                              "(add a u<width> suffix or a type annotation)",
    "deep_path_from_module.soc": "10:5: error: only the root module may reach "
                                 "through nested instances; use a callee",
    "enum_unknown_variant.soc": "4:14: error: enum Op has no variant 'Frobnicate'",
    "literal_too_wide.soc": "3:13: error: literal 0x1_0000 does not fit in 16 bits",
    "missing_record_field.soc": "4:22: error: record literal is missing fields: value",
    "mut_from_pure.soc": "5:5: error: mut fn 'bump' cannot be called from a pure fn",
    "nonunit_statement.soc": "4:5: error: type mismatch: expected (), found BitInt(8)",
    "recursion_direct.soc": "2:3: error: recursive call cycle: Main.spin -> Main.spin",
    "recursion_mutual.soc":
        "2:3: error: recursive call cycle: Main.even -> Main.odd -> Main.even",
    "slice_out_of_range.soc": "4:14: error: slice [64 downto 0] out of range for BitInt(64)",
    "slice_reversed.soc": "4:13: error: slice bounds must satisfy hi >= lo, got 2 downto 5",
    "state_access_in_pure.soc": "4:5: error: state access is not allowed in a pure fn",
    "syntax_error.soc": "3:13: error: expected expression, found ';'",
    "unbound_callee.soc": "9:3: error: unbound callee 'dram' of instance asc",
    "unknown_name.soc": "3:13: error: unknown name 'missing_thing'",
    "unknown_record_field.soc": "4:23: error: record literal has unknown fields: extra",
    "vector_equality.soc":
        "5:12: error: equality on indexed collections is not supported "
        "(compare elements at an any-chosen index instead)",
    "vector_index_too_wide.soc":
        "4:13: error: index width 2 can exceed vector length 3 (need 2^width <= length)",
    "width_mismatch.soc": "5:17: error: type mismatch: expected BitInt(32), found BitInt(64)",
    "wiring_wrong_module.soc": "14:3: error: wiring target rom has module Rom, "
                               "but callee 'dram' expects Dram",
}


def test_every_ill_typed_file_has_a_pinned_diagnostic():
    assert sorted(ILL_TYPED_DIAGNOSTICS) == [p.name for p in ILL_TYPED]


@pytest.mark.parametrize("path", ILL_TYPED, ids=lambda p: p.name)
def test_ill_typed_file_rejected_on_the_marked_line(path: Path):
    code, _, err = run_cli("check", str(path))
    assert code == 1, f"{path.name} unexpectedly accepted"
    expected = marked_line(path)
    reported = [int(m.group(1)) for m in
                re.finditer(rf"{re.escape(path.name)}:(\d+):\d+: error:", err)]
    assert expected in reported, (
        f"{path.name}: expected a diagnostic on line {expected}, got {err!r}")
    assert err == f"{path}:{ILL_TYPED_DIAGNOSTICS[path.name]}\n"


# -- published constants pinned --------------------------------------------------


def test_region_setup_constants():
    program = parse_program((CORPUS / "mini_tx1_vulnerable.soc").read_text(), "v")
    main = module_of(program, "Main")
    setup = next(f for f in main.fns if f.name == "setup_regions")
    writes = []
    for node in walk(setup.body):
        if isinstance(node, ast.RecordLit):
            fields = dict(node.fields)
            writes.append((fields["address"].value, fields["value"].value))
    assert writes == [
        (0x8000_0000_0000, 0x0),          # region0.START
        (0x8000_0000_0008, 0xFF_FFFF),    # region0.END
        (0x8000_0000_0010, 2),            # region0.ATTR = secure
        (0x8000_0000_0020, 0x100_0000),   # region1.START
        (0x8000_0000_0028, 0x3_FFFF_FFFF),  # region1.END
        (0x8000_0000_0030, 1),            # region1.ATTR = non-secure
    ]


def test_scenario_probe_bound():
    for name in ("mini_tx1_vulnerable.soc", "mini_tx1_fixed.soc"):
        program = parse_program((CORPUS / name).read_text(), name)
        main = module_of(program, "Main")
        scen = next(f for f in main.fns if f.name == "test_secure_area_unchanged")
        bounds = [n for n in walk(scen.body)
                  if isinstance(n, ast.IntLit) and n.width == 31]
        assert [b.value for b in bounds] == [0x1F_FFFF]


def test_fixed_file_differs_only_in_gate_and_induction():
    vuln = (CORPUS / "mini_tx1_vulnerable.soc").read_text()
    fixed = (CORPUS / "mini_tx1_fixed.soc").read_text()
    assert "is_region_config_addr(r.address) && r.is_secure" in fixed
    assert "is_region_config_addr(r.address) && r.is_secure" not in vuln
    for fn in ("base_case", "inductive_step", "invariant_is_useful"):
        assert f"mut fn {fn}()" in fixed
        assert f"mut fn {fn}()" not in vuln
