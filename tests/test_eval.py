import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclang import ast, terms
from soclang import engine as eng
from soclang.diagnostics import CapacityError, EngineError
from soclang.engine import format_value
from soclang.terms import bv_sort, mk_bv, mk_const_array

from conftest import CORPUS, load_file, load_source


# -- sparse arrays -----------------------------------------------------------


def test_sparse_read_after_write():
    a = mk_const_array(8, mk_bv(8, 0))
    a = a.write(5, mk_bv(8, 9))
    assert a.read(5) == mk_bv(8, 9)
    assert a.read(6) == mk_bv(8, 0)


def test_sparse_random_sequence_matches_dense_oracle():
    rng = random.Random(42)
    sparse = mk_const_array(8, mk_bv(8, 0))
    dense = {}
    for _ in range(200):
        key = rng.randrange(256)
        if rng.random() < 0.5:
            val = mk_bv(8, rng.randrange(256))
            sparse = sparse.write(key, val)
            dense[key] = val
        else:
            assert sparse.read(key) == dense.get(key, mk_bv(8, 0))


def test_duplicate_keys_compact():
    a = mk_const_array(4, mk_bv(8, 0))
    a = a.write(1, mk_bv(8, 10)).write(2, mk_bv(8, 20)).write(1, mk_bv(8, 30))
    assert len(a.mods) == 2
    assert a.read(1) == mk_bv(8, 30)


def test_constants_compare_and_hash_by_value():
    assert mk_bv(8, 5) == mk_bv(8, 5) != mk_bv(16, 5)
    assert hash(mk_bv(8, 5)) == hash(mk_bv(8, 5))
    assert mk_const_array(4, mk_bv(8, 0)).write(1, mk_bv(8, 2)) == \
        mk_const_array(4, mk_bv(8, 0)).write(1, mk_bv(8, 2))
    # Every other term keeps identity equality.
    x = terms.Var(bv_sort(8), 0)
    assert terms.mk_add(x, mk_bv(8, 1)) != terms.mk_add(x, mk_bv(8, 1))


CAPACITY_MODEL = """
module Mem { instance cells: Array<BitInt(4), BitInt(8)>; }
module Main {
  instance m: Mem;
  mut fn two_keys_thrice() {
    m.cells.write(1u4, 1u8);
    m.cells.write(2u4, 2u8);
    m.cells.write(1u4, 3u8);
    assert(m.cells.read(1u4) == 3u8)
  }
  mut fn three_keys() {
    m.cells.write(1u4, 1u8);
    m.cells.write(2u4, 2u8);
    m.cells.write(3u4, 3u8);
    ()
  }
  mut fn snapshot_isolation() {
    let before = m.cells.get();
    m.cells.write(4u4, 9u8);
    let after = m.cells.get();
    assert(before[4u4] == 0u8);
    assert(after[4u4] == 9u8)
  }
}
"""


def test_capacity_allows_compacted_rewrites():
    tp, tree, layout = load_source(CAPACITY_MODEL)
    r = eng.run_scenario(tp, tree, layout, "two_keys_thrice",
                         eng.SeededRandom(0), capacity=2)
    assert isinstance(r.verdict, eng.Passed)


def test_capacity_exceeded_is_a_resource_error():
    tp, tree, layout = load_source(CAPACITY_MODEL)
    with pytest.raises(CapacityError):
        eng.run_scenario(tp, tree, layout, "three_keys",
                         eng.SeededRandom(0), capacity=2)


def test_snapshots_are_isolated_from_later_writes():
    tp, tree, layout = load_source(CAPACITY_MODEL)
    r = eng.run_scenario(tp, tree, layout, "snapshot_isolation", eng.SeededRandom(0))
    assert isinstance(r.verdict, eng.Passed)


# -- formatting --------------------------------------------------------------


MODE = ast.EnumRef("Mode", ("Off", "On", "Standby"))


def fmt(value, t):
    return format_value(value, t)


def test_format_request_record_like_attack_trace():
    t = ast.RecordType((("is_write", ast.BoolType()), ("is_secure", ast.BoolType()),
                        ("address", ast.BitIntType(48)), ("value", ast.BitIntType(64))))
    rec = {
        "is_write": terms.TRUE,
        "is_secure": terms.FALSE,
        "address": mk_bv(48, 0x8000_0000_0070),
        "value": mk_bv(64, 1),
    }
    assert fmt(rec, t) == ("{ is_write: true, is_secure: false, "
                           "address: 0x8000_0000_0070u48, value: 1 }")


def test_format_bool_and_small_bitvecs():
    assert fmt(terms.TRUE, ast.BoolType()) == "true"
    assert fmt(mk_bv(2, 3), ast.BitIntType(2)) == "3"
    assert fmt(mk_bv(64, 255), ast.BitIntType(64)) == "255"


def test_format_large_values_group_hex_and_carry_width():
    assert fmt(mk_bv(64, 0x48AD_C33C_FDC9_99D4), ast.BitIntType(64)) == \
        "0x48ad_c33c_fdc9_99d4u64"
    assert fmt(mk_bv(31, 0x1FFFFF), ast.BitIntType(31)) == "0x1f_ffffu31"
    assert fmt(mk_bv(16, 256), ast.BitIntType(16)) == "0x100u16"


def test_format_enum_vector_unit_and_record_array():
    assert fmt(mk_bv(2, 2), MODE) == "Standby"
    assert fmt((mk_bv(12, 5), mk_bv(12, 300)),
               ast.VectorType(ast.BitIntType(12), 2)) == "[5, 0x12cu12]"
    assert fmt(None, ast.UNIT) == "()"
    slots = {"tag": mk_const_array(3, mk_bv(4, 0)).write(1, mk_bv(4, 3)),
             "val": mk_const_array(3, mk_bv(8, 0)).write(1, mk_bv(8, 9))
             .write(6, mk_bv(8, 255))}
    entry = ast.RecordType((("tag", ast.BitIntType(4)), ("val", ast.BitIntType(8))))
    assert fmt(slots, ast.ArrayType(ast.BitIntType(3), entry)) == \
        "{ tag: array{1: 3; default 0}, val: array{1: 9, 6: 255; default 0} }"


def test_format_rejects_values_that_do_not_match_their_type():
    with pytest.raises(EngineError, match="symbolic value"):
        fmt(terms.Var(bv_sort(8), 0), ast.BitIntType(8))
    with pytest.raises(EngineError, match="symbolic array"):
        fmt(terms.Var(terms.arr_sort(3, bv_sort(8)), 0),
            ast.ArrayType(ast.BitIntType(3), ast.BitIntType(8)))
    with pytest.raises(EngineError, match="out of range"):
        fmt(mk_bv(2, 3), MODE)


# -- init store --------------------------------------------------------------


def test_init_store_matches_declared_initializers():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    store = eng.Engine(tp, tree, layout, anys=eng.SeededRandom(0)).concrete_store()
    assert store["miniTX1.cpu.is_secure"] is terms.TRUE
    assert store["miniTX1.asc.region0.START"] == mk_bv(64, 0)
    assert store["miniTX1.asc.region3.ATTR"] == mk_bv(64, 0)
    dram = store["miniTX1.dram.storage"]
    assert isinstance(dram, terms.SparseConst) and dram.key_width == 31
    assert dram.default == mk_bv(64, 0) and dram.mods == ()


# -- scenario runs -----------------------------------------------------------


def test_trivial_assert_passes_with_empty_transcript():
    tp, tree, layout = load_source("module Main { mut fn s() { assert(true) } }")
    r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
    assert isinstance(r.verdict, eng.Passed)
    assert r.transcript == []


def test_seeded_assume_failure():
    tp, tree, layout = load_source(
        "module Main { mut fn s() { assume(any<Bool>); assert(true) } }")
    seed = next(s for s in range(64)
                if isinstance(eng.run_scenario(tp, tree, layout, "s",
                                               eng.SeededRandom(s)).verdict,
                              eng.AssumeInfeasible))
    r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(seed))
    assert isinstance(r.verdict, eng.AssumeInfeasible)
    assert r.verdict.site.line == 1


def test_runs_are_deterministic_for_a_fixed_seed():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    a = eng.run_scenario(tp, tree, layout, "test_secure_area_unchanged",
                         eng.SeededRandom(123))
    b = eng.run_scenario(tp, tree, layout, "test_secure_area_unchanged",
                         eng.SeededRandom(123))
    assert a.transcript == b.transcript
    assert type(a.verdict) is type(b.verdict)
    assert a.store == b.store


def test_random_testing_misses_the_planted_vulnerability():
    # Bounded random runs never stumble onto the config-register attack;
    # every seed either passes or dies on the assume. This is what makes
    # `verify` worth having.
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    passed_seed = None
    for seed in range(3000):
        r = eng.run_scenario(tp, tree, layout, "test_secure_area_unchanged",
                             eng.SeededRandom(seed))
        assert not isinstance(r.verdict, eng.AssertionFailed), f"seed {seed}"
        if isinstance(r.verdict, eng.Passed):
            passed_seed = seed
            break
    assert passed_seed is not None, "no seed survived the assume in 3000 tries"


# -- the published attack, replayed from a hand-built model -----------------


def test_replaying_published_attack_values_reproduces_the_trace():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    vc = eng.sym_exec(tp, tree, layout, "test_secure_area_unchanged")
    infos = vc.registry.infos
    # Choice order: step1 (is_write, address, value, denied-response filler),
    # step2 (same), then the probed address.
    types = [str(i.type) for i in infos]
    assert types == ["Bool", "BitInt(48)", "BitInt(64)", "BitInt(64)",
                     "Bool", "BitInt(48)", "BitInt(64)", "BitInt(64)",
                     "BitInt(31)"]
    model = {
        infos[0].vid: terms.TRUE,
        infos[1].vid: mk_bv(48, 0x8000_0000_0070),
        infos[2].vid: mk_bv(64, 1),
        infos[4].vid: terms.TRUE,
        infos[5].vid: mk_bv(48, 0),
        infos[6].vid: mk_bv(64, 0x48AD_C33C_FDC9_99D4),
        infos[8].vid: mk_bv(31, 0),
    }
    r = eng.replay(tp, tree, layout, "test_secure_area_unchanged", model)
    assert isinstance(r.verdict, eng.AssertionFailed)
    attack_lines = r.transcript[6:]  # after the six setup lines
    assert attack_lines == [
        "CPU: request is { is_write: true, is_secure: false, "
        "address: 0x8000_0000_0070u48, value: 1 }\n",
        "ASC: Setting region3.ATTR to 1\n",
        "CPU: request is { is_write: true, is_secure: false, "
        "address: 0, value: 0x48ad_c33c_fdc9_99d4u64 }\n",
        "DRAM: Storing 0x48ad_c33c_fdc9_99d4u64 to 0\n",
    ]


@pytest.mark.parametrize("path, scenario", [
    (CORPUS / "mini_tx1_vulnerable.soc", "test_secure_area_unchanged"),
    (CORPUS / "assume_assert_invariant.soc", "unlocked_write_breaks_rows"),
])
def test_a_run_without_events_gives_the_same_result(path, scenario):
    # `trace` and `run` record events only for --trace-json.
    tp, tree, layout = load_file(path)
    recorded, bare = (eng.replay(tp, tree, layout, scenario, {}, record_events=flag)
                      for flag in (True, False))
    assert recorded.events and not bare.events
    assert type(bare.verdict) is type(recorded.verdict)
    assert (bare.transcript, bare.store) == (recorded.transcript, recorded.store)


def test_runs_record_no_events_by_default():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_vulnerable.soc")
    scenario = "test_secure_area_unchanged"
    assert eng.replay(tp, tree, layout, scenario, {}).events == []
    assert eng.run_scenario(tp, tree, layout, scenario, eng.SeededRandom(0)).events == []


def test_empty_model_defaults_to_zero_choices():
    tp, tree, layout = load_file(CORPUS / "mini_tx1_fixed.soc")
    r = eng.replay(tp, tree, layout, "test_secure_area_unchanged", {})
    assert isinstance(r.verdict, eng.Passed)


def test_havoc_draws_fresh_state_from_the_source():
    tp, tree, layout = load_source("""
module Pair {
  instance a: State<BitInt(8)>(0);
  instance b: State<BitInt(8)>(0);
}
module Main {
  instance p: Pair;
  mut fn s() {
    p.havoc();
    printf("a={p.a.get()} b={p.b.get()}\\n");
    assert(true)
  }
}
""")
    r1 = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(11))
    r2 = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(11))
    r3 = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(12))
    assert r1.transcript == r2.transcript
    assert r1.store == r2.store
    values = {r1.store["p.a"], r1.store["p.b"], r3.store["p.a"], r3.store["p.b"]}
    assert len(values) > 1, "havoc left every cell identical across seeds"


# -- record-valued arrays -------------------------------------------------------

RECORD_ARRAY_MODEL = """
type Entry = { tag: BitInt(4), val: BitInt(8) };
module T { instance slots: Array<BitInt(3), Entry>; }
module Main {
  instance t: T;
  mut fn s() {
    t.slots.write(1u3, { tag: 3u4, val: 9u8 });
    let e = t.slots.read(1u3);
    let snap = t.slots.get();
    t.slots.write(1u3, { tag: 0u4, val: 0u8 });
    assert(e.tag == 3u4);
    assert(snap[1u3].val == 9u8);
    assert(t.slots.read(1u3).val == 0u8);
    assert(t.slots.read(2u3).val == 0u8)
  }
}
"""


def test_arrays_of_records_read_write_snapshot():
    tp, tree, layout = load_source(RECORD_ARRAY_MODEL)
    r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
    assert isinstance(r.verdict, eng.Passed)
    slots = r.store["t.slots"]
    assert isinstance(slots, dict)
    tag_arr = slots["tag"]
    assert isinstance(tag_arr, terms.SparseConst) and tag_arr.key_width == 3
    assert tag_arr.read(1) == mk_bv(4, 0)


# -- slice laws --------------------------------------------------------------


def test_slice_law_on_published_address_bits():
    # 0x70 = 0b111_0000: bits [6:5] pick region 3, bits [4:3] register 2 (ATTR).
    assert (0x70 >> 5) & 0b11 == 3
    assert (0x70 >> 3) & 0b11 == 2
    tp, tree, layout = load_source("""
module Main {
  mut fn s() {
    let a = 0x70u48;
    assert(a[6 downto 5] == 3u2);
    assert(a[4 downto 3] == 2u2)
  }
}
""")
    r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
    assert isinstance(r.verdict, eng.Passed)


@given(st.integers(0, 2**64 - 1), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=200, deadline=None)
def test_slice_law_random(x, a, b):
    hi, lo = max(a, b), min(a, b)
    src = f"""
module Main {{
  mut fn s() {{
    let x = {x}u64;
    assert(x[{hi} downto {lo}] == {(x >> lo) % (1 << (hi - lo + 1))}u{hi - lo + 1})
  }}
}}
"""
    tp, tree, layout = load_source(src)
    r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
    assert isinstance(r.verdict, eng.Passed), (x, hi, lo)


# -- type preservation hook --------------------------------------------------


def test_runtime_values_match_static_types_on_a_mixed_scenario():
    tp, tree, layout = load_source("""
enum Mode { Off, On }
type Pair = { m: Mode, n: BitInt(12) };
module Main {
  instance log: State<Vector<BitInt(12), 2>>([0, 0]);
  mut fn s() {
    let p = any<Pair>;
    log.set(log.get()[0 := p.n]);
    printf("mode {p.m} n {p.n}\\n");
    assert(true)
  }
}
""")
    r = eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(5))
    assert isinstance(r.verdict, eng.Passed)
    (line,) = r.transcript
    assert line.startswith("mode ")
    store_vec = r.store["log"]
    assert isinstance(store_vec, tuple)
    assert len(store_vec) == 2
    for item in store_vec:
        assert isinstance(item, terms.BVC) and item.sort == bv_sort(12)


def test_type_oracle_rejects_a_let_value_of_the_wrong_width(monkeypatch):
    # A zero_extend that returns its argument leaves an 8-bit value where the
    # static type says 64 bits; only a check of each leaf's sort sees it.
    monkeypatch.setattr(terms, "mk_zext", lambda width, a: a)
    tp, tree, layout = load_source(
        "module Main { mut fn s() { let x = any<BitInt(8)>; "
        "let y = zero_extend<64>(x); assert(true) } }")
    with pytest.raises(AssertionError, match=r"let y: .* is not a value of type BitInt\(64\)"):
        eng.run_scenario(tp, tree, layout, "s", eng.SeededRandom(0))
