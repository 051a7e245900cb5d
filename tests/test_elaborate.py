import pytest

from soclang.diagnostics import ElabError
from soclang.elaborate import dump_tree, elaborate
from soclang.parser import parse_program
from soclang.typecheck import check_program

from conftest import CORPUS, INSTANCE_NESTING, load_file


@pytest.fixture(scope="module")
def mini_tx1():
    return load_file(CORPUS / "mini_tx1_vulnerable.soc")


def _nodes(node):
    """The nodes of the instance tree under `node`, depth first, each
    before its children, in declaration order."""
    yield node
    for child in node.children.values():
        yield from _nodes(child)


def _node(root, dotted: str):
    return next(n for n in _nodes(root) if ".".join(n.path) == dotted)


def test_instance_tree_paths(mini_tx1):
    _, tree, _ = mini_tx1
    paths = {".".join(n.path) for n in _nodes(tree) if n.path}
    for expected in ["miniTX1.cpu", "miniTX1.asc", "miniTX1.asc.region0",
                     "miniTX1.asc.region1", "miniTX1.asc.region2",
                     "miniTX1.asc.region3", "miniTX1.dram"]:
        assert expected in paths


def test_callee_bindings(mini_tx1):
    _, tree, _ = mini_tx1
    asc = _node(tree, "miniTX1.asc")
    assert asc.callees["dram"]() is _node(tree, "miniTX1.dram")
    cpu = _node(tree, "miniTX1.cpu")
    assert cpu.callees["asc"]() is asc


def test_cell_count_equals_reachable_primitives(mini_tx1):
    _, tree, layout = mini_tx1
    prim_nodes = [n for n in _nodes(tree) if n.kind in ("state", "array")]
    assert len(layout.cells) == len(prim_nodes)
    # 4 regions x 3 registers + cpu flag + dram array
    assert len(layout.cells) == 14


def test_cells_are_the_leaves_of_the_tree_in_declaration_order(mini_tx1):
    _, tree, layout = mini_tx1
    leaves = [n for n in _nodes(tree) if n.kind in ("state", "array")]
    assert len(layout.cells) == len(leaves)
    assert all(c is n for c, n in zip(layout.cells, leaves))
    # States carry their initializer; arrays start all zero.
    assert all((c.init is not None) == (c.kind == "state") for c in layout.cells)


def test_elaboration_is_deterministic(mini_tx1):
    tp, tree, layout = mini_tx1
    tree2, layout2 = elaborate(tp)
    assert [c.path for c in layout.cells] == [c.path for c in layout2.cells]
    assert [n.path for n in _nodes(tree)] == [n.path for n in _nodes(tree2)]


def test_dump_tree_golden(mini_tx1):
    tp, tree, _ = mini_tx1
    text = dump_tree(tp, tree)
    lines = text.splitlines()
    assert lines[0] == "Main : Main"
    assert "    miniTX1.cpu : CPU" in lines
    assert "      miniTX1.cpu.is_secure : State<Bool>" in lines
    assert "      miniTX1.dram.storage : Array<BitInt(31), BitInt(64)>" in lines
    assert dump_tree(tp, tree) == text


def _elab(source: str):
    tp = check_program(parse_program(source, "t.soc"))
    return elaborate(tp)


def test_unbound_callee_is_an_error():
    with pytest.raises(ElabError, match="unbound callee 'dram'"):
        _elab("""
module Dram { mut fn store(v: BitInt(8)) { () } }
module Asc {
  callee dram: Dram;
  mut fn fwd(v: BitInt(8)) { dram.store(v) }
}
module Main {
  instance asc: Asc;
  mut fn go() { asc.fwd(1u8) }
}
""")


def test_duplicate_wiring_is_an_error():
    with pytest.raises(ElabError, match="duplicate wiring"):
        _elab("""
module Dram { mut fn store(v: BitInt(8)) { () } }
module Asc {
  callee dram: Dram;
  mut fn fwd(v: BitInt(8)) { dram.store(v) }
}
module Main {
  instance asc: Asc;
  instance d1: Dram;
  instance d2: Dram;
  asc.dram -> d1;
  asc.dram -> d2;
  mut fn go() { asc.fwd(1u8) }
}
""")


def test_wrong_module_wiring_is_an_error():
    with pytest.raises(ElabError, match="expects Dram"):
        _elab("""
module Dram { mut fn store(v: BitInt(8)) { () } }
module Rom { mut fn load() -> BitInt(8) { 0u8 } }
module Asc {
  callee dram: Dram;
  mut fn fwd(v: BitInt(8)) { dram.store(v) }
}
module Main {
  instance asc: Asc;
  instance rom: Rom;
  asc.dram -> rom;
  mut fn go() { asc.fwd(1u8) }
}
""")


def test_two_callees_may_share_a_target():
    tree, _ = _elab("""
module Bus { mut fn poke() { () } }
module Dev {
  callee north: Bus;
  callee south: Bus;
  mut fn go() { north.poke(); south.poke() }
}
module Main {
  instance bus: Bus;
  instance dev: Dev;
  dev.north -> bus;
  dev.south -> bus;
  mut fn go() { dev.go() }
}
""")
    dev = _node(tree, "dev")
    assert dev.callees["north"]() is dev.callees["south"]() is _node(tree, "bus")


@pytest.mark.parametrize("case", list(INSTANCE_NESTING))
def test_instance_cycle_or_deep_chain_is_a_located_error(case):
    source, where = INSTANCE_NESTING[case]
    with pytest.raises(ElabError) as info:
        _elab(source)
    assert info.value.report() == f"t.soc{where}"
