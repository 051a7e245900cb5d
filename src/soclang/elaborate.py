"""Elaboration: build the instance tree of the root module, whose State and
Array leaves are the state cells (`StateLayout.cells`, in depth-first
declaration order), and bind each callee to the sibling node it is wired to.

A binding is a weak reference: siblings may be wired to each other (or an
instance to itself), and the tree, which owns every node through
`children`, must form no reference cycle (see `cli`)."""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from . import ast
from .ast import MAX_NESTING
from .diagnostics import ElabError
from .typecheck import TypedProgram


class InstanceNode:
    """One node of the instance tree: a user module or a primitive cell."""

    def __init__(self, module: str, path: Tuple[str, ...], kind: str, span: ast.SourceSpan,
                 value_type: Optional[ast.TypeExpr] = None,
                 key_type: Optional[ast.TypeExpr] = None,
                 init: Optional[ast.Expr] = None) -> None:
        self.module = module  # module name, or "State"/"Array" for primitives
        self.path = path      # dot-path from the root (root itself is ())
        self.kind = kind      # "module" | "state" | "array"
        self.children: Dict[str, InstanceNode] = {}
        self.callees: Dict[str, weakref.ref] = {}  # callee -> wired sibling
        self.value_type, self.key_type, self.span = value_type, key_type, span
        self.init = init  # a State's initializer; None for arrays (default-zero contents)

    def dotted(self) -> str:
        return ".".join(self.path) if self.path else "(root)"


class StateLayout:
    def __init__(self, cells: List[InstanceNode]) -> None:
        self.cells = cells


def elaborate(tp: TypedProgram) -> Tuple[InstanceNode, StateLayout]:
    """The instance tree's root and the cell layout, with every wiring bound.
    Raises ElabError for instance cycles, instances nested past the budget,
    unbound callees, wirings to nonexistent instances, module mismatches,
    and duplicate wirings."""
    cells: List[InstanceNode] = []
    root_mod = tp.modules[tp.root_name]
    root = _instantiate(tp, root_mod, (), root_mod.span, cells, {})
    _check_callees_bound(tp, root)
    return root, StateLayout(cells)


def _instantiate(tp: TypedProgram, mod: ast.ModuleDecl, path: Tuple[str, ...],
                 span: ast.SourceSpan, cells: List[InstanceNode],
                 active: Dict[str, None]) -> InstanceNode:
    """The instance of `mod` at `path`, with its subtree; appends each leaf
    cell to `cells`. `active` holds the modules being instantiated,
    outermost first, so its length is the level of their instances."""
    node = InstanceNode(mod.name, path, "module", span)
    active[mod.name] = None
    for inst in mod.instances:
        if len(active) > MAX_NESTING:
            raise ElabError(inst.span, "instance nesting too deep")
        child_path = path + (inst.name,)
        ref = inst.ref
        if isinstance(ref, ast.ModuleRef):
            if ref.name in active:
                names = list(active)
                cycle = names[names.index(ref.name):] + [ref.name]
                raise ElabError(inst.span, "instance cycle: " + " -> ".join(cycle))
            node.children[inst.name] = _instantiate(
                tp, tp.modules[ref.name], child_path, inst.span, cells, active)
            continue
        vt = tp.resolve_type(ref.value_type)
        if isinstance(ref, ast.StatePrim):
            cell = InstanceNode("State", child_path, "state", inst.span, vt, init=ref.init)
        else:  # ArrayPrim
            cell = InstanceNode("Array", child_path, "array", inst.span, vt,
                                tp.resolve_type(ref.key_type))
        node.children[inst.name] = cell
        cells.append(cell)
    _wire(tp, mod, node)
    del active[mod.name]
    return node


def _wire(tp: TypedProgram, mod: ast.ModuleDecl, node: InstanceNode) -> None:
    for w in mod.wirings:
        if len(w.child_path) != 2:
            raise ElabError(w.span, "wiring source must be child.callee")
        child_name, callee_name = w.child_path
        child = node.children.get(child_name)
        if child is None or child.kind != "module":
            raise ElabError(w.span, f"wiring references nonexistent instance "
                                    f"{child_name!r}")
        child_mod = tp.modules[child.module]
        callee = next((c for c in child_mod.callees if c.name == callee_name), None)
        if callee is None:
            raise ElabError(w.span, f"module {child.module} has no callee "
                                    f"{callee_name!r}")
        if len(w.target_path) != 1:
            raise ElabError(w.span, "wiring target must be an instance of the "
                                    "wiring module")
        target = node.children.get(w.target_path[0])
        if target is None:
            raise ElabError(w.span, f"wiring target {w.target_path[0]!r} is not an "
                                    f"instance of {mod.name}")
        if target.module != callee.module:
            raise ElabError(w.span,
                            f"wiring target {target.dotted()} has module "
                            f"{target.module}, but callee {callee_name!r} expects "
                            f"{callee.module}")
        if callee_name in child.callees:
            raise ElabError(w.span, f"duplicate wiring for callee {callee_name!r} "
                                    f"of {child.dotted()}")
        child.callees[callee_name] = weakref.ref(target)


def _check_callees_bound(tp: TypedProgram, node: InstanceNode) -> None:
    if node.kind == "module":
        mod = tp.modules[node.module]
        for c in mod.callees:
            if c.name not in node.callees:
                raise ElabError(
                    node.span,
                    f"unbound callee {c.name!r} of instance {node.dotted()}")
        for child in node.children.values():
            _check_callees_bound(tp, child)


# ---------------------------------------------------------------------------
# Runtime path resolution (used by the execution engine)


def resolve_instance(frm: InstanceNode, prefix) -> InstanceNode:
    """The instance that a dotted prefix names from `frm`.

    The first segment is a local instance, else a callee; later segments
    are children. The type checker accepted the prefix (and with it the
    rule that only root-module code reaches through nested instances), and
    elaboration bound every callee, so each step exists (while the root,
    which owns every node, lives).
    """
    node = frm
    for i, seg in enumerate(prefix):
        if i == 0 and seg not in node.children:
            node = node.callees[seg]()
        else:
            node = node.children[seg]
    return node


def dump_tree(tp: TypedProgram, root: InstanceNode) -> str:
    """Indented text rendering of the instance tree, one path per line."""
    lines: List[str] = []
    _dump_node(tp.root_name, root, 0, lines)
    return "\n".join(lines) + "\n"


def _dump_node(root_name: str, node: InstanceNode, depth: int, lines: List[str]) -> None:
    name = node.dotted() if node.path else root_name
    if node.kind == "state":
        kind = f"State<{node.value_type}>"
    elif node.kind == "array":
        kind = f"Array<{node.key_type}, {node.value_type}>"
    else:
        kind = node.module
    lines.append("  " * depth + f"{name} : {kind}")
    for child in node.children.values():
        _dump_node(root_name, child, depth + 1, lines)
