"""Concrete runtime values, sparse arrays, and printf formatting."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class BitVec:
    width: int
    value: int  # always reduced mod 2**width

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))


@dataclass(frozen=True)
class EnumVal:
    enum: str
    variant: str
    index: int


@dataclass(frozen=True)
class RecordVal:
    fields: Tuple[Tuple[str, "ConcreteValue"], ...]  # declaration order

    def get(self, name: str):
        for n, v in self.fields:
            if n == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class VectorVal:
    items: Tuple["ConcreteValue", ...]


class ModList:
    """A default plus a modification list: later entries shadow earlier ones.

    Shared by concrete arrays (`SparseArray`) and constant array terms
    (`terms.SparseConst`). The write path compacts duplicate keys in place,
    so `mods` holds at most one entry per key; capacity is enforced by the
    engine, not here.
    """

    def read(self, key: int):
        for k, v in reversed(self.mods):
            if k == key:
                return v
        return self.default

    def write(self, key: int, value):
        mods = self.mods
        for i, (k, _) in enumerate(mods):
            if k == key:
                return replace(self, mods=mods[:i] + ((key, value),) + mods[i + 1:])
        return replace(self, mods=mods + ((key, value),))


@dataclass(frozen=True)
class SparseArray(ModList):
    """Concrete bounded array over `key_width`-bit keys."""

    key_width: int
    default: "ConcreteValue"
    mods: Tuple[Tuple[int, "ConcreteValue"], ...] = ()


ConcreteValue = object  # bool | int (unbounded Int) | BitVec | EnumVal | RecordVal | VectorVal | SparseArray


def format_value(v: ConcreteValue) -> str:
    """Render a value the way traces print it.

    Small bitvector values print in decimal; larger ones print as grouped hex
    with a u<width> suffix. Records print their fields in declaration order.
    """
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, BitVec):
        if v.value < 256:
            return str(v.value)
        digits = f"{v.value:x}"
        rem = len(digits) % 4
        groups = ([digits[:rem]] if rem else []) + \
                 [digits[i:i + 4] for i in range(rem, len(digits), 4)]
        return "0x" + "_".join(groups) + f"u{v.width}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, EnumVal):
        return v.variant
    if isinstance(v, RecordVal):
        inner = ", ".join(f"{n}: {format_value(x)}" for n, x in v.fields)
        return "{ " + inner + " }"
    if isinstance(v, VectorVal):
        return "[" + ", ".join(format_value(x) for x in v.items) + "]"
    if isinstance(v, SparseArray):
        mods = ", ".join(f"{k}: {format_value(x)}" for k, x in v.mods)
        return "array{" + mods + ("; " if mods else "") + \
            f"default {format_value(v.default)}" + "}"
    if v is None:
        return "()"
    raise AssertionError(f"unformattable value {v!r}")
