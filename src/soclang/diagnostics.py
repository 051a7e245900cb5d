"""Errors shared by all phases.

A located error reports one line per diagnostic: `file:line:col: error: <message>`.
"""

from __future__ import annotations

from typing import List


class SocError(Exception):
    """Base for all located toolchain errors."""

    def __init__(self, span, message: str) -> None:
        super().__init__(f"{span}: error: {message}")
        self.span = span
        self.message = message

    def report(self) -> str:
        return f"{self.span}: error: {self.message}"


class LexError(SocError):
    pass


class ParseError(SocError):
    pass


class TypeCheckError(SocError):
    pass


class TypeErrors(Exception):
    """A non-empty batch of type errors from checking one program."""

    def __init__(self, errors: List[TypeCheckError]) -> None:
        super().__init__("\n".join(e.report() for e in errors))
        self.errors = errors

    def report(self) -> str:
        return "\n".join(e.report() for e in self.errors)


class ElabError(SocError):
    pass


class ToolError(Exception):
    """Base for toolchain errors without a source location: `error: <message>`."""


class CapacityError(ToolError):
    """Sparse-array modification budget exceeded (a resource error, not a verdict)."""

    def __init__(self, path: str, capacity: int) -> None:
        super().__init__(f"sparse array {path}: capacity of {capacity} modifications exceeded")
        self.path = path
        self.capacity = capacity


class EngineError(ToolError):
    """Internal execution failure (corrupt model values, resource limits)."""
