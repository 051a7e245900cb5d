"""Lexer for `.soc` source text.

`tokenize` returns the whole token list before parsing starts, so a lex
error anywhere in a file is reported ahead of any syntax error. A token
lies on one line and keeps only its start: its span is built on demand.
The tokens of one call share their lexemes (one string per distinct text).
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import List, NoReturn, Optional

from .ast import SourceSpan
from .diagnostics import LexError

KEYWORDS = {
    "module", "instance", "callee", "type", "enum", "fn", "mut", "let",
    "if", "else", "any", "assume", "assert", "printf", "downto",
    "true", "false",
}

# Multi-character operators first so maximal munch wins.
PUNCT = [
    "->", ":=", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", "<", ">",
    ",", ";", ":", ".", "+", "-", "*", "!", "=",
]


class TokKind(Enum):
    IDENT = auto()
    KEYWORD = auto()
    INT = auto()
    STRING = auto()
    PUNCT = auto()
    EOF = auto()


class Token:
    """One token: its kind, its lexeme and where it starts. Its `span` is
    built when asked for, which only diagnostics and the AST leaves made
    from a single token do. Its lexeme is shared with every token of the
    same text from the same `tokenize` call, and so are the AST's names."""

    __slots__ = ("kind", "lexeme", "file", "line", "col")
    # Payloads of literal tokens; set only on a `Literal`.
    value: Optional[int] = None
    width: Optional[int] = None
    is_hex = False

    def __init__(self, kind: TokKind, lexeme: str, file: str, line: int, col: int) -> None:
        # One statement per field: faster than a tuple assignment of five.
        self.kind = kind
        self.lexeme = lexeme
        self.file = file
        self.line = line
        self.col = col

    @property
    def end_col(self) -> int:
        return self.col + len(self.lexeme)

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, self.line, self.end_col)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r})"


class Literal(Token):
    """An integer literal: its value and is_hex, and its width from a
    u<width> suffix. A string literal is a plain token; the printf parser
    reads its escapes from the lexeme."""

    __slots__ = ("value", "width", "is_hex")

    def __init__(self, kind: TokKind, lexeme: str, file: str, line: int, col: int,
                 value: Optional[int] = None, width: Optional[int] = None,
                 is_hex: bool = False) -> None:
        super().__init__(kind, lexeme, file, line, col)
        self.value, self.width, self.is_hex = value, width, is_hex


# What each string escape `\<key>` stands for.
STRING_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "{": "{", "}": "}"}


# One match per token: the trivia before it, then one alternative per token
# class. Trivia is a run of whitespace (one fast loop, the common case), then
# comments and single whitespace characters; no quantifier nests another.
# `eof` and `bad` make every match succeed, so the trivia is never matched
# twice. Anything no class matches (including the start of an unterminated
# comment or string) falls to `bad`, which reports it.
_TOKEN = re.compile(r"""
    [ \t\r\n]*(?:[ \t\r\n]|//[^\n]*|/\*(?s:.*?)\*/)*
    (?:
      (?P<word>[A-Za-z_][A-Za-z0-9_]*|""" + "|".join(re.escape(p) for p in PUNCT) + r""")
    | (?P<number>(?P<digits>(?P<hex>0[xX][0-9a-fA-F][0-9a-fA-F_]*)|(?!0[xX])[0-9][0-9_]*)
          (?:u(?P<width>[0-9]+))?)
    | (?P<string>"(?:[^"\\\n]|\\[""" + re.escape("".join(STRING_ESCAPES)) + r"""])*")
    | (?P<eof>\Z)
    | (?P<bad>(?s:.))
    )
""", re.VERBOSE)

# Each keyword and operator with its kind; `tokenize` adds identifiers.
_WORDS = {**{k: (k, TokKind.KEYWORD) for k in KEYWORDS},
          **{p: (p, TokKind.PUNCT) for p in PUNCT}}

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def decode_source(data: bytes, filename: str) -> str:
    """The text of a UTF-8 source file, with newlines read as text-mode
    `open` reads them; an invalid byte is a LexError at its line and column."""
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = data[:err.start].decode("utf-8")
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise LexError(SourceSpan(filename, line, col, line, col + 1),
                       f"invalid UTF-8 byte 0x{data[err.start]:02x}") from None


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Full token list ending in an EOF token; comments skipped.

    Raises LexError for bad characters, unterminated comments/strings, and
    literals that exceed their declared width.
    """
    toks: List[Token] = []
    append = toks.append
    words = _WORDS.copy()
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    pos = 0  # where the previous token ended
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != pos:
            # Trivia was skipped; only trivia holds newlines.
            newline = source.rfind("\n", pos, start)
            if newline >= 0:
                line += source.count("\n", pos, newline) + 1
                line_start = newline + 1
        pos = end
        col = start - line_start + 1
        if kind == "word":
            text = m.group(kind)
            entry = words.get(text)
            if entry is None:
                words[text] = entry = (text, TokKind.IDENT)
            append(Token(entry[1], entry[0], filename, line, col))
        elif kind == "number":
            append(_number(m, filename, line, col, source))
        elif kind == "string":
            append(Token(TokKind.STRING, m.group(kind), filename, line, col))
        elif kind == "eof":
            break
        else:
            _bad(source, start, filename, line, col)
    append(Token(TokKind.EOF, "", filename, line, pos - line_start + 1))
    return toks


def _number(m: re.Match, filename: str, line: int, col: int, source: str) -> Token:
    tok = Literal(TokKind.INT, m.group("number"), filename, line, col,
                  is_hex=m.group("hex") is not None)
    body = m.group("digits")
    tok.value = int(body.replace("_", ""), 16 if tok.is_hex else 10)
    # A u<width> suffix binds to the literal: 0x1f_ffffu31
    if m.group("width") is not None:
        tok.width = int(m.group("width"))
        if tok.width < 1:
            raise LexError(tok.span, "bit width must be at least 1")
        if tok.value >= (1 << tok.width):
            raise LexError(tok.span, f"literal {body} does not fit in {tok.width} bits")
    if source[m.end():m.end() + 1] in _IDENT_START:
        raise LexError(tok.span, f"malformed number literal {body!r}")
    return tok


def _bad(source: str, pos: int, filename: str, line: int, col: int) -> NoReturn:
    """Raise the LexError for input at `pos` (at `line`:`col`) that starts
    no token; the error span ends where the offending input ends."""
    def error(end: int, message: str) -> LexError:
        newlines = source.count("\n", pos, end)
        end_col = end - source.rfind("\n", 0, end) if newlines else col + end - pos
        return LexError(SourceSpan(filename, line, col, line + newlines, end_col), message)

    if source.startswith("/*", pos):
        raise error(len(source), "unterminated comment")
    if source.startswith(("0x", "0X"), pos):
        raise error(pos + 2, "expected hex digits after 0x")
    if source[pos] == '"':
        # The string pattern failed: find the first character it could not take.
        i = pos + 1
        while i < len(source) and source[i] not in '"\n':
            if source[i] == "\\":
                if i + 1 == len(source):
                    raise error(i + 1, "unterminated string literal")
                if source[i + 1] not in STRING_ESCAPES:
                    raise error(i + 2, f"unknown escape \\{source[i + 1]}")
                i += 1
            i += 1
        raise error(i, "unterminated string literal")
    raise error(pos + 1, f"unexpected character {source[pos]!r}")
