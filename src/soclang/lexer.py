"""Lexer for `.soc` source text."""

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
    # value and is_hex: integer literals; width: a u<width> suffix;
    # text: a decoded string literal
    __slots__ = ("kind", "lexeme", "span", "value", "width", "is_hex", "text")

    def __init__(self, kind: TokKind, lexeme: str, span: SourceSpan,
                 value: Optional[int] = None, width: Optional[int] = None,
                 is_hex: bool = False, text: Optional[str] = None) -> None:
        self.kind, self.lexeme, self.span = kind, lexeme, span
        self.value, self.width, self.is_hex = value, width, is_hex
        self.text = text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r})"


# One alternative per token class, tried at each position in this order.
# Trivia is the only token that can hold a newline, so line numbers are
# counted over it alone. Anything no class matches (including the start of
# an unterminated comment or string) falls to `bad`, which reports it.
_TOKEN = re.compile(r"""
    (?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>(?P<digits>(?P<hex>0[xX][0-9a-fA-F][0-9a-fA-F_]*)|(?!0[xX])[0-9][0-9_]*)
        (?:u(?P<width>[0-9]+))?)
  | (?P<string>"(?:[^"\\\n]|\\[nt"\\{}])*")
  | (?P<punct>""" + "|".join(re.escape(p) for p in PUNCT) + r""")
  | (?P<bad>(?s:.))
""", re.VERBOSE)

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The braces keep their backslash so the printf hole scanner can tell
# escaped braces from holes.
_STRING_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "{": "\\{", "}": "\\}"}
_ESCAPE = re.compile(r"\\(.)")


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
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start, end = m.span()
        if kind == "trivia":
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, end) + 1
            continue
        span = SourceSpan(filename, line, start - line_start + 1, line, end - line_start + 1)
        if kind == "punct":
            append(Token(TokKind.PUNCT, m.group(), span))
        elif kind == "ident":
            word = m.group()
            append(Token(TokKind.KEYWORD if word in KEYWORDS else TokKind.IDENT, word, span))
        elif kind == "number":
            append(_number(m, span, source))
        elif kind == "string":
            lexeme = m.group()
            text = lexeme[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e.group(1)], text)
            append(Token(TokKind.STRING, lexeme, span, text=text))
        else:
            _bad(source, start, filename, line, start - line_start + 1)
    n = len(source)
    col = n - line_start + 1
    append(Token(TokKind.EOF, "", SourceSpan(filename, line, col, line, col)))
    return toks


def _number(m: re.Match, span: SourceSpan, source: str) -> Token:
    body = m.group("digits")
    value = int(body.replace("_", ""), 16 if m.group("hex") else 10)
    width: Optional[int] = None
    # A u<width> suffix binds to the literal: 0x1f_ffffu31
    if m.group("width") is not None:
        width = int(m.group("width"))
        if width < 1:
            raise LexError(span, "bit width must be at least 1")
        if value >= (1 << width):
            raise LexError(span, f"literal {body} does not fit in {width} bits")
    if source[m.end():m.end() + 1] in _IDENT_START:
        raise LexError(span, f"malformed number literal {body!r}")
    return Token(TokKind.INT, m.group(), span, value=value, width=width,
                 is_hex=m.group("hex") is not None)


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
                if source[i + 1] not in _STRING_ESCAPES:
                    raise error(i + 2, f"unknown escape \\{source[i + 1]}")
                i += 1
            i += 1
        raise error(i, "unterminated string literal")
    raise error(pos + 1, f"unexpected character {source[pos]!r}")
