import hashlib

import pytest

from soclang.diagnostics import LexError
from soclang.lexer import TokKind, tokenize

from conftest import CORPUS


def kinds(toks):
    return [(t.kind, t.lexeme) for t in toks]


def test_hex_literal_with_separators_and_width_suffix():
    toks = tokenize("0x1f_ffffu31")
    assert toks[0].kind is TokKind.INT
    assert toks[0].value == 0x1FFFFF
    assert toks[0].width == 31
    assert toks[0].is_hex
    assert toks[-1].kind is TokKind.EOF


def test_long_hex_literal():
    toks = tokenize("0x8000_0000_0070u48")
    assert toks[0].value == 0x8000_0000_0070
    assert toks[0].width == 48


def test_decimal_with_separators():
    toks = tokenize("1_000_000")
    assert toks[0].value == 1_000_000
    assert toks[0].width is None


def test_any_bool_token_stream():
    toks = tokenize("any<Bool>")
    assert kinds(toks[:-1]) == [
        (TokKind.KEYWORD, "any"),
        (TokKind.PUNCT, "<"),
        (TokKind.IDENT, "Bool"),
        (TokKind.PUNCT, ">"),
    ]


def test_literal_exceeding_declared_width_is_an_error():
    with pytest.raises(LexError, match="does not fit in 16 bits"):
        tokenize("0x1_0000u16")


def test_width_boundary_is_accepted():
    assert tokenize("0xffffu16")[0].value == 0xFFFF


def test_zero_width_suffix_rejected():
    with pytest.raises(LexError, match="at least 1"):
        tokenize("1u0")


def test_comments_are_skipped():
    toks = tokenize("a /* b */ c // d\n e")
    assert [t.lexeme for t in toks[:-1]] == ["a", "c", "e"]


def test_unterminated_comment():
    with pytest.raises(LexError, match="unterminated comment"):
        tokenize("/* never ends")


def test_unterminated_string():
    with pytest.raises(LexError, match="unterminated string"):
        tokenize('"no closing quote')


def test_string_escapes():
    tok = tokenize(r'"line\n\ttab \"q\" \\"')[0]
    assert tok.text == 'line\n\ttab "q" \\'


def test_arrow_and_downto():
    toks = tokenize("a.b -> c; x[6 downto 5]")
    lexemes = [t.lexeme for t in toks[:-1]]
    assert "->" in lexemes
    assert "downto" in lexemes


def test_bad_character():
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("a # b")


def test_spans_track_lines():
    toks = tokenize("a\n  b")
    assert toks[0].span.line == 1
    assert toks[1].span.line == 2
    assert toks[1].span.col == 3


# -- parity pins ---------------------------------------------------------------
# Recorded from the character-at-a-time lexer that the master-regex lexer
# replaced: every corpus file must give the same tokens, spans and errors.

CORPUS_TOKENS_SHA256 = "9f1aeec0bdf4b3c3d409fd6e157968a518bd02de83e8bcf35b38c5d5a4f5011d"


def _fields(span) -> tuple:
    return tuple(getattr(span, name) for name in span._fields)


def _token_record(tok) -> str:
    return repr((tok.kind.name, tok.lexeme, _fields(tok.span), tok.value,
                 tok.width, tok.is_hex, tok.text))


def test_corpus_token_streams_are_pinned():
    digest = hashlib.sha256()
    paths = sorted(CORPUS.rglob("*.soc"))
    for path in paths:
        name = path.relative_to(CORPUS).as_posix()
        digest.update(f"file {name}\n".encode())
        try:
            toks = tokenize(path.read_text(encoding="utf-8"), name)
        except LexError as err:
            digest.update(repr((err.message, _fields(err.span))).encode())
            continue
        for tok in toks:
            digest.update(_token_record(tok).encode() + b"\n")
    assert len(paths) == 29
    assert digest.hexdigest() == CORPUS_TOKENS_SHA256


# Message and span (line, col, end line, end col) of each error.
MALFORMED = {
    "unterminated comment": ("a /* b\n c", "unterminated comment", (1, 3, 2, 3)),
    "unterminated string": ('x = "abc\n', "unterminated string literal", (1, 5, 1, 9)),
    "backslash at end of file": ('"ab\\', "unterminated string literal", (1, 1, 1, 5)),
    "unknown escape before missing quote": ('"ab\\q c', "unknown escape \\q",
                                            (1, 1, 1, 6)),
    "hash": ("a\n  # b", "unexpected character '#'", (2, 3, 2, 4)),
    "lone slash": ("a / b", "unexpected character '/'", (1, 3, 1, 4)),
    "hex underscore first": ("0x_1", "expected hex digits after 0x", (1, 1, 1, 3)),
    "hex without digits": ("0xg", "expected hex digits after 0x", (1, 1, 1, 3)),
    "zero width": ("1u0", "bit width must be at least 1", (1, 1, 1, 4)),
    "too wide": ("0x1_0000u16", "literal 0x1_0000 does not fit in 16 bits",
                 (1, 1, 1, 12)),
    "decimal too wide": ("x = 256u8;", "literal 256 does not fit in 8 bits",
                         (1, 5, 1, 10)),
    "letters after digits": ("12abc", "malformed number literal '12'", (1, 1, 1, 3)),
    "width suffix without digits": ("1u", "malformed number literal '1'", (1, 1, 1, 2)),
    "letters after width": ("7u8x", "malformed number literal '7'", (1, 1, 1, 4)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_message_and_span(case):
    source, message, span = MALFORMED[case]
    with pytest.raises(LexError) as exc:
        tokenize(source, "bad.soc")
    assert exc.value.message == message
    s = exc.value.span
    assert (s.file, s.line, s.col, s.end_line, s.end_col) == ("bad.soc", *span)


# Identifiers are [A-Za-z_][A-Za-z0-9_]* and digits [0-9]; any other
# character is an error at its own position.
@pytest.mark.parametrize("source, message, col", [
    pytest.param("let x = ²;", "unexpected character '²'", 9, id="superscript-digit"),
    pytest.param("a 0x", "expected hex digits after 0x", 3, id="hex-at-end-of-file"),
    pytest.param("1²", "unexpected character '²'", 2, id="digit-then-superscript"),
    pytest.param("xé", "unexpected character 'é'", 2, id="accented-letter"),
])
def test_non_ascii_and_truncated_hex_are_located_errors(source, message, col):
    with pytest.raises(LexError) as exc:
        tokenize(source, "bad.soc")
    assert exc.value.message == message
    assert (exc.value.span.line, exc.value.span.col) == (1, col)
