import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclang import lexer
from soclang.ast import MAX_WIDTH
from soclang.diagnostics import LexError
from soclang.lexer import TokKind, tokenize
from soclang.parser import parse_program

from conftest import CORPUS, parse_expr


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


def test_width_budget_boundary_is_accepted():
    assert tokenize(f"1u{MAX_WIDTH}")[0].width == MAX_WIDTH


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
    e = parse_expr(r'printf("line\n\ttab \"q\" \\")')
    assert e.parts == ['line\n\ttab "q" \\']


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
# Re-recorded once since, when string tokens stopped carrying a decoded
# text: the record dropped that field, and the tokens of the lexer before
# that change give the same digest under it.

CORPUS_TOKENS_SHA256 = "47ae3221b53de41c9070224e839c1a624799a07b2c3ca86ccbab34a36efe810f"


def _fields(span) -> tuple:
    return tuple(getattr(span, name) for name in span._fields)


def _token_record(tok) -> str:
    return repr((tok.kind.name, tok.lexeme, _fields(tok.span), tok.value,
                 tok.width, tok.is_hex))


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
    "width past the budget": ("1u4097", "bit width must be at most 4096", (1, 1, 1, 7)),
    "5,000-digit value": ("9" * 5000, "number literal has too many digits", (1, 1, 1, 5001)),
    "5,000-digit width": ("1u" + "9" * 5000, "number literal has too many digits",
                          (1, 1, 1, 5003)),
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


def test_a_syntax_error_does_not_hide_a_later_lex_error():
    # The whole file is lexed before parsing starts.
    with pytest.raises(LexError) as exc:
        parse_program("module Main { ) }\n\n  #\n", "both.soc")
    assert exc.value.report() == "both.soc:3:3: error: unexpected character '#'"


# -- slim tokens ----------------------------------------------------------------
# A token keeps its start; its span is built only when asked for, and a
# `tokenize` call shares one string per distinct identifier, keyword or
# operator.

def _lexing_corpus_texts() -> list:
    texts = []
    for path in sorted(CORPUS.rglob("*.soc")):
        text = path.read_text(encoding="utf-8")
        try:
            tokenize(text)
        except LexError:
            continue
        texts.append(text)
    return texts


def test_tokenize_builds_no_spans(monkeypatch):
    built = []
    real = lexer.SourceSpan

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lexer, "SourceSpan", counting)
    for path in sorted(CORPUS.rglob("*.soc")):
        built.clear()
        try:
            tokenize(path.read_text(encoding="utf-8"), path.name)
        except LexError:
            assert len(built) == 1  # the error's own
        else:
            assert built == [], path.name
    # A token builds its span when asked, from its start and lexeme.
    tok = tokenize("x =\n  cell_value;")[2]
    assert tok.lexeme == "cell_value" and built == []
    assert _fields(tok.span) == ("<input>", 2, 3, 2, 13, False)
    assert len(built) == 1


def test_repeated_lexemes_are_one_string():
    toks = tokenize("cell_value -> cell_value;\nmodule cell_value -> other;")
    by_text: dict = {}
    for tok in toks[:-1]:
        assert by_text.setdefault(tok.lexeme, tok.lexeme) is tok.lexeme
    assert len(by_text) == 5
    # The parser's names are those strings too.
    program = parse_program("module Main { cpu.bus -> mem; mem -> cpu.bus; }")
    first, second = program.modules[0].wirings
    assert first.child_path[0] is second.target_path[0]
    assert first.target_path[0] is second.child_path[0]


def test_tokens_take_at_most_128_bytes_each():
    source = "\n".join(_lexing_corpus_texts()) * 8
    tracemalloc.start()
    try:
        toks = tokenize(source, "corpus.soc")
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(toks) > 30_000
    assert size / len(toks) <= 128


# Trivia between two tokens; each piece is a whole comment or whitespace.
_TRIVIA = [" ", "  ", "\t", "\n", "\r\n", "\n\n    ", "// note\n", "//\n",
           "/* c */", "/**/", "/* two\n lines */", "/* a\n * b *\n\n */", "/* // */"]


def _line_col(source: str, offset: int) -> tuple:
    """Line and column of `offset`, counted from the text before it."""
    before = source[:offset]
    return before.count("\n") + 1, len(before) - before.rfind("\n")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_lexing_corpus_texts()), st.randoms(use_true_random=False))
def test_token_positions_with_random_trivia(text, rng):
    original = tokenize(text)[:-1]
    pieces, offsets, at = [], [], 0
    for tok in original:
        trivia = "".join(rng.choice(_TRIVIA) for _ in range(rng.choice((1, 1, 2, 3))))
        pieces += [trivia, tok.lexeme]
        offsets.append(at + len(trivia))
        at += len(trivia) + len(tok.lexeme)
    source = "".join(pieces)
    toks = tokenize(source, "t.soc")
    assert [(t.kind, t.lexeme) for t in toks[:-1]] == [(t.kind, t.lexeme) for t in original]
    for tok, offset in zip(toks, offsets):
        line, col = _line_col(source, offset)
        s = tok.span
        assert (s.file, s.line, s.col, s.end_line, s.end_col) == \
            ("t.soc", line, col, line, col + len(tok.lexeme))
    assert _fields(toks[-1].span)[1:3] == _line_col(source, len(source))


# Input that starts no token, and the length of what the error covers
# (None: up to the end of the file).
_BAD = {
    "#": ("unexpected character '#'", 1),
    "0x;": ("expected hex digits after 0x", 2),
    '"ab\\q c";': ("unknown escape \\q", 5),
    '"abc\nx': ("unterminated string literal", 4),
    "/* never\n ends": ("unterminated comment", None),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_BAD)), st.lists(st.sampled_from(_TRIVIA + ["a", "1", "=="])),
       st.sampled_from(["/* x\n */", "/*\n\n*/", "/* a */\n/* b\n c */"]))
def test_error_span_after_multi_line_comment(bad, prefix, comment):
    message, length = _BAD[bad]
    source = " ".join(prefix) + comment + bad
    start = len(source) - len(bad)
    end = len(source) if length is None else start + length
    with pytest.raises(LexError) as exc:
        tokenize(source, "t.soc")
    assert exc.value.message == message
    assert _fields(exc.value.span) == \
        ("t.soc", *_line_col(source, start), *_line_col(source, end), False)
