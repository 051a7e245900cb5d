"""Recursive-descent parser for `.soc` programs.

Stops at the first syntax error (no recovery); its message names what was
expected there and the token found.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .ast import MAX_NESTING, SourceSpan
from .diagnostics import LexError, ParseError
from .lexer import STRING_ESCAPES, Token, TokKind, tokenize

# Built-ins taking a <width> argument; `to_int` takes none.
_WIDTH_BUILTINS = {"zero_extend", "truncate", "from_int"}

# Binding strength of each binary operator; a higher level binds tighter.
BINARY_LEVEL = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6,
}


class _Parser:
    def __init__(self, tokens: List[Token], filename: str, depth: int = 0) -> None:
        tokens.reverse()
        self.toks = tokens
        self.prev = tokens[-1]
        self.file = filename
        # The level of the expression being parsed (see `ast.MAX_NESTING`),
        # which `expr` counts; `type_expr` takes its level as an argument.
        # They are the only rules that recurse. A printf hole's expression
        # is one level below its printf.
        self.depth = depth

    # -- token plumbing -------------------------------------------------

    # The parser owns its token list and consumes it: reversed once, the
    # current token is the last entry and `advance` pops it, so a token is
    # freed once the parser has moved past it, and the AST holds nothing of
    # it. Only `prev`, the token last consumed, stays for `span_from`. The
    # list starts with EOF, which is never popped, so the current token
    # always exists; `peek(ahead)` is only asked past a token that is not EOF.
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[-1 - ahead]

    def at(self, lexeme: str) -> bool:
        # Punctuation and keyword lexemes belong to no other token kind.
        return self.toks[-1].lexeme == lexeme

    def at_kind(self, kind: TokKind) -> bool:
        return self.toks[-1].kind == kind

    def advance(self) -> Token:
        toks = self.toks
        if len(toks) == 1:  # only EOF is left
            return toks[0]
        self.prev = t = toks.pop()
        return t

    def expect(self, lexeme: str) -> Token:
        if self.at(lexeme):
            return self.advance()
        raise self.error(f"expected {lexeme!r}")

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.at_kind(TokKind.IDENT):
            return self.advance()
        raise self.error(f"expected {what}")

    def error(self, message: str) -> ParseError:
        t = self.peek()
        got = t.lexeme if t.kind is not TokKind.EOF else "end of file"
        return ParseError(t.span, f"{message}, found {got!r}")

    def span_from(self, start: Token) -> SourceSpan:
        """From `start` to the end of the previous token."""
        prev = self.prev
        return SourceSpan(start.file, start.line, start.col, prev.line, prev.end_col)

    # -- program structure ------------------------------------------------

    def program(self) -> ast.Program:
        aliases: list = []
        enums: list = []
        modules: list = []
        first = self.peek()
        while not self.at_kind(TokKind.EOF):
            if self.at("type"):
                aliases.append(self.alias_decl())
            elif self.at("enum"):
                enums.append(self.enum_decl())
            elif self.at("module"):
                modules.append(self.module_decl())
            else:
                raise self.error("expected declaration")
        return ast.Program(aliases, enums, modules, span=first.span)

    def alias_decl(self) -> ast.AliasDecl:
        start = self.expect("type")
        name = self.expect_ident("type name")
        self.expect("=")
        ty = self.type_expr()
        self.expect(";")
        return ast.AliasDecl(name.lexeme, ty, self.span_from(start))

    def enum_decl(self) -> ast.EnumDecl:
        start = self.expect("enum")
        name = self.expect_ident("enum name")
        self.expect("{")
        variants = self.comma_list(lambda: self.expect_ident("variant name").lexeme, "}")
        return ast.EnumDecl(name.lexeme, variants, self.span_from(start))

    def module_decl(self) -> ast.ModuleDecl:
        start = self.expect("module")
        name = self.expect_ident("module name")
        self.expect("{")
        instances: list = []
        callees: list = []
        wirings: list = []
        fns: list = []
        while not self.at("}"):
            if self.at("instance"):
                instances.append(self.instance_decl())
            elif self.at("callee"):
                callees.append(self.callee_decl())
            elif self.at("fn") or self.at("mut"):
                fns.append(self.fn_decl())
            elif self.at_kind(TokKind.IDENT):
                wirings.append(self.wiring())
            else:
                raise self.error("expected module member")
        self.expect("}")
        return ast.ModuleDecl(name.lexeme, instances, callees, wirings, fns,
                              self.span_from(start))

    def instance_decl(self) -> ast.InstanceDecl:
        start = self.expect("instance")
        name = self.expect_ident("instance name")
        self.expect(":")
        ref = self.instance_ref()
        self.expect(";")
        return ast.InstanceDecl(name.lexeme, ref, self.span_from(start))

    def instance_ref(self) -> ast.InstanceRef:
        if self.at("Array"):
            t = self.type_expr()
            return ast.ArrayPrim(t.key, t.value)
        name = self.expect_ident("module name")
        if name.lexeme == "State":
            self.expect("<")
            vt = self.type_expr()
            self.expect(">")
            self.expect("(")
            init = self.expr()
            self.expect(")")
            return ast.StatePrim(vt, init)
        return ast.ModuleRef(name.lexeme)

    def callee_decl(self) -> ast.CalleeDecl:
        start = self.expect("callee")
        name = self.expect_ident("callee name")
        self.expect(":")
        module = self.expect_ident("module name")
        self.expect(";")
        return ast.CalleeDecl(name.lexeme, module.lexeme, self.span_from(start))

    def wiring(self) -> ast.Wiring:
        start = self.peek()
        child = self.dotted_names()
        self.expect("->")
        target = self.dotted_names()
        self.expect(";")
        return ast.Wiring(child, target, self.span_from(start))

    def dotted_names(self) -> list:
        names = [self.expect_ident().lexeme]
        while self.at("."):
            self.advance()
            names.append(self.expect_ident().lexeme)
        return names

    def fn_decl(self) -> ast.FnDecl:
        start = self.peek()
        is_mut = False
        if self.at("mut"):
            self.advance()
            is_mut = True
        self.expect("fn")
        name = self.expect_ident("function name")
        self.expect("(")
        params = self.comma_list(self.param, ")")
        ret: Optional[ast.TypeExpr] = None
        if self.at("->"):
            self.advance()
            ret = self.type_expr()
        body = self.block()
        return ast.FnDecl(name.lexeme, is_mut, params, ret, body, self.span_from(start))

    def param(self) -> ast.Param:
        start = self.peek()
        name = self.expect_ident("parameter name")
        self.expect(":")
        ty = self.type_expr()
        return ast.Param(name.lexeme, ty, self.span_from(start))

    # -- lists --------------------------------------------------------------

    def comma_list(self, item, close: str) -> list:
        """Comma-separated items up to and including the `close` token.

        A list closed by `}` has at least one item and may end in a comma;
        one closed by `)` or `]` may be empty and may not.
        """
        items: list = []
        if close == "}" or not self.at(close):
            items.append(item())
            while self.at(","):
                self.advance()
                if close == "}" and self.at("}"):
                    break
                items.append(item())
        self.expect(close)
        return items

    def named_fields(self, value, duplicate: str) -> list:
        """`{ name: value, ... }`: one field or more, and a comma may end
        them, as in a `}`-closed `comma_list`; a repeated name is an error."""
        self.expect("{")
        fields: list = []
        seen = set()
        while True:
            name = self.expect_ident("field name")
            self.expect(":")
            v = value()
            if name.lexeme in seen:
                raise ParseError(name.span, f"{duplicate} {name.lexeme!r}")
            seen.add(name.lexeme)
            fields.append((name.lexeme, v))
            if not self.at(","):
                break
            self.advance()
            if self.at("}"):
                break
        self.expect("}")
        return fields

    # -- types ------------------------------------------------------------

    def type_expr(self, level: int = 1) -> ast.TypeExpr:
        """A type at `level`: one below the type that holds it, if any."""
        if level > MAX_NESTING:
            raise self.error("nesting too deep")
        t = self.peek()
        if self.at("("):
            self.advance()
            self.expect(")")
            return ast.UNIT
        if self.at("{"):
            fields = self.named_fields(lambda: self.type_expr(level + 1),
                                       "duplicate record field")
            return ast.RecordType(tuple(fields))
        name = self.expect_ident("type").lexeme
        if name == "Bool":
            return ast.BOOL
        if name == "Int":
            return ast.INT
        if name == "BitInt":
            self.expect("(")
            w = self.int_const("bit width")
            self.expect(")")
            problem = ast.width_problem(w)
            if problem is not None:
                raise ParseError(t.span, f"BitInt width {problem}")
            return ast.BitIntType(w)
        if name == "Vector":
            self.expect("<")
            elem = self.type_expr(level + 1)
            self.expect(",")
            n = self.int_const("vector length")
            self.expect(">")
            return ast.VectorType(elem, n)
        if name == "Array":
            self.expect("<")
            kt = self.type_expr(level + 1)
            self.expect(",")
            vt = self.type_expr(level + 1)
            self.expect(">")
            return ast.ArrayType(kt, vt)
        # Alias or enum reference, resolved during type checking.
        return ast.AliasRef(name)

    def int_const(self, what: str) -> int:
        if not self.at_kind(TokKind.INT):
            raise self.error(f"expected {what}")
        t = self.advance()
        if t.width is not None:
            raise ParseError(t.span, f"{what} takes no width suffix")
        return t.value

    # -- expressions --------------------------------------------------------

    def block(self) -> ast.Block:
        start = self.expect("{")
        items: list = []
        yields = False
        while not self.at("}"):
            if self.at("let"):
                let = self.advance()
                name = self.expect_ident("binding name")
                annot: Optional[ast.TypeExpr] = None
                if self.at(":"):
                    self.advance()
                    annot = self.type_expr()
                self.expect("=")
                value = self.expr()
                items.append(ast.Let(self.span_from(let), name.lexeme, annot, value))
            else:
                items.append(self.expr())
            if self.at(";"):
                self.advance()
                yields = False
            else:
                yields = True
                break
        self.expect("}")
        return ast.Block(self.span_from(start), items, yields_value=yields and bool(items))

    def expr(self, min_level: int = 1) -> ast.Expr:
        """Binary operators by precedence climbing; all are left-associative.
        The expression is one level below the one being parsed."""
        start = self.peek()
        depth = self.depth = self.depth + 1
        if depth > MAX_NESTING:
            raise self.error("nesting too deep")
        left = self.unary_expr()
        while True:
            op = self.toks[-1].lexeme
            level = BINARY_LEVEL.get(op, 0)
            if level < min_level:
                self.depth = depth - 1
                return left
            self.prev = self.toks.pop()
            right = self.expr(level + 1)
            left = ast.Binary(self.span_from(start), op, left, right)

    def unary_expr(self) -> ast.Expr:
        """Prefix operators, read in a loop and applied innermost first."""
        if not (self.at("!") or self.at("-")):
            return self.postfix_expr()
        ops = []
        while self.at("!") or self.at("-"):
            ops.append(self.advance())
        e = self.postfix_expr()
        for op in reversed(ops):
            e = ast.Unary(self.span_from(op), op.lexeme, e)
        return e

    def postfix_expr(self) -> ast.Expr:
        start = self.peek()
        e = self.primary_expr()
        while True:
            if self.at("."):
                # Pure name chains stay PathExpr until a call or non-name
                # postfix decides their meaning.
                self.advance()
                name = self.expect_ident("field or function name")
                if self.at("("):
                    if isinstance(e, ast.PathExpr):
                        args = self.call_args()
                        e = ast.Call(self.span_from(start), e.names + [name.lexeme], args)
                    else:
                        raise ParseError(
                            name.span, "calls must go through a dotted name path")
                elif isinstance(e, ast.PathExpr):
                    e = ast.PathExpr(self.span_from(start), e.names + [name.lexeme])
                else:
                    e = ast.FieldAccess(self.span_from(start), e, name.lexeme)
            elif self.at("["):
                # `[index]`, `[hi downto lo]`, either followed by `:= value`
                self.advance()
                index = self.expr()
                hi = value = None
                if self.at("downto"):
                    self.advance()
                    hi, lo = self._const_of(index), self.int_const("slice bound")
                if self.at(":="):
                    self.advance()
                    value = self.expr()
                self.expect("]")
                span = self.span_from(start)
                if hi is None:
                    e = ast.Index(span, e, index) if value is None else \
                        ast.IndexUpdate(span, e, index, value)
                elif hi < lo:
                    raise ParseError(
                        span, f"slice bounds must satisfy hi >= lo, "
                        f"got {ast.number_text(hi)} downto {ast.number_text(lo)}")
                else:
                    e = ast.Slice(span, e, hi, lo) if value is None else \
                        ast.SliceUpdate(span, e, hi, lo, value)
            else:
                return e

    def _const_of(self, e: ast.Expr) -> int:
        if isinstance(e, ast.IntLit) and e.width is None:
            return e.value
        raise ParseError(e.span, "slice bounds must be plain integer literals")

    def call_args(self) -> list:
        self.expect("(")
        return self.comma_list(self.expr, ")")

    def primary_expr(self) -> ast.Expr:
        t = self.peek()
        if self.at_kind(TokKind.INT):
            self.advance()
            return ast.IntLit(t.span, t.value, t.width, hex=t.is_hex)
        if self.at("true") or self.at("false"):
            self.advance()
            return ast.BoolLit(t.span, t.lexeme == "true")
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return ast.UnitLit(self.span_from(t))
            e = self.expr()
            self.expect(")")
            return e
        if self.at("["):
            self.advance()
            items = self.comma_list(self.expr, "]")
            return ast.VectorLit(self.span_from(t), items)
        if self.at("{"):
            # `{ name:` opens a record literal, anything else a block.
            if self.peek(1).kind is TokKind.IDENT and self.peek(2).lexeme == ":":
                fields = self.named_fields(self.expr, "duplicate field")
                return ast.RecordLit(self.span_from(t), fields)
            return self.block()
        if self.at("if"):
            return self.if_expr()
        if self.at("any"):
            self.advance()
            self.expect("<")
            ty = self.type_expr()
            self.expect(">")
            return ast.AnyExpr(self.span_from(t), ty)
        if self.at("assume") or self.at("assert"):
            kw = self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            cls = ast.Assume if kw.lexeme == "assume" else ast.Assert
            return cls(self.span_from(t), cond)
        if self.at("printf"):
            return self.printf_expr()
        if self.at_kind(TokKind.IDENT):
            name = self.advance()
            if name.lexeme in _WIDTH_BUILTINS and self.at("<") or \
                    name.lexeme == "to_int" and self.at("("):
                width = None
                if self.at("<"):
                    self.advance()
                    width = self.int_const("target width")
                    self.expect(">")
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ast.Builtin(self.span_from(t), name.lexeme, width, arg)
            if self.at("("):
                args = self.call_args()
                return ast.Call(self.span_from(t), [name.lexeme], args)
            return ast.PathExpr(name.span, [name.lexeme])
        raise self.error("expected expression")

    def if_expr(self) -> ast.If:
        """An `if` and each `else if` after it, read in a loop; each `else
        if` is the `orelse` of the one before, built innermost first."""
        arms: list = []  # the `if` token, condition and block of each
        orelse: Optional[ast.Expr] = None
        while True:
            start = self.expect("if")
            cond = self.expr()
            arms.append((start, cond, self.block()))
            if not self.at("else"):
                break
            self.advance()
            if not self.at("if"):
                orelse = self.block()
                break
        for start, cond, then in reversed(arms):
            orelse = ast.If(self.span_from(start), cond, then, orelse)
        return orelse

    def printf_expr(self) -> ast.Printf:
        start = self.expect("printf")
        self.expect("(")
        if not self.at_kind(TokKind.STRING):
            raise self.error("expected format string")
        fmt = self.advance()
        self.expect(")")
        parts, holes = _split_format(fmt, self.file, self.depth)
        return ast.Printf(self.span_from(start), parts, holes)


def _split_format(fmt: Token, filename: str, depth: int):
    """Split a printf format string, as written, into literal parts (escapes
    decoded) and parsed {expr} holes, each one level below `depth`, the
    printf's level."""
    src = fmt.lexeme
    end = len(src) - 1  # src[0] and src[end] are the quotes
    parts: list = []
    holes: list = []
    buf: list = []
    i = 1
    while i < end:
        ch = src[i]
        if ch == "\\":
            buf.append(STRING_ESCAPES[src[i + 1]])
            i += 2
            continue
        if ch == "{":
            close = src.find("}", i + 1, end)
            if close < 0:
                raise ParseError(fmt.span, "unterminated format hole")
            hole_src = src[i + 1:close]
            try:
                # `\n` and `\t` read as two spaces, so a token's column in
                # the hole is its column in the source.
                toks = tokenize(hole_src.replace("\\n", "  ").replace("\\t", "  "), filename)
                for t in toks:
                    t.line, t.col = fmt.line, fmt.col + i + t.col  # i is the `{`
                holes.append(_expr(toks, filename, depth))
            except (LexError, ParseError) as err:
                raise ParseError(fmt.span, f"bad format hole {{{hole_src}}}: {err.message}")
            parts.append("".join(buf))
            buf = []
            i = close + 1
            continue
        if ch == "}":
            raise ParseError(fmt.span, "stray '}' in format string (escape as \\})")
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts, holes


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse a whole program; raises LexError/ParseError with spans. Its
    expressions are numbered from 0.

    The parser owns the token list and frees each token as it consumes it,
    and the text is dropped once it is tokenized: a caller that keeps no
    reference to `source` holds neither the text nor the tokens while the
    AST is built."""
    ast.restart_node_ids()
    p = _Parser(tokenize(source, filename), filename)
    del source
    return p.program()


def _expr(toks: List[Token], filename: str, depth: int) -> ast.Expr:
    """The one expression of `toks`, one level below `depth`."""
    p = _Parser(toks, filename, depth)
    e = p.expr()
    if not p.at_kind(TokKind.EOF):
        raise p.error("unexpected trailing input")
    return e
