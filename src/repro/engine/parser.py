"""Tokenizer and recursive-descent parser for the SQL subset.

The dialect follows MonetDB where MIP depends on it: Python table UDFs
(``CREATE FUNCTION ... LANGUAGE PYTHON {...}``) and table-function calls in
FROM.
Only the statement shapes the platform issues parse: ``SELECT`` from a
table or from ``f(?)``, and ``CREATE [OR REPLACE] FUNCTION``.  The
expression grammar is whole, because a request's filter is one expression
(see docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.engine import expressions as ast
from repro.engine.types import SQLType
from repro.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9$]*)
  | (?P<op><>|!=|>=|<=|=|<|>|\+|-|\*|/|%|\(|\)|,|\.|\{|\}|\?)
    """,
    re.VERBOSE,
)

#: Words of the statements the engine parses.  ``DISTINCT`` stays reserved
#: so ``SELECT DISTINCT a FROM t`` is rejected, not read as an alias.
_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AS", "AND", "OR", "NOT", "NULL", "TRUE",
    "FALSE", "IS", "IN", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END",
    "CAST", "CREATE", "REPLACE", "TABLE", "FUNCTION", "RETURNS", "LANGUAGE",
    "PYTHON", "DISTINCT", "LIKE",
}


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'string' | 'name' | 'keyword' | 'op' | 'eof'
    text: str
    position: int


def tokenize(sql: str) -> list[Token]:
    """Split a statement into tokens, capturing { ... } UDF bodies raw."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        if sql[pos] == "{":
            # A brace-delimited Python UDF body: capture it raw as one token.
            body, pos = _scan_brace_body(sql, pos)
            tokens.append(Token("body", body, pos))
            continue
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(f"unexpected character {sql[pos]!r} at position {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        text = match.group()
        if kind == "name" and text.upper() in _KEYWORDS:
            tokens.append(Token("keyword", text.upper(), match.start()))
        else:
            tokens.append(Token(kind or "op", text, match.start()))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


def _scan_brace_body(sql: str, start: int) -> tuple[str, int]:
    """Scan ``{...}`` with depth counting, skipping Python string literals."""
    depth = 0
    pos = start
    while pos < len(sql):
        char = sql[pos]
        if char in ("'", '"'):
            quote = char
            pos += 1
            while pos < len(sql):
                if sql[pos] == "\\":
                    pos += 2
                    continue
                if sql[pos] == quote:
                    break
                pos += 1
            pos += 1
            continue
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return sql[start + 1:pos], pos + 1
        pos += 1
    raise ParseError("unterminated { ... } body")


class Parser:
    """Recursive-descent parser producing :mod:`repro.engine.expressions` ASTs."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0

    # ------------------------------------------------------------- utilities

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _match(self, kind: str, text: str | None = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if not self._check(kind, text):
            expected = text or kind
            raise ParseError(
                f"expected {expected} at position {token.position}, got {token.text!r}"
            )
        return self._advance()

    def _expect_name(self) -> str:
        token = self._peek()
        if token.kind == "name":
            return self._advance().text
        # Allow non-reserved keywords as identifiers where unambiguous.
        if token.kind == "keyword" and token.text == "LANGUAGE":
            return self._advance().text.lower()
        raise ParseError(f"expected identifier at position {token.position}, got {token.text!r}")

    # ------------------------------------------------------------ statements

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.kind != "keyword":
            raise ParseError(f"expected statement keyword, got {token.text!r}")
        if token.text == "SELECT":
            stmt: ast.Statement = self._parse_select()
        elif token.text == "CREATE":
            stmt = self._parse_create_function()
        else:
            raise ParseError(f"unsupported statement: {token.text}")
        self._match("op", ";")
        self._expect("eof")
        return stmt

    def _parse_create_function(self) -> ast.CreateFunction:
        self._expect("keyword", "CREATE")
        or_replace = bool(self._match("keyword", "OR"))
        if or_replace:
            self._expect("keyword", "REPLACE")
        self._expect("keyword", "FUNCTION")
        name = self._expect_name()
        self._expect("op", "(")
        parameters: list[tuple[str, SQLType]] = []
        if not self._check("op", ")"):
            while True:
                pname = self._expect_name()
                ptype = self._parse_type()
                parameters.append((pname, ptype))
                if not self._match("op", ","):
                    break
        self._expect("op", ")")
        self._expect("keyword", "RETURNS")
        self._expect("keyword", "TABLE")
        returns = self._parse_column_defs()
        self._expect("keyword", "LANGUAGE")
        self._expect("keyword", "PYTHON")
        body = self._parse_brace_body()
        return ast.CreateFunction(name, tuple(parameters), returns, body, or_replace)

    def _parse_brace_body(self) -> str:
        """The tokenizer captured the raw body as a single 'body' token."""
        token = self._expect("body")
        return token.text

    def _parse_column_defs(self) -> tuple[tuple[str, SQLType], ...]:
        self._expect("op", "(")
        columns: list[tuple[str, SQLType]] = []
        while True:
            name = self._expect_name()
            sql_type = self._parse_type()
            columns.append((name, sql_type))
            if not self._match("op", ","):
                break
        self._expect("op", ")")
        return tuple(columns)

    def _parse_type(self) -> SQLType:
        token = self._peek()
        if token.kind not in ("name", "keyword"):
            raise ParseError(f"expected type name at position {token.position}")
        self._advance()
        name = token.text
        if name.upper() == "DOUBLE" and self._check("name"):
            nxt = self._peek()
            if nxt.text.upper() == "PRECISION":
                self._advance()
                name = "DOUBLE PRECISION"
        sql_type = SQLType.from_name(name)
        # Optional length, e.g. VARCHAR(255) — accepted and ignored.
        if self._match("op", "("):
            self._expect("number")
            self._expect("op", ")")
        return sql_type

    # ---------------------------------------------------------------- SELECT

    def _parse_select(self) -> ast.Select:
        self._expect("keyword", "SELECT")
        items: list[ast.SelectItem] = []
        if not self._match("op", "*"):
            while True:
                expression = self._parse_expression()
                alias = None
                if self._match("keyword", "AS"):
                    alias = self._expect_name()
                elif self._check("name"):
                    alias = self._advance().text
                items.append(ast.SelectItem(expression, alias))
                if not self._match("op", ","):
                    break
        self._expect("keyword", "FROM")
        name = self._expect_name()
        source: ast.TableSource
        if self._check("op", "("):
            source = self._parse_udf_source(name)
        else:
            source = ast.NamedTable(name)
        where = None
        if self._match("keyword", "WHERE"):
            where = self._parse_expression()
        return ast.Select(items=tuple(items), source=source, where=where)

    def _parse_udf_source(self, name: str) -> ast.UDFCall:
        """``f(?, ...)``: every argument is bound when the statement executes.
        Generated SQL passes only its plan, as the one ``?``; a UDF reads its
        relations through loopback queries.  Nowhere else does ``?`` parse."""
        self._expect("op", "(")
        args: list[ast.Parameter] = []
        while not self._check("op", ")"):
            if args:
                self._expect("op", ",")
            self._expect("op", "?")
            args.append(ast.Parameter())
        self._expect("op", ")")
        return ast.UDFCall(name, tuple(args))

    # ----------------------------------------------------------- expressions

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._match("keyword", "OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._match("keyword", "AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._match("keyword", "NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self._advance()
            op = "<>" if token.text == "!=" else token.text
            return ast.BinaryOp(op, left, self._parse_additive())
        if token.kind == "keyword" and token.text == "IS":
            self._advance()
            negated = bool(self._match("keyword", "NOT"))
            self._expect("keyword", "NULL")
            return ast.IsNull(left, negated)
        negated = False
        if token.kind == "keyword" and token.text == "NOT":
            nxt = self._peek(1)
            if nxt.kind == "keyword" and nxt.text in ("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
                token = self._peek()
        if token.kind == "keyword" and token.text == "LIKE":
            self._advance()
            pattern_token = self._expect("string")
            return ast.Like(left, _unquote(pattern_token.text), negated)
        if token.kind == "keyword" and token.text == "IN":
            self._advance()
            self._expect("op", "(")
            values = [self._parse_expression()]
            while self._match("op", ","):
                values.append(self._parse_expression())
            self._expect("op", ")")
            return ast.InList(left, tuple(values), negated)
        if token.kind == "keyword" and token.text == "BETWEEN":
            self._advance()
            low = self._parse_additive()
            self._expect("keyword", "AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self._advance()
                left = ast.BinaryOp(token.text, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("*", "/", "%"):
                self._advance()
                left = ast.BinaryOp(token.text, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        if self._match("op", "-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._match("op", "+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return ast.Literal(_parse_number(token.text))
        if token.kind == "string":
            self._advance()
            return ast.Literal(_unquote(token.text))
        if token.kind == "keyword":
            if token.text == "NULL":
                self._advance()
                return ast.Literal(None)
            if token.text in ("TRUE", "FALSE"):
                self._advance()
                return ast.Literal(token.text == "TRUE")
            if token.text == "CAST":
                self._advance()
                self._expect("op", "(")
                operand = self._parse_expression()
                self._expect("keyword", "AS")
                target = self._parse_type()
                self._expect("op", ")")
                return ast.Cast(operand, target)
            if token.text == "CASE":
                return self._parse_case()
        if token.kind == "op" and token.text == "(":
            self._advance()
            inner = self._parse_expression()
            self._expect("op", ")")
            return inner
        if token.kind == "name":
            name = self._advance().text
            if self._check("op", "("):
                return self._parse_call(name)
            if self._check("op", "."):
                self._advance()
                column = self._expect_name()
                return ast.ColumnRef(f"{name}.{column}")
            return ast.ColumnRef(name)
        raise ParseError(f"unexpected token {token.text!r} at position {token.position}")

    def _parse_case(self) -> ast.Expression:
        self._expect("keyword", "CASE")
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._match("keyword", "WHEN"):
            condition = self._parse_expression()
            self._expect("keyword", "THEN")
            value = self._parse_expression()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        otherwise = None
        if self._match("keyword", "ELSE"):
            otherwise = self._parse_expression()
        self._expect("keyword", "END")
        return ast.CaseWhen(tuple(branches), otherwise)

    def _parse_call(self, name: str) -> ast.Expression:
        self._expect("op", "(")
        args: list[ast.Expression] = []
        if not self._check("op", ")"):
            while True:
                args.append(self._parse_expression())
                if not self._match("op", ","):
                    break
        self._expect("op", ")")
        return ast.FunctionCall(name.upper(), tuple(args))


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return Parser(sql).parse_statement()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used for filters built from the UI)."""
    parser = Parser(text)
    expression = parser._parse_expression()
    parser._expect("eof")
    return expression


def _parse_number(text: str) -> int | float:
    if re.fullmatch(r"\d+", text):
        return int(text)
    return float(text)


def _unquote(text: str) -> str:
    return text[1:-1].replace("''", "'")
