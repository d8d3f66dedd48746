"""SQL parser: statements, expressions, and error reporting."""

import pytest

from repro.engine import expressions as ast
from repro.engine.parser import parse, parse_expression, tokenize
from repro.engine.types import SQLType
from repro.errors import ParseError


class TestTokenizer:
    def test_numbers(self):
        kinds = [t.kind for t in tokenize("1 2.5 .5 1e3")]
        assert kinds[:4] == ["number"] * 4

    def test_string_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "'it''s'"

    def test_comment_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert [t.text for t in tokens[:2]] == ["SELECT", "1"]

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @")

    def test_brace_body_single_token(self):
        tokens = tokenize("{ return {'a': 1} }")
        assert tokens[0].kind == "body"
        assert "return" in tokens[0].text

    def test_brace_body_with_quoted_braces(self):
        tokens = tokenize('{ x = "}" }')
        assert tokens[0].kind == "body"
        assert tokens[0].text.strip() == 'x = "}"'

    def test_unterminated_body(self):
        with pytest.raises(ParseError):
            tokenize("{ open")


class TestSelectParsing:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt, ast.Select)
        assert stmt.items == ()
        assert stmt.source == ast.NamedTable("t")

    def test_projection_aliases(self):
        stmt = parse("SELECT a AS x, b + 1 y, c FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.items[2].alias is None

    def test_where_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_udf_call_source(self):
        stmt = parse("SELECT * FROM f(3, 'x')")
        assert isinstance(stmt.source, ast.UDFCall)
        assert stmt.source.literal_args == (3, "x")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t WHERE 1 = 1 1")

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id",
        "SELECT a FROM t1 LEFT JOIN t2 ON t1.id = t2.id",
        "SELECT c, COUNT(*) FROM t GROUP BY c",
        "SELECT COUNT(*) FROM t WHERE a > 1 GROUP BY c HAVING COUNT(*) > 2",
        "SELECT a FROM t ORDER BY a",
        "SELECT a FROM t WHERE a > 1 LIMIT 5",
        "SELECT DISTINCT a FROM t",
        "SELECT COUNT(DISTINCT a) FROM t",
        "SELECT a FROM (SELECT a FROM t) AS s",
        "SELECT t.a FROM my_table AS t",
        "SELECT x.a FROM t x",
        "SELECT * FROM f((SELECT a FROM t), 3)",
        "SELECT * FROM f(SELECT a FROM t)",
        "DELETE FROM t WHERE a = 1",
        "SELECT 1 + 1 AS two",
    ])
    def test_a_shape_the_platform_never_issues_does_not_parse(self, sql):
        with pytest.raises(ParseError):
            parse(sql)


class TestExpressionParsing:
    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_unary_minus(self):
        expr = parse_expression("-a + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_comparison_aliases(self):
        assert parse_expression("a != 1").op == "<>"

    def test_is_null(self):
        expr = parse_expression("a IS NOT NULL")
        assert isinstance(expr, ast.IsNull)
        assert expr.negated

    def test_in_list(self):
        expr = parse_expression("a NOT IN (1, 2)")
        assert isinstance(expr, ast.InList)
        assert expr.negated
        assert len(expr.items) == 2

    def test_between(self):
        expr = parse_expression("a BETWEEN 1 AND 5")
        assert isinstance(expr, ast.Between)

    def test_case_when(self):
        expr = parse_expression("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
        assert isinstance(expr, ast.CaseWhen)
        assert expr.otherwise is not None

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_expression("CASE ELSE 1 END")

    def test_cast(self):
        expr = parse_expression("CAST(a AS REAL)")
        assert isinstance(expr, ast.Cast)
        assert expr.target == SQLType.REAL

    def test_count_star(self):
        star = parse_expression("COUNT(*)")
        assert isinstance(star, ast.Aggregate)
        assert star.argument is None

    def test_stddev_alias(self):
        expr = parse_expression("STDDEV(a)")
        assert expr.name == "STDDEV_SAMP"

    def test_function_call(self):
        expr = parse_expression("power(a, 2)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "POWER"

    @pytest.mark.parametrize(
        "text",
        [
            "a IN (1, 2.5, 'x')",
            "a NOT IN (NULL)",
            "s NOT LIKE 'it''s%'",
            "a NOT BETWEEN 1 AND b + 2",
            "COALESCE(a, ABS(b))",
            "CAST(a AS REAL)",
            "CASE WHEN a > 1 THEN 'big' WHEN a IS NULL THEN NULL ELSE 'small' END",
        ],
    )
    def test_every_form_prints_back_to_sql_that_parses_to_it(self, text):
        # Error messages quote expressions through this printer.
        expression = parse_expression(text)
        assert parse_expression(str(expression)) == expression


class TestDDLParsing:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (a INT, b DOUBLE PRECISION, c VARCHAR(50))")
        assert stmt.columns == (
            ("a", SQLType.INT), ("b", SQLType.REAL), ("c", SQLType.VARCHAR),
        )

    def test_create_if_not_exists(self):
        stmt = parse("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert stmt.if_not_exists

    def test_drop(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_insert_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 'a', NULL, TRUE, -2.5)")
        assert stmt.rows == ((1, "a", None, True, -2.5),)

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT a FROM s")
        assert isinstance(stmt, ast.InsertSelect)

    def test_create_function(self):
        stmt = parse(
            "CREATE OR REPLACE FUNCTION f(a INT) RETURNS TABLE(b REAL) "
            "LANGUAGE PYTHON { return {'b': a * 1.0} }"
        )
        assert isinstance(stmt, ast.CreateFunction)
        assert stmt.or_replace
        assert stmt.parameters == (("a", SQLType.INT),)
        assert "return" in stmt.body

    def test_drop_function(self):
        stmt = parse("DROP FUNCTION IF EXISTS f")
        assert isinstance(stmt, ast.DropFunction)

    def test_create_remote_table(self):
        stmt = parse("CREATE REMOTE TABLE r (a INT) ON 'worker1/t'")
        assert isinstance(stmt, ast.CreateRemoteTable)
        assert stmt.location == "worker1/t"

    def test_create_merge_and_alter(self):
        stmt = parse("CREATE MERGE TABLE m (a INT)")
        assert isinstance(stmt, ast.CreateMergeTable)
        alter = parse("ALTER TABLE m ADD TABLE p")
        assert isinstance(alter, ast.AlterMergeAdd)
        assert (alter.merge_table, alter.part_table) == ("m", "p")

    def test_unsupported_statement(self):
        with pytest.raises(ParseError):
            parse("UPDATE t SET a = 1")
