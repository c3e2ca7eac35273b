"""Recursive-descent SQL parser.

Grammar (informal):

.. code-block:: text

   statement   := select | create_table | create_view | create_schema
                | drop | insert | delete | update | explain
   select      := SELECT [DISTINCT] items FROM table_expr (',' table_expr)*
                  [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                  [ORDER BY order_list] [LIMIT n [OFFSET m]]
   table_expr  := table_primary (join_clause)*
   expr        := or_expr with the usual precedence:
                  OR < AND < NOT < comparison/BETWEEN/IN/LIKE/IS < add < mul < unary

Operator precedence follows standard SQL.  The expression productions
build unbound :mod:`repro.db.expr` nodes.
"""

from __future__ import annotations

from typing import Optional

from repro.db.expr import (
    AggCall,
    Between,
    BinOp,
    Case,
    Cast,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    Star,
    UnOp,
    AGGREGATE_NAMES,
)
from repro.db.sql import ast
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.db.types import type_from_name
from repro.errors import ParseError


class _Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0
        # Prepared-statement placeholders found while parsing: positional
        # '?' slots are numbered left to right; ':name' slots are named.
        # One statement must not mix the two styles.
        self.param_style: Optional[str] = None  # 'positional' | 'named'
        self.positional_params = 0
        self.named_params: list[str] = []

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.type != TokenType.EOF:
            self.index += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.current
        found = token.text or "<eof>"
        return ParseError(f"{message} (found {found!r})", token.position)

    def accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> None:
        if not self.accept_keyword(name):
            raise self.error(f"expected {name.upper()}")

    def accept_punct(self, text: str) -> bool:
        token = self.current
        if token.type == TokenType.PUNCT and token.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> None:
        if not self.accept_punct(text):
            raise self.error(f"expected {text!r}")

    def accept_operator(self, *ops: str) -> Optional[str]:
        token = self.current
        if token.type == TokenType.OPERATOR and token.text in ops:
            self.advance()
            return token.text
        return None

    def expect_ident(self) -> str:
        token = self.current
        if token.type == TokenType.IDENT:
            self.advance()
            return token.text
        # Non-reserved use of keywords as identifiers is common (e.g. a
        # column named "key"); allow a safe subset.
        if token.type == TokenType.KEYWORD and token.text in ("key", "values", "set"):
            self.advance()
            return token.text
        raise self.error("expected identifier")

    def qualified_name(self) -> tuple[str, ...]:
        parts = [self.expect_ident()]
        while self.accept_punct("."):
            parts.append(self.expect_ident())
        return tuple(parts)

    # -- statements ----------------------------------------------------------

    def statement(self) -> ast.Statement:
        token = self.current
        if token.is_keyword("select"):
            return self.select()
        if token.is_keyword("explain"):
            self.advance()
            analyze = False
            if self.current.is_keyword("analyze"):
                self.advance()
                analyze = True
            start = self.current.position
            select = self.select()
            return ast.ExplainStmt(select=select, sql_text=self.sql,
                                   select_sql=self.sql[start:],
                                   analyze=analyze)
        if token.is_keyword("create"):
            return self.create()
        if token.is_keyword("drop"):
            return self.drop()
        if token.is_keyword("insert"):
            return self.insert()
        if token.is_keyword("delete"):
            return self.delete()
        if token.is_keyword("update"):
            return self.update()
        raise self.error("expected a statement")

    def parse_single(self) -> ast.Statement:
        stmt = self.statement()
        self.accept_punct(";")
        if self.current.type != TokenType.EOF:
            raise self.error("unexpected trailing input")
        return stmt

    # -- SELECT ----------------------------------------------------------------

    def select(self) -> ast.SelectStmt:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        if distinct is False:
            self.accept_keyword("all")
        items = [self.select_item()]
        while self.accept_punct(","):
            items.append(self.select_item())

        from_items: list[ast.TableExpr] = []
        if self.accept_keyword("from"):
            from_items.append(self.table_expr())
            while self.accept_punct(","):
                from_items.append(self.table_expr())

        where = self.expr() if self.accept_keyword("where") else None

        group_by: list[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.expr())
            while self.accept_punct(","):
                group_by.append(self.expr())

        having = self.expr() if self.accept_keyword("having") else None

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self.order_item())
            while self.accept_punct(","):
                order_by.append(self.order_item())

        limit = offset = None
        if self.accept_keyword("limit"):
            limit = self.integer_literal()
            if self.accept_keyword("offset"):
                offset = self.integer_literal()

        return ast.SelectStmt(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def integer_literal(self) -> int:
        token = self.current
        if token.type != TokenType.NUMBER:
            raise self.error("expected an integer")
        self.advance()
        try:
            return int(token.text)
        except ValueError:
            raise ParseError(f"expected an integer, got {token.text!r}",
                             token.position) from None

    def select_item(self) -> ast.SelectItem:
        if self.current.type == TokenType.OPERATOR and self.current.text == "*":
            self.advance()
            return ast.SelectItem(expr=Star())
        expr = self.expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.type == TokenType.IDENT:
            alias = self.advance().text
        return ast.SelectItem(expr=expr, alias=alias)

    def order_item(self) -> ast.OrderItem:
        expr = self.expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expr=expr, ascending=ascending)

    # -- FROM ------------------------------------------------------------------

    def table_expr(self) -> ast.TableExpr:
        left = self.table_primary()
        while True:
            if self.accept_keyword("cross"):
                self.expect_keyword("join")
                right = self.table_primary()
                left = ast.JoinRef(left=left, right=right, kind="cross")
                continue
            kind = None
            if self.current.is_keyword("join"):
                kind = "inner"
            elif self.current.is_keyword("inner"):
                self.advance()
                kind = "inner"
            elif self.current.is_keyword("left"):
                self.advance()
                self.accept_keyword("outer")
                kind = "left"
            if kind is None:
                return left
            self.expect_keyword("join")
            right = self.table_primary()
            self.expect_keyword("on")
            condition = self.expr()
            left = ast.JoinRef(left=left, right=right, kind=kind,
                               condition=condition)

    def table_primary(self) -> ast.TableExpr:
        if self.accept_punct("("):
            select = self.select()
            self.expect_punct(")")
            self.accept_keyword("as")
            alias = self.expect_ident()
            return ast.SubqueryRef(select=select, alias=alias)
        parts = self.qualified_name()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.type == TokenType.IDENT:
            alias = self.advance().text
        return ast.TableRef(parts=parts, alias=alias)

    # -- DDL ---------------------------------------------------------------------

    def create(self) -> ast.Statement:
        self.expect_keyword("create")
        if self.accept_keyword("schema"):
            if_not_exists = self._if_not_exists()
            return ast.CreateSchemaStmt(name=self.expect_ident(),
                                        if_not_exists=if_not_exists)
        if self.accept_keyword("view"):
            name = self.qualified_name()
            self.expect_keyword("as")
            select = self.select()
            return ast.CreateViewStmt(name=name, select=select, sql_text=self.sql)
        self.expect_keyword("table")
        if_not_exists = self._if_not_exists()
        name = self.qualified_name()
        self.expect_punct("(")
        columns: list[ast.ColumnDefAst] = []
        primary_key: list[str] = []
        foreign_keys: list[ast.ForeignKeyAst] = []
        while True:
            if self.current.is_keyword("primary"):
                self.advance()
                self.expect_keyword("key")
                primary_key = self._paren_name_list()
            elif self.current.is_keyword("foreign"):
                self.advance()
                self.expect_keyword("key")
                cols = self._paren_name_list()
                self.expect_keyword("references")
                ref_table = self.qualified_name()
                ref_cols = self._paren_name_list()
                foreign_keys.append(
                    ast.ForeignKeyAst(columns=cols, ref_table=ref_table,
                                      ref_columns=ref_cols)
                )
            else:
                columns.append(self.column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        inline_pk = [c.name for c in columns if c.primary_key]
        if inline_pk and primary_key:
            raise self.error("duplicate PRIMARY KEY specification")
        return ast.CreateTableStmt(
            name=name,
            columns=columns,
            primary_key=primary_key or inline_pk,
            foreign_keys=foreign_keys,
            if_not_exists=if_not_exists,
        )

    def _if_not_exists(self) -> bool:
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            return True
        return False

    def _paren_name_list(self) -> list[str]:
        self.expect_punct("(")
        names = [self.expect_ident()]
        while self.accept_punct(","):
            names.append(self.expect_ident())
        self.expect_punct(")")
        return names

    def column_def(self) -> ast.ColumnDefAst:
        name = self.expect_ident()
        type_token = self.current
        if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self.error("expected a type name")
        self.advance()
        type_name = type_token.text
        # Swallow optional length arguments: VARCHAR(30), CHAR(2) ...
        if self.accept_punct("("):
            self.integer_literal()
            while self.accept_punct(","):
                self.integer_literal()
            self.expect_punct(")")
        type_from_name(type_name)  # validate early
        not_null = False
        primary_key = False
        while True:
            if self.accept_keyword("not"):
                self.expect_keyword("null")
                not_null = True
            elif self.accept_keyword("primary"):
                self.expect_keyword("key")
                primary_key = True
                not_null = True
            else:
                break
        return ast.ColumnDefAst(name=name, type_name=type_name,
                                not_null=not_null, primary_key=primary_key)

    def drop(self) -> ast.DropStmt:
        self.expect_keyword("drop")
        for kind in ("table", "view", "schema"):
            if self.accept_keyword(kind):
                if_exists = False
                if self.accept_keyword("if"):
                    self.expect_keyword("exists")
                    if_exists = True
                return ast.DropStmt(kind=kind, name=self.qualified_name(),
                                    if_exists=if_exists)
        raise self.error("expected TABLE, VIEW or SCHEMA after DROP")

    # -- DML ---------------------------------------------------------------------

    def insert(self) -> ast.InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.qualified_name()
        columns = None
        if self.current.type == TokenType.PUNCT and self.current.text == "(":
            columns = self._paren_name_list()
        self.expect_keyword("values")
        rows = [self._value_row()]
        while self.accept_punct(","):
            rows.append(self._value_row())
        return ast.InsertStmt(table=table, columns=columns, rows=rows)

    def _value_row(self) -> list[Expr]:
        self.expect_punct("(")
        row = [self.expr()]
        while self.accept_punct(","):
            row.append(self.expr())
        self.expect_punct(")")
        return row

    def delete(self) -> ast.DeleteStmt:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.qualified_name()
        where = self.expr() if self.accept_keyword("where") else None
        return ast.DeleteStmt(table=table, where=where)

    def update(self) -> ast.UpdateStmt:
        self.expect_keyword("update")
        table = self.qualified_name()
        self.expect_keyword("set")
        assignments = []
        while True:
            name = self.expect_ident()
            if self.accept_operator("=") is None:
                raise self.error("expected '=' in assignment")
            assignments.append((name, self.expr()))
            if not self.accept_punct(","):
                break
        where = self.expr() if self.accept_keyword("where") else None
        return ast.UpdateStmt(table=table, assignments=assignments, where=where)

    # -- expressions ---------------------------------------------------------------

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept_keyword("or"):
            left = BinOp(op="or", left=left, right=self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept_keyword("and"):
            left = BinOp(op="and", left=left, right=self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept_keyword("not"):
            return UnOp(op="not", operand=self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        negated = False
        if self.current.is_keyword("not"):
            # NOT BETWEEN / NOT IN / NOT LIKE
            nxt = self.tokens[self.index + 1]
            if nxt.is_keyword("between", "in", "like"):
                self.advance()
                negated = True
        if self.accept_keyword("between"):
            low = self.additive()
            self.expect_keyword("and")
            high = self.additive()
            return Between(operand=left, low=low, high=high, negated=negated)
        if self.accept_keyword("in"):
            self.expect_punct("(")
            items = [self.expr()]
            while self.accept_punct(","):
                items.append(self.expr())
            self.expect_punct(")")
            return InList(operand=left, items=items, negated=negated)
        if self.accept_keyword("like"):
            token = self.current
            if token.type != TokenType.STRING:
                raise self.error("LIKE requires a string literal pattern")
            self.advance()
            return Like(operand=left, pattern=token.text, negated=negated)
        if self.accept_keyword("is"):
            is_negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(operand=left, negated=is_negated)
        op = self.accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            right = self.additive()
            return BinOp(op="<>" if op == "!=" else op, left=left, right=right)
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||")
            if op is None:
                return left
            right = self.multiplicative()
            if op == "||":
                left = FuncCall(name="concat", args=[left, right])
            else:
                left = BinOp(op=op, left=left, right=right)

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            left = BinOp(op=op, left=left, right=self.unary())

    def unary(self) -> Expr:
        if self.accept_operator("-"):
            return UnOp(op="-", operand=self.unary())
        if self.accept_operator("+"):
            return self.unary()
        return self.primary()

    def param_expr(self) -> Expr:
        token = self.advance()
        style = "positional" if token.text == "" else "named"
        if self.param_style is None:
            self.param_style = style
        elif self.param_style != style:
            raise ParseError(
                "cannot mix positional (?) and named (:name) parameters "
                "in one statement", token.position,
            )
        if style == "positional":
            slot: "int | str" = self.positional_params
            self.positional_params += 1
        else:
            slot = token.text
            if token.text not in self.named_params:
                self.named_params.append(token.text)
        return Param(slot=slot)

    def primary(self) -> Expr:
        token = self.current
        if token.type == TokenType.PARAM:
            return self.param_expr()
        if token.type == TokenType.NUMBER:
            self.advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return Literal(value=float(text))
            return Literal(value=int(text))
        if token.type == TokenType.STRING:
            self.advance()
            return Literal(value=token.text)
        if token.is_keyword("true"):
            self.advance()
            return Literal(value=True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(value=False)
        if token.is_keyword("null"):
            self.advance()
            return Literal(value=None)
        if token.is_keyword("cast"):
            self.advance()
            self.expect_punct("(")
            operand = self.expr()
            self.expect_keyword("as")
            type_token = self.current
            if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise self.error("expected a type name in CAST")
            self.advance()
            if self.accept_punct("("):
                self.integer_literal()
                self.expect_punct(")")
            self.expect_punct(")")
            return Cast(operand=operand, target=type_from_name(type_token.text))
        if token.is_keyword("case"):
            return self.case_expr()
        if self.accept_punct("("):
            inner = self.expr()
            self.expect_punct(")")
            return inner
        if token.type == TokenType.IDENT:
            return self.identifier_expr()
        raise self.error("expected an expression")

    def case_expr(self) -> Expr:
        self.expect_keyword("case")
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("when"):
            cond = self.expr()
            self.expect_keyword("then")
            whens.append((cond, self.expr()))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        default = self.expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return Case(whens=whens, default=default)

    def identifier_expr(self) -> Expr:
        name = self.expect_ident()
        # Function or aggregate call
        if self.current.type == TokenType.PUNCT and self.current.text == "(":
            self.advance()
            lowered = name.lower()
            if lowered in AGGREGATE_NAMES:
                if self.current.type == TokenType.OPERATOR and self.current.text == "*":
                    self.advance()
                    self.expect_punct(")")
                    if lowered != "count":
                        raise self.error(f"{name.upper()}(*) is not valid")
                    return AggCall(name="count", arg=None)
                distinct = self.accept_keyword("distinct")
                arg = self.expr()
                self.expect_punct(")")
                return AggCall(name=lowered, arg=arg, distinct=distinct)
            args = []
            if not self.accept_punct(")"):
                args.append(self.expr())
                while self.accept_punct(","):
                    args.append(self.expr())
                self.expect_punct(")")
            return FuncCall(name=lowered, args=args)
        parts = [name]
        while self.accept_punct("."):
            if self.current.type == TokenType.OPERATOR and self.current.text == "*":
                self.advance()
                return Star(qualifier=".".join(parts))
            parts.append(self.expect_ident())
        return ColumnRef(parts=tuple(parts))


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement (an optional trailing ``;`` is allowed)."""
    return _Parser(sql).parse_single()


def parse_prepared(sql: str):
    """Parse one statement and return it with its parameter spec
    (``(statement, ParamSpec)``)."""
    from repro.db.sql.parameters import ParamSpec

    parser = _Parser(sql)
    stmt = parser.parse_single()
    spec = ParamSpec(
        style=parser.param_style,
        count=parser.positional_params,
        names=tuple(parser.named_params),
    )
    return stmt, spec


def parse_select(sql: str) -> ast.SelectStmt:
    """Parse and require a SELECT statement."""
    stmt = parse_statement(sql)
    if not isinstance(stmt, ast.SelectStmt):
        raise ParseError("expected a SELECT statement")
    return stmt
