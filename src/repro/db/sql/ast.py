"""Statement-level AST produced by the parser.

Expressions reuse the node classes in :mod:`repro.db.expr` (unbound form);
this module adds the statement and table-reference shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db.expr import Expr


# -- table references ---------------------------------------------------------


class TableExpr:
    """Base class for FROM-clause items."""


@dataclass
class TableRef(TableExpr):
    """``schema.table [AS alias]`` — may resolve to a table or a view."""

    parts: tuple[str, ...]
    alias: Optional[str] = None

    @property
    def display(self) -> str:
        name = ".".join(self.parts)
        return f"{name} AS {self.alias}" if self.alias else name


@dataclass
class SubqueryRef(TableExpr):
    """A derived table: ``(SELECT ...) AS alias``."""

    select: "SelectStmt"
    alias: str


@dataclass
class JoinRef(TableExpr):
    """Explicit join: ``left [INNER|LEFT|CROSS] JOIN right [ON cond]``."""

    left: TableExpr
    right: TableExpr
    kind: str  # 'inner' | 'left' | 'cross'
    condition: Optional[Expr] = None


# -- SELECT -------------------------------------------------------------------


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass
class SelectStmt:
    items: list[SelectItem]
    from_items: list[TableExpr] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


# -- DDL ----------------------------------------------------------------------


@dataclass
class ColumnDefAst:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False


@dataclass
class ForeignKeyAst:
    columns: list[str]
    ref_table: tuple[str, ...]
    ref_columns: list[str]


@dataclass
class CreateTableStmt:
    name: tuple[str, ...]
    columns: list[ColumnDefAst]
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[ForeignKeyAst] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class CreateViewStmt:
    name: tuple[str, ...]
    select: SelectStmt
    sql_text: str = ""


@dataclass
class CreateSchemaStmt:
    name: str
    if_not_exists: bool = False


@dataclass
class DropStmt:
    kind: str  # 'table' | 'view' | 'schema'
    name: tuple[str, ...]
    if_exists: bool = False


# -- DML ----------------------------------------------------------------------


@dataclass
class InsertStmt:
    table: tuple[str, ...]
    columns: Optional[list[str]]
    rows: list[list[Expr]]


@dataclass
class DeleteStmt:
    table: tuple[str, ...]
    where: Optional[Expr] = None


@dataclass
class UpdateStmt:
    table: tuple[str, ...]
    assignments: list[tuple[str, Expr]]
    where: Optional[Expr] = None


@dataclass
class ExplainStmt:
    select: SelectStmt
    sql_text: str = ""
    # The text of ``select`` alone (what a shard worker compiles).
    select_sql: str = ""
    # EXPLAIN ANALYZE: execute the plan and annotate each operator with
    # measured wall time, rows and page I/O (plain EXPLAIN never runs).
    analyze: bool = False


Statement = (
    SelectStmt
    | CreateTableStmt
    | CreateViewStmt
    | CreateSchemaStmt
    | DropStmt
    | InsertStmt
    | DeleteStmt
    | UpdateStmt
    | ExplainStmt
)
