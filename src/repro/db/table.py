"""Tables: columnar storage with schema and constraint metadata.

A :class:`Table` stores one :class:`~repro.db.column.Column` per attribute
(the column-store layout the paper's MonetDB host pioneered).  Tables keep
a monotonically increasing ``version`` that mutations bump; the recycler
uses it to invalidate cached intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.db.column import Column
from repro.db.types import DataType
from repro.errors import CatalogError, ConstraintError, ExecutionError


@dataclass(frozen=True)
class ColumnSpec:
    """Schema entry for one column."""

    name: str
    dtype: DataType
    not_null: bool = False


@dataclass(frozen=True)
class ForeignKeySpec:
    """A foreign-key constraint (validated on demand)."""

    columns: tuple[str, ...]
    ref_table: str  # qualified name "schema.table"
    ref_columns: tuple[str, ...]


@dataclass
class TableSchema:
    """Ordered column specs plus key constraints."""

    columns: list[ColumnSpec]
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKeySpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        for key_col in self.primary_key:
            if key_col not in names:
                raise CatalogError(f"primary key column {key_col!r} not in schema")

    def spec(self, name: str) -> ColumnSpec:
        for column in self.columns:
            if column.name == name:
                return column
        raise CatalogError(f"no column {name!r}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]


class Table:
    """A base table with columnar storage.

    A table may be **disk-backed**: attached to a
    :class:`~repro.storage.store.TableBacking` whose segment file holds
    the rows.  Columns then fault in lazily on first access — the lazy-ETL
    principle extended to I/O — and the first mutation materialises every
    column and detaches the backing (copy-on-write semantics), so DML
    behaves identically for resident and disk-backed tables.
    """

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name
        self.schema = schema
        self.version = 0
        self._columns: dict[str, Column] = {
            spec.name: Column.from_numpy(
                spec.dtype,
                np.empty(0, dtype=object)
                if spec.dtype == DataType.VARCHAR
                else np.empty(0),
            )
            for spec in schema.columns
        }
        self._pk_index: set | None = set() if schema.primary_key else None
        self._backing = None  # set via attach_backing()

    # -- disk backing -----------------------------------------------------------

    @property
    def disk_backing(self):
        """The storage backing, or ``None`` for purely resident tables."""
        return self._backing

    def attach_backing(self, backing) -> None:
        """Make this (empty) table serve rows from a segment file."""
        first = next(iter(self._columns.values()), None)
        if first is not None and len(first):
            raise CatalogError(
                f"cannot attach storage to non-empty table {self.name}"
            )
        self._backing = backing
        self._columns = {}
        # The PK index covers only resident rows; it is rebuilt from the
        # faulted columns when the first mutation materialises the table.
        self._pk_index = None

    def is_column_resident(self, name: str) -> bool:
        return name in self._columns

    def _fault_column(self, name: str) -> Column:
        spec = self.schema.spec(name)  # raises CatalogError on unknown
        return self.install_column(name, self._backing.load_column(spec.name))

    def install_column(self, name: str, column: Column) -> Column:
        """Make a column read whole from the backing resident."""
        spec = self.schema.spec(name)
        if column.dtype != spec.dtype:
            raise CatalogError(
                f"segment column {self.name}.{name} has dtype "
                f"{column.dtype}, schema says {spec.dtype}"
            )
        self._columns[name] = column
        return column

    def _materialize_all(self) -> None:
        """Fault in every column and detach the backing (before DML)."""
        if self._backing is None:
            return
        for spec in self.schema.columns:
            if spec.name not in self._columns:
                self._fault_column(spec.name)
        backing, self._backing = self._backing, None
        backing.close()
        if self.schema.primary_key:
            self._pk_index = set(
                self._pk_tuples(self._columns, self.row_count)
            )

    # -- introspection --------------------------------------------------------

    @property
    def row_count(self) -> int:
        if self._backing is not None:
            return self._backing.row_count
        first = next(iter(self._columns.values()), None)
        return 0 if first is None else len(first)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            if self._backing is not None:
                return self._fault_column(name)
            raise CatalogError(f"table {self.name} has no column {name!r}") from None

    def columns(self) -> dict[str, Column]:
        if self._backing is not None:
            return {spec.name: self.column(spec.name)
                    for spec in self.schema.columns}
        return dict(self._columns)

    def memory_bytes(self) -> int:
        """Resident bytes across all columns (experiment E4).

        For disk-backed tables only *faulted* columns count — pages still
        on disk cost no memory, which is the point of the storage engine.
        """
        return sum(col.memory_bytes() for col in self._columns.values())

    # -- mutation ---------------------------------------------------------------

    def _check_not_null(self, name: str, column: Column) -> None:
        if self.schema.spec(name).not_null and column.has_nulls:
            raise ConstraintError(
                f"NULL in NOT NULL column {self.name}.{name}"
            )

    def _pk_tuples(self, batch: Mapping[str, Column], count: int) -> list[tuple]:
        keys = []
        pk_cols = [batch[k] for k in self.schema.primary_key]
        for i in range(count):
            keys.append(tuple(col.value_at(i) for col in pk_cols))
        return keys

    def append_batch(self, batch: Mapping[str, Column],
                     *, enforce_keys: bool = True) -> int:
        """Append aligned columns; returns the number of rows appended."""
        missing = set(self.schema.names) - set(batch)
        if missing:
            raise ExecutionError(f"insert into {self.name} missing columns {missing}")
        lengths = {len(batch[name]) for name in self.schema.names}
        if len(lengths) != 1:
            raise ExecutionError("ragged insert batch")
        count = lengths.pop()
        if count == 0:
            return 0
        self._materialize_all()
        for name in self.schema.names:
            self._check_not_null(name, batch[name])
        if enforce_keys and self._pk_index is not None:
            fresh = self._pk_tuples(batch, count)
            duplicates = set(fresh) & self._pk_index
            if duplicates or len(set(fresh)) != len(fresh):
                raise ConstraintError(
                    f"duplicate primary key in {self.name}: "
                    f"{next(iter(duplicates), 'within batch')}"
                )
            self._pk_index.update(fresh)
        elif self._pk_index is not None:
            self._pk_index.update(self._pk_tuples(batch, count))
        for name in self.schema.names:
            spec = self.schema.spec(name)
            incoming = batch[name]
            if incoming.dtype != spec.dtype:
                raise ExecutionError(
                    f"type mismatch inserting {incoming.dtype} into "
                    f"{self.name}.{name} ({spec.dtype})"
                )
            self._columns[name] = Column.concat([self._columns[name], incoming])
        self.version += 1
        return count

    def append_pydict(self, data: Mapping[str, Sequence],
                      *, enforce_keys: bool = True) -> int:
        """Append from Python sequences (tests and small inserts)."""
        batch = {
            spec.name: Column.from_values(spec.dtype, data[spec.name])
            for spec in self.schema.columns
        }
        return self.append_batch(batch, enforce_keys=enforce_keys)

    def delete_where(self, mask: np.ndarray) -> int:
        """Delete rows where ``mask`` is True; returns the count removed."""
        removed = int(mask.sum())
        if removed == 0:
            return 0
        self._materialize_all()
        keep = ~mask
        if self._pk_index is not None:
            doomed = {name: self._columns[name].filter(mask)
                      for name in self.schema.primary_key}
            self._pk_index -= set(self._pk_tuples(doomed, removed))
        for name in list(self._columns):
            self._columns[name] = self._columns[name].filter(keep)
        self.version += 1
        return removed

    def update_rows(self, mask: np.ndarray,
                    assignments: Mapping[str, Column]) -> int:
        """Overwrite the given columns where ``mask`` is True."""
        touched = int(mask.sum())
        if touched == 0:
            return 0
        self._materialize_all()
        if self._pk_index is not None and (
            set(assignments) & set(self.schema.primary_key)
        ):
            raise ConstraintError("updating primary key columns is not supported")
        for name, new_col in assignments.items():
            spec = self.schema.spec(name)
            if new_col.dtype != spec.dtype:
                raise ExecutionError(
                    f"type mismatch updating {self.name}.{name}"
                )
            self._check_not_null(name, new_col)
            current = self._columns[name]
            values = current.values.copy()
            values[mask] = new_col.values[mask]
            valid = None
            if current.valid is not None or new_col.valid is not None:
                valid = current.validity().copy()
                valid[mask] = new_col.validity()[mask]
            self._columns[name] = Column(spec.dtype, values, valid)
        self.version += 1
        return touched

    def truncate(self) -> None:
        """Remove every row (fast reset used by eager re-loads)."""
        if self._backing is not None:
            backing, self._backing = self._backing, None
            backing.close()
        for spec in self.schema.columns:
            self._columns[spec.name] = Column.from_numpy(
                spec.dtype,
                np.empty(0, dtype=object)
                if spec.dtype == DataType.VARCHAR
                else np.empty(0),
            )
        self._pk_index = set() if self.schema.primary_key else None
        self.version += 1

    def validate_foreign_keys(self, lookup) -> None:
        """Check FK constraints; ``lookup(qualified_name) -> Table``."""
        for fk in self.schema.foreign_keys:
            parent = lookup(fk.ref_table)
            parent_keys = set()
            parent_cols = [parent.column(c) for c in fk.ref_columns]
            for i in range(parent.row_count):
                parent_keys.add(tuple(col.value_at(i) for col in parent_cols))
            child_cols = [self.column(c) for c in fk.columns]
            for i in range(self.row_count):
                key = tuple(col.value_at(i) for col in child_cols)
                if any(part is None for part in key):
                    continue
                if key not in parent_keys:
                    raise ConstraintError(
                        f"foreign key violation in {self.name}: {key} not in "
                        f"{fk.ref_table}({', '.join(fk.ref_columns)})"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name}, rows={self.row_count})"


class SystemTable(Table):
    """A read-only virtual table whose rows come from a provider.

    The provider is any callable returning ``{column_name: sequence}``
    with every schema column present and aligned.  Rows materialise at
    *scan* time, never at bind time, so a plan compiled once (and kept
    in the plan cache) always sees the current runtime state.  Each
    snapshot bumps :attr:`version`, which keeps recycler signatures —
    they embed table versions — from ever serving a stale aggregate
    over moving introspection data.

    System tables reject every mutation and are skipped by catalog
    checkpoints: they describe the warehouse, they are not data in it.
    """

    def __init__(self, name: str, schema: TableSchema, provider) -> None:
        super().__init__(name, schema)
        self._provider = provider
        self._columns = {}  # never holds resident data

    def snapshot_columns(self) -> tuple[dict[str, Column], int]:
        """One consistent snapshot: ``(columns by name, row count)``."""
        data = self._provider()
        columns: dict[str, Column] = {}
        length: int | None = None
        for spec in self.schema.columns:
            if spec.name not in data:
                raise ExecutionError(
                    f"system table {self.name} provider omitted "
                    f"column {spec.name!r}"
                )
            column = Column.from_values(spec.dtype, data[spec.name])
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ExecutionError(
                    f"system table {self.name} provider returned ragged "
                    f"columns ({spec.name!r}: {len(column)} vs {length})"
                )
            columns[spec.name] = column
        self.version += 1
        return columns, length or 0

    def rows(self) -> list[dict]:
        """The snapshot as JSON-friendly row dicts (HTTP /sys route)."""
        columns, length = self.snapshot_columns()
        names = self.schema.names
        return [
            {name: columns[name].value_at(i) for name in names}
            for i in range(length)
        ]

    # -- introspection: a system table is never resident ----------------------

    @property
    def row_count(self) -> int:
        return 0  # unknown until snapshot; 0 keeps planning provider-free

    def column(self, name: str) -> Column:
        raise ExecutionError(
            f"system table {self.name} has no resident columns; "
            "rows exist only inside a scan snapshot"
        )

    # -- mutation: rejected ----------------------------------------------------

    def _read_only(self) -> ExecutionError:
        return ExecutionError(f"system table {self.name} is read-only")

    def attach_backing(self, backing) -> None:
        raise self._read_only()

    def append_batch(self, batch, *, enforce_keys: bool = True) -> int:
        raise self._read_only()

    def append_pydict(self, data, *, enforce_keys: bool = True) -> int:
        raise self._read_only()

    def delete_where(self, mask) -> int:
        raise self._read_only()

    def update_rows(self, mask, assignments) -> int:
        raise self._read_only()

    def truncate(self) -> None:
        raise self._read_only()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SystemTable({self.name})"
