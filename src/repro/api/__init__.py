"""The unified client API: Connection / Cursor / PreparedStatement.

Every query surface in the repository is a shim over this layer:

* ``SeismicWarehouse.connect()`` returns a :class:`Connection`;
* :class:`~repro.service.service.ClientSession.cursor` exposes the same
  :class:`Cursor` protocol over the concurrent query service;
* the legacy ``query()`` / ``execute()`` methods remain as deprecated
  wrappers.

Cursors stream the final projection in row batches (``fetchone`` /
``fetchmany`` / ``fetchall`` / iteration), statements accept ``?``
positional and ``:name`` named parameters, and compiled plans are cached
so repeat executions skip parse/bind/optimise.
"""

from repro.api.connection import Connection, PreparedStatement, connect
from repro.api.cursor import Cursor

__all__ = ["Connection", "Cursor", "PreparedStatement", "connect"]
