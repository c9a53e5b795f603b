"""HOPI: a 2-hop connection index for complex XML document collections.

Reproduction of Schenkel, Theobald, Weikum — "Efficient Creation and
Incremental Maintenance of the HOPI Index for Complex XML Document
Collections", ICDE 2005.

Public entry points:

* :class:`repro.core.HopiIndex` — build, query and maintain an index;
* :mod:`repro.xmlmodel` — collections, the XML parser, generators;
* :class:`repro.query.QueryEngine` — ``//``-path expressions with
  ``~tag`` similarity and distance ranking;
* :mod:`repro.storage` — the SQLite index file (the collection; the
  cover is rebuilt on load), snapshots and the update WAL;
* ``python -m repro`` — the command-line interface.
"""

from repro.core.hopi import HopiIndex
from repro.xmlmodel.model import Collection

__version__ = "1.0.0"

__all__ = ["HopiIndex", "Collection", "__version__"]
