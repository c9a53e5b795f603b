"""DDL of the HOPI index file.

The file holds the collection, not the 2-hop cover: the labels are
derived state that a load rebuilds (see :mod:`repro.storage.db`).

* ``META(KEY, VALUE)`` — ``distance`` (``"1"`` for a distance-aware
  index, Section 5), ``epoch`` (the last published epoch the file
  holds, which the update WAL's replay resumes from) and ``next_id``
  (the next element id to allocate: ids of deleted elements are never
  reused, so replayed ops name the same elements);
* ``DOCUMENTS(DOC_ID, ROOT)``, ``ELEMENTS(EID, DOC_ID, TAG, PARENT,
  TEXT)`` and ``LINKS(SOURCE, TARGET, KIND)`` — the collection, keyed
  the way every load and delete reads it.

Files written before the cover became derived also hold the paper's
Section-3.4 ``LIN`` / ``LOUT`` label tables, their backward indexes,
two element indexes and a ``nodes`` META key. A load ignores them; the
first full write drops them (:data:`STALE`).
"""

SCHEMA = """
CREATE TABLE IF NOT EXISTS META (
    KEY   TEXT PRIMARY KEY,
    VALUE TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS DOCUMENTS (
    DOC_ID TEXT PRIMARY KEY,
    ROOT   INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS ELEMENTS (
    EID    INTEGER PRIMARY KEY,
    DOC_ID TEXT NOT NULL,
    TAG    TEXT NOT NULL,
    PARENT INTEGER,
    TEXT   TEXT NOT NULL DEFAULT ''
);

CREATE TABLE IF NOT EXISTS LINKS (
    SOURCE INTEGER NOT NULL,
    TARGET INTEGER NOT NULL,
    KIND   TEXT NOT NULL CHECK (KIND IN ('intra', 'inter')),
    PRIMARY KEY (SOURCE, TARGET)
) WITHOUT ROWID;
"""

#: what older files hold beside the collection; a full write drops
#: them (dropping a label table drops its backward index)
STALE = ("LIN", "LOUT", "ELEMENTS_BY_DOC", "ELEMENTS_BY_TAG")
