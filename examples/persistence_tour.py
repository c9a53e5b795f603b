"""Database persistence tour (Section 3.4's LIN/LOUT layout on SQLite).

Parses raw XML with XLink attributes, builds an index, persists cover
*and* collection into one SQLite file, reopens it, and answers queries
straight from SQL — the paper's deployment model (theirs was Oracle 9.2;
the schema and queries are identical).

Run:  python examples/persistence_tour.py
"""

import os
import tempfile

from repro.core import HopiIndex
from repro.storage import SQLiteCoverStore, load_index, persist_index
from repro.xmlmodel import load_collection

RAW_DOCUMENTS = {
    "portal": """
        <site>
          <page id="home">
            <title>Welcome</title>
            <ref xlink:href="docs#install"/>
          </page>
          <page id="news"><ref xlink:href="#home"/></page>
        </site>
    """,
    "docs": """
        <manual>
          <chapter id="install">
            <title>Installation</title>
            <see xlink:href="faq"/>
          </chapter>
          <chapter id="usage"><title>Usage</title></chapter>
        </manual>
    """,
    "faq": """
        <faq>
          <entry><q>Does it work?</q><a>Yes.</a></entry>
        </faq>
    """,
}


def main():
    # 1. parse XML (from-scratch parser; hrefs resolve to links)
    collection = load_collection(RAW_DOCUMENTS)
    print(f"parsed: {collection}")
    print(f"inter-document links: {sorted(collection.inter_links)}")

    # 2. build and persist
    index = HopiIndex.build(collection)
    path = os.path.join(tempfile.mkdtemp(), "hopi.db")
    store = persist_index(index, path)
    print(
        f"\npersisted to {path}: {store.cover_size()} label entries "
        f"({os.path.getsize(path):,} bytes on disk)"
    )

    # 3. query with the paper's SQL, directly against the store
    tags = collection.tags()
    (site,) = tags["site"]
    (faq_root,) = tags["faq"]
    print(
        "\nSELECT COUNT(*) FROM LIN, LOUT WHERE ...  "
        f"-> site ->* faq: {store.connected(site, faq_root)}"
    )
    print(f"descendants of the portal root (SQL): {sorted(store.descendants(site))}")
    store.close()

    # 4. reopen later: the file is self-contained
    reloaded = load_index(path)
    reloaded.verify()
    print("\nreloaded index verifies against a fresh closure ✓")

    # the reloaded index supports maintenance like the original
    reloaded.delete_document("faq")
    reloaded.verify()
    print("deleted 'faq' incrementally on the reloaded index ✓")

    # 5. persist the updated state back
    with SQLiteCoverStore(path) as s:
        s.write_index(reloaded)
    print(f"updated state written back ({os.path.getsize(path):,} bytes)")


if __name__ == "__main__":
    main()
