"""Database persistence tour.

Parses raw XML with XLink attributes, builds an index, persists the
collection into one SQLite file, and reopens it. The paper (Section
3.4) stored the 2-hop cover in LIN/LOUT tables; here the cover is
derived state: the build is deterministic and about as fast as reading
labels back, so a load rebuilds it from the stored collection.

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

    # 2. build and persist: the file holds documents, elements and links
    index = HopiIndex.build(collection)
    path = os.path.join(tempfile.mkdtemp(), "hopi.db")
    persist_index(index, path).close()
    print(
        f"\npersisted to {path}: {os.path.getsize(path):,} bytes on disk "
        f"for {collection.num_elements} elements"
    )

    # 3. reopen later: the file is self-contained, the load rebuilds
    # the cover the original build made
    reloaded = load_index(path)
    print(
        f"reloaded: {reloaded.cover.size} label entries "
        f"(the original build had {index.cover.size})"
    )
    tags = collection.tags()
    (site,) = tags["site"]
    (faq_root,) = tags["faq"]
    print(f"site ->* faq: {reloaded.connected(site, faq_root)}")
    print(f"descendants of the portal root: {sorted(reloaded.descendants(site))}")

    reloaded.verify()
    print("\nreloaded index verifies against a fresh closure ✓")

    # the reloaded index supports maintenance like the original
    reloaded.delete_document("faq")
    reloaded.verify()
    print("deleted 'faq' incrementally on the reloaded index ✓")

    # 4. persist the updated state back
    with SQLiteCoverStore(path) as s:
        s.write_index(reloaded)
    print(f"updated state written back ({os.path.getsize(path):,} bytes)")


if __name__ == "__main__":
    main()
