"""Pre/postorder interval labeling of element-level trees.

Section 4.3 notes that HOPI "maintain[s] pre- and postorder values for
each node until we have built the HOPI index" to derive the per-node
ancestor/descendant counts of the skeleton graph cheaply. This module
implements that labeling (one counter, assigned on entry and exit, the
classical XPath-accelerator scheme):

* ``u`` is a tree ancestor of ``v``  ⇔  ``pre(u) <= pre(v)`` and
  ``post(u) >= post(v)`` (within the same document);
* the subtree size of ``u`` is ``(post(u) - pre(u) + 1) / 2``;
* the tree depth of ``u`` (= ancestor count including self) is tracked
  alongside.

Tree labels answer *tree-only* axes in O(1); they are oblivious to
intra- and inter-document links — that is HOPI's job. Nothing in the
product uses them yet: they are the interval half of the planned
"intervals for the tree, 2-hop labels over the link skeleton" cover.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.xmlmodel.model import Collection, DocId, Document, ElementId


class TreeLabeling:
    """Pre/post/depth labels for every element of a collection.

    Labels are assigned per document (counters restart per document; the
    document id disambiguates). After structural maintenance, call
    :meth:`relabel_document` for changed documents or :meth:`rebuild`.
    """

    def __init__(self, collection: Collection) -> None:
        self._collection = collection
        self.pre: Dict[ElementId, int] = {}
        self.post: Dict[ElementId, int] = {}
        self.depth: Dict[ElementId, int] = {}
        self.rebuild()

    def rebuild(self) -> None:
        """Relabel every document."""
        self.pre.clear()
        self.post.clear()
        self.depth.clear()
        for doc in self._collection.documents.values():
            self._label_document(doc)

    def relabel_document(self, doc_id: DocId) -> None:
        """Relabel one document (after inserts below its root)."""
        doc = self._collection.documents[doc_id]
        for e in doc.elements:
            self.pre.pop(e, None)
            self.post.pop(e, None)
            self.depth.pop(e, None)
        self._label_document(doc)

    def forget_document(self, elements: Iterable[ElementId]) -> None:
        """Drop labels of a removed document's elements."""
        for e in elements:
            self.pre.pop(e, None)
            self.post.pop(e, None)
            self.depth.pop(e, None)

    def _label_document(self, doc: Document) -> None:
        counter = 0
        # iterative entry/exit DFS in children order
        stack: list[Tuple[ElementId, bool, int]] = [(doc.root, False, 1)]
        while stack:
            node, exiting, depth = stack.pop()
            if exiting:
                self.post[node] = counter
                counter += 1
                continue
            self.pre[node] = counter
            self.depth[node] = depth
            counter += 1
            stack.append((node, True, depth))
            for child in reversed(doc.children[node]):
                stack.append((child, False, depth + 1))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_tree_ancestor(self, u: ElementId, v: ElementId) -> bool:
        """Is ``u`` an ancestor of ``v`` in its document tree (reflexive)?

        Link edges are ignored — this is the pure parent/child axis.
        """
        if self._collection.doc(u) != self._collection.doc(v):
            return False
        return self.pre[u] <= self.pre[v] and self.post[u] >= self.post[v]

    def subtree_size(self, u: ElementId) -> int:
        """Number of elements in ``u``'s subtree, including ``u``."""
        return (self.post[u] - self.pre[u] + 1) // 2

    def tree_counts(self, u: ElementId) -> Tuple[int, int]:
        """``(anc, desc)`` counts, both including self (Figure 5)."""
        return self.depth[u], self.subtree_size(u)

    def tree_distance(self, u: ElementId, v: ElementId) -> Optional[int]:
        """Downward tree distance ``u -> v`` (edges), or None if ``u`` is
        not an ancestor of ``v``."""
        if not self.is_tree_ancestor(u, v):
            return None
        return self.depth[v] - self.depth[u]
