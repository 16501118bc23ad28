"""Rooted class taxonomies over integer node ids.

A taxonomy is a rooted tree whose leaves are the target classes of a
hierarchical classifier.  Node ids are integers in 0..2^63 - 1, the
range of the data labels and of the model node ids, and a hierarchy file
spells them in decimal: the ids of its leaves are the labels of the data.
Children lists are kept sorted ascending so that every traversal of the
tree is deterministic.

Every file that names nodes (hierarchy, pairs, models, predictions) reads
them with :func:`parse_id`, every reader reads a text or an open file with
:func:`numbered_lines`, and this module imports neither numpy nor scipy.

The editing helpers (:meth:`Taxonomy.add_node`, :meth:`Taxonomy.reparent`)
return an edited copy and never touch the receiver.  An edit checks only
the invariants it can break; code that edits a private copy in place
validates the whole tree once when done.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from itertools import chain
from typing import Iterable, Iterator, Mapping


class TaxonomyError(ValueError):
    """Raised for malformed edge lists or structural violations."""


class Taxonomy:
    """Rooted tree with one parent per non-root node.

    Parameters
    ----------
    root:
        Id of the root node.
    parent_of:
        Mapping child id -> parent id for every non-root node.
    """

    __slots__ = ("root", "_parent", "_children", "_leaves")

    def __init__(
        self, root: int, parent_of: Mapping[int, int], _validate: bool = True
    ) -> None:
        self.root = root
        self._parent = dict(parent_of)
        children: dict[int, list[int]] = {root: []}
        for child, parent in self._parent.items():
            children.setdefault(child, [])
            children.setdefault(parent, []).append(child)
        for kids in children.values():
            kids.sort()
        self._children = children
        self._leaves: frozenset[int] | None = None
        if _validate:
            self.validate()

    # ------------------------------------------------------------------
    # structure checks

    def validate(self) -> None:
        """Check the tree invariants, raising :class:`TaxonomyError` on failure.

        Verified: ids are integers in 0..2^63 - 1, the root has no parent,
        every other node has exactly one, and every node is reachable from
        the root (which rules out cycles and disconnected components).
        """
        for node in self._children:
            _check_id(node)
        if self.root in self._parent:
            raise TaxonomyError(f"root {self.root} must not have a parent")
        for node in self._children:
            if node != self.root and node not in self._parent:
                raise TaxonomyError(
                    f"multiple root candidates: node {node} has no parent "
                    f"but the root is {self.root}"
                )
        seen = {self.root}
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in self._children[node]:
                if child in seen:
                    raise TaxonomyError(f"cycle detected at node {child}")
                seen.add(child)
                stack.append(child)
        if len(seen) != len(self._children):
            missing = sorted(set(self._children) - seen)
            raise TaxonomyError(f"cycle detected: nodes {missing} are unreachable from the root")

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self._children)

    def __contains__(self, node: int) -> bool:
        return node in self._children

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._children))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return self.root == other.root and self._parent == other._parent

    def __repr__(self) -> str:
        return f"Taxonomy(root={self.root}, nodes={len(self)}, leaves={len(self.leaves)})"

    @property
    def nodes(self) -> list[int]:
        """All node ids, ascending."""
        return sorted(self._children)

    @property
    def leaves(self) -> frozenset[int]:
        """Ids of nodes without children."""
        if self._leaves is None:
            self._leaves = frozenset(n for n, kids in self._children.items() if not kids)
        return self._leaves

    @property
    def internal_nodes(self) -> list[int]:
        """Non-leaf node ids (the root included), ascending."""
        return sorted(n for n, kids in self._children.items() if kids)

    def non_root_nodes(self) -> list[int]:
        return sorted(n for n in self._children if n != self.root)

    def is_leaf(self, node: int) -> bool:
        self._require(node)
        return not self._children[node]

    def parent(self, node: int) -> int:
        self._require(node)
        if node == self.root:
            raise TaxonomyError("the root has no parent")
        return self._parent[node]

    def children(self, node: int) -> tuple[int, ...]:
        self._require(node)
        return tuple(self._children[node])

    def path_to_root(self, node: int) -> list[int]:
        """Nodes from ``node`` up to and including the root."""
        self._require(node)
        path = [node]
        while node != self.root:
            node = self._parent[node]
            path.append(node)
        return path

    def ancestors(self, node: int) -> list[int]:
        """Strict ancestors of ``node``, nearest first, root last."""
        return self.path_to_root(node)[1:]

    def depth(self, node: int) -> int:
        """Number of edges between ``node`` and the root."""
        return len(self.path_to_root(node)) - 1

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of two nodes."""
        pa = self.path_to_root(a)
        pb = self.path_to_root(b)
        # Align the deeper path, then walk up in lockstep.
        if len(pa) > len(pb):
            pa = pa[len(pa) - len(pb):]
        elif len(pb) > len(pa):
            pb = pb[len(pb) - len(pa):]
        for x, y in zip(pa, pb):
            if x == y:
                return x
        raise TaxonomyError("nodes do not share an ancestor")  # pragma: no cover

    def subtree_nodes(self, node: int) -> list[int]:
        """All nodes of the subtree rooted at ``node``, ascending."""
        self._require(node)
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(self._children[n])
        return sorted(out)

    def subtree_leaves(self, node: int) -> frozenset[int]:
        return frozenset(n for n in self.subtree_nodes(node) if not self._children[n])

    def _require(self, node: int) -> None:
        if node not in self._children:
            raise TaxonomyError(f"unknown node {node}")

    # ------------------------------------------------------------------
    # copy-returning edits

    def copy(self) -> "Taxonomy":
        return Taxonomy(self.root, self._parent, _validate=False)

    def add_node(self, parent: int, node_id: int | None = None) -> tuple["Taxonomy", int]:
        """Return a new tree with a fresh childless node attached under ``parent``.

        The new id defaults to ``max(nodes) + 1`` so ids never clash with
        existing ones.  Returns ``(tree, new_id)``.
        """
        if node_id is None:
            node_id = max(self._children) + 1
        out = self.copy()
        out._add(parent, node_id)
        return out, node_id

    def reparent(self, node: int, new_parent: int) -> "Taxonomy":
        """Return a new tree with ``node`` detached and re-attached under ``new_parent``.

        The whole subtree under ``node`` moves with it.  Edits that would
        break the tree, e.g. moving a node under one of its own
        descendants, are rejected.
        """
        out = self.copy()
        out._reparent(node, new_parent)
        return out

    # ------------------------------------------------------------------
    # in-place edits, for a working copy no one else holds

    def _add(self, parent: int, node: int) -> None:
        _check_id(node)
        if node in self._children:
            raise TaxonomyError(f"node {node} already exists")
        self._require(parent)
        self._parent[node] = parent
        self._children[node] = []
        insort(self._children[parent], node)
        self._leaves = None

    def _reparent(self, node: int, new_parent: int) -> None:
        self._require(node)
        self._require(new_parent)
        if node == self.root:
            raise TaxonomyError("cannot reparent the root")
        if new_parent == node:
            raise TaxonomyError("cannot attach a node to itself")
        up = new_parent
        while up != self.root:
            up = self._parent[up]
            if up == node:
                raise TaxonomyError(f"cycle detected: {new_parent} is below {node}")
        self._children[self._parent[node]].remove(node)
        insort(self._children[new_parent], node)
        self._parent[node] = new_parent
        self._leaves = None

    def _remove(self, node: int) -> None:
        self._require(node)
        if node == self.root:
            raise TaxonomyError("cannot remove the root")
        if self._children[node]:
            raise TaxonomyError(f"node {node} still has children")
        self._children[self._parent.pop(node)].remove(node)
        del self._children[node]
        self._leaves = None

    # ------------------------------------------------------------------
    # fingerprints

    def fingerprint(self) -> str:
        """Hex sha256 of the canonical edge list.

        Stable across child orderings; used to verify that a model file is
        applied to the hierarchy it was trained on.
        """
        edges = sorted((p, c) for c, p in self._parent.items())
        payload = "\n".join(f"{p} {c}" for p, c in edges).encode("ascii")
        return hashlib.sha256(payload).hexdigest()


_MAX_ID = 2**63 - 1  # the int64 range of data labels and model node ids


def _check_id(node: object, where: str = "") -> None:
    """Raise :class:`TaxonomyError` unless ``node`` is a plain int in 0..2^63 - 1.

    A bool, a numpy integer or another int subclass is not a node id.
    """
    if type(node) is not int or not 0 <= node <= _MAX_ID:
        raise TaxonomyError(
            f"{where}node ids must be non-negative integers below 2^63, got {node!r}"
        )


def parse_id(
    token: str, lineno: int, error: type[ValueError] = TaxonomyError, field: str = "node"
) -> int:
    """The id ``token`` spells in ASCII decimal with no sign and no leading zero.

    Any other token, or one above 2^63 - 1, raises ``error`` (each file's
    own exit code) naming ``lineno`` and the ``field`` the token stands
    for; the message cuts a long token.
    """
    digits = token.isascii() and token.isdigit() and (token == "0" or token[0] != "0")
    # The length check comes before int(), which refuses over 4,300 digits.
    if digits and len(token) <= 19 and (node := int(token)) <= _MAX_ID:
        return node
    shown = token if len(token) <= 20 else token[:17] + "..."
    what = "is above 2^63 - 1" if digits else "is not a decimal integer id"
    raise error(f"line {lineno}: {field} {shown!r} {what}")


def numbered_lines(source: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` of the stripped lines of ``source`` that are not blank.

    ``source`` is a text or an iterable of lines, such as an open file.  Each
    item is split again with ``str.splitlines``, so lines and line numbers are
    those of ``splitlines()`` on the whole text; an empty item is one line.
    """
    items = (source,) if isinstance(source, str) else source
    split = chain.from_iterable(item.splitlines() or ("",) for item in items)
    return ((lineno, line) for lineno, line in enumerate(map(str.strip, split), 1) if line)


def records(source: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    """The :func:`numbered_lines` of ``source`` that do not start with ``#``."""
    return ((lineno, line) for lineno, line in numbered_lines(source) if not line.startswith("#"))


def parse_taxonomy(text: str | Iterable[str]) -> Taxonomy:
    """Parse an edge list with one ``parent child`` pair of node ids per line.

    Blank lines and lines starting with ``#`` are skipped.  A token that
    is not a node id (see :func:`parse_id`) raises :class:`TaxonomyError`
    naming its line.
    """
    parent_of: dict[int, int] = {}
    for lineno, line in records(text):
        parts = line.split()
        if len(parts) != 2:
            raise TaxonomyError(f"line {lineno}: expected 'parent child', got {line!r}")
        parent, child = parse_id(parts[0], lineno), parse_id(parts[1], lineno)
        if parent == child:
            raise TaxonomyError(f"line {lineno}: self-loop on node {parent}")
        if child in parent_of:
            raise TaxonomyError(f"line {lineno}: node {child} has more than one parent")
        parent_of[child] = parent
    if not parent_of:
        raise TaxonomyError("edge list is empty")

    roots = sorted(set(parent_of.values()) - set(parent_of))
    if not roots:
        raise TaxonomyError("cycle detected: every node has a parent")
    if len(roots) > 1:
        raise TaxonomyError(f"multiple root candidates: {roots}")
    return Taxonomy(roots[0], parent_of)


def serialize_taxonomy(tax: Taxonomy) -> str:
    """Render a taxonomy as an edge list, one ``parent child`` line per edge.

    Lines are sorted by (parent id, child id) so equal trees serialize to
    identical text.  A single-node tree yields the empty string.
    """
    edges = sorted((p, c) for c, p in tax._parent.items())
    if not edges:
        return ""
    return "".join(f"{p} {c}\n" for p, c in edges)
