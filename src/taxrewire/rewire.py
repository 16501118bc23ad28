"""Similarity-driven taxonomy correction.

Given a ranked set of highly similar leaf-class pairs, the rewiring pass
walks the pairs from most to least similar and makes each pair share a
parent, using the cheapest edit that keeps the rest of the tree
consistent:

* ``pc_rewire`` moves one leaf under the other's parent, but only when
  the moved leaf is paired with every class leaf already there;
* ``node_create`` groups the two leaves under a fresh node (attached at
  their lowest common ancestor) when neither parent can accept the other
  leaf;
* a final ``node_delete`` sweep removes internal nodes left without any
  class-leaf descendants.

Every pair must name two class leaves of the input tree; the pass checks
the whole set before it edits anything.  Every edit is elementary and
logged, so a run can be audited or replayed step by step on the original
tree.  Runs and replays apply the edits in place to a private copy of
the input tree, checking each edit's preconditions, and validate the
whole tree once at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Union

from .simgraph import SimilarPairSet
from .taxonomy import _MAX_ID, Taxonomy, _check_id, numbered_lines


class RewireError(ValueError):
    """Raised when an edit's preconditions do not hold."""


def _reject_field(key: str, value: object) -> None:
    """Raise the ValueError that says why ``value`` cannot be an op's ``key`` field."""
    if key == "iteration":
        raise RewireError(f"iteration must be a positive integer, got {value!r}")
    if key == "pair" and (type(value) is not tuple or len(value) != 2):
        raise RewireError(f"pair must be a tuple of two node ids, got {value!r}")
    for node in value if key == "pair" else (value,):
        _check_id(node, f"{key}: ")


def _check_fields(op: object) -> None:
    """Raise ValueError unless ``op``'s node fields hold node ids and its iteration is positive.

    A field must be a plain ``int``: True, a numpy integer or a float
    would serialize as something other than its JSON id.  Every op a run
    makes is checked, so a good field passes inline.
    """
    for key, value in vars(op).items():
        if key == "pair":
            if type(value) is tuple and len(value) == 2:
                first, second = value
                if (type(first) is int and type(second) is int
                        and 0 <= first <= _MAX_ID and 0 <= second <= _MAX_ID):
                    continue
        elif type(value) is int and 0 <= value <= _MAX_ID and (value or key != "iteration"):
            continue
        _reject_field(key, value)


@dataclass(frozen=True)
class CreateOp:
    iteration: int
    pair: tuple[int, int]
    parent: int
    new_node: int

    __post_init__ = _check_fields


@dataclass(frozen=True)
class MoveOp:
    iteration: int
    pair: tuple[int, int]
    leaf: int
    old_parent: int
    new_parent: int

    __post_init__ = _check_fields


@dataclass(frozen=True)
class DeleteOp:
    node: int
    parent: int

    __post_init__ = _check_fields


@dataclass(frozen=True)
class CollapseOp:
    """Splice out a single-child internal node (optional post-processing)."""

    node: int
    child: int
    parent: int

    __post_init__ = _check_fields


RewireOp = Union[CreateOp, MoveOp, DeleteOp, CollapseOp]

_OP_NAMES = {
    CreateOp: "node_create",
    MoveOp: "pc_rewire",
    DeleteOp: "node_delete",
    CollapseOp: "collapse",
}
_OP_TYPES = {name: cls for cls, name in _OP_NAMES.items()}

# The line json.dumps({"op": name, **fields}, sort_keys=True) gives for each
# op type: keys in sorted order, ", " and ": " separators.  Every field is
# an int node id or iteration, whose decimal text is its JSON.
_JSONL_LINE = {
    CreateOp: lambda op: (
        f'{{"iteration": {op.iteration}, "new_node": {op.new_node}, "op": "node_create", '
        f'"pair": [{op.pair[0]}, {op.pair[1]}], "parent": {op.parent}}}\n'
    ),
    MoveOp: lambda op: (
        f'{{"iteration": {op.iteration}, "leaf": {op.leaf}, "new_parent": {op.new_parent}, '
        f'"old_parent": {op.old_parent}, "op": "pc_rewire", '
        f'"pair": [{op.pair[0]}, {op.pair[1]}]}}\n'
    ),
    DeleteOp: lambda op: f'{{"node": {op.node}, "op": "node_delete", "parent": {op.parent}}}\n',
    CollapseOp: lambda op: (
        f'{{"child": {op.child}, "node": {op.node}, "op": "collapse", "parent": {op.parent}}}\n'
    ),
}


@dataclass
class RewireLog:
    """Ordered record of the elementary edits of one rewiring run."""

    ops: list[RewireOp]

    def counts(self) -> dict[str, int]:
        out = {"node_create": 0, "pc_rewire": 0, "node_delete": 0, "collapse": 0}
        for op in self.ops:
            out[_OP_NAMES[type(op)]] += 1
        return out

    def to_jsonl(self) -> str:
        """One JSON object per op and line, as ``json.dumps(record, sort_keys=True)`` writes it."""
        return "".join(_JSONL_LINE[type(op)](op) for op in self.ops)

    @staticmethod
    def from_jsonl(text: str | Iterable[str]) -> "RewireLog":
        ops: list[RewireOp] = []
        for lineno, line in numbered_lines(text):
            try:
                record = json.loads(line)
                kind = record.pop("op")
                cls = _OP_TYPES.get(kind) if isinstance(kind, str) else None
                if cls is None:
                    raise ValueError(f"unknown op {kind!r}")
                if cls in (CreateOp, MoveOp):
                    first, second = record["pair"]
                    record["pair"] = (first, second)
                ops.append(cls(**record))  # an op checks its own fields
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise RewireError(f"log line {lineno}: {exc}") from None
        return RewireLog(ops)


def _check_leaf(tax: Taxonomy, node: int) -> None:
    if not (node in tax and tax.is_leaf(node)):
        raise RewireError(f"node {node} is not a leaf")


def _check_parent(work: Taxonomy, node: int, recorded: int) -> None:
    if work.parent(node) != recorded:
        raise RewireError(f"node {node} is under {work.parent(node)}, not under {recorded}")


def _apply(work: Taxonomy, op: RewireOp) -> None:
    """Apply one logged edit to ``work`` in place, checking its preconditions.

    Every node the edit records must be what ``work`` gives: a created
    node's parent is the pair's lowest common ancestor, a moved leaf's old
    parent and a deleted or collapsed node's parent are their parents,
    and a collapsed node's child is its only child.  A leaf moves only
    under a node that already has children, or the root: turning a
    sibling class leaf into a parent is not a rewiring move.
    """
    if isinstance(op, CreateOp):
        first, second = op.pair
        _check_leaf(work, first)
        _check_leaf(work, second)
        if work.parent(first) == work.parent(second):
            raise RewireError(f"leaves {first} and {second} already share a parent")
        lca = work.lca(first, second)
        if op.parent != lca:
            raise RewireError(f"the lowest common ancestor of {first} and {second} is {lca}, "
                              f"not {op.parent}")
        work._add(op.parent, op.new_node)
        work._reparent(first, op.new_node)
        work._reparent(second, op.new_node)
    elif isinstance(op, MoveOp):
        leaf, new_parent = op.leaf, op.new_parent
        _check_leaf(work, leaf)
        _check_parent(work, leaf, op.old_parent)
        if new_parent not in work:
            raise RewireError(f"node {new_parent} is not in the tree")
        if new_parent != work.root and work.is_leaf(new_parent):
            raise RewireError(f"node {new_parent} is a leaf and cannot receive children")
        if work.parent(leaf) == new_parent:
            raise RewireError(f"leaf {leaf} is already under {new_parent}")
        work._reparent(leaf, new_parent)
    elif isinstance(op, CollapseOp):
        _check_parent(work, op.node, op.parent)
        if work.children(op.node) != (op.child,):
            raise RewireError(f"node {op.node} does not have {op.child} as its only child")
        work._reparent(op.child, op.parent)
        work._remove(op.node)
    else:
        _check_parent(work, op.node, op.parent)
        work._remove(op.node)


def _delete_sweep(work: Taxonomy, keep: frozenset[int]) -> list[DeleteOp]:
    """Delete childless non-root nodes not in ``keep`` in place, round by round.

    Only parents that a round emptied can be deleted in the next one.
    """
    ops: list[DeleteOp] = []
    candidates = work.nodes
    while True:
        doomed = sorted({
            n for n in candidates if n != work.root and work.is_leaf(n) and n not in keep
        })
        if not doomed:
            return ops
        candidates = []
        for node in doomed:
            op = DeleteOp(node=node, parent=work.parent(node))
            _apply(work, op)
            ops.append(op)
            candidates.append(op.parent)


def collapse_chains(tax: Taxonomy) -> tuple[Taxonomy, list[CollapseOp]]:
    """Splice out internal non-root nodes with exactly one child, in id order.

    Optional cosmetic pass: the single child is attached to its
    grandparent and the spliced node removed.  A leaf has no child, so
    the class leaves are never spliced.  Splicing a node leaves every
    other node's child count as it was, so one pass finds them all.
    """
    work = tax.copy()
    ops: list[CollapseOp] = []
    for node in work.nodes:
        if node != work.root and len(work.children(node)) == 1:
            op = CollapseOp(node=node, child=work.children(node)[0], parent=work.parent(node))
            _apply(work, op)
            ops.append(op)
    work.validate()
    return work, ops


def rewire_hierarchy(
    tax: Taxonomy, pairs: SimilarPairSet
) -> tuple[Taxonomy, RewireLog]:
    """Run the full correction pass and return the edited tree plus its log.

    Every pair must name two class leaves of the input tree; otherwise
    RewireError names the first pair, in set order, that does not.  Pairs
    are visited in the set's order (descending similarity), and a pair
    whose leaves already share a parent is passed over.  The input tree
    is never modified.
    """
    class_leaves = tax.leaves
    for a, b in zip(pairs.a.tolist(), pairs.b.tolist()):
        if a not in class_leaves or b not in class_leaves:
            node = b if a in class_leaves else a
            raise RewireError(f"pair ({a}, {b}): node {node} is not a class leaf of the tree")
    work = tax.copy()
    # A created node takes max(ids) + 1; nothing is deleted before the sweep.
    next_id = max(tax.nodes) + 1
    ops: list[RewireOp] = []
    ordered = zip(pairs.a.tolist(), pairs.b.tolist())
    for iteration, (first, second) in enumerate(ordered, 1):
        parent_first, parent_second = work.parent(first), work.parent(second)
        if parent_first == parent_second:
            continue
        # A leaf may join the other's parent only if it is paired with every
        # class leaf there (the other leaf of the pair trivially is).
        if all((j, first) in pairs for j in work.children(parent_second) if j in class_leaves):
            op = MoveOp(iteration, (first, second), first, parent_first, parent_second)
        elif all((j, second) in pairs for j in work.children(parent_first) if j in class_leaves):
            op = MoveOp(iteration, (first, second), second, parent_second, parent_first)
        else:
            if next_id > _MAX_ID:
                raise RewireError(f"pair ({first}, {second}): no node id is left for a new parent")
            op = CreateOp(iteration, (first, second), work.lca(first, second), next_id)
            next_id += 1
        _apply(work, op)
        ops.append(op)
        if work.parent(first) != work.parent(second):  # pragma: no cover
            raise RewireError(f"pair ({first}, {second}) still split after editing")
    ops.extend(_delete_sweep(work, class_leaves))
    work.validate()
    return work, RewireLog(ops)


def replay_log(tax: Taxonomy, log: RewireLog) -> Taxonomy:
    """Re-apply a recorded run mechanically to its original input tree.

    A log that does not fit the tree, or that deletes one of its leaves
    (a class), raises RewireError or TaxonomyError.
    """
    work = tax.copy()
    for op in log.ops:
        if isinstance(op, DeleteOp) and op.node in tax.leaves:
            raise RewireError(f"node {op.node} is a class leaf of the input tree")
        _apply(work, op)
    work.validate()
    return work
