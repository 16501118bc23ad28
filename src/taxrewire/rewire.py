"""Similarity-driven taxonomy correction.

Given a ranked set of highly similar leaf-class pairs, the rewiring pass
walks the pairs from most to least similar and makes each pair share a
parent, using the cheapest edit that keeps the rest of the tree
consistent:

* ``pc_rewire`` moves one leaf under the other's parent, but only when
  the moved leaf is similar to every class leaf already there;
* ``node_create`` groups the two leaves under a fresh node (attached at
  their lowest common ancestor) when neither parent can accept the other
  leaf;
* a final ``node_delete`` sweep removes internal nodes left without any
  class-leaf descendants.

Every edit is elementary and logged, so a run can be audited or replayed
step by step on the original tree.  Runs and replays apply the edits in
place to a private copy of the input tree, checking each edit's
preconditions, and validate the whole tree once at the end.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Union

from .simgraph import SimilarPairSet
from .taxonomy import Taxonomy


class RewireError(ValueError):
    """Raised when an edit's preconditions do not hold."""


@dataclass(frozen=True)
class RewireFlags:
    """Feasibility of the two leaf moves for a pair (first, second).

    ``move_first`` means first may be moved under second's parent;
    ``move_second`` the reverse.  Both False calls for a new shared node.
    """

    move_first: bool
    move_second: bool


@dataclass(frozen=True)
class CreateOp:
    iteration: int
    pair: tuple[int, int]
    parent: int
    new_node: int


@dataclass(frozen=True)
class MoveOp:
    iteration: int
    pair: tuple[int, int]
    leaf: int
    old_parent: int
    new_parent: int


@dataclass(frozen=True)
class DeleteOp:
    node: int
    parent: int


@dataclass(frozen=True)
class CollapseOp:
    """Splice out a single-child internal node (optional post-processing)."""

    node: int
    child: int
    parent: int


RewireOp = Union[CreateOp, MoveOp, DeleteOp, CollapseOp]

_OP_NAMES = {
    CreateOp: "node_create",
    MoveOp: "pc_rewire",
    DeleteOp: "node_delete",
    CollapseOp: "collapse",
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
        lines = []
        for op in self.ops:
            record = {"op": _OP_NAMES[type(op)]}
            for key, value in vars(op).items():
                record[key] = list(value) if isinstance(value, tuple) else value
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_jsonl(text: str) -> "RewireLog":
        ops: list[RewireOp] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                kind = record.pop("op")
                if kind == "node_create":
                    record["pair"] = tuple(record["pair"])
                    ops.append(CreateOp(**record))
                elif kind == "pc_rewire":
                    record["pair"] = tuple(record["pair"])
                    ops.append(MoveOp(**record))
                elif kind == "node_delete":
                    ops.append(DeleteOp(**record))
                elif kind == "collapse":
                    ops.append(CollapseOp(**record))
                else:
                    raise ValueError(f"unknown op {kind!r}")
            except (ValueError, KeyError, TypeError) as exc:
                raise RewireError(f"log line {lineno}: {exc}") from None
        return RewireLog(ops)


def _check_class_leaf(tax: Taxonomy, node: int, class_leaves: frozenset[int]) -> None:
    if node not in tax:
        raise RewireError(f"node {node} is not in the tree")
    if node not in class_leaves or not tax.is_leaf(node):
        raise RewireError(f"node {node} is not a class leaf")


def rewire_flags(
    tax: Taxonomy,
    pairs: SimilarPairSet,
    first: int,
    second: int,
    class_leaves: frozenset[int] | None = None,
) -> RewireFlags:
    """Decide which of the two leaves may join the other's siblings.

    A move of ``second`` under ``first``'s parent is vetoed as soon as one
    of ``first``'s class-leaf siblings is not paired with ``second`` (and
    symmetrically).  A leaf with no class-leaf siblings vetoes nothing.
    ``class_leaves`` restricts the sibling sets when the tree carries
    structural leftovers (e.g. emptied parents awaiting deletion); by
    default all current leaves count.
    """
    if class_leaves is None:
        class_leaves = tax.leaves
    _check_class_leaf(tax, first, class_leaves)
    _check_class_leaf(tax, second, class_leaves)
    if tax.parent(first) == tax.parent(second):
        raise RewireError(f"nodes {first} and {second} already share a parent")
    sib_first = tax.leaf_siblings(first) & class_leaves
    sib_second = tax.leaf_siblings(second) & class_leaves
    move_second = all((j, second) in pairs for j in sib_first)
    move_first = all((j, first) in pairs for j in sib_second)
    return RewireFlags(move_first=move_first, move_second=move_second)


def _check_leaf(tax: Taxonomy, node: int) -> None:
    if not (node in tax and tax.is_leaf(node)):
        raise RewireError(f"node {node} is not a leaf")


def _apply(work: Taxonomy, op: RewireOp) -> None:
    """Apply one logged edit to ``work`` in place, checking its preconditions.

    A leaf moves only under a node that already has children, or the root:
    turning a sibling class leaf into a parent is not a rewiring move.
    """
    if isinstance(op, CreateOp):
        first, second = op.pair
        _check_leaf(work, first)
        _check_leaf(work, second)
        if work.parent(first) == work.parent(second):
            raise RewireError(f"leaves {first} and {second} already share a parent")
        work._add(op.parent, op.new_node)
        work._reparent(first, op.new_node)
        work._reparent(second, op.new_node)
    elif isinstance(op, MoveOp):
        leaf, new_parent = op.leaf, op.new_parent
        _check_leaf(work, leaf)
        if new_parent not in work:
            raise RewireError(f"node {new_parent} is not in the tree")
        if new_parent != work.root and work.is_leaf(new_parent):
            raise RewireError(f"node {new_parent} is a leaf and cannot receive children")
        if work.parent(leaf) == new_parent:
            raise RewireError(f"leaf {leaf} is already under {new_parent}")
        work._reparent(leaf, new_parent)
    elif isinstance(op, CollapseOp):
        work._reparent(op.child, op.parent)
        work._remove(op.node)
    else:
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


def node_delete_sweep(
    tax: Taxonomy, class_leaves: Iterable[int] | None = None
) -> tuple[Taxonomy, list[DeleteOp]]:
    """Repeatedly delete childless non-root nodes that are not class leaves.

    Bottom-up this removes exactly the internal nodes left without any
    class-leaf descendant.  With the default ``class_leaves`` (the current
    leaves) the sweep is the identity.
    """
    keep = frozenset(class_leaves) if class_leaves is not None else tax.leaves
    work = tax.copy()
    ops = _delete_sweep(work, keep)
    work.validate()
    return work, ops


def collapse_chains(
    tax: Taxonomy, class_leaves: Iterable[int] | None = None
) -> tuple[Taxonomy, list[CollapseOp]]:
    """Splice out internal non-root nodes with exactly one child, in id order.

    Optional cosmetic pass: the single child is attached to its
    grandparent and the spliced node removed.  Class leaves are never
    spliced even when structurally childless.  Splicing a node leaves
    every other node's child count as it was, so one pass finds them all.
    """
    keep = frozenset(class_leaves) if class_leaves is not None else tax.leaves
    work = tax.copy()
    ops: list[CollapseOp] = []
    for node in work.nodes:
        if node != work.root and node not in keep and len(work.children(node)) == 1:
            op = CollapseOp(node=node, child=work.children(node)[0], parent=work.parent(node))
            _apply(work, op)
            ops.append(op)
    work.validate()
    return work, ops


def rewire_hierarchy(
    tax: Taxonomy, pairs: SimilarPairSet
) -> tuple[Taxonomy, RewireLog]:
    """Run the full correction pass and return the edited tree plus its log.

    Pairs are visited in the set's order (descending similarity).  Pairs
    already sharing a parent are skipped; pairs naming nodes that are not
    class leaves of the input tree are skipped with a warning.  The input
    tree is never modified.
    """
    class_leaves = tax.leaves
    work = tax.copy()
    # A created node takes max(ids) + 1; nothing is deleted before the sweep.
    next_id = max(tax.nodes) + 1
    ops: list[RewireOp] = []
    ordered = zip(pairs.a.tolist(), pairs.b.tolist())
    for iteration, (first, second) in enumerate(ordered, 1):
        if first not in class_leaves or second not in class_leaves:
            warnings.warn(
                f"pair ({first}, {second}) skipped: not class leaves of the tree",
                stacklevel=2,
            )
            continue
        if work.parent(first) == work.parent(second):
            continue
        flags = rewire_flags(work, pairs, first, second, class_leaves)
        if not flags.move_first and not flags.move_second:
            op = CreateOp(iteration, (first, second), work.lca(first, second), next_id)
            next_id += 1
        elif flags.move_first:
            op = MoveOp(iteration, (first, second), first, work.parent(first), work.parent(second))
        else:
            op = MoveOp(iteration, (first, second), second, work.parent(second), work.parent(first))
        _apply(work, op)
        ops.append(op)
        if work.parent(first) != work.parent(second):  # pragma: no cover
            raise RewireError(f"pair ({first}, {second}) still split after editing")
    ops.extend(_delete_sweep(work, class_leaves))
    work.validate()
    return work, RewireLog(ops)


def replay_log(tax: Taxonomy, log: RewireLog) -> Taxonomy:
    """Re-apply a recorded run mechanically to its original input tree.

    A log that does not fit the tree raises RewireError or TaxonomyError.
    """
    work = tax.copy()
    for op in log.ops:
        _apply(work, op)
    work.validate()
    return work
