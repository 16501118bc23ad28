"""Synthetic benchmarks with a known-good taxonomy and a corrupted copy.

The generator plants a perfect f-ary tree, gives every node a random
unit direction, and samples each leaf's instances around the sum of the
directions along its root path.  Leaves under the same parent therefore
share most of their signal and form tight cosine clusters, while leaves
from different branches stay well separated.  A configurable number of
leaves is then re-attached under wrong parents, producing a corrupted
tree whose repair can be checked against the planted truth.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .corpus import Dataset
from .taxonomy import Taxonomy


class BenchError(ValueError):
    """Raised for infeasible benchmark configurations."""


@dataclass(frozen=True)
class PlantConfig:
    """Shape and noise parameters of a planted benchmark.

    ``n_leaves`` must be an exact power of ``fanout``; the tree depth is
    derived.  ``instances_per_leaf`` is either a fixed count or an
    inclusive (lo, hi) range sampled per leaf.  ``noise`` scales the unit
    perturbation added to each instance before renormalization, and
    ``leaf_weight`` scales a leaf's private direction relative to the
    shared ancestor directions (lower values pull same-parent leaves
    closer together).
    """

    n_leaves: int
    fanout: int
    dims: int
    instances_per_leaf: int | tuple[int, int]
    noise: float
    n_misplaced: int
    seed: int
    leaf_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise BenchError(f"fanout must be >= 2, got {self.fanout}")
        depth = round(math.log(self.n_leaves, self.fanout)) if self.n_leaves > 1 else 0
        if depth < 1 or self.fanout**depth != self.n_leaves:
            raise BenchError(
                f"infeasible shape: n_leaves={self.n_leaves} is not a positive "
                f"power of fanout={self.fanout}"
            )
        if self.dims < 2:
            raise BenchError(f"dims must be >= 2, got {self.dims}")
        if not 0.0 <= self.noise < 1.0:
            raise BenchError(f"noise must lie in [0, 1), got {self.noise}")
        if not 0.0 < self.leaf_weight <= 1.0:
            raise BenchError(f"leaf_weight must lie in (0, 1], got {self.leaf_weight}")
        lo, hi = self.instance_range()
        if lo < 1 or hi < lo:
            raise BenchError(f"bad instances_per_leaf: {self.instances_per_leaf}")
        if not 0 <= self.n_misplaced < self.n_leaves:
            raise BenchError(
                f"n_misplaced={self.n_misplaced} must lie in 0..{self.n_leaves - 1}"
                f" (n_leaves={self.n_leaves})"
            )
        if self.n_misplaced and depth == 1:
            raise BenchError(
                f"n_misplaced={self.n_misplaced} needs a tree of depth >= 2: at depth 1 "
                f"every leaf hangs under the root, so no leaf has a wrong parent to move to"
            )

    @property
    def depth(self) -> int:
        return round(math.log(self.n_leaves, self.fanout))

    def instance_range(self) -> tuple[int, int]:
        if isinstance(self.instances_per_leaf, int):
            return self.instances_per_leaf, self.instances_per_leaf
        lo, hi = self.instances_per_leaf
        return int(lo), int(hi)


@dataclass
class PlantedBench:
    """One generated benchmark: the truth, the corruption, and the data."""

    config: PlantConfig
    true_tree: Taxonomy
    corrupted_tree: Taxonomy
    data: Dataset
    misplaced: dict[int, tuple[int, int]]  # leaf -> (true parent, wrong parent)


def perfect_tree(fanout: int, depth: int) -> Taxonomy:
    """Perfect f-ary tree with heap-ordered ids (root 0)."""
    if fanout < 2 or depth < 1:
        raise BenchError("need fanout >= 2 and depth >= 1")
    n_internal = (fanout**depth - 1) // (fanout - 1)
    parent_of: dict[int, int] = {}
    for v in range(n_internal):
        for j in range(1, fanout + 1):
            parent_of[fanout * v + j] = v
    return Taxonomy(0, parent_of)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row of ``m`` over its ``np.linalg.norm``, bit for bit.

    The stacked ``(1, d) @ (d, 1)`` matmul runs the same dot kernel as
    ``np.linalg.norm`` on one row (see ``corpus._row_norms``).
    """
    return m / np.sqrt(np.matmul(m[:, None, :], m[:, :, None]))[:, 0]


def gen_planted(config: PlantConfig) -> PlantedBench:
    """Generate the planted benchmark for one configuration.

    Fully deterministic in the seed: node directions, instance counts,
    instance noise, the choice of misplaced leaves, and their wrong
    parents are all drawn from one generator in a fixed order.  A
    Generator yields the same numbers for one ``(n, d)`` draw as for n
    draws of ``d``, so each group of vectors is drawn in one call.
    """
    tree = perfect_tree(config.fanout, config.depth)
    leaves = sorted(tree.leaves)
    rng = np.random.default_rng(config.seed)

    nodes = tree.non_root_nodes()
    directions = _unit_rows(rng.standard_normal((len(nodes), config.dims)))
    # Row of each leaf's path below the root, the leaf first; every leaf
    # of a perfect tree has the same depth.
    paths = np.searchsorted(nodes, [tree.path_to_root(leaf)[:-1] for leaf in leaves])
    total = config.leaf_weight * directions[paths[:, 0]]
    for k in range(1, paths.shape[1]):
        total = total + directions[paths[:, k]]
    centroids = _unit_rows(total)

    lo, hi = config.instance_range()
    counts = [lo if lo == hi else int(rng.integers(lo, hi + 1)) for _ in leaves]
    noise = _unit_rows(rng.standard_normal((sum(counts), config.dims)))
    dense = _unit_rows(np.repeat(centroids, counts, axis=0) + config.noise * noise)
    labels = np.repeat(leaves, counts).tolist()
    data = Dataset._from_matrix(sp.csr_matrix(dense), labels)

    parent = {leaf: tree.parent(leaf) for leaf in leaves}
    remaining = Counter(parent.values())
    parents = sorted(remaining)
    misplaced: dict[int, tuple[int, int]] = {}
    corrupted = tree.copy()
    if config.n_misplaced:
        order = [leaves[i] for i in rng.permutation(len(leaves))]
        # Prefer leaves whose parent keeps at least one leaf, so the planted
        # structure stays recoverable; fall back when the quota exceeds that.
        chosen: list[int] = []
        for leaf in order:
            if len(chosen) == config.n_misplaced:
                break
            p = parent[leaf]
            if remaining[p] >= 2:
                chosen.append(leaf)
                remaining[p] -= 1
        if len(chosen) < config.n_misplaced:
            taken = set(chosen)
            for leaf in order:
                if len(chosen) == config.n_misplaced:
                    break
                if leaf not in taken:
                    chosen.append(leaf)
        for leaf in chosen:
            # The k-th of the parents other than the true one.
            k = int(rng.integers(len(parents) - 1))
            wrong = parents[k + (k >= bisect_left(parents, parent[leaf]))]
            corrupted._reparent(leaf, wrong)
            misplaced[leaf] = (parent[leaf], wrong)

    if config.noise <= 0.1:
        _check_separability(tree, data)
    return PlantedBench(config, tree, corrupted, data, misplaced)


def _check_separability(tree: Taxonomy, data: Dataset) -> tuple[float, float]:
    """Low-noise sanity check: same-parent leaf pairs must out-score cross pairs.

    Scores every leaf pair through the blocks that
    :func:`~taxrewire.simgraph.all_pairs_scores` reads, one row block at a
    time, so every score matches the score table bit for bit.  Returns
    the weakest within-group and the strongest cross-group score (``inf``
    and ``-inf`` when a side has no pair).
    """
    from .simgraph import _score_blocks, class_centroids

    centroids = class_centroids(data, tree.leaves)
    parent = np.asarray([tree.parent(leaf) for leaf in centroids.labels])
    n = parent.size
    lows, highs = [], []
    for start, block in _score_blocks(centroids):
        rows = np.arange(start, start + len(block))
        upper = np.arange(n) > rows[:, None]
        same = parent[rows, None] == parent
        lows.append(np.min(block[upper & same], initial=np.inf))
        highs.append(np.max(block[upper & ~same], initial=-np.inf))
    # np.min and np.max carry a NaN through, as one min over the whole table does.
    low, high = float(np.min(lows, initial=np.inf)), float(np.max(highs, initial=-np.inf))
    if low <= high:
        raise BenchError(
            f"planted groups are not separable: weakest within-group score "
            f"{low:.4f} <= strongest cross-group score {high:.4f}"
        )
    return low, high
