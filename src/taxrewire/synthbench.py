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
                f"n_misplaced={self.n_misplaced} must be < n_leaves={self.n_leaves}"
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


def _unit(rng: np.random.Generator, dims: int) -> np.ndarray:
    v = rng.standard_normal(dims)
    return v / np.linalg.norm(v)


def gen_planted(config: PlantConfig) -> PlantedBench:
    """Generate the planted benchmark for one configuration.

    Fully deterministic in the seed: node directions, instance counts,
    instance noise, the choice of misplaced leaves, and their wrong
    parents are all drawn from one generator in a fixed order.
    """
    tree = perfect_tree(config.fanout, config.depth)
    leaves = sorted(tree.leaves)
    rng = np.random.default_rng(config.seed)

    directions = {node: _unit(rng, config.dims) for node in tree.non_root_nodes()}

    centroids: dict[int, np.ndarray] = {}
    for leaf in leaves:
        total = config.leaf_weight * directions[leaf]
        for anc in tree.ancestors(leaf):
            if anc != tree.root:
                total = total + directions[anc]
        centroids[leaf] = total / np.linalg.norm(total)

    lo, hi = config.instance_range()
    counts = {
        leaf: (lo if lo == hi else int(rng.integers(lo, hi + 1))) for leaf in leaves
    }

    rows: list[np.ndarray] = []
    labels: list[int] = []
    for leaf in leaves:
        for _ in range(counts[leaf]):
            x = centroids[leaf] + config.noise * _unit(rng, config.dims)
            rows.append(x / np.linalg.norm(x))
            labels.append(leaf)
    dense = np.asarray(rows).reshape(len(labels), config.dims)
    data = Dataset._from_matrix(sp.csr_matrix(dense), labels)

    parents = sorted({tree.parent(leaf) for leaf in leaves})
    remaining = {p: sum(1 for leaf in leaves if tree.parent(leaf) == p) for p in parents}
    misplaced: dict[int, tuple[int, int]] = {}
    corrupted = tree
    if config.n_misplaced:
        order = [leaves[i] for i in rng.permutation(len(leaves))]
        # Prefer leaves whose parent keeps at least one leaf, so the planted
        # structure stays recoverable; fall back when the quota exceeds that.
        chosen: list[int] = []
        for leaf in order:
            if len(chosen) == config.n_misplaced:
                break
            p = tree.parent(leaf)
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
            true_parent = tree.parent(leaf)
            targets = [p for p in parents if p != true_parent]
            wrong = targets[int(rng.integers(len(targets)))]
            corrupted = corrupted.reparent(leaf, wrong)
            misplaced[leaf] = (true_parent, wrong)

    if config.noise <= 0.1:
        _check_separability(tree, data)
    return PlantedBench(config, tree, corrupted, data, misplaced)


def _check_separability(tree: Taxonomy, data: Dataset) -> None:
    """Low-noise sanity check: same-parent leaf pairs must out-score cross pairs."""
    from .simgraph import all_pairs_scores, class_centroids

    centroids = class_centroids(data, tree.leaves)
    scores = all_pairs_scores(centroids)
    ids = np.asarray(centroids.labels, dtype=np.int64)
    parent = np.asarray([tree.parent(int(leaf)) for leaf in ids])
    same = parent[np.searchsorted(ids, scores.a)] == parent[np.searchsorted(ids, scores.b)]
    within, cross = scores.score[same], scores.score[~same]
    if within.size and cross.size and within.min() <= cross.max():
        raise BenchError(
            f"planted groups are not separable: weakest within-group score "
            f"{within.min():.4f} <= strongest cross-group score {cross.max():.4f}"
        )
