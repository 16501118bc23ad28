from collections import Counter

import numpy as np
import pytest

from taxrewire import simgraph, synthbench
from taxrewire.corpus import Dataset, make_sparse, serialize_dataset
from taxrewire.metrics import hier_f1
from taxrewire.simgraph import all_pairs_scores, class_centroids
from taxrewire.synthbench import (
    BenchError, PlantConfig, _check_separability, gen_planted, perfect_tree,
)
from taxrewire.taxonomy import Taxonomy, serialize_taxonomy

from reference_impls import (
    oracle_hier_f1, oracle_lca, per_instance_gen_planted, random_pair_set, random_taxonomy,
)


def cfg(**overrides):
    base = dict(
        n_leaves=9, fanout=3, dims=12, instances_per_leaf=4,
        noise=0.05, n_misplaced=2, seed=7,
    )
    base.update(overrides)
    return PlantConfig(**base)


class TestConfig:
    def test_depth_derived(self):
        assert cfg().depth == 2
        assert cfg(n_leaves=27).depth == 3
        assert cfg(n_leaves=2, fanout=2, n_misplaced=0).depth == 1

    @pytest.mark.parametrize(
        "overrides,msg",
        [
            (dict(n_leaves=10), "not a positive power"),
            (dict(n_leaves=1, n_misplaced=0), "not a positive power"),
            (dict(fanout=1), "fanout"),
            (dict(dims=1), "dims"),
            (dict(noise=1.0), "noise"),
            (dict(noise=-0.1), "noise"),
            (dict(leaf_weight=0.0), "leaf_weight"),
            (dict(leaf_weight=1.5), "leaf_weight"),
            (dict(n_misplaced=9), "n_misplaced"),
            (dict(n_misplaced=-1), "n_misplaced"),
            # every leaf of a depth-1 tree hangs under the root: no wrong parent
            (dict(n_leaves=3, n_misplaced=1), "depth >= 2"),
            (dict(instances_per_leaf=0), "instances_per_leaf"),
            (dict(instances_per_leaf=(5, 2)), "instances_per_leaf"),
        ],
    )
    def test_rejects_infeasible(self, overrides, msg):
        with pytest.raises(BenchError, match=msg):
            cfg(**overrides)

    def test_instance_range(self):
        assert cfg(instances_per_leaf=5).instance_range() == (5, 5)
        assert cfg(instances_per_leaf=(2, 8)).instance_range() == (2, 8)


class TestPerfectTree:
    def test_heap_layout(self):
        tree = perfect_tree(3, 2)
        assert len(tree) == 13
        assert len(tree.leaves) == 9
        assert tree.root == 0
        assert tree.children(0) == (1, 2, 3)
        assert tree.children(1) == (4, 5, 6)
        assert tree.parent(12) == 3

    def test_single_level(self):
        tree = perfect_tree(2, 1)
        assert sorted(tree.leaves) == [1, 2] and tree.root == 0

    def test_rejects_degenerate(self):
        with pytest.raises(BenchError):
            perfect_tree(1, 2)
        with pytest.raises(BenchError):
            perfect_tree(2, 0)


class TestGenPlanted:
    def test_deterministic_in_seed(self):
        a, b = gen_planted(cfg()), gen_planted(cfg())
        assert serialize_taxonomy(a.true_tree) == serialize_taxonomy(b.true_tree)
        assert serialize_taxonomy(a.corrupted_tree) == serialize_taxonomy(b.corrupted_tree)
        assert serialize_dataset(a.data) == serialize_dataset(b.data)
        assert a.misplaced == b.misplaced
        c = gen_planted(cfg(seed=8))
        assert serialize_dataset(c.data) != serialize_dataset(a.data)

    def test_fixed_counts(self):
        bench = gen_planted(cfg(instances_per_leaf=3))
        counts = Counter(bench.data.labels)
        assert set(counts) == bench.true_tree.leaves
        assert all(n == 3 for n in counts.values())

    def test_ranged_counts(self):
        bench = gen_planted(cfg(instances_per_leaf=(2, 6), seed=1))
        counts = Counter(bench.data.labels)
        assert all(2 <= n <= 6 for n in counts.values())

    def test_labels_grouped_by_leaf(self):
        bench = gen_planted(cfg())
        labels = list(bench.data.labels)
        assert labels == sorted(labels)

    def test_vectors_are_unit_norm(self):
        bench = gen_planted(cfg())
        for v in bench.data.vectors:
            assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-12)

    def test_misplacement_changes_only_chosen_parents(self):
        bench = gen_planted(cfg(n_misplaced=2))
        assert len(bench.misplaced) == 2
        for leaf, (true_parent, wrong) in bench.misplaced.items():
            assert bench.true_tree.parent(leaf) == true_parent
            assert bench.corrupted_tree.parent(leaf) == wrong
            assert wrong != true_parent
        for leaf in bench.true_tree.leaves - set(bench.misplaced):
            assert bench.corrupted_tree.parent(leaf) == bench.true_tree.parent(leaf)
        assert bench.corrupted_tree.leaves == bench.true_tree.leaves

    def test_no_misplacement(self):
        bench = gen_planted(cfg(n_misplaced=0))
        assert bench.misplaced == {}
        assert serialize_taxonomy(bench.corrupted_tree) == serialize_taxonomy(bench.true_tree)

    def test_heavy_misplacement_falls_back(self):
        # seven of nine moved: some parents must give up all their leaves
        bench = gen_planted(cfg(n_misplaced=7, noise=0.2))
        assert len(bench.misplaced) == 7

    def test_low_noise_clusters_are_separable(self):
        # would raise from the built-in check otherwise; assert the margin
        # directly as well
        bench = gen_planted(cfg(noise=0.02))
        tree = bench.true_tree
        cents = class_centroids(bench.data, tree.leaves)
        within, cross = [], []
        scores = all_pairs_scores(cents)
        for a, b, s in zip(scores.a.tolist(), scores.b.tolist(), scores.score.tolist()):
            (within if tree.parent(a) == tree.parent(b) else cross).append(s)
        assert min(within) > max(cross)

    def test_separability_check_rejects_overlapping_groups(self):
        tree = Taxonomy(0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2})
        vec = {3: [1, 2], 4: [1, 3], 5: [4, 5], 6: [4, 6]}
        data = Dataset([make_sparse(i, [1.0, 0.5]) for i in vec.values()], list(vec))
        _check_separability(tree, data)
        vec[5] = vec[3]  # leaf 5 now matches leaf 3 across groups
        data = Dataset([make_sparse(i, [1.0, 0.5]) for i in vec.values()], list(vec))
        with pytest.raises(BenchError, match="not separable"):
            _check_separability(tree, data)


# Seeds 0-3 and 7, fanouts 2-5, fixed and ranged counts, quotas that need
# the fallback (every leaf of some parent moved), noise 0.0-0.3; the shapes
# at noise <= 0.1 run the separability check, some of them failing it.
ORACLE_SHAPES = [
    dict(n_leaves=9, fanout=3, dims=16, instances_per_leaf=6, noise=0.08, n_misplaced=1, seed=7),
    dict(n_leaves=8, fanout=2, dims=32, instances_per_leaf=3, noise=0.0, n_misplaced=2, seed=0,
         leaf_weight=0.3),
    dict(n_leaves=27, fanout=3, dims=32, instances_per_leaf=(2, 16), noise=0.1, n_misplaced=20,
         seed=3, leaf_weight=0.3),
    dict(n_leaves=25, fanout=5, dims=32, instances_per_leaf=(2, 16), noise=0.02, n_misplaced=4,
         seed=0, leaf_weight=0.3),
    dict(n_leaves=16, fanout=4, dims=32, instances_per_leaf=(2, 16), noise=0.05, n_misplaced=15,
         seed=1, leaf_weight=0.3),
    dict(n_leaves=81, fanout=3, dims=32, instances_per_leaf=2, noise=0.08, n_misplaced=40, seed=2,
         leaf_weight=0.3),
    dict(n_leaves=8, fanout=2, dims=6, instances_per_leaf=3, noise=0.0, n_misplaced=2, seed=0),
    dict(n_leaves=16, fanout=2, dims=6, instances_per_leaf=(2, 16), noise=0.3, n_misplaced=12,
         seed=1),
    dict(n_leaves=9, fanout=3, dims=8, instances_per_leaf=3, noise=0.05, n_misplaced=7, seed=2),
    dict(n_leaves=27, fanout=3, dims=6, instances_per_leaf=(2, 16), noise=0.1, n_misplaced=20,
         seed=3),
    dict(n_leaves=16, fanout=4, dims=8, instances_per_leaf=3, noise=0.2, n_misplaced=15, seed=7),
    dict(n_leaves=125, fanout=5, dims=8, instances_per_leaf=2, noise=0.3, n_misplaced=40, seed=1),
    dict(n_leaves=4, fanout=4, dims=4, instances_per_leaf=2, noise=0.15, n_misplaced=0, seed=2),
    dict(n_leaves=64, fanout=4, dims=4, instances_per_leaf=(2, 16), noise=0.1, n_misplaced=63,
         seed=3),
    dict(n_leaves=243, fanout=3, dims=32, instances_per_leaf=(2, 16), noise=0.25, n_misplaced=40,
         seed=3),
]


def outcome(generate, config):
    """The serialized trees, data text and misplacements, or the BenchError text."""
    try:
        got = generate(config)
    except BenchError as exc:
        return str(exc)
    if isinstance(got, synthbench.PlantedBench):
        got = got.true_tree, got.corrupted_tree, got.data, got.misplaced
    true_tree, corrupted, data, misplaced = got
    return (serialize_taxonomy(true_tree), serialize_taxonomy(corrupted),
            serialize_dataset(data), misplaced)


class TestMatchesPerInstanceGenerator:
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_same_bytes(self, shape):
        config = PlantConfig(**shape)
        assert outcome(gen_planted, config) == outcome(per_instance_gen_planted, config)

    def test_shapes_cover_both_check_outcomes(self):
        checked = [
            isinstance(outcome(gen_planted, PlantConfig(**shape)), str)
            for shape in ORACLE_SHAPES if shape["noise"] <= 0.1
        ]
        assert any(checked) and not all(checked)

    def test_work_is_linear_in_the_leaves(self, monkeypatch):
        # A copy of the tree per misplaced leaf, or a pass over the leaves
        # per parent, would break these bounds (40 copies and 20,008 parent
        # calls for the quadratic generator at seed 7).
        calls = Counter()
        for name in ("copy", "parent"):
            def counted(self, *args, _name=name, _method=getattr(Taxonomy, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(Taxonomy, name, counted)
        for noise in (0.2, 0.05):
            calls.clear()
            bench = gen_planted(cfg(n_leaves=243, dims=32, instances_per_leaf=2, noise=noise,
                                    n_misplaced=40, leaf_weight=0.3))
            assert len(bench.misplaced) == 40
            assert calls["copy"] <= 1
            assert calls["parent"] <= 4 * 243


def table_margin(tree, data):
    """Weakest within-group and strongest cross-group score of the whole table."""
    scores = all_pairs_scores(class_centroids(data, tree.leaves))
    same = np.array([tree.parent(a) == tree.parent(b)
                     for a, b in zip(scores.a.tolist(), scores.b.tolist())], dtype=bool)
    return (float(scores.score[same].min(initial=np.inf)),
            float(scores.score[~same].max(initial=-np.inf)))


def block_rows(monkeypatch, rows, n, dims):
    """Patch the Gram kernel's bound so a block of n centroids holds ``rows`` rows."""
    monkeypatch.setattr(simgraph, "_GRAM_BLOCK_ENTRIES", rows * max(n, dims))


class TestBlockedSeparabilityCheck:
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("shape,separable", [
        (dict(dims=32, noise=0.02, leaf_weight=0.3), True),
        (dict(dims=6, noise=0.3), False),
    ], ids=["separable", "overlapping"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_margin_matches_the_score_table(self, monkeypatch, rows, shape, separable, seed):
        bench = gen_planted(cfg(n_leaves=27, n_misplaced=0, seed=seed, **shape))
        tree, data = bench.true_tree, bench.data
        block_rows(monkeypatch, rows, len(tree.leaves), data.dimensionality)
        low, high = table_margin(tree, data)
        assert (low > high) == separable
        if separable:
            assert _check_separability(tree, data) == (low, high)
        else:
            with pytest.raises(BenchError) as err:
                _check_separability(tree, data)
            assert str(err.value) == (
                f"planted groups are not separable: weakest within-group score "
                f"{low:.4f} <= strongest cross-group score {high:.4f}"
            )

    @pytest.mark.parametrize("rows", [1, 3])
    def test_zero_centroid_scores_zero(self, monkeypatch, rows):
        # Leaf 6's two instances cancel: its centroid is the zero row.
        tree = Taxonomy(0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2})
        instances = {3: [([1, 2], [1.0, 0.5])], 4: [([1, 3], [1.0, 0.5])],
                     5: [([4, 5], [1.0, -0.5])], 7: [([4, 6], [1.0, 0.5])],
                     6: [([4, 5], [1.0, 0.5]), ([4, 5], [-1.0, -0.5])]}
        vectors, labels = [], []
        for leaf, rows_of_leaf in instances.items():
            for idx, val in rows_of_leaf:
                vectors.append(make_sparse(idx, val))
                labels.append(leaf)
        data = Dataset(vectors, labels)
        block_rows(monkeypatch, rows, len(tree.leaves), data.dimensionality)
        low, high = table_margin(tree, data)
        assert low == 0.0  # the zero centroid against its siblings
        with pytest.raises(BenchError, match="not separable"):
            _check_separability(tree, data)

    @pytest.mark.parametrize("edges,side", [
        ({1: 0, 2: 0, 5: 0}, 0),  # one group: leaf 5 gives the weakest within-group score
        ({1: 0, 2: 0, 3: 1, 4: 1, 5: 2}, 1),  # leaf 5 an only child: the strongest cross score
    ], ids=["within", "cross"])
    def test_underflowing_centroid_scores_positive_zero(self, edges, side):
        # 1e-170 squared underflows to 0.0: leaf 5's centroid has norm zero,
        # and its raw products with the other leaves are negative.
        tree = Taxonomy(0, edges)
        others = sorted(tree.leaves - {5})
        vectors = [make_sparse([1, 2], [1.0, 0.5 - 0.1 * i]) for i in range(len(others))]
        data = Dataset(vectors + [make_sparse([1, 2], [-1e-170, -1e-170])], others + [5])
        scores = all_pairs_scores(class_centroids(data, tree.leaves))
        with_5 = scores.score[scores.b == 5]
        assert with_5.size == len(others)
        assert [s.hex() for s in with_5.tolist()] == ["0x0.0p+0"] * len(others)
        assert _check_separability(tree, data)[side].hex() == "0x0.0p+0"

    def test_one_group_has_no_cross_pairs(self):
        tree = Taxonomy(0, {1: 0, 2: 0})
        data = Dataset([make_sparse([1], [1.0]), make_sparse([2], [1.0])], [1, 2])
        assert _check_separability(tree, data) == (0.0, -np.inf)


class TestOracles:
    def test_lca_matches_tree_walk(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            tax = random_taxonomy(rng, int(rng.integers(2, 40)))
            nodes = sorted(tax.nodes)
            for _ in range(15):
                a = nodes[int(rng.integers(len(nodes)))]
                b = nodes[int(rng.integers(len(nodes)))]
                assert oracle_lca(tax, a, b) == tax.lca(a, b)

    def test_hier_oracle_matches_package_metric(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            tax = random_taxonomy(rng, int(rng.integers(3, 40)))
            leaves = sorted(tax.leaves)
            pairs = [
                (leaves[int(rng.integers(len(leaves)))], leaves[int(rng.integers(len(leaves)))])
                for _ in range(20)
            ]
            assert oracle_hier_f1(pairs, tax) == hier_f1(pairs, tax)

    def test_hier_oracle_rejects_empty(self):
        tax = random_taxonomy(np.random.default_rng(0), 5)
        with pytest.raises(BenchError):
            oracle_hier_f1([], tax)


class TestRandomFodder:
    def test_random_taxonomy_is_valid(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            tax = random_taxonomy(rng, int(rng.integers(1, 50)))
            tax.validate()
            assert tax.root == 0

    def test_random_pair_set_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tax = random_taxonomy(rng, int(rng.integers(2, 25)))
            ps = random_pair_set(rng, tax)
            leaves = tax.leaves
            seen = set()
            prev = float("inf")
            rows = list(zip(ps.a.tolist(), ps.b.tolist(), ps.score.tolist()))
            assert len(rows) == len(ps)
            for a, b, score in rows:
                assert a < b
                assert a in leaves and b in leaves
                assert (a, b) not in seen
                seen.add((a, b))
                assert score <= prev
                prev = score
            if rows:
                assert ps.tau == rows[-1][2]

    def test_random_pair_set_cap(self):
        rng = np.random.default_rng(8)
        tax = random_taxonomy(rng, 20)
        for _ in range(10):
            ps = random_pair_set(rng, tax, max_pairs=3)
            assert len(ps) <= 3
