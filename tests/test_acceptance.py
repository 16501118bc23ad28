"""Acceptance checklist: the package's core guarantees, end to end.

Each test prints exactly one [A*] PASS/FAIL line (SKIP for the optional
data-dependent one), so a plain ``pytest -v`` run doubles as a release
checklist.  Everything here is self-contained and seeded.
"""

import filecmp
import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse as sp

from taxrewire.cli import main as cli_main
from taxrewire.corpus import (
    Dataset,
    apply_tfidf,
    compute_idf,
    make_sparse,
    parse_dataset,
    split_train_validation,
)
from taxrewire.learner import (
    LogisticProblem,
    lr_objective_gradient,
    predict_dataset,
    train_flat,
    train_topdown,
)
from taxrewire.metrics import hier_f1, macro_f1, micro_f1
from taxrewire.rewire import CreateOp, MoveOp, RewireLog, replay_log, rewire_hierarchy
from taxrewire.simgraph import all_pairs_scores, class_centroids, select_at_knee, select_pairs
from taxrewire.synthbench import PlantConfig, gen_planted, perfect_tree
from taxrewire.taxonomy import parse_taxonomy

from reference_impls import (
    fd_gradient,
    oracle_hier_f1,
    oracle_lca,
    random_pair_set,
    random_taxonomy,
)


def checklist(tag):
    """Print one status line per test, whatever the outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[{tag}] SKIP {exc}")
                raise
            except BaseException as exc:
                print(f"[{tag}] FAIL {exc}")
                raise
            print(f"[{tag}] PASS {detail}")

        return run

    return wrap


@checklist("A1 rewiring-correctness")
def test_rewiring_correctness_on_random_inputs():
    """200 seeded random (tree, pair set) runs, checked op by op.

    Every prefix of the recorded log is replayed on the input tree, so the
    log is checked one elementary operation at a time; after every
    operation the tree must validate, after every pair operation the
    processed pair must share a parent, and the replay must land exactly
    on the returned tree with the class leaves untouched.
    """
    t0 = time.perf_counter()
    total_ops = postconditions = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        tax = random_taxonomy(rng, int(rng.integers(2, 60)))
        pairs = random_pair_set(rng, tax)
        modified, log = rewire_hierarchy(tax, pairs)
        work = tax
        for k, op in enumerate(log.ops, 1):
            # Replay refuses to delete a leaf of the tree it is given, and a
            # swept node is a leaf of the tree just before its delete.
            work = replay_log(tax, RewireLog(log.ops[:k]))
            work.validate()
            total_ops += 1
            if isinstance(op, (CreateOp, MoveOp)):
                a, b = op.pair
                assert work.parent(a) == work.parent(b), (
                    f"seed {seed}: pair {op.pair} still split after {op}"
                )
                postconditions += 1
        assert work == modified, f"seed {seed}: replay diverged from the returned tree"
        assert modified.leaves == tax.leaves, f"seed {seed}: class leaves changed"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    return (
        f"200 seeded runs, {total_ops} operations replayed and validated, "
        f"{postconditions} shared-parent postconditions, leaf sets preserved, "
        f"{elapsed:.1f}s < 60s"
    )


def leaf_partition(tax):
    groups = {}
    for leaf in tax.leaves:
        groups.setdefault(tax.parent(leaf), set()).add(leaf)
    return {frozenset(g) for g in groups.values()}


@checklist("A2 planted-recovery")
def test_planted_corruption_is_repaired():
    """27 leaves, 30 instances each, 2 leaves misplaced, 10 seeds.

    Rewiring from the top-27 similar pairs must restore the true sibling
    groups, and top-down micro-F1 on the repaired tree must beat the
    corrupted tree, in at least 9 of 10 seeds each.
    """
    t0 = time.perf_counter()
    partitions_ok = f1_wins = 0
    for seed in range(10):
        config = PlantConfig(
            n_leaves=27, fanout=3, dims=32, instances_per_leaf=30,
            noise=0.1, n_misplaced=2, seed=seed, leaf_weight=0.25,
        )
        bench = gen_planted(config)
        train, test = map(bench.data.subset, split_train_validation(bench.data, 0.9, seed))

        centroids = class_centroids(train, bench.true_tree.leaves)
        pairs = select_pairs(centroids, top_k=27)
        modified, _ = rewire_hierarchy(bench.corrupted_tree, pairs)
        partitions_ok += leaf_partition(modified) == leaf_partition(bench.true_tree)

        repaired = train_topdown(modified, train, 1.0)
        corrupted = train_topdown(bench.corrupted_tree, train, 1.0)
        mu_repaired = micro_f1(
            list(zip(test.labels, predict_dataset(repaired, test, modified)[0]))
        )
        mu_corrupted = micro_f1(
            list(zip(test.labels, predict_dataset(corrupted, test, bench.corrupted_tree)[0]))
        )
        f1_wins += mu_repaired > mu_corrupted
    elapsed = time.perf_counter() - t0
    assert partitions_ok >= 9, f"sibling groups restored in only {partitions_ok}/10 seeds"
    assert f1_wins >= 9, f"repaired tree beat the corrupted one in only {f1_wins}/10 seeds"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 300s"
    return (
        f"sibling groups restored {partitions_ok}/10, top-down micro-F1 wins "
        f"{f1_wins}/10, {elapsed:.1f}s < 300s"
    )


@checklist("A3 gradient-oracle")
def test_analytic_gradient_against_finite_differences():
    """50 random draws, half with random positive instance costs.

    Analytic gradients must match central finite differences to 1e-5
    relative error, and all-ones costs must reproduce the unweighted
    objective to 1e-12 (bitwise, in fact).
    """
    rng = np.random.default_rng(20240301)
    worst_rel = 0.0
    worst_reduction = 0.0
    for draw in range(50):
        n, d = int(rng.integers(2, 16)), int(rng.integers(2, 10))
        features = sp.csr_matrix(rng.standard_normal((n, d)))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        c = float(rng.uniform(0.05, 10.0))
        costs = rng.uniform(0.1, 4.0, size=n) if draw % 2 else None
        theta = rng.standard_normal(d)

        problem = LogisticProblem(features, labels, c, costs)
        _, grad = lr_objective_gradient(theta, problem)
        fd = fd_gradient(lambda t: lr_objective_gradient(t, problem)[0], theta)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-5, f"draw {draw}: gradient relative error {rel:.2e}"

        obj_plain, _ = lr_objective_gradient(theta, LogisticProblem(features, labels, c, None))
        obj_ones, _ = lr_objective_gradient(theta, LogisticProblem(features, labels, c, np.ones(n)))
        diff = abs(obj_plain - obj_ones)
        worst_reduction = max(worst_reduction, diff)
        assert diff <= 1e-12, f"draw {draw}: all-ones costs drifted by {diff:.2e}"
    return (
        f"50 draws (25 with random positive costs): worst gradient relative error "
        f"{worst_rel:.2e} <= 1e-5, worst all-ones objective drift "
        f"{worst_reduction:.1e} <= 1e-12"
    )


@checklist("A4 metric-oracles")
def test_metrics_against_brute_force_oracles():
    """Exact agreement with independently written metric oracles.

    100 random trees up to 50 nodes for the hierarchical F1 and the
    lowest common ancestor; micro-F1 must equal accuracy exactly; the two
    hand-computed cases (hierarchical F1 of a sibling miss = 0.5,
    macro-F1 of one-right-in-three = 1/3) must reproduce exactly.
    """
    rng = np.random.default_rng(77)
    lca_checks = hier_checks = 0
    for _ in range(100):
        tax = random_taxonomy(rng, int(rng.integers(2, 51)))
        nodes = sorted(tax.nodes)
        for _ in range(20):
            a = nodes[int(rng.integers(len(nodes)))]
            b = nodes[int(rng.integers(len(nodes)))]
            assert tax.lca(a, b) == oracle_lca(tax, a, b)
            lca_checks += 1
        leaves = sorted(tax.leaves)
        pairs = [
            (leaves[int(rng.integers(len(leaves)))], leaves[int(rng.integers(len(leaves)))])
            for _ in range(25)
        ]
        assert hier_f1(pairs, tax) == oracle_hier_f1(pairs, tax)
        hier_checks += 1

    acc_checks = 0
    for _ in range(100):
        n = int(rng.integers(1, 80))
        pairs = [(int(rng.integers(8)), int(rng.integers(8))) for _ in range(n)]
        accuracy = sum(1 for t, p in pairs if t == p) / n
        assert micro_f1(pairs) == accuracy
        acc_checks += 1

    tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n2 5\n")
    assert hier_f1([(3, 4)], tax) == 0.5
    assert macro_f1([(1, 1), (2, 3), (3, 2)]) == 1 / 3
    return (
        f"{hier_checks} random trees: hierarchical F1 and {lca_checks} ancestor "
        f"queries match brute force exactly; micro-F1 == accuracy on "
        f"{acc_checks} random runs; hand cases 0.5 and 1/3 exact"
    )


@checklist("A5 flat-tree-equivalence")
def test_one_level_tree_makes_topdown_and_flat_identical():
    """With no internal structure, the two classifiers are the same model."""
    config = PlantConfig(
        n_leaves=5, fanout=5, dims=16, instances_per_leaf=10,
        noise=0.3, n_misplaced=0, seed=3,
    )
    bench = gen_planted(config)
    tree, data = bench.true_tree, bench.data
    assert data.n == 50 and tree.children(tree.root) == tuple(sorted(tree.leaves))

    td = train_topdown(tree, data, 1.0)
    flat = train_flat(tree, data, 1.0)
    assert td.children == flat.children
    for parent, block in td.blocks.items():
        assert np.array_equal(block.weights, flat.blocks[parent].weights)
    td_preds, _ = predict_dataset(td, data, tree)
    assert td_preds == predict_dataset(flat, data, tree)[0]
    agreements = len(td_preds)
    return (
        f"one-level 5-leaf tree: per-leaf weights bitwise equal, predictions "
        f"identical on all {agreements}/50 instances"
    )


@checklist("A6 prediction-cost")
def test_topdown_prediction_cost_on_thousand_leaves():
    """Balanced fanout-10 depth-3 tree: 30 model evaluations vs 1000.

    Both classifiers are trained under identical solver settings; the
    top-down wall-clock advantage on the same instances must exceed 5x.
    """
    tree = perfect_tree(10, 3)
    leaves = sorted(tree.leaves)
    rng = np.random.default_rng(1)
    dims = 8
    vectors = [
        make_sparse(range(1, dims + 1), rng.standard_normal(dims)) for _ in leaves
    ]
    data = Dataset(vectors, leaves, dims)

    solver_settings = dict(grad_tol=1e-6, max_iter=3)
    td = train_topdown(tree, data, 1.0, **solver_settings)
    flat = train_flat(tree, data, 1.0, **solver_settings)
    assert len(td.slots()) == 1110 and len(flat.slots()) == 1000

    test = Dataset(vectors[:200], leaves[:200], dims)
    for i in range(5):
        one = test.subset([i])
        assert predict_dataset(td, one, tree)[1] == 30
        assert predict_dataset(flat, one, tree)[1] == 1000

    def timed(fn):
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return result, best

    (_, td_evals), td_time = timed(
        lambda: predict_dataset(td, test, tree)
    )
    (_, flat_evals), flat_time = timed(
        lambda: predict_dataset(flat, test, tree)
    )
    assert td_evals == 30 * test.n, f"top-down used {td_evals} evaluations"
    assert flat_evals == 1000 * test.n, f"flat used {flat_evals} evaluations"
    speedup = flat_time / td_time
    assert speedup > 5.0, f"wall-clock speedup only {speedup:.1f}x"
    return (
        f"1000-leaf tree: exactly 30 vs 1000 model evaluations per instance, "
        f"wall-clock speedup {speedup:.1f}x > 5x at identical solver settings"
    )


@checklist("A7 determinism")
def test_full_pipeline_is_deterministic(tmp_path):
    """Two complete CLI runs, train --workers 1 vs 8: byte-identical artifacts."""

    def run_pipeline(root: Path, workers: str) -> list[Path]:
        b, s, r, t, p, e = (root / n for n in ("b", "s", "r", "t", "p", "e"))
        steps = [
            ["bench", "--out", b, "--seed", "7", "--fanout", "3", "--leaves", "9",
             "--dims", "16", "--instances-per-leaf", "6", "--noise", "0.08",
             "--misplaced", "1"],
            ["similarity", "--data", b / "data.txt", "--hierarchy",
             b / "corrupted.edges", "--out", s, "--no-tfidf"],
            ["rewire", "--hierarchy", b / "corrupted.edges", "--pairs", s / "pairs.txt",
             "--out", r],
            ["train", "--data", b / "data.txt", "--hierarchy", r / "modified.edges",
             "--out", t, "--C", "10", "--no-tfidf", "--workers", workers],
            ["predict", "--model", t / "model.txt", "--data", b / "data.txt",
             "--hierarchy", r / "modified.edges", "--out", p],
            ["evaluate", "--predictions", p / "predictions.txt", "--data",
             b / "data.txt", "--hierarchy", r / "modified.edges",
             "--train-data", b / "data.txt", "--out", e],
        ]
        for argv in steps:
            assert cli_main([str(a) for a in argv]) == 0, argv[0]
        return sorted(q for q in root.rglob("*") if q.is_file())

    first = run_pipeline(tmp_path / "one", "1")
    second = run_pipeline(tmp_path / "eight", "8")
    names_a = [q.relative_to(tmp_path / "one") for q in first]
    names_b = [q.relative_to(tmp_path / "eight") for q in second]
    assert names_a == names_b
    for a, b in zip(first, second):
        assert filecmp.cmp(a, b, shallow=False), f"{a.name} differs between runs"
    return (
        f"two full pipeline runs (bench through evaluate), train --workers 1 vs 8: "
        f"all {len(first)} artifacts byte-identical"
    )


@checklist("A8 newsgroups-transfer")
def test_newsgroups_rewire_improves_topdown():
    """Optional, needs real data: rewiring must lift top-down micro-F1.

    Set TAXREWIRE_NEWSGROUPS_DIR to a directory holding train.txt,
    test.txt and hierarchy.edges (formats in the README).  Skipped when
    the variable is unset.
    """
    data_dir = os.environ.get("TAXREWIRE_NEWSGROUPS_DIR")
    if not data_dir:
        pytest.skip("TAXREWIRE_NEWSGROUPS_DIR not set; supply the corpus to run this")
    t0 = time.perf_counter()
    root = Path(data_dir)
    tax = parse_taxonomy((root / "hierarchy.edges").read_text(encoding="utf-8"))
    train_raw = parse_dataset((root / "train.txt").read_text(encoding="utf-8"))
    test_raw = parse_dataset((root / "test.txt").read_text(encoding="utf-8"))
    idf = compute_idf(train_raw)
    train = apply_tfidf(train_raw, idf)
    test = apply_tfidf(test_raw, idf)

    centroids = class_centroids(train, tax.leaves)
    pairs = select_at_knee(all_pairs_scores(centroids))
    modified, _ = rewire_hierarchy(tax, pairs)

    expert = train_topdown(tax, train, 1.0)
    repaired = train_topdown(modified, train, 1.0)
    mu_expert = micro_f1(list(zip(test.labels, predict_dataset(expert, test, tax)[0])))
    mu_repaired = micro_f1(
        list(zip(test.labels, predict_dataset(repaired, test, modified)[0]))
    )
    elapsed = time.perf_counter() - t0
    assert mu_repaired - mu_expert >= 0.02, (
        f"repaired {mu_repaired:.4f} vs expert {mu_expert:.4f}: "
        f"lift {100 * (mu_repaired - mu_expert):.2f} points < 2.0"
    )
    assert elapsed < 1800.0, f"took {elapsed:.0f}s, budget is 1800s"
    return (
        f"top-down micro-F1 {mu_expert:.4f} -> {mu_repaired:.4f} "
        f"(+{100 * (mu_repaired - mu_expert):.2f} points >= 2.0), {elapsed:.0f}s"
    )
