import base64
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

import taxrewire
from taxrewire.corpus import Dataset, make_sparse, split_train_validation
from taxrewire.learner import (
    FingerprintMismatchError,
    LearnerError,
    ModelSet,
    NodeModel,
    lr_objective_gradient,
    parse_costs,
    parse_model_set,
    predict_dataset,
    serialize_model_set,
    train_flat,
    train_node,
    train_topdown,
    tune_c,
)
from taxrewire.solver import minimize_lbfgs
from taxrewire.taxonomy import Taxonomy, parse_taxonomy

from conftest import one_hot_dataset
from reference_impls import (
    fd_gradient,
    node_decision,
    predict_flat,
    predict_topdown,
    random_taxonomy,
    sparse_score,
)


def small_problem():
    features = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    labels = np.array([1.0, -1.0])
    return features, labels


def sv(entries: dict):
    idx = sorted(entries)
    return make_sparse(idx, [entries[i] for i in idx])


class TestCosts:
    def test_parse_costs(self):
        got = parse_costs("1.0\n# comment\n\n2.5\n0.125\n")
        np.testing.assert_array_equal(got, [1.0, 2.5, 0.125])

    @pytest.mark.parametrize("text", ["abc\n", "1.0\n-2.0\n", "0.0\n", "inf\n", "", "# only\n"])
    def test_parse_costs_rejects(self, text):
        with pytest.raises(LearnerError):
            parse_costs(text)


class TestObjective:
    def test_value_and_gradient_at_zero(self):
        # By hand: both losses are ln 2, the gradient pulls each theta
        # component toward its instance's label.
        features, labels = small_problem()
        obj, grad = lr_objective_gradient(np.zeros(2), features, labels, c=2.0)
        assert obj == pytest.approx(4.0 * math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(grad, [-1.0, 1.0], atol=1e-15)

    def test_regularizer_included(self):
        features, labels = small_problem()
        theta = np.array([3.0, -4.0])
        obj_rl, _ = lr_objective_gradient(theta, features, labels, c=1.0)
        obj_zero, _ = lr_objective_gradient(np.zeros(2), features, labels, c=1.0)
        losses = obj_rl - 0.5 * 25.0
        assert losses < obj_zero  # theta fits the labels, loss part shrinks

    def test_uniform_costs_bitwise_equal_to_none(self):
        rng = np.random.default_rng(11)
        features = sp.csr_matrix(rng.standard_normal((20, 6)))
        labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        theta = rng.standard_normal(6)
        a = lr_objective_gradient(theta, features, labels, 3.0, None)
        b = lr_objective_gradient(theta, features, labels, 3.0, np.ones(20))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_double_cost_equals_duplicated_instance(self):
        x = sp.csr_matrix(np.array([[1.0, 2.0]]))
        x2 = sp.csr_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        theta = np.array([0.3, -0.2])
        a = lr_objective_gradient(theta, x, np.array([1.0]), 1.5, np.array([2.0]))
        b = lr_objective_gradient(theta, x2, np.array([1.0, 1.0]), 1.5, None)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n, d = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            features = sp.csr_matrix(rng.standard_normal((n, d)))
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            costs = rng.uniform(0.2, 3.0, size=n) if rng.random() < 0.5 else None
            c = float(rng.uniform(0.1, 5.0))
            theta = rng.standard_normal(d)
            _, grad = lr_objective_gradient(theta, features, labels, c, costs)
            fd = fd_gradient(
                lambda t: lr_objective_gradient(t, features, labels, c, costs)[0],
                theta,
            )
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5

    def test_huge_margins_stay_finite(self):
        features = sp.csr_matrix(np.array([[1000.0], [-1000.0]]))
        labels = np.array([-1.0, 1.0])  # both misclassified by theta > 0
        obj, grad = lr_objective_gradient(np.array([5.0]), features, labels, 1.0)
        assert math.isfinite(obj) and np.all(np.isfinite(grad))
        assert obj == pytest.approx(10000.0 + 12.5, rel=1e-12)

    def test_validation(self):
        features, labels = small_problem()
        with pytest.raises(LearnerError, match="theta"):
            lr_objective_gradient(np.zeros(3), features, labels, 1.0)
        with pytest.raises(LearnerError, match="labels"):
            lr_objective_gradient(np.zeros(2), features, labels[:1], 1.0)
        with pytest.raises(LearnerError, match="-1 or \\+1"):
            lr_objective_gradient(np.zeros(2), features, np.array([1.0, 0.0]), 1.0)
        with pytest.raises(LearnerError, match="C must be positive"):
            lr_objective_gradient(np.zeros(2), features, labels, 0.0)
        with pytest.raises(LearnerError, match="costs"):
            lr_objective_gradient(np.zeros(2), features, labels, 1.0, np.ones(3))
        with pytest.raises(LearnerError, match="positive"):
            lr_objective_gradient(np.zeros(2), features, labels, 1.0, np.array([1.0, -1.0]))


class TestTraining:
    def test_train_node_validation(self, letter_tree, tiny_dataset):
        with pytest.raises(LearnerError, match="unknown node"):
            train_node(letter_tree, 99, tiny_dataset, 1.0)
        with pytest.raises(LearnerError, match="root"):
            train_node(letter_tree, letter_tree.root, tiny_dataset, 1.0)

    def test_train_node_without_positives_warns(self, letter_tree):
        data = one_hot_dataset([0, 1], per_leaf=3)
        with pytest.warns(UserWarning, match="no positive"):
            model = train_node(letter_tree, 5, data, 1.0)
        assert model.node == 5 and model.converged

    def test_topdown_covers_every_non_root_node(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=4)
        ms = train_topdown(letter_tree, data, c=1.0)
        assert ms.mode == "td-lr"
        assert sorted(ms.models) == [0, 1, 2, 3, 4, 5, 7, 8]
        assert ms.fingerprint == letter_tree.fingerprint()
        assert ms.dimensionality == data.dimensionality

    def test_flat_covers_every_leaf(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=4)
        ms = train_flat(letter_tree, data, c=1.0)
        assert ms.mode == "flat"
        assert sorted(ms.models) == [0, 1, 2, 3, 4, 5]

    def test_missing_leaf_class_warns(self, letter_tree):
        data = one_hot_dataset([0, 1, 2, 3, 4], per_leaf=2, dims=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train_flat(letter_tree, data, c=1.0)
        texts = [str(w.message) for w in caught]
        assert any("leaf classes have no training instances" in t for t in texts)
        assert any("node 5 has no positive" in t for t in texts)

    def test_separable_data_is_fit_perfectly(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=6)
        for ms in (
            train_topdown(letter_tree, data, c=10.0),
            train_flat(letter_tree, data, c=10.0),
        ):
            preds = predict_dataset(ms, data, letter_tree)
            assert preds == list(data.labels)

    def test_per_node_c_mapping(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=2)
        c_map = {n: 1.0 for n in [0, 1, 2, 3, 4, 5, 7, 8]}
        c_map[7] = 0.01
        ms = train_topdown(letter_tree, data, c=c_map)
        assert ms.models[7].c_used == 0.01 and ms.models[0].c_used == 1.0
        with pytest.raises(LearnerError, match="no C value"):
            train_flat(letter_tree, data, c={0: 1.0})


    @pytest.mark.parametrize("c,grad_tol,max_iter,msg", [
        (math.nan, 1e-6, 10, "C must be finite and positive, got nan"),
        (math.inf, 1e-6, 10, "C must be finite and positive, got inf"),
        (1.0, -1e-3, 10, "grad_tol must be finite and non-negative, got -0.001"),
        (1.0, math.nan, 10, "grad_tol must be finite and non-negative, got nan"),
        (1.0, 1e-6, 0, "max_iter must be at least 1, got 0"),
    ])
    def test_bad_settings_rejected_before_any_fit(
        self, letter_tree, monkeypatch, c, grad_tol, max_iter, msg
    ):
        import taxrewire.learner as learner

        def no_fit(*args, **kwargs):
            raise AssertionError("a node was fit")

        monkeypatch.setattr(learner, "minimize_lbfgs", no_fit)
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=2)
        settings = dict(grad_tol=grad_tol, max_iter=max_iter)
        # the bad C sits on the last node of a per-node map
        c_map = {n: 1.0 for n in letter_tree.non_root_nodes()} | {8: c}
        for fit in (lambda: train_topdown(letter_tree, data, c_map, **settings),
                    lambda: train_flat(letter_tree, data, c, **settings),
                    lambda: train_node(letter_tree, 8, data, c, **settings)):
            with pytest.raises(LearnerError, match=msg):
                fit()


def zero_model_set(tax: Taxonomy, mode: str, dims: int) -> ModelSet:
    if mode == "td-lr":
        nodes = tax.non_root_nodes()
    else:
        nodes = sorted(tax.leaves)
    models = {n: NodeModel(n, np.zeros(dims), 1.0) for n in nodes}
    return ModelSet(mode, tax.fingerprint(), dims, 1.0, models)


# Predicts the row 1:1e308 2:1 on the tree 0 -> {1, 2}, for a mode and
# a JSON list of (theta of node 1, theta of node 2) cases.
NO_SCORE_SCRIPT = """
import json, sys
import numpy as np
from taxrewire.corpus import parse_dataset
from taxrewire.learner import ModelSet, NodeModel, predict_dataset
from taxrewire.taxonomy import parse_taxonomy
tax = parse_taxonomy("0 1\\n0 2\\n")
data = parse_dataset("1 1:1e308 2:1\\n")
preds = []
for thetas in json.loads(sys.argv[2]):
    models = {n: NodeModel(n, np.array(t), 1.0) for n, t in zip((1, 2), thetas)}
    preds += predict_dataset(ModelSet(sys.argv[1], tax.fingerprint(), 2, 1.0, models), data, tax)
print(json.dumps(preds))
"""


class TestPrediction:
    def test_unseen_dimensions_contribute_nothing(self):
        # Leaf 1 wins only when its score beats leaf 0's constant 0.0.
        models = {0: NodeModel(0, np.zeros(3), 1.0), 1: NodeModel(1, np.array([1.0, 2.0, 3.0]), 1.0)}
        ms = ModelSet("flat", "f", 3, 1.0, models)
        rows = [{2: 0.5}, {5: 9.0}, {2: 0.5, 5: 9.0}, {}, {1: -1.0, 5: 9.0}]
        data = Dataset([sv(r) for r in rows], [0] * len(rows), dimensionality=5)
        assert predict_dataset(ms, data) == [1, 0, 1, 0, 0]

    def test_proba_and_decision(self):
        # The per-instance decision rule that tune_c's per-node choice is
        # checked against (reference_impls.node_decision).
        model = NodeModel(0, np.array([math.log(3.0)]), 1.0)
        x = sv({1: 1.0})
        assert node_decision(model, x) == 1
        zero = NodeModel(0, np.zeros(1), 1.0)
        assert node_decision(zero, x) == 1  # boundary counts as positive
        neg = NodeModel(0, np.array([-1.0]), 1.0)
        assert node_decision(neg, x) == -1

    def test_topdown_ties_take_smallest_child(self, letter_tree):
        ms = zero_model_set(letter_tree, "td-lr", 6)
        one = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1).subset([3])
        assert predict_dataset(ms, one, letter_tree, return_evals=True) == ([0], 5)
        # two root children, then three under the winner

    def test_flat_ties_take_smallest_leaf(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 6)
        one = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1).subset([3])
        assert predict_dataset(ms, one, return_evals=True) == ([0], 6)

    @pytest.mark.parametrize("mode", ["flat", "td-lr"])
    def test_no_child_scores_above_minus_inf(self, mode):
        # On the row 1:1e308 2:1, the finite weights (-1e308, 0) score -inf,
        # and a NaN weight, which only a model set built in Python can hold,
        # scores NaN.  Such scores rank lowest, and ties go to the smallest
        # child; a finite score still wins.  Flat prediction once looped
        # forever here, so the cases run in a child with a timeout.
        minus_inf, nan, finite = [-1e308, 0.0], [math.nan, 0.0], [0.0, -1.0]
        cases = [(minus_inf, minus_inf), (nan, nan), (nan, minus_inf), (minus_inf, nan),
                 (nan, finite), (minus_inf, finite)]
        src = str(Path(taxrewire.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", NO_SCORE_SCRIPT, mode, json.dumps(cases)],
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [1, 1, 1, 1, 2, 2]

    def test_missing_child_model_rejected_before_any_instance(self, letter_tree):
        ms = zero_model_set(letter_tree, "td-lr", 6)
        del ms.models[8]
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1)
        for rows in ([0], []):  # instance 0 never reaches node 8; no instance at all
            with pytest.raises(LearnerError, match="no model for node 8"):
                predict_dataset(ms, data.subset(rows), letter_tree)

    def test_empty_flat_model_set_rejected(self):
        ms = ModelSet("flat", "f", 2, 1.0, {})
        with pytest.raises(LearnerError, match="model set is empty"):
            predict_dataset(ms, Dataset((), (), dimensionality=2))

    def test_model_width_must_match_dimensionality(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 6)
        ms.models[3].theta = np.zeros(4)
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1)
        with pytest.raises(LearnerError, match="6 weights"):
            predict_dataset(ms, data)

    def test_dataset_fingerprint_checked(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 6)
        other = parse_taxonomy("0 1\n0 2\n")
        data = one_hot_dataset([0, 1], per_leaf=1, dims=6)
        with pytest.raises(FingerprintMismatchError):
            predict_dataset(ms, data, other)
        # flat prediction works without a hierarchy at all
        assert predict_dataset(ms, data) == [0, 0]

    def test_topdown_requires_hierarchy(self, letter_tree):
        ms = zero_model_set(letter_tree, "td-lr", 6)
        data = one_hot_dataset([0], per_leaf=1, dims=6)
        with pytest.raises(LearnerError, match="requires the training hierarchy"):
            predict_dataset(ms, data)

    def test_dataset_eval_totals(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1)
        td = zero_model_set(letter_tree, "td-lr", 6)
        flat = zero_model_set(letter_tree, "flat", 6)
        _, n_td = predict_dataset(td, data, letter_tree, return_evals=True)
        _, n_flat = predict_dataset(flat, data, return_evals=True)
        assert n_td == 6 * 5
        assert n_flat == 6 * 6


def random_rows(rng: np.random.Generator, n: int, width: int) -> list:
    """Sparse rows over features 1..width, about one in six empty; values
    come from a small set so that scores tie often."""
    rows = []
    for _ in range(n):
        k = 0 if rng.random() < 0.15 or width == 0 else int(rng.integers(1, width + 1))
        idx = rng.choice(np.arange(1, width + 1), size=k, replace=False)
        rows.append(make_sparse(idx, rng.choice([-1.0, 0.5, 1.0, 2.0], size=k)))
    return rows


# Weights whose scores overflow to +-inf or turn NaN (inf - inf, nan * x).
EXTREME_WEIGHTS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 1.0]


def random_thetas(rng: np.random.Generator, nodes, dim: int) -> dict[int, NodeModel]:
    """Node models with all-zero (tying), small-integer (often tying),
    normal or extreme weights, in shuffled insertion order."""
    models = {}
    for node in rng.permutation(np.asarray(nodes, dtype=np.int64)).tolist():
        kind = rng.random()
        if kind < 0.25:
            theta = np.zeros(dim)
        elif kind < 0.5:
            theta = rng.integers(-1, 2, size=dim).astype(np.float64)
        elif kind < 0.75:
            theta = rng.standard_normal(dim)
        else:
            theta = rng.choice(EXTREME_WEIGHTS, size=dim)
        models[node] = NodeModel(node, theta, 1.0)
    return models


class TestMatchesPerInstanceOracles:
    """Prediction and flat training against the per-instance code they replaced."""

    # Extreme weights overflow, and inf - inf is NaN, in both descents.
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning",
                                "ignore:invalid value encountered in dot:RuntimeWarning")
    def test_descent_matches_per_instance_prediction(self):
        rng = np.random.default_rng(21)
        checked = {"td-lr": 0, "flat": 0}
        ranked = {"NaN": 0, "-inf": 0, "tie": 0}  # instances whose flat children scored so
        for _ in range(150):
            tax = random_taxonomy(rng, int(rng.integers(2, 25)))
            dim = int(rng.integers(0, 8))
            width = max(0, dim + int(rng.integers(-2, 4)))  # data narrower or wider
            vectors = random_rows(rng, int(rng.integers(0, 12)), width)
            data = Dataset(vectors, [0] * len(vectors), dimensionality=width)
            fp = tax.fingerprint()

            td = ModelSet("td-lr", fp, dim, 1.0, random_thetas(rng, tax.non_root_nodes(), dim))
            want = [predict_topdown(td, tax, x, return_evals=True) for x in vectors]
            got = predict_dataset(td, data, tax, return_evals=True)
            assert got == ([leaf for leaf, _ in want], sum(n for _, n in want))

            flat = ModelSet("flat", fp, dim, 1.0, random_thetas(rng, sorted(tax.leaves), dim))
            want = [predict_flat(flat, x, return_evals=True) for x in vectors]
            expected = ([leaf for leaf, _ in want], sum(n for _, n in want))
            assert predict_dataset(flat, data, return_evals=True) == expected
            assert predict_dataset(flat, data, tax, return_evals=True) == expected
            checked["td-lr"] += len(vectors)
            checked["flat"] += len(vectors)
            for x in vectors:
                scores = [sparse_score(flat.models[leaf].theta, x) for leaf in sorted(flat.models)]
                numbers = [v for v in scores if not math.isnan(v)]
                ranked["NaN"] += len(numbers) < len(scores)
                ranked["-inf"] += -math.inf in numbers
                ranked["tie"] += len(set(numbers)) < len(numbers)
        assert min(checked.values()) > 500
        assert min(ranked.values()) > 100, ranked

    @pytest.mark.parametrize("per_node", [False, True])
    def test_flat_thetas_match_per_leaf_fits(self, per_node):
        rng = np.random.default_rng(22)
        for _ in range(5):
            tax = random_taxonomy(rng, int(rng.integers(4, 12)))
            leaves = sorted(tax.leaves)
            dim = int(rng.integers(2, 7))
            vectors = random_rows(rng, 30, dim)
            labels = [int(l) for l in rng.choice(leaves, size=len(vectors))]
            data = Dataset(vectors, labels, dimensionality=dim)
            costs = rng.uniform(0.5, 2.0, size=data.n)
            c = ({leaf: float(rng.choice([0.1, 1.0, 10.0])) for leaf in leaves}
                 if per_node else 3.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # leaves without instances
                ms = train_flat(tax, data, c, costs, max_iter=40)
            assert ms.mode == "flat" and ms.fingerprint == tax.fingerprint()
            assert sorted(ms.models) == leaves
            features = data.to_csr()
            for leaf in leaves:
                y = np.where(np.asarray(labels) == leaf, 1.0, -1.0)
                c_leaf = c[leaf] if per_node else c
                want = minimize_lbfgs(
                    lambda th: lr_objective_gradient(th, features, y, c_leaf, costs),
                    np.zeros(dim), grad_tol=1e-6, max_iter=40,
                )
                model = ms.models[leaf]
                assert np.array_equal(model.theta, want.x)
                assert model.c_used == c_leaf and model.final_objective == want.fun


class TestTuning:
    def test_grid_validation(self, letter_tree, tiny_dataset):
        with pytest.raises(LearnerError, match="empty"):
            tune_c(letter_tree, tiny_dataset, grid=())
        with pytest.raises(LearnerError, match="positive"):
            tune_c(letter_tree, tiny_dataset, grid=(1.0, -1.0))
        with pytest.raises(LearnerError, match="unknown mode"):
            tune_c(letter_tree, tiny_dataset, grid=(1.0,), mode="nope")

    def test_ties_pick_smaller_c(self, letter_tree):
        # trivially separable, every C scores 1.0 on validation
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=5)
        result = tune_c(letter_tree, data, grid=(0.5, 1.0, 10.0), mode="flat", split=0.8)
        assert result.best_c == 0.5
        assert result.grid == [0.5, 1.0, 10.0]
        assert set(result.scores) == {0.5, 1.0, 10.0}
        assert all(s == 1.0 for s in result.scores.values())
        assert result.model_set.mode == "flat"
        assert result.split == (24, 6)

    @pytest.mark.parametrize("mode,trainer", [("td-lr", train_topdown), ("flat", train_flat)])
    @pytest.mark.parametrize("weighted", [False, True], ids=["no-costs", "costs"])
    def test_final_model_is_the_fixed_c_fit_of_all_data(self, letter_tree, mode, trainer,
                                                        weighted):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=5, jitter=0.7, seed=3)
        costs = np.linspace(0.5, 2.0, data.n) if weighted else None
        result = tune_c(letter_tree, data, grid=(0.01, 1.0, 30.0), mode=mode, costs=costs,
                        split=0.6, seed=4)
        fit = trainer(letter_tree, data, result.best_c, costs)
        assert result.model_set.c == fit.c
        assert sorted(result.model_set.models) == sorted(fit.models)
        for node, model in fit.models.items():
            tuned = result.model_set.models[node]
            assert np.array_equal(tuned.theta, model.theta)
            assert tuned.final_objective == model.final_objective

    def test_empty_validation_falls_back(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = tune_c(letter_tree, data, grid=(0.1, 10.0), mode="flat", split=0.99)
        # One event, one warning.
        assert [str(w.message) for w in caught] == [
            "validation set is empty; falling back to C=1 without a grid search"
        ]
        assert result.best_c == 1.0 and result.scores == {}
        assert result.split == (12, 0)
        fit = train_flat(letter_tree, data, 1.0)
        for node, model in fit.models.items():
            assert np.array_equal(result.model_set.models[node].theta, model.theta)

    def test_per_node_returns_mapping(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=5)
        result = tune_c(letter_tree, data, grid=(0.5, 2.0), mode="td-lr", per_node=True)
        assert isinstance(result.best_c, dict)
        assert sorted(result.best_c) == [0, 1, 2, 3, 4, 5, 7, 8]
        assert set(result.best_c.values()) <= {0.5, 2.0}
        assert isinstance(result.model_set.c, dict)

    @pytest.mark.parametrize("weighted", [False, True], ids=["no-costs", "costs"])
    def test_per_node_choice_matches_per_instance_decisions(self, letter_tree, weighted):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=5, jitter=0.8, seed=2)
        costs = np.linspace(2.0, 0.5, data.n) if weighted else None
        grid = (0.01, 0.3, 30.0)
        result = tune_c(letter_tree, data, grid=grid, mode="td-lr", costs=costs,
                        split=0.6, seed=5, per_node=True)
        train_idx, val_idx = split_train_validation(data, 0.6, 5)
        train, val = data.subset(train_idx), data.subset(val_idx)
        train_costs = None if costs is None else costs[train_idx]
        candidates = {g: train_topdown(letter_tree, train, g, train_costs) for g in grid}
        for node, chosen in result.best_c.items():
            positives = letter_tree.subtree_leaves(node)
            hits = {
                g: sum(
                    node_decision(candidates[g].models[node], x) == (1 if y in positives else -1)
                    for x, y in zip(val.vectors, val.labels)
                )
                for g in grid
            }
            assert chosen == min(g for g in grid if hits[g] == max(hits.values()))
        fit = train_topdown(letter_tree, data, result.best_c, costs)
        for node, model in fit.models.items():
            assert np.array_equal(result.model_set.models[node].theta, model.theta)


HEAD = "#mode flat\n#fingerprint a\n#dimensionality 2\n#C 1.0\n"


def b64(values, dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def model_line(node: int, idx, weights) -> str:
    """One model-file line: the node, then its indices and weights in base64."""
    return f"{node} {b64(idx, '<i8')} {b64(weights, '<f8')}\n"


class TestSerialization:
    def test_round_trip_is_bitwise(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=3, jitter=0.1, seed=9)
        ms = train_topdown(letter_tree, data, c=3.0)
        ms.extra_headers["config"] = '{"seed": 4}'
        back = parse_model_set(serialize_model_set(ms))
        assert back.mode == ms.mode
        assert back.fingerprint == ms.fingerprint
        assert back.dimensionality == ms.dimensionality
        assert back.c == 3.0
        assert back.extra_headers == {"config": '{"seed": 4}'}
        assert sorted(back.models) == sorted(ms.models)
        for node in ms.models:
            assert np.array_equal(back.models[node].theta, ms.models[node].theta)

    def test_per_node_c_round_trips_as_json(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 4)
        ms.c = {n: 0.5 if n < 3 else 2.0 for n in ms.models}
        for n, model in ms.models.items():
            model.theta = np.array([0.0, float(n), 0.0, -1.5])
        back = parse_model_set(serialize_model_set(ms))
        assert back.c == ms.c
        assert back.models[4].c_used == 2.0
        assert np.array_equal(back.models[2].theta, [0.0, 2.0, 0.0, -1.5])

    def test_zero_weights_are_dropped(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 4)
        ms.models[2].theta[1] = -0.0
        text = serialize_model_set(ms)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body == ["0", "1", "2", "3", "4", "5"]

    def test_model_line_encoding(self):
        ms = ModelSet("flat", "f", 3, 1.0, {7: NodeModel(7, np.array([0.0, 1.5, -2.0]), 1.0)})
        node, idx, weights = serialize_model_set(ms).splitlines()[-1].split()
        assert node == "7"
        assert base64.b64decode(idx) == np.array([2, 3], "<i8").tobytes()
        assert base64.b64decode(weights) == np.array([1.5, -2.0], "<f8").tobytes()

    def test_unknown_headers_survive(self):
        text = "#mode flat\n#fingerprint abc\n#dimensionality 2\n#C 1.0\n#note kept verbatim\n"
        ms = parse_model_set(text + model_line(0, [1], [0.5]))
        assert ms.extra_headers == {"note": "kept verbatim"}
        assert np.array_equal(ms.models[0].theta, [0.5, 0.0])

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("#mode flat\n#dimensionality 2\n#C 1.0\n", "fingerprint"),
            ("#mode flat\n#fingerprint a\n#dimensionality two\n#C 1.0\n", "not an integer"),
            ("#mode flat\n#fingerprint a\n#dimensionality -1\n#C 1.0\n", "must not be negative"),
            ("#mode flat\n#fingerprint a\n#dimensionality 1152921504606846976\n#C 1.0\n",
             "must be at most 2\\^60 - 1"),
            ("#mode nope\n#fingerprint a\n#dimensionality 2\n#C 1.0\n", "unknown mode"),
            ('#mode flat\n#fingerprint a\n#dimensionality 2\n#C {"1": null, "2": 1.0}\n',
             "the C header is neither a number nor a JSON object"),
            ("#mode flat\n#fingerprint a\n#dimensionality 2\n#C [1]\n",
             "the C header is neither a number nor a JSON object"),
            (HEAD + "0 1:0.5 2:0.25\n",
             "line 5: an old 'idx:weight' model line; retrain the model"),
            (HEAD + "0 1:0.5\n", "line 5: an old 'idx:weight' model line"),
            (HEAD + "x " + model_line(0, [1], [0.5]).split(" ", 1)[1],
             "line 5: non-numeric node id 'x'"),
            (HEAD + "9223372036854775808 " + model_line(0, [1], [0.5]).split(" ", 1)[1],
             "line 5: node id '9223372036854775808' is out of the int64 range"),
            (HEAD + "0 " + b64([1], "<i8") + "\n",
             "line 5: expected 'node indices weights', got 2 tokens"),
            (HEAD + model_line(0, [1], [0.5]).rstrip() + " AAAAAAAAAAA=\n",
             "line 5: expected 'node indices weights', got 4 tokens"),
            (HEAD + "0 AQAAAAAAAA!= " + b64([0.5], "<f8") + "\n", "line 5: malformed token"),
            (HEAD + "0 AQAAAAAAAA " + b64([0.5], "<f8") + "\n", "line 5: malformed token"),
            (HEAD + "0 " + b64([1], "<i8") + " " + b64([1], "<i4") + "\n",
             "line 5: malformed token"),
            (HEAD + model_line(0, [1, 2], [0.5]), "line 5: 2 indices but 1 weights"),
            (HEAD + model_line(0, [0], [0.5]),
             "line 5: weight indices must ascend strictly in 1..2"),
            (HEAD + model_line(0, [3], [0.5]), "line 5: weight indices must ascend strictly"),
            (HEAD + model_line(0, [-2**63], [0.5]), "line 5: weight indices must ascend strictly"),
            (HEAD + model_line(0, [2, 1], [0.5, 0.5]), "line 5: weight indices must ascend"),
            (HEAD + model_line(0, [1, 1], [0.5, 0.5]), "line 5: weight indices must ascend"),
            (HEAD + model_line(0, [1, 2], [0.5, math.nan]), "line 5: non-finite weight"),
            (HEAD + model_line(0, [1], [-math.inf]), "line 5: non-finite weight"),
            (HEAD + model_line(0, [1], [0.5]) + model_line(0, [2], [0.5]),
             "line 6: duplicate model for node 0"),
            ('#mode flat\n#fingerprint a\n#dimensionality 2\n#C {"0": 1.0}\n'
             + model_line(0, [1], [0.5]) + model_line(1, [2], [0.5]),
             "line 6: the C header has no value for node 1"),
        ],
    )
    def test_parse_rejects(self, text, msg):
        with pytest.raises(LearnerError, match=msg):
            parse_model_set(text)


# Weights a writer must keep bit for bit: -0.0 (never written), subnormals
# and the largest finite floats.
SPECIAL_WEIGHTS = [-0.0, 5e-324, -5e-324, 2.5e-310, sys.float_info.max, -sys.float_info.max,
                   1e308, 0.1]


def one_model(*weights: float) -> ModelSet:
    return ModelSet("flat", "f", len(weights), 1.0, {3: NodeModel(3, np.array(weights), 1.0)})


@st.composite
def model_sets(draw) -> ModelSet:
    """Model sets of up to 5 nodes, some all zero, with scalar or per-node C."""
    dim = draw(st.integers(min_value=0, max_value=8))
    weight = st.one_of(st.just(0.0), st.sampled_from(SPECIAL_WEIGHTS),
                       st.floats(allow_nan=False, allow_infinity=False))
    nodes = draw(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                          max_size=5, unique=True))
    models = {n: NodeModel(n, np.array(draw(st.lists(weight, min_size=dim, max_size=dim)),
                                       dtype=np.float64), 1.0) for n in nodes}
    positive = st.floats(min_value=1e-3, max_value=1e3)
    c = draw(st.one_of(positive, st.fixed_dictionaries({n: positive for n in nodes})))
    values = st.sampled_from(['{"a": 1, "b": [2, 3]}', "1", "kept  as  it is"])
    headers = draw(st.dictionaries(st.sampled_from(["config", "bias", "note"]), values))
    mode = draw(st.sampled_from(["flat", "td-lr"]))
    return ModelSet(mode, "f" * 8, dim, c, models, extra_headers=headers)


@settings(max_examples=200, deadline=None)
@given(model_sets())
@example(ModelSet("td-lr", "f", 0, 1.0, {}))  # no models
@example(ModelSet("flat", "f", 0, 1.0, {0: NodeModel(0, np.zeros(0), 1.0)}))  # dimensionality 0
@example(one_model(-0.0))  # dimensionality 1, the one weight never written
@example(one_model(*SPECIAL_WEIGHTS))
def test_model_set_round_trip_is_bitwise(ms):
    text = serialize_model_set(ms)
    back = parse_model_set(text)
    assert (back.mode, back.fingerprint, back.dimensionality, back.c, back.extra_headers) == (
        ms.mode, ms.fingerprint, ms.dimensionality, ms.c, ms.extra_headers)
    assert sorted(back.models) == sorted(ms.models)
    for node, model in ms.models.items():
        # -0.0 is a zero weight: it is not written, and loads as 0.0.
        want = np.where(model.theta == 0.0, 0.0, model.theta)
        assert back.models[node].theta.tobytes() == want.tobytes()
        assert back.models[node].c_used == (ms.c[node] if isinstance(ms.c, dict) else ms.c)
    assert serialize_model_set(back) == text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="0123456789AQgw+/=:- x", max_size=30), max_size=3))
def test_any_model_line_loads_or_names_its_line(lines):
    # Whatever the node lines hold, the load either succeeds or raises a
    # LearnerError that names a line: it never fails in another way.
    text = HEAD + "".join(line + "\n" for line in lines)
    try:
        parse_model_set(text)
    except LearnerError as exc:
        assert str(exc).startswith("line ")
