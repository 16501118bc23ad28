import base64
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp
from scipy.special import expit

import taxrewire
from taxrewire.corpus import Dataset, make_sparse, split_train_validation
from taxrewire.learner import (
    FingerprintMismatchError,
    LearnerError,
    LogisticProblem,
    ModelSet,
    WeightBlock,
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

from conftest import model_set_of, node_weights, one_hot_dataset, traced_peak
from reference_impls import (
    fd_gradient,
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
        obj, grad = lr_objective_gradient(np.zeros(2), LogisticProblem(features, labels, c=2.0))
        assert obj == pytest.approx(4.0 * math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(grad, [-1.0, 1.0], atol=1e-15)

    def test_regularizer_included(self):
        features, labels = small_problem()
        problem = LogisticProblem(features, labels, c=1.0)
        theta = np.array([3.0, -4.0])
        obj_rl, _ = lr_objective_gradient(theta, problem)
        obj_zero, _ = lr_objective_gradient(np.zeros(2), problem)
        losses = obj_rl - 0.5 * 25.0
        assert losses < obj_zero  # theta fits the labels, loss part shrinks

    def test_uniform_costs_bitwise_equal_to_none(self):
        rng = np.random.default_rng(11)
        features = sp.csr_matrix(rng.standard_normal((20, 6)))
        labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        theta = rng.standard_normal(6)
        a = lr_objective_gradient(theta, LogisticProblem(features, labels, 3.0, None))
        b = lr_objective_gradient(theta, LogisticProblem(features, labels, 3.0, np.ones(20)))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_double_cost_equals_duplicated_instance(self):
        x = sp.csr_matrix(np.array([[1.0, 2.0]]))
        x2 = sp.csr_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        theta = np.array([0.3, -0.2])
        a = lr_objective_gradient(theta, LogisticProblem(x, np.array([1.0]), 1.5, np.array([2.0])))
        b = lr_objective_gradient(theta, LogisticProblem(x2, np.array([1.0, 1.0]), 1.5, None))
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
            problem = LogisticProblem(features, labels, c, costs)
            _, grad = lr_objective_gradient(theta, problem)
            fd = fd_gradient(lambda t: lr_objective_gradient(t, problem)[0], theta)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5

    def test_matches_the_expressions_of_one_call(self):
        # Hoisting -labels, costs * labels and features.T out of the
        # evaluation changes no float: the objective and gradient equal the
        # whole expressions evaluated in one go, bit for bit.
        rng = np.random.default_rng(43)
        for _ in range(50):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            features = sp.random(n, d, density=0.3, format="csr", random_state=rng,
                                 data_rvs=rng.standard_normal)
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            costs = rng.uniform(0.2, 3.0, size=n) if rng.random() < 0.5 else None
            c = float(rng.uniform(0.1, 50.0))
            theta = rng.standard_normal(d) * 10.0
            w = np.ones(n) if costs is None else costs
            z = -labels * (features @ theta)
            want_obj = c * float(np.dot(w, np.logaddexp(0.0, z))) + 0.5 * float(np.dot(theta, theta))
            want_grad = -c * (features.T @ (w * labels * expit(z))) + theta
            obj, grad = lr_objective_gradient(theta, LogisticProblem(features, labels, c, costs))
            assert obj == want_obj
            assert grad.tobytes() == want_grad.tobytes()

    def test_huge_margins_stay_finite(self):
        features = sp.csr_matrix(np.array([[1000.0], [-1000.0]]))
        labels = np.array([-1.0, 1.0])  # both misclassified by theta > 0
        obj, grad = lr_objective_gradient(np.array([5.0]), LogisticProblem(features, labels, 1.0))
        assert math.isfinite(obj) and np.all(np.isfinite(grad))
        assert obj == pytest.approx(10000.0 + 12.5, rel=1e-12)

    def test_validation(self):
        features, labels = small_problem()
        with pytest.raises(LearnerError, match="theta"):
            lr_objective_gradient(np.zeros(3), LogisticProblem(features, labels, 1.0))
        with pytest.raises(LearnerError, match="labels"):
            LogisticProblem(features, labels[:1], 1.0)
        with pytest.raises(LearnerError, match="-1 or \\+1"):
            LogisticProblem(features, np.array([1.0, 0.0]), 1.0)
        with pytest.raises(LearnerError, match="C must be finite and positive"):
            LogisticProblem(features, labels, 0.0)
        with pytest.raises(LearnerError, match="costs"):
            LogisticProblem(features, labels, 1.0, np.ones(3))
        with pytest.raises(LearnerError, match="positive"):
            LogisticProblem(features, labels, 1.0, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected(self, c):
        features, labels = small_problem()
        with pytest.raises(LearnerError, match=f"^C must be finite and positive, got {c}$"):
            LogisticProblem(features, labels, c)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_costs_rejected(self, bad):
        features, labels = small_problem()
        with pytest.raises(LearnerError, match="^costs must be positive and finite$"):
            LogisticProblem(features, labels, 1.0, np.array([1.0, bad]))

    def test_inputs_are_copied(self):
        # The checks hold for the whole fit: changing the caller's arrays
        # afterwards changes nothing.
        features, labels = small_problem()
        costs = np.array([1.0, 2.0])
        problem = LogisticProblem(features, labels, 1.5, costs)
        want = lr_objective_gradient(np.array([0.3, -0.2]), problem)
        labels[0], costs[1] = 0.0, -1.0
        got = lr_objective_gradient(np.array([0.3, -0.2]), problem)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


class TestTraining:
    def test_train_node_validation(self, letter_tree, tiny_dataset):
        with pytest.raises(LearnerError, match="unknown node"):
            train_node(letter_tree, 99, tiny_dataset, 1.0)
        with pytest.raises(LearnerError, match="root"):
            train_node(letter_tree, letter_tree.root, tiny_dataset, 1.0)

    def test_train_node_without_positives_warns(self, letter_tree):
        data = one_hot_dataset([0, 1], per_leaf=3)
        with pytest.warns(UserWarning, match="no positive"):
            result = train_node(letter_tree, 5, data, 1.0)
        assert result.converged and result.x.shape == (data.dimensionality,)

    def test_topdown_covers_every_non_root_node(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=4)
        ms = train_topdown(letter_tree, data, c=1.0)
        assert ms.mode == "td-lr"
        assert list(ms.slots()) == [0, 1, 2, 3, 4, 5, 7, 8]
        assert ms.children == {6: (7, 8), 7: (0, 1, 2), 8: (3, 4, 5)}
        assert ms.fingerprint == letter_tree.fingerprint()
        assert ms.dimensionality == data.dimensionality

    def test_flat_covers_every_leaf(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=4)
        ms = train_flat(letter_tree, data, c=1.0)
        assert ms.mode == "flat"
        assert ms.children == {6: (0, 1, 2, 3, 4, 5)}
        block = ms.blocks[6]
        assert block.weights.shape == (6, data.dimensionality) and block.weights.flags.c_contiguous
        assert block.converged.tolist() == [True] * 6 and np.isfinite(block.final_objective).all()

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
            preds, _ = predict_dataset(ms, data, letter_tree)
            assert preds == list(data.labels)

    @pytest.mark.parametrize("trainer", [train_topdown, train_flat])
    def test_every_node_is_fit_at_the_one_c(self, letter_tree, trainer):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=3, jitter=0.5, seed=1)
        ms = trainer(letter_tree, data, 2)
        assert type(ms.c) is float and ms.c == 2.0
        # Each node model is train_node's fit at that C on the tree trained.
        tree = letter_tree if trainer is train_topdown else parse_taxonomy(
            "".join(f"{letter_tree.root} {leaf}\n" for leaf in sorted(letter_tree.leaves)))
        for node, (block, i) in ms.slots().items():
            fit = train_node(tree, node, data, 2.0)
            assert np.array_equal(block.weights[i], fit.x)
            assert block.final_objective[i] == fit.fun and block.converged[i] == fit.converged

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
        for fit in (lambda: train_topdown(letter_tree, data, c, **settings),
                    lambda: train_flat(letter_tree, data, c, **settings),
                    lambda: train_node(letter_tree, 8, data, c, **settings)):
            with pytest.raises(LearnerError, match=msg):
                fit()


def zero_blocks(children: dict, dims: int) -> dict:
    return {p: WeightBlock(np.zeros((len(kids), dims)), np.full(len(kids), np.nan),
                           np.ones(len(kids), dtype=bool)) for p, kids in children.items()}


def zero_model_set(tax: Taxonomy, mode: str, dims: int) -> ModelSet:
    return model_set_of(tax, mode, {n: np.zeros(dims) for n in tax.nodes}, dims)


# Predicts the row 1:1e308 2:1 on the tree 0 -> {1, 2}, for a mode and
# a JSON list of (theta of node 1, theta of node 2) cases.
NO_SCORE_SCRIPT = """
import json, sys
import numpy as np
from taxrewire.corpus import parse_dataset
from taxrewire.learner import ModelSet, WeightBlock, predict_dataset
from taxrewire.taxonomy import parse_taxonomy
tax = parse_taxonomy("0 1\\n0 2\\n")
data = parse_dataset("1 1:1e308 2:1\\n")
preds = []
for thetas in json.loads(sys.argv[2]):
    block = WeightBlock(np.array(thetas), np.full(2, np.nan), np.ones(2, dtype=bool))
    ms = ModelSet(sys.argv[1], tax.fingerprint(), 2, 1.0, {0: (1, 2)}, {0: block})
    preds += predict_dataset(ms, data, tax)[0]
print(json.dumps(preds))
"""


class TestPrediction:
    def test_unseen_dimensions_contribute_nothing(self):
        # Leaf 1 wins only when its score beats leaf 0's constant 0.0.
        tax = parse_taxonomy("2 0\n2 1\n")
        ms = model_set_of(tax, "flat", {0: np.zeros(3), 1: [1.0, 2.0, 3.0]}, dims=3)
        rows = [{2: 0.5}, {5: 9.0}, {2: 0.5, 5: 9.0}, {}, {1: -1.0, 5: 9.0}]
        data = Dataset([sv(r) for r in rows], [0] * len(rows), dimensionality=5)
        assert predict_dataset(ms, data, tax) == ([1, 0, 1, 0, 0], 10)

    def test_topdown_ties_take_smallest_child(self, letter_tree):
        ms = zero_model_set(letter_tree, "td-lr", 6)
        one = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1).subset([3])
        assert predict_dataset(ms, one, letter_tree) == ([0], 5)
        # two root children, then three under the winner

    def test_flat_ties_take_smallest_leaf(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 6)
        one = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1).subset([3])
        assert predict_dataset(ms, one, letter_tree) == ([0], 6)

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

    @pytest.mark.parametrize("mode,children", [
        ("td-lr", {6: (7, 8), 7: (0, 1, 2), 8: (3, 4)}),  # node 5 has no model
        ("td-lr", {6: (7, 8), 7: (0, 1, 2), 8: (3, 4, 5, 999)}),  # 999 is no node
        ("td-lr", {6: (7, 8), 7: (0, 1, 2)}),  # node 8's children have none
        ("td-lr", {6: (8, 7), 7: (0, 1, 2), 8: (3, 4, 5)}),  # not in tree.children order
        ("flat", {6: (7, 8), 7: (0, 1, 2), 8: (3, 4, 5)}),  # the td-lr layout
        ("flat", {6: (0, 1, 2, 3, 4, 5), 7: (0,)}),  # 7 is internal
        ("flat", {}),
    ])
    def test_layout_of_another_tree_rejected_before_any_instance(self, letter_tree, mode,
                                                                   children):
        ms = ModelSet(mode, letter_tree.fingerprint(), 6, 1.0, children, zero_blocks(children, 6))
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1)
        for rows in ([0], []):  # instance 0 never reaches node 8; no instance at all
            with pytest.raises(LearnerError, match=f"^the model set's nodes are not those {mode}"
                               " prediction over the hierarchy descends$"):
                predict_dataset(ms, data.subset(rows), letter_tree)

    @pytest.mark.parametrize("weights,objectives,flags", [
        (np.zeros((3, 4)), 3, 3),  # narrower than #dimensionality
        (np.zeros((2, 6)), 3, 3),  # a row short
        (np.zeros((3, 6), dtype=np.float32), 3, 3),
        (np.zeros((6, 3)).T, 3, 3),  # not C-contiguous
        (np.zeros((3, 6)), 2, 3),  # an objective short
        (np.zeros((3, 6)), 3, 4),  # a converged flag too many
    ])
    def test_model_set_checks_each_block(self, weights, objectives, flags):
        block = WeightBlock(weights, np.full(objectives, np.nan), np.ones(flags, dtype=bool))
        with pytest.raises(LearnerError, match="^node 0 needs a C-contiguous float64 block of 3"
                           " rows of 6 weights, and 3 fits$"):
            ModelSet("flat", "f", 6, 1.0, {0: (1, 2, 3)}, {0: block})

    def test_model_set_has_one_block_per_parent(self):
        with pytest.raises(LearnerError, match="^children and blocks must have the same parents$"):
            ModelSet("flat", "f", 6, 1.0, {0: (1, 2, 3)}, {})

    def test_dataset_fingerprint_checked(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 6)
        other = parse_taxonomy("0 1\n0 2\n")
        data = one_hot_dataset([0, 1], per_leaf=1, dims=6)
        with pytest.raises(FingerprintMismatchError):
            predict_dataset(ms, data, other)
        assert predict_dataset(ms, data, letter_tree) == ([0, 0], 12)

    @pytest.mark.parametrize("mode", ["td-lr", "flat"])
    def test_every_mode_requires_hierarchy(self, letter_tree, mode):
        ms = zero_model_set(letter_tree, mode, 6)
        data = one_hot_dataset([0], per_leaf=1, dims=6)
        with pytest.raises(TypeError, match="tax"):
            predict_dataset(ms, data)

    def test_dataset_eval_totals(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=1)
        td = zero_model_set(letter_tree, "td-lr", 6)
        flat = zero_model_set(letter_tree, "flat", 6)
        _, n_td = predict_dataset(td, data, letter_tree)
        _, n_flat = predict_dataset(flat, data, letter_tree)
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


def random_thetas(rng: np.random.Generator, nodes, dim: int) -> dict[int, np.ndarray]:
    """Node weights, all zero (tying), small-integer (often tying), normal
    or extreme, drawn in shuffled node order."""
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
        models[node] = theta
    return models


class TestMatchesPerInstanceOracles:
    """Prediction and flat training against the per-instance code they replaced."""

    # Extreme weights overflow, and inf - inf is NaN, in both descents; the
    # oracle's numpy warnings are filtered, while predict_dataset emits none.
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

            td = model_set_of(tax, "td-lr", random_thetas(rng, tax.non_root_nodes(), dim), dim)
            want = [predict_topdown(td, tax, x, return_evals=True) for x in vectors]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = predict_dataset(td, data, tax)
            assert got == ([leaf for leaf, _ in want], sum(n for _, n in want))

            flat = model_set_of(tax, "flat", random_thetas(rng, sorted(tax.leaves), dim), dim)
            want = [predict_flat(flat, x, return_evals=True) for x in vectors]
            expected = ([leaf for leaf, _ in want], sum(n for _, n in want))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert predict_dataset(flat, data, tax) == expected
            checked["td-lr"] += len(vectors)
            checked["flat"] += len(vectors)
            for x in vectors:
                scores = [sparse_score(theta, x) for theta in node_weights(flat).values()]
                numbers = [v for v in scores if not math.isnan(v)]
                ranked["NaN"] += len(numbers) < len(scores)
                ranked["-inf"] += -math.inf in numbers
                ranked["tie"] += len(set(numbers)) < len(numbers)
        assert min(checked.values()) > 500
        assert min(ranked.values()) > 100, ranked

    # Rows of 40 or more nonzeros under 64 or more children, so every dot is
    # long enough for BLAS's unrolled loop; the weights are as above.
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning",
                                "ignore:invalid value encountered in dot:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_top=st.integers(64, 100),
           dim=st.integers(40, 160), extra=st.integers(0, 3), n_rows=st.integers(1, 6))
    def test_long_rows_match_per_instance_prediction(self, seed, n_top, dim, extra, n_rows):
        rng = np.random.default_rng(seed)
        # n_top children of the root 0, each a leaf or the parent of 1-4 leaves.
        parent_of, next_id = {}, n_top + 1
        for kid in range(1, n_top + 1):
            parent_of[kid] = 0
            if rng.random() < 0.3:
                for _ in range(int(rng.integers(1, 5))):
                    parent_of[next_id], next_id = kid, next_id + 1
        tax = Taxonomy(0, parent_of)
        width = dim + extra  # features past the model's width contribute nothing
        vectors = []
        for _ in range(n_rows):
            idx = rng.choice(np.arange(1, width + 1), size=int(rng.integers(40, width + 1)),
                             replace=False)
            vectors.append(make_sparse(idx, rng.choice([-1.0, 0.5, 1.0, 2.0], size=idx.size)
                                       if rng.random() < 0.3 else rng.standard_normal(idx.size)))
        data = Dataset(vectors, [0] * n_rows, dimensionality=width)

        td = model_set_of(tax, "td-lr", random_thetas(rng, tax.non_root_nodes(), dim), dim)
        want = [predict_topdown(td, tax, x, return_evals=True) for x in vectors]
        assert predict_dataset(td, data, tax) == ([leaf for leaf, _ in want],
                                                  sum(n for _, n in want))
        flat = model_set_of(tax, "flat", random_thetas(rng, sorted(tax.leaves), dim), dim)
        want = [predict_flat(flat, x, return_evals=True) for x in vectors]
        assert predict_dataset(flat, data, tax) == ([leaf for leaf, _ in want],
                                                    sum(n for _, n in want))

    def test_flat_thetas_match_per_leaf_fits(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            tax = random_taxonomy(rng, int(rng.integers(4, 12)))
            leaves = sorted(tax.leaves)
            dim = int(rng.integers(2, 7))
            vectors = random_rows(rng, 30, dim)
            labels = [int(l) for l in rng.choice(leaves, size=len(vectors))]
            data = Dataset(vectors, labels, dimensionality=dim)
            costs = rng.uniform(0.5, 2.0, size=data.n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # leaves without instances
                ms = train_flat(tax, data, 3.0, costs, max_iter=40)
            assert ms.mode == "flat" and ms.fingerprint == tax.fingerprint() and ms.c == 3.0
            assert ms.children == {tax.root: tuple(leaves)}
            features = data.to_csr()
            for leaf in leaves:
                y = np.where(np.asarray(labels) == leaf, 1.0, -1.0)
                problem = LogisticProblem(features, y, 3.0, costs)
                want = minimize_lbfgs(
                    lambda th: lr_objective_gradient(th, problem),
                    np.zeros(dim), grad_tol=1e-6, max_iter=40,
                )
                block, i = ms.slots()[leaf]
                assert np.array_equal(block.weights[i], want.x)
                assert block.final_objective[i] == want.fun


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
        assert result.model_set.children == fit.children
        for parent, block in fit.blocks.items():
            tuned = result.model_set.blocks[parent]
            assert np.array_equal(tuned.weights, block.weights)
            assert np.array_equal(tuned.final_objective, block.final_objective)

    @pytest.mark.parametrize("mode,trainer", [("td-lr", train_topdown), ("flat", train_flat)])
    @pytest.mark.parametrize("weighted", [False, True], ids=["no-costs", "costs"])
    def test_choice_matches_per_instance_accuracy(self, letter_tree, mode, trainer, weighted):
        # Each grid value scores the validation accuracy of its fit on the
        # training part, predicted one instance at a time; the most accurate
        # value wins, ties going to the smaller C.
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=5, jitter=0.8, seed=2)
        costs = np.linspace(2.0, 0.5, data.n) if weighted else None
        grid = (0.01, 0.3, 30.0)
        result = tune_c(letter_tree, data, grid=grid, mode=mode, costs=costs,
                        split=0.6, seed=5)
        train_idx, val_idx = split_train_validation(data, 0.6, 5)
        train, val = data.subset(train_idx), data.subset(val_idx)
        train_costs = None if costs is None else costs[train_idx]
        hits = {}
        for g in grid:
            candidate = trainer(letter_tree, train, g, train_costs)
            preds = [predict_topdown(candidate, letter_tree, x) if mode == "td-lr"
                     else predict_flat(candidate, x) for x in val.vectors]
            hits[g] = sum(p == y for p, y in zip(preds, val.labels))
        assert result.scores == {g: hits[g] / val.n for g in grid}
        assert result.best_c == min(g for g in grid if hits[g] == max(hits.values()))

    def test_empty_validation_rejected_before_any_fit(self, letter_tree, monkeypatch):
        import taxrewire.learner as learner

        def no_fit(*args, **kwargs):
            raise AssertionError("a node was fit")

        monkeypatch.setattr(learner, "minimize_lbfgs", no_fit)
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=2)
        with pytest.raises(LearnerError, match=r"the tuning split of 12 instances at --split "
                           r"0\.99 leaves 12 for training and none for validation"):
            tune_c(letter_tree, data, grid=(0.1, 10.0), mode="flat", split=0.99)


# The hierarchy the hand-written model files below are read against: flat
# over it, nodes 0 and 1 have models.
TREE = parse_taxonomy("5 0\n5 1\n")
FP = TREE.fingerprint()
HEAD = f"#mode flat\n#fingerprint {FP}\n#dimensionality 2\n#C 1.0\n#weights mask\n"
HEAD9 = HEAD.replace("#dimensionality 2", "#dimensionality 9")


def b64(values, dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def mask(idx, dim: int = 2) -> str:
    """The base64 mask of the 1-based ``idx``; an index past ``dim`` sets a padding bit."""
    bits = np.zeros(8 * -(-dim // 8), dtype=bool)
    bits[np.asarray(idx, dtype=np.int64) - 1] = True
    return b64(np.packbits(bits, bitorder="little"), "u1")


def model_line(node: int, idx, weights, dim: int = 2) -> str:
    """One model-file line: the node, then its mask and weights in base64."""
    return f"{node} {mask(idx, dim)} {b64(weights, '<f8')}\n"


def index_line(node: int, idx, weights) -> str:
    """A model line in the previous form: int64 indices in place of the mask."""
    return f"{node} {b64(idx, '<i8')} {b64(weights, '<f8')}\n"


class TestSerialization:
    def test_round_trip_is_bitwise(self, letter_tree):
        data = one_hot_dataset(sorted(letter_tree.leaves), per_leaf=3, jitter=0.1, seed=9)
        ms = train_topdown(letter_tree, data, c=3.0)
        ms.extra_headers["config"] = '{"seed": 4}'
        back = parse_model_set(io.StringIO(serialize_model_set(ms)), letter_tree)
        assert back.mode == ms.mode
        assert back.fingerprint == ms.fingerprint
        assert back.dimensionality == ms.dimensionality
        assert back.c == 3.0
        assert back.extra_headers == {"config": '{"seed": 4}'}
        assert back.children == ms.children
        for parent, block in ms.blocks.items():
            loaded = back.blocks[parent]
            assert np.array_equal(loaded.weights, block.weights)
            assert loaded.weights.flags.c_contiguous
            assert np.isnan(loaded.final_objective).all() and loaded.converged.all()

    @pytest.mark.parametrize("c", [0.1, 1 / 3, 1e-3, 1e3])
    def test_c_header_is_the_float_repr(self, letter_tree, c):
        ms = zero_model_set(letter_tree, "flat", 4)
        ms.c = c
        text = serialize_model_set(ms)
        assert f"\n#C {c!r}\n" in text
        back = parse_model_set(io.StringIO(text), letter_tree)
        assert type(back.c) is float and back.c == c

    def test_zero_weights_are_dropped(self, letter_tree):
        ms = zero_model_set(letter_tree, "flat", 4)
        node_weights(ms)[2][1] = -0.0
        text = serialize_model_set(ms)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body == ["0", "1", "2", "3", "4", "5"]

    def test_model_line_encoding(self):
        ms = model_set_of(parse_taxonomy("0 7\n"), "flat", {7: [0.0, 1.5, -2.0]}, dims=3)
        node, bits, weights = serialize_model_set(ms).splitlines()[-1].split()
        assert node == "7"
        assert base64.b64decode(bits) == bytes([0b110])  # indices 2 and 3, little bit order
        assert base64.b64decode(weights) == np.array([1.5, -2.0], "<f8").tobytes()

    def test_previous_index_form_without_the_format_header_is_refused(self):
        # An int64 index list as long as a mask: [4] at #dimensionality 64
        # would read as the mask of index 3.
        text = HEAD.replace("#dimensionality 2", "#dimensionality 64").replace(
            "#weights mask\n", "") + index_line(0, [4], [0.5])
        with pytest.raises(LearnerError, match="^line 5: no '#weights mask' header; the file "
                           "may be in the previous index form: retrain the model$"):
            parse_model_set(io.StringIO(text), TREE)
        # The format header is checked at the first model line: a tree with
        # no model reads from the headers alone, with or without it.
        lone = Taxonomy(5, {})
        for head in (HEAD, HEAD.replace("#weights mask\n", "")):
            header_only = parse_model_set(head.replace(FP, lone.fingerprint()), lone)
            assert header_only.children == {} and header_only.extra_headers == {}

    def test_unknown_headers_survive(self):
        text = HEAD + "#note kept verbatim\n" + model_line(0, [1], [0.5]) + "1\n"
        ms = parse_model_set(io.StringIO(text), TREE)
        assert ms.extra_headers == {"note": "kept verbatim"}
        assert node_weights(ms)[0].tolist() == [0.5, 0.0]

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("#mode flat\n#dimensionality 2\n#C 1.0\n", "fingerprint"),
            (f"#mode flat\n#fingerprint {FP}\n#dimensionality two\n#C 1.0\n", "not an integer"),
            (f"#mode flat\n#fingerprint {FP}\n#dimensionality -1\n#C 1.0\n",
             "must not be negative"),
            (f"#mode flat\n#fingerprint {FP}\n#dimensionality 1152921504606846976\n#C 1.0\n",
             "must be at most 2\\^60 - 1"),
            (f"#mode nope\n#fingerprint {FP}\n#dimensionality 2\n#C 1.0\n", "unknown mode"),
            (f'#mode flat\n#fingerprint {FP}\n#dimensionality 2\n#C {{"1": null, "2": 1.0}}\n',
             "the C header is not a number: .*; retrain the model"),
            (f"#mode flat\n#fingerprint {FP}\n#dimensionality 2\n#C [1]\n",
             "the C header is not a number"),
            *[(f"#mode flat\n#fingerprint {FP}\n#dimensionality 2\n#C {c}\n",
               f"C must be finite and positive, got the C header '{c}'")
              for c in ("nan", "-1", "inf", "0")],
            (HEAD + "0 1:0.5 2:0.25\n",
             "line 6: an old 'idx:weight' model line; retrain the model"),
            (HEAD + "0 1:0.5\n", "line 6: an old 'idx:weight' model line"),
            (HEAD + "x " + model_line(0, [1], [0.5]).split(" ", 1)[1],
             "line 6: node 'x' is not a decimal integer id"),
            (HEAD + "9223372036854775808 " + model_line(0, [1], [0.5]).split(" ", 1)[1],
             "line 6: node '9223372036854775808' is above 2\\^63 - 1"),
            (HEAD + "0 " + mask([1]) + "\n",
             "line 6: expected 'node mask weights', got 2 tokens"),
            (HEAD + model_line(0, [1], [0.5]).rstrip() + " AAAAAAAAAAA=\n",
             "line 6: expected 'node mask weights', got 4 tokens"),
            (HEAD + "0 AQAAAAAAAA!= " + b64([0.5], "<f8") + "\n", "line 6: malformed token"),
            (HEAD + "0 AQAAAAAAAA " + b64([0.5], "<f8") + "\n", "line 6: malformed token"),
            (HEAD + "0 " + mask([1]) + " " + b64([1], "<i4") + "\n",
             "line 6: malformed token: the weights are not whole 8-byte values"),
            (HEAD9 + model_line(0, [1], [0.5], dim=1),
             "^line 6: the mask has 1 bytes, but #dimensionality 9 needs 2; the line may be in "
             "the previous index form: retrain the model$"),
            (HEAD9 + model_line(0, [1], [0.5], dim=17),
             "^line 6: the mask has 3 bytes, but #dimensionality 9 needs 2;"),
            (HEAD + model_line(0, [1], [0.5], dim=9), "^line 6: the mask has 2 bytes"),
            (HEAD + index_line(0, [1], [0.5]),
             "^line 6: the mask has 8 bytes, but #dimensionality 2 needs 1; the line may be in "
             "the previous index form: retrain the model$"),
            (f"#mode flat\n#fingerprint {FP}\n#dimensionality 1152921504606846975\n#C 1.0\n"
             "#weights mask\n"
             + model_line(0, [1], [0.5]),
             "^line 6: the mask has 1 bytes, but #dimensionality 1152921504606846975 needs "
             "144115188075855872;"),
            (HEAD + model_line(0, [3], [0.5]),
             "^line 6: a mask bit past #dimensionality 2 is set$"),
            (HEAD + model_line(0, [1, 8], [0.5, 0.5]), "^line 6: a mask bit past"),
            (HEAD9 + model_line(0, [16], [0.5], dim=9), "^line 6: a mask bit past"),
            (HEAD + model_line(0, [1, 2], [0.5]),
             "^line 6: the mask sets 2 bits but there are 1 weights$"),
            (HEAD + model_line(0, [2], [0.5, 0.25]),
             "^line 6: the mask sets 1 bits but there are 2 weights$"),
            (HEAD + model_line(0, [1, 2], [0.5, math.nan]), "line 6: non-finite weight"),
            (HEAD + model_line(0, [1], [-math.inf]), "line 6: non-finite weight"),
            (HEAD + model_line(0, [1], [0.5]) + model_line(0, [2], [0.5]),
             "line 7: duplicate model for node 0"),
            # a per-node C map, as older versions wrote it
            (f'#mode flat\n#fingerprint {FP}\n#dimensionality 2\n#C {{"0": 1.0, "1": 2.0}}\n'
             '#weights mask\n' + model_line(0, [1], [0.5]) + model_line(1, [2], [0.5]),
             "the C header is not a number: .*; retrain the model"),
        ],
    )
    def test_parse_rejects(self, tmp_path, text, msg):
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        with path.open(encoding="utf-8") as fh, pytest.raises(LearnerError, match=msg):
            parse_model_set(fh, TREE)


def read_model_file(path: Path, tax: Taxonomy = TREE) -> ModelSet:
    with path.open(encoding="utf-8") as fh:
        return parse_model_set(fh, tax)


class TestLineReader:
    """parse_model_set numbers lines as the whole text's splitlines() numbers them.

    tests/test_taxonomy.py checks that a text, its file and its lines read
    alike for every reader, this one among them.
    """

    def test_blank_items_count_as_lines(self):
        # text.splitlines() gives "" for a blank line; it keeps its number.
        lines = [*HEAD.splitlines(), "", "", model_line(0, [3], [0.5]).rstrip()]
        with pytest.raises(LearnerError, match="^line 8: a mask bit past #dimensionality 2"):
            parse_model_set(lines, TREE)

    @pytest.mark.parametrize("late,msg", [
        ("#note kept", "^line 7: a '#' header after the first model line; headers come first$"),
        ("#C 2.0", "^line 7: a '#' header after the first model line"),
    ])
    def test_header_after_a_model_line(self, tmp_path, late, msg):
        path = tmp_path / "model.txt"
        path.write_text(HEAD + model_line(0, [1], [0.5]) + late + "\n"
                        + model_line(1, [2], [0.5]), encoding="utf-8")
        with pytest.raises(LearnerError, match=msg):
            read_model_file(path)

    def test_required_header_after_a_model_line_is_missing(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(HEAD.replace("#C 1.0\n", "") + model_line(0, [1], [0.5]) + "#C 1.0\n",
                        encoding="utf-8")
        with pytest.raises(LearnerError, match="^model file is missing the 'C' header$"):
            read_model_file(path)


def dense_model_set(n_models: int = 64, dim: int = 10_000) -> tuple[ModelSet, Taxonomy]:
    """A flat model set of ``n_models`` leaves with dense normal weights, and its tree."""
    rng = np.random.default_rng(0)
    tax = Taxonomy(n_models, {n: n_models for n in range(n_models)})
    thetas = {n: rng.standard_normal(dim) for n in range(n_models)}
    return model_set_of(tax, "flat", thetas, dim), tax


class TestModelFileMemory:
    """The model text is held once while written and not at all while read."""

    def test_writer_holds_the_text_at_most_twice(self):
        ms, _ = dense_model_set()
        text, peak = traced_peak(lambda: serialize_model_set(ms))
        # the line list and the joined text; the old "+ '\n'" made a third copy
        assert peak <= 2.1 * len(text)

    def test_lines_have_the_mask_and_weights_sizes(self):
        # 85% support: each line is its node, two spaces, a ceil(d/8)-byte
        # mask and k 8-byte weights, each in padded base64.
        rng = np.random.default_rng(1)
        n_models, d = 64, 10_000
        tax = Taxonomy(n_models, {n: n_models for n in range(n_models)})
        ms = model_set_of(tax, "flat", {
            n: rng.standard_normal(d) * (rng.random(d) < 0.85) for n in range(n_models)}, d)
        text, peak = traced_peak(lambda: serialize_model_set(ms))
        body = [line for line in text.splitlines() if not line.startswith("#")]
        assert len(body) == n_models
        for line, (node, theta) in zip(body, node_weights(ms).items()):
            k = np.count_nonzero(theta)
            assert 0.8 * d < k < 0.9 * d
            assert len(line) == (len(str(node)) + 2 + 4 * math.ceil(math.ceil(d / 8) / 3)
                                 + 4 * math.ceil(8 * k / 3))
        assert peak <= 2.1 * len(text)

    def test_reader_holds_the_dense_weights_and_a_few_lines(self, tmp_path):
        ms, tax = dense_model_set()
        path = tmp_path / "model.txt"
        path.write_text(serialize_model_set(ms), encoding="utf-8")
        back, peak = traced_peak(lambda: read_model_file(path, tax))
        dense = sum(block.weights.nbytes for block in ms.blocks.values())
        # a reader that held the whole text at any moment would break the bound
        assert path.stat().st_size > dense + 2**20
        assert peak <= dense + 2**20
        assert back.blocks[64].weights.tobytes() == ms.blocks[64].weights.tobytes()


def test_prediction_holds_no_copy_of_the_weights():
    # 64 leaves x 10,000 weights, the shape of the text-flat-64 benchmark:
    # a copy of the weights would be 5.1 MB, four times the bound.
    ms, tax = dense_model_set()
    rng = np.random.default_rng(2)
    rows = [make_sparse(np.sort(rng.choice(np.arange(1, 10_001), 40, replace=False)),
                        rng.random(40)) for _ in range(50)]
    data = Dataset(rows, [0] * len(rows), dimensionality=10_000)
    data.to_csr()
    (preds, evals), peak = traced_peak(lambda: predict_dataset(ms, data, tax))
    weights = sum(block.weights.nbytes for block in ms.blocks.values())
    assert evals == 64 * len(rows) and len(preds) == len(rows)
    assert peak < weights / 4


class TestReadingAgainstATree:
    """parse_model_set checks a model file against the tree prediction descends."""

    @staticmethod
    def model_text(tax, mode):
        ms = model_set_of(tax, mode, {n: np.arange(1.0, 7.0) * (n + 1) for n in tax.nodes}, 6)
        return serialize_model_set(ms)

    @pytest.mark.parametrize("mode", ["td-lr", "flat"])
    def test_fingerprint_checked_before_any_model_line(self, letter_tree, monkeypatch, mode):
        import taxrewire.learner as learner

        def no_decode(*args):
            raise AssertionError("a model line was decoded")

        monkeypatch.setattr(learner, "_model_line", no_decode)
        with pytest.raises(FingerprintMismatchError, match="^hierarchy does not match the one"
                           " the model set was trained on$"):
            parse_model_set(self.model_text(letter_tree, mode), parse_taxonomy("0 1\n0 2\n"))

    # 7 is an internal node, which a flat model set has no use for.
    @pytest.mark.parametrize("mode,node", [("td-lr", 999), ("flat", 999), ("flat", 7)])
    def test_model_for_a_node_outside_the_descended_tree(self, letter_tree, mode, node):
        lines = self.model_text(letter_tree, mode).splitlines()
        lines.append(str(node))
        with pytest.raises(LearnerError, match=f"^model set has a model for node {node}, which"
                           f" {mode} prediction over the hierarchy never uses$"):
            parse_model_set(lines, letter_tree)

    @pytest.mark.parametrize("mode,node", [("td-lr", 8), ("td-lr", 0), ("flat", 3)])
    def test_node_without_a_model(self, letter_tree, mode, node):
        lines = [line for line in self.model_text(letter_tree, mode).splitlines()
                 if line.split(" ", 1)[0] != str(node)]
        with pytest.raises(LearnerError, match=f"^model set has no model for node {node}$"):
            parse_model_set(lines, letter_tree)

    @pytest.mark.parametrize("mode,node", [("td-lr", 8), ("flat", 3)])
    def test_duplicate_node(self, letter_tree, mode, node):
        lines = self.model_text(letter_tree, mode).splitlines()
        lines.append(next(line for line in lines if line.split(" ", 1)[0] == str(node)))
        with pytest.raises(LearnerError, match=f"^line {len(lines)}: duplicate model for node"
                           f" {node}$"):
            parse_model_set(lines, letter_tree)

    @pytest.mark.parametrize("mode", ["td-lr", "flat"])
    def test_rows_are_the_written_weights(self, letter_tree, mode):
        back = parse_model_set(self.model_text(letter_tree, mode), letter_tree)
        assert {n: w.tolist() for n, w in node_weights(back).items()} == {
            n: (np.arange(1.0, 7.0) * (n + 1)).tolist()
            for n in (letter_tree.non_root_nodes() if mode == "td-lr" else range(6))}


# Weights a writer must keep bit for bit: -0.0 (never written), subnormals
# and the largest finite floats.
SPECIAL_WEIGHTS = [-0.0, 5e-324, -5e-324, 2.5e-310, sys.float_info.max, -sys.float_info.max,
                   1e308, 0.1]


def flat_case(thetas: dict, dim: int) -> tuple[ModelSet, Taxonomy]:
    """A flat model set whose leaves are the keys of ``thetas``, under root 0, and its tree."""
    tax = Taxonomy(0, {n: 0 for n in thetas})
    return model_set_of(tax, "flat", thetas, dim), tax


def one_model(*weights: float) -> tuple[ModelSet, Taxonomy]:
    return flat_case({3: weights}, len(weights))


def spread_model(dim: int) -> tuple[ModelSet, Taxonomy]:
    """Two models at ``dim``: every third weight zero, and only the last weight."""
    theta = np.where(np.arange(dim) % 3 == 1, 0.0, np.arange(1, dim + 1) * -0.75)
    last = np.zeros(dim)
    last[-1] = 2.5
    return flat_case({1: theta, 2: last}, dim)


@st.composite
def model_sets(draw) -> tuple[ModelSet, Taxonomy]:
    """Model sets of up to 5 nodes, some all zero, and the tree they were fit over."""
    dim = draw(st.integers(min_value=0, max_value=8))
    weight = st.one_of(st.just(0.0), st.sampled_from(SPECIAL_WEIGHTS),
                       st.floats(allow_nan=False, allow_infinity=False))
    # Models are fit on tree nodes, so their ids are node ids.
    node_id = st.integers(min_value=0, max_value=2**63 - 1)
    nodes = draw(st.lists(node_id, max_size=5, unique=True))
    root = draw(node_id.filter(lambda n: n not in nodes))
    # Each node hangs from the root or from a node drawn before it.
    tax = Taxonomy(root, {n: draw(st.sampled_from([root, *nodes[:k]]))
                          for k, n in enumerate(nodes)})
    thetas = {n: draw(st.lists(weight, min_size=dim, max_size=dim)) for n in nodes}
    c = draw(st.floats(min_value=1e-3, max_value=1e3))
    values = st.sampled_from(['{"a": 1, "b": [2, 3]}', "1", "kept  as  it is"])
    headers = draw(st.dictionaries(st.sampled_from(["config", "bias", "note"]), values))
    ms = model_set_of(tax, draw(st.sampled_from(["flat", "td-lr"])), thetas, dim, c)
    ms.extra_headers = headers
    return ms, tax


@settings(max_examples=200, deadline=None)
@given(model_sets())
@example((model_set_of(Taxonomy(0, {}), "td-lr", {}, 0), Taxonomy(0, {})))  # no models
@example(flat_case({5: np.zeros(0)}, 0))  # dimensionality 0
@example(one_model(-0.0))  # dimensionality 1, the one weight never written
@example(one_model(*SPECIAL_WEIGHTS))
# around whole mask bytes and whole 64-bit words, the last weight nonzero
@example(spread_model(7))
@example(spread_model(8))
@example(spread_model(9))
@example(spread_model(63))
@example(spread_model(64))
@example(spread_model(65))
def test_model_set_round_trip_is_bitwise(case):
    ms, tax = case
    text = serialize_model_set(ms)
    back = parse_model_set(io.StringIO(text), tax)
    assert (back.mode, back.fingerprint, back.dimensionality, back.c, back.extra_headers) == (
        ms.mode, ms.fingerprint, ms.dimensionality, ms.c, ms.extra_headers)
    assert back.children == ms.children
    for parent, block in ms.blocks.items():
        # -0.0 is a zero weight: it is not written, and loads as 0.0.
        want = np.where(block.weights == 0.0, 0.0, block.weights)
        assert back.blocks[parent].weights.tobytes() == want.tobytes()
    assert serialize_model_set(back) == text


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="0123456789AQgw+/=:- x", max_size=30), max_size=3))
def test_any_model_line_loads_or_names_its_line(lines):
    # Whatever the node lines hold, the load either succeeds or raises a
    # LearnerError that names a line, or the node the tree has no use for
    # or no model of: it never fails in another way.
    text = HEAD + "".join(line + "\n" for line in lines)
    try:
        parse_model_set(io.StringIO(text), TREE)
    except LearnerError as exc:
        assert re.match(r"line \d+: |model set has (a model for node \d+, which flat prediction"
                        r" over the hierarchy never uses|no model for node [01])$", str(exc))
