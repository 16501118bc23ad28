"""L2-regularized logistic regression over a class taxonomy.

One trainer and one descent serve both classifier layouts:

* top-down ("td-lr"): one model per non-root node, positives are the
  training instances whose label lies in the node's subtree.  Prediction
  starts at the root and repeatedly descends into the highest-scoring
  child, so each instance only evaluates the models along its path.
* flat: top-down over the one-level tree (the root with every leaf as its
  child), so one model per leaf, and prediction evaluates every leaf
  model and takes the argmax.

Objective for a node with weights theta, regularization weight C and
optional per-instance costs w_i:

    C * sum_i w_i * log(1 + exp(-y_i * theta . x_i)) + 0.5 * ||theta||^2

computed with log1p/expit-style stable primitives so huge margins never
overflow.
"""

from __future__ import annotations

import base64
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from .corpus import MAX_WIDTH, Dataset
from .solver import SolveResult, minimize_lbfgs
from .taxonomy import Taxonomy, numbered_lines, parse_id, records

DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class LearnerError(ValueError):
    """Raised for invalid training or prediction inputs."""


class FingerprintMismatchError(LearnerError):
    """Raised when a model set is applied with a different hierarchy than it was trained on."""


@dataclass
class WeightBlock:
    """The models of one parent's children: a C-contiguous (children x
    dimensionality) float64 ``weights`` array, one row per child, and each
    row's ``final_objective`` (NaN once loaded) and ``converged`` flag."""

    weights: np.ndarray
    final_objective: np.ndarray
    converged: np.ndarray


@dataclass
class ModelSet:
    """All node models of one trained classifier plus its provenance.

    ``children`` maps each parent of the tree the models were fit over
    to its children, in ``tree.children`` order, and ``blocks`` maps it
    to their :class:`WeightBlock`, the only copy of their weights.
    ``fingerprint`` identifies the hierarchy the models were trained
    against; applying the set with any other tree is refused.  ``c`` is
    the one regularization weight every node model was fit with.
    ``extra_headers`` carries auxiliary key/value pairs (e.g. pipeline
    config) through the file format untouched.
    """

    mode: str
    fingerprint: str
    dimensionality: int
    c: float
    children: dict[int, tuple[int, ...]]
    blocks: dict[int, WeightBlock]
    extra_headers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("td-lr", "flat"):
            raise LearnerError(f"unknown mode {self.mode!r}")
        if self.children.keys() != self.blocks.keys():
            raise LearnerError("children and blocks must have the same parents")
        for parent, kids in self.children.items():
            block, k = self.blocks[parent], len(kids)
            w = block.weights
            if not (w.shape == (k, self.dimensionality) and w.dtype == np.float64
                    and w.flags.c_contiguous and block.final_objective.shape == (k,)
                    and block.converged.shape == (k,)):
                raise LearnerError(f"node {parent} needs a C-contiguous float64 block of {k}"
                                   f" rows of {self.dimensionality} weights, and {k} fits")

    def slots(self) -> dict[int, tuple[WeightBlock, int]]:
        """Each model's node: its parent's block and its row in it, in node order."""
        return dict(sorted(((kid, (self.blocks[parent], i)) for parent, kids in
                            self.children.items() for i, kid in enumerate(kids)),
                           key=lambda slot: slot[0]))


def _zero_model_set(settings: tuple[str, str, int, float], tax: Taxonomy) -> ModelSet:
    """The all-zero model set of ``(mode, fingerprint, dimensionality, C)`` over ``tax``."""
    dim, children = settings[2], _layout(settings[0], tax)
    try:
        blocks = {n: WeightBlock(np.zeros((len(kids), dim)), np.full(len(kids), math.nan),
                                 np.ones(len(kids), dtype=bool)) for n, kids in children.items()}
    except ValueError:  # numpy's "array is too big", past 2^63 bytes
        raise MemoryError from None
    return ModelSet(*settings, children, blocks)


def _check_fingerprint(fingerprint: str, tax: Taxonomy) -> None:
    if tax.fingerprint() != fingerprint:
        raise FingerprintMismatchError(
            "hierarchy does not match the one the model set was trained on"
        )


def parse_costs(text: str | Iterable[str]) -> np.ndarray:
    """Per-instance positive weights, one per line; blank/# lines skipped."""
    vals = []
    for lineno, line in records(text):
        try:
            v = float(line)
        except ValueError:
            raise LearnerError(f"line {lineno}: non-numeric cost {line!r}") from None
        if not (v > 0.0 and math.isfinite(v)):
            raise LearnerError(f"line {lineno}: costs must be positive and finite")
        vals.append(v)
    if not vals:
        raise LearnerError("cost file is empty")
    return np.asarray(vals, dtype=np.float64)


class LogisticProblem:
    """The data of one binary fit, checked once, for :func:`lr_objective_gradient`.

    ``features`` is an (n, d) sparse matrix, ``labels`` an n-vector over
    {-1, +1}, ``c`` a finite positive regularization weight and ``costs``
    an optional positive, finite n-vector; None stands for uniform costs
    of 1.0, which reproduce the unweighted objective exactly.  What stays
    fixed during a fit is computed here: the transpose view ``features.T``,
    ``-labels`` and ``costs * labels``.
    """

    def __init__(
        self,
        features: sp.csr_matrix,
        labels: np.ndarray,
        c: float,
        costs: np.ndarray | None = None,
    ) -> None:
        labels = np.array(labels, dtype=np.float64)  # copies: the checks hold for the fit
        n, _ = features.shape
        if labels.shape != (n,):
            raise LearnerError(f"labels have shape {labels.shape}, expected ({n},)")
        if not np.all((labels == 1.0) | (labels == -1.0)):
            raise LearnerError("labels must be -1 or +1")
        if not (math.isfinite(c) and c > 0.0):
            raise LearnerError(f"C must be finite and positive, got {c}")
        if costs is None:
            costs = np.ones(n, dtype=np.float64)
        else:
            costs = np.array(costs, dtype=np.float64)
            if costs.shape != (n,):
                raise LearnerError(f"costs have shape {costs.shape}, expected ({n},)")
            if not np.all(np.isfinite(costs) & (costs > 0.0)):
                raise LearnerError("costs must be positive and finite")
        self.features = features
        self.labels = labels
        self.c = c
        self.costs = costs
        self._features_t = features.T
        self._neg_labels = -labels
        self._cost_labels = costs * labels


def lr_objective_gradient(theta: np.ndarray, problem: LogisticProblem) -> tuple[float, np.ndarray]:
    """Objective value and gradient of ``problem``'s regularized logistic loss at ``theta``."""
    theta = np.asarray(theta, dtype=np.float64)
    d = problem.features.shape[1]
    if theta.shape != (d,):
        raise LearnerError(f"theta has shape {theta.shape}, expected ({d},)")
    c = problem.c
    z = problem._neg_labels * (problem.features @ theta)
    losses = np.logaddexp(0.0, z)
    total = float(np.dot(problem.costs, losses))
    coeff = problem._cost_labels * expit(z)
    obj = c * total + 0.5 * float(np.dot(theta, theta))
    grad = -c * (problem._features_t @ coeff) + theta
    return obj, np.asarray(grad, dtype=np.float64)


def _binary_labels(data: Dataset, positives: frozenset[int]) -> np.ndarray:
    pos = np.fromiter(positives, dtype=np.int64, count=len(positives))
    return np.where(np.isin(np.asarray(data.labels, dtype=np.int64), pos), 1.0, -1.0)


def _check_solver_settings(cs: Iterable[float], grad_tol: float, max_iter: int) -> None:
    """Reject settings the solver would accept but cannot fit with."""
    for c in cs:
        if not (math.isfinite(c) and c > 0.0):
            raise LearnerError(f"C must be finite and positive, got {c}")
    if not (math.isfinite(grad_tol) and grad_tol >= 0.0):
        raise LearnerError(f"grad_tol must be finite and non-negative, got {grad_tol}")
    if max_iter < 1:
        raise LearnerError(f"max_iter must be at least 1, got {max_iter}")


def train_node(
    tax: Taxonomy,
    node: int,
    train: Dataset,
    c: float,
    costs: np.ndarray | None = None,
    *,
    grad_tol: float = 1e-6,
    max_iter: int = 1000,
) -> SolveResult:
    """Fit the binary model of one node: the solver's result, its weights ``x``.

    Positives are instances labeled with a leaf of the node's subtree
    (for a leaf node, the leaf itself).  A node with no positive training
    instance is still fit (all-negative) but reported with a warning.
    """
    if node not in tax:
        raise LearnerError(f"unknown node {node}")
    if node == tax.root:
        raise LearnerError("the root has no model")
    _check_solver_settings((c,), grad_tol, max_iter)
    features = train.to_csr()
    y = _binary_labels(train, tax.subtree_leaves(node))
    if not np.any(y > 0):
        warnings.warn(f"node {node} has no positive training instances", stacklevel=2)
    problem = LogisticProblem(features, y, c, costs)
    x0 = np.zeros(features.shape[1], dtype=np.float64)
    return minimize_lbfgs(
        lambda th: lr_objective_gradient(th, problem),
        x0,
        grad_tol=grad_tol,
        max_iter=max_iter,
    )


def _fit_tree(
    mode: str,
    tax: Taxonomy,
    train: Dataset,
    c: float,
    costs: np.ndarray | None,
    grad_tol: float,
    max_iter: int,
) -> ModelSet:
    """One model per non-root node of the tree ``mode`` descends, fit in node order.

    Every setting is checked before the first node is fit, and each fit
    is written into its row of its parent's block.  The labels, and a
    flat model's positives, are the same in ``tax`` as in its one-level tree.
    """
    _check_labels(tax, train)
    _check_solver_settings((c,), grad_tol, max_iter)
    model_set = _zero_model_set((mode, tax.fingerprint(), train.dimensionality, float(c)), tax)
    for node, (block, i) in model_set.slots().items():
        result = train_node(tax, node, train, c, costs, grad_tol=grad_tol, max_iter=max_iter)
        block.weights[i] = result.x
        block.final_objective[i] = result.fun
        block.converged[i] = result.converged
    return model_set


def check_leaf_labels(tax: Taxonomy, labels: Iterable[int]) -> None:
    """Reject training labels that are not leaves of ``tax``."""
    unknown = sorted(set(labels) - tax.leaves)
    if unknown:
        raise LearnerError(
            f"{len(unknown)} training labels are not leaves of the hierarchy: {unknown[:10]}"
        )


def _check_labels(tax: Taxonomy, train: Dataset) -> None:
    """Reject labels that are not leaves; warn about leaves without instances."""
    check_leaf_labels(tax, train.labels)
    empty = sorted(tax.leaves - set(train.labels))
    if empty:
        warnings.warn(
            f"{len(empty)} leaf classes have no training instances: {empty[:10]}",
            stacklevel=4,
        )


def _layout(mode: str, tax: Taxonomy) -> dict[int, tuple[int, ...]]:
    """Each parent's children in the tree ``mode`` descends: ``tax`` for td-lr, and for
    flat the one-level tree over ``tax``'s classes, every leaf a child of the root."""
    if mode == "td-lr":
        return {n: tax.children(n) for n in tax.internal_nodes}
    leaves = tuple(sorted(tax.leaves - {tax.root}))
    return {tax.root: leaves} if leaves else {}


def train_topdown(
    tax: Taxonomy,
    train: Dataset,
    c: float,
    costs: np.ndarray | None = None,
    *,
    grad_tol: float = 1e-6,
    max_iter: int = 1000,
) -> ModelSet:
    """Fit one model per non-root node for root-to-leaf prediction.

    Nodes are fit one after another in this process, in node order.  A
    training label that is not a leaf of ``tax`` raises
    :class:`LearnerError`.
    """
    return _fit_tree("td-lr", tax, train, c, costs, grad_tol, max_iter)


def train_flat(
    tax: Taxonomy,
    train: Dataset,
    c: float,
    costs: np.ndarray | None = None,
    *,
    grad_tol: float = 1e-6,
    max_iter: int = 1000,
) -> ModelSet:
    """Fit one one-vs-rest model per leaf class, ignoring internal structure.

    This is top-down training over the one-level tree (the root with every
    leaf of ``tax`` as its child); the model set keeps ``tax``'s
    fingerprint.  A training label that is not a leaf of ``tax`` raises
    :class:`LearnerError`.
    """
    return _fit_tree("flat", tax, train, c, costs, grad_tol, max_iter)


# ----------------------------------------------------------------------
# prediction


def predict_dataset(
    model_set: ModelSet, data: Dataset, tax: Taxonomy
) -> tuple[list[int], int]:
    """(leaf per instance, model evaluations in all), checking the fingerprint first.

    Prediction descends the tree the models were fit over: ``tax`` for
    top-down, its one-level tree for flat, whose parents and children must
    be the model set's, no more and no fewer.  Each instance
    starts at the root and at each level enters the highest-scoring
    child, where NaN and -inf rank lowest and ties go to the smallest id,
    so top-down only evaluates the models along one root-leaf path while
    flat evaluates every leaf model.
    Features beyond the model's dimensionality contribute nothing.
    """
    _check_fingerprint(model_set.fingerprint, tax)
    children = model_set.children
    if children != _layout(model_set.mode, tax):
        raise LearnerError(f"the model set's nodes are not those {model_set.mode} prediction"
                           " over the hierarchy descends")
    dim = model_set.dimensionality
    # Each (instance, node) pair gathers the columns of the node's weight
    # block once with ``take``, whose rows are contiguous: a dot over such a
    # row equals np.dot(theta[cols], vals) bit for bit (a strided row of
    # block[:, cols] does not).
    blocks = {n: block.weights for n, block in model_set.blocks.items()}
    x = data.to_csr()
    if x.shape[1] > dim:
        x = x[:, :dim]
    ptr = x.indptr.tolist()
    preds: list[int] = []
    total_evals = 0
    # A score that overflows to +-inf or NaN (inf - inf) still ranks, so
    # numpy's warnings about it say nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in zip(ptr, ptr[1:]):
            cols, vals = x.indices[s:e], x.data[s:e]
            node = tax.root
            while node in children:
                kids = children[node]
                total_evals += len(kids)
                best_child, best_score = kids[0], -math.inf
                for child, row in zip(kids, blocks[node].take(cols, axis=1)):
                    score = row.dot(vals)  # a numpy scalar: NaN compares false too
                    if score > best_score:
                        best_child, best_score = child, score
                node = best_child
            preds.append(node)
    return preds, total_evals


# ----------------------------------------------------------------------
# regularization tuning


@dataclass
class TuneResult:
    best_c: float
    grid: list[float]
    scores: dict[float, float]
    model_set: ModelSet
    split: tuple[int, int]


def tune_c(
    tax: Taxonomy,
    data: Dataset,
    grid: Iterable[float] = DEFAULT_C_GRID,
    mode: str = "td-lr",
    costs: np.ndarray | None = None,
    *,
    split: float = 0.9,
    seed: int = 0,
    grad_tol: float = 1e-6,
    max_iter: int = 1000,
) -> TuneResult:
    """Grid-search C on a seeded held-out part, then fit ``data`` at the winner.

    ``data`` (and ``costs``) are split by :func:`split_train_validation`;
    one classifier is trained on the training part per grid value, and
    the value with the best validation micro-F1 wins, ties going to the
    smaller C.  The returned model set is the fixed-C fit of all of
    ``data``, in its row order, at the chosen C.
    """
    # The split and the trainers are looked up at call time, so wrappers on
    # the module attributes see every call.
    from .corpus import split_train_validation
    from .metrics import micro_f1

    grid = sorted(set(float(g) for g in grid))
    if not grid:
        raise LearnerError("C grid is empty")
    _check_solver_settings(grid, grad_tol, max_iter)
    if mode == "td-lr":
        trainer = train_topdown
    elif mode == "flat":
        trainer = train_flat
    else:
        raise LearnerError(f"unknown mode {mode!r}")
    kwargs = dict(grad_tol=grad_tol, max_iter=max_iter)

    train_idx, val_idx = split_train_validation(data, split, seed)
    sizes = (len(train_idx), len(val_idx))
    if not len(val_idx):
        raise LearnerError(
            f"the tuning split of {data.n} instances at --split {split} leaves "
            f"{sizes[0]} for training and none for validation; lower --split or pass --C"
        )

    train, validation = data.subset(train_idx), data.subset(val_idx)
    train_costs = None if costs is None else costs[train_idx]
    candidates = {g: trainer(tax, train, g, train_costs, **kwargs) for g in grid}

    scores: dict[float, float] = {}
    best, best_mu = grid[0], -1.0
    for g in grid:
        preds, _ = predict_dataset(candidates[g], validation, tax)
        mu = micro_f1(list(zip(validation.labels, preds)))
        scores[g] = mu
        if mu > best_mu:
            best, best_mu = g, mu
    return TuneResult(best, grid, scores, trainer(tax, data, best, costs, **kwargs), sizes)


# ----------------------------------------------------------------------
# model set (de)serialization


def _b64(raw: bytes) -> str:
    """Standard padded base64 of ``raw``."""
    return base64.b64encode(raw).decode("ascii")


def serialize_model_set(model_set: ModelSet) -> str:
    """Text form: ``#key value`` headers, then one ``node mask weights`` line per model.

    ``mask`` is the base64 of ``np.packbits(theta != 0, bitorder="little")``:
    ceil(dimensionality / 8) bytes, bit ``j % 8`` of byte ``j // 8``
    standing for weight index ``j + 1``, the padding bits zero.
    ``weights`` is the base64 of the nonzero weights in index order as
    little-endian float64, so loading is bitwise exact.  A model with no
    nonzero weight is its node id alone.  ``#C`` is the one C every node
    model was fit with, and ``#weights mask`` names this line form.
    """
    lines = [
        f"#mode {model_set.mode}",
        f"#fingerprint {model_set.fingerprint}",
        f"#dimensionality {model_set.dimensionality}",
        f"#C {float(model_set.c)!r}",
        "#weights mask",
    ]
    for key in sorted(model_set.extra_headers):
        lines.append(f"#{key} {model_set.extra_headers[key]}")
    for node, (block, i) in model_set.slots().items():
        theta = block.weights[i]
        nonzero = theta != 0
        if nonzero.any():
            mask = np.packbits(nonzero, bitorder="little").tobytes()
            weights = theta[nonzero].astype("<f8", copy=False).tobytes()
            lines.append(f"{node} {_b64(mask)} {_b64(weights)}")
        else:
            lines.append(str(node))
    lines.append("")  # the final newline, without a second copy of the joined text
    return "\n".join(lines)


def _b64decode(lineno: int, token: str) -> bytes:
    try:
        return base64.b64decode(token, validate=True)
    except ValueError:
        raise LearnerError(f"line {lineno}: malformed token: not base64") from None


def _model_settings(headers: dict[str, str], tax: Taxonomy) -> tuple[str, str, int, float]:
    """Mode, fingerprint, dimensionality and C of a model file's headers, checked.

    The four and ``#weights`` are popped from ``headers``; the rest are the
    extra headers.  A fingerprint other than ``tax``'s is checked last.
    """
    for required in ("mode", "fingerprint", "dimensionality", "C"):
        if required not in headers:
            raise LearnerError(f"model file is missing the {required!r} header")
    mode = headers.pop("mode")
    fingerprint = headers.pop("fingerprint")
    try:
        dim = int(headers.pop("dimensionality"))
    except ValueError:
        raise LearnerError("dimensionality header is not an integer") from None
    if dim < 0:
        raise LearnerError(f"dimensionality header must not be negative, got {dim}")
    if dim > MAX_WIDTH:
        raise LearnerError(f"dimensionality header must be at most 2^60 - 1, got {dim}")
    c_text = headers.pop("C")
    try:
        c = float(c_text)
    except ValueError:
        raise LearnerError(f"the C header is not a number: {c_text!r}; retrain the model") from None
    if not (math.isfinite(c) and c > 0.0):
        raise LearnerError(f"C must be finite and positive, got the C header {c_text!r}")
    headers.pop("weights", None)  # parse_model_set checks it at the first model line
    _check_fingerprint(fingerprint, tax)
    return mode, fingerprint, dim, c


def _model_line(lineno: int, record: str, dim: int) -> tuple[int, np.ndarray | None,
                                                              np.ndarray | None]:
    """The node, nonzero bitmap and nonzero weights of the model line ``record``, checked.

    A line that is its node alone has no bitmap (None) and no weights.
    """
    if ":" in record:
        raise LearnerError(f"line {lineno}: an old 'idx:weight' model line; retrain the model")
    node_text, *codes = record.split()
    node = parse_id(node_text, lineno, LearnerError)
    if len(codes) not in (0, 2):
        raise LearnerError(f"line {lineno}: expected 'node mask weights', "
                           f"got {len(codes) + 1} tokens")
    if not codes:
        return node, None, None
    mask, n_bytes = _b64decode(lineno, codes[0]), (dim + 7) // 8
    if len(mask) != n_bytes:
        raise LearnerError(
            f"line {lineno}: the mask has {len(mask)} bytes, but #dimensionality {dim} needs "
            f"{n_bytes}; the line may be in the previous index form: retrain the model"
        )
    if dim % 8 and mask[-1] >> (dim % 8):
        raise LearnerError(f"line {lineno}: a mask bit past #dimensionality {dim} is set")
    raw = _b64decode(lineno, codes[1])
    if len(raw) % 8:
        raise LearnerError(f"line {lineno}: malformed token: the weights are not whole "
                           "8-byte values")
    weights = np.frombuffer(raw, "<f8")
    bits = np.unpackbits(np.frombuffer(mask, np.uint8), count=dim, bitorder="little").view(bool)
    n_set = np.count_nonzero(bits)
    if n_set != weights.size:
        raise LearnerError(f"line {lineno}: the mask sets {n_set} bits but there are "
                           f"{weights.size} weights")
    if not np.isfinite(weights).all():
        raise LearnerError(f"line {lineno}: non-finite weight")
    return node, bits, weights


def parse_model_set(lines: str | Iterable[str], tax: Taxonomy) -> ModelSet:
    """Inverse of :func:`serialize_model_set` for models trained on ``tax``, read a line at a time.

    ``lines`` is a text or an iterable of lines, such as an open model file.
    Headers, ``#weights mask`` among them, come before the first model
    line, which raises :class:`FingerprintMismatchError` if they name a
    tree other than ``tax``; a ``#`` line after it is rejected.  Each model
    line is decoded into its row of its parent's block, allocated once the
    first mask has matched ``#dimensionality``.  Loaded models carry no
    objective value and are marked converged.  A model line that breaks
    the format, one in an older form, or one whose node is not a node id
    or is listed twice raises :class:`LearnerError` naming it; so do, with
    no line, a model for a node that prediction over ``tax`` never uses
    and a node with no model.
    """
    headers: dict[str, str] = {}
    settings: tuple[str, str, int, float] | None = None
    model_set: ModelSet | None = None
    slots: dict[int, tuple[WeightBlock, int]] = {}  # the rows not read yet
    done: set[int] = set()
    for lineno, line in numbered_lines(lines):
        if line.startswith("#"):
            if settings is not None:
                raise LearnerError(f"line {lineno}: a '#' header after the first model line;"
                                   " headers come first")
            key, _, value = line[1:].partition(" ")
            headers[key] = value
            continue
        if settings is None:
            if headers.get("weights") != "mask":
                raise LearnerError(f"line {lineno}: no '#weights mask' header; the file may be in "
                                   "the previous index form: retrain the model")
            settings = _model_settings(headers, tax)
        node, bits, weights = _model_line(lineno, line, settings[2])  # at #dimensionality
        if model_set is None:  # once the mask has matched #dimensionality
            model_set = _zero_model_set(settings, tax)
            slots = model_set.slots()
        if node in done:
            raise LearnerError(f"line {lineno}: duplicate model for node {node}")
        if node not in slots:
            raise LearnerError(f"model set has a model for node {node}, which {settings[0]}"
                               " prediction over the hierarchy never uses")
        block, i = slots.pop(node)
        done.add(node)
        if bits is not None:
            block.weights[i][bits] = weights
    if model_set is None:  # no model line
        model_set = _zero_model_set(_model_settings(headers, tax), tax)
        slots = model_set.slots()
    if slots:
        raise LearnerError(f"model set has no model for node {min(slots)}")
    model_set.extra_headers = headers
    return model_set
