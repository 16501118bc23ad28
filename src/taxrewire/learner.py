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
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse as sp
from scipy.special import expit

from .corpus import MAX_WIDTH, Dataset
from .solver import minimize_lbfgs
from .taxonomy import Taxonomy

DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class LearnerError(ValueError):
    """Raised for invalid training or prediction inputs."""


class FingerprintMismatchError(LearnerError):
    """Raised when a model set is applied with a different hierarchy than it was trained on."""


@dataclass
class NodeModel:
    """Binary one-vs-rest model attached to one taxonomy node."""

    node: int
    theta: np.ndarray
    c_used: float
    final_objective: float = math.nan
    converged: bool = True


@dataclass
class ModelSet:
    """All node models of one trained classifier plus its provenance.

    ``fingerprint`` identifies the hierarchy the models were trained
    against; applying the set with any other tree is refused.  ``c`` is a
    single float, or a node -> float mapping when tuned per node.
    ``extra_headers`` carries auxiliary key/value pairs (e.g. pipeline
    config) through the file format untouched.
    """

    mode: str
    fingerprint: str
    dimensionality: int
    c: float | dict[int, float]
    models: dict[int, NodeModel] = field(default_factory=dict)
    extra_headers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("td-lr", "flat"):
            raise LearnerError(f"unknown mode {self.mode!r}")


def parse_costs(text: str) -> np.ndarray:
    """Per-instance positive weights, one per line; blank/# lines skipped."""
    vals = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            v = float(stripped)
        except ValueError:
            raise LearnerError(f"line {lineno}: non-numeric cost {stripped!r}") from None
        if not (v > 0.0 and math.isfinite(v)):
            raise LearnerError(f"line {lineno}: costs must be positive and finite")
        vals.append(v)
    if not vals:
        raise LearnerError("cost file is empty")
    return np.asarray(vals, dtype=np.float64)


def lr_objective_gradient(
    theta: np.ndarray,
    features: sp.csr_matrix,
    labels: np.ndarray,
    c: float,
    costs: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Objective value and gradient of the regularized logistic loss.

    ``features`` is an (n, d) CSR matrix, ``labels`` an n-vector over
    {-1, +1}, ``costs`` an optional positive n-vector.  Uniform costs of
    1.0 reproduce the unweighted objective exactly.
    """
    theta = np.asarray(theta, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, d = features.shape
    if theta.shape != (d,):
        raise LearnerError(f"theta has shape {theta.shape}, expected ({d},)")
    if labels.shape != (n,):
        raise LearnerError(f"labels have shape {labels.shape}, expected ({n},)")
    if not np.all((labels == 1.0) | (labels == -1.0)):
        raise LearnerError("labels must be -1 or +1")
    if c <= 0.0:
        raise LearnerError(f"C must be positive, got {c}")
    if costs is not None:
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != (n,):
            raise LearnerError(f"costs have shape {costs.shape}, expected ({n},)")
        if not np.all(costs > 0.0):
            raise LearnerError("costs must be positive")

    # One code path for both: uniform costs then reproduce the unweighted
    # objective bit for bit.
    if costs is None:
        costs = np.ones(n, dtype=np.float64)
    margins = features @ theta
    z = -labels * margins
    losses = np.logaddexp(0.0, z)
    total = float(np.dot(costs, losses))
    coeff = costs * labels * expit(z)
    obj = c * total + 0.5 * float(np.dot(theta, theta))
    grad = -c * (features.T @ coeff) + theta
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
) -> NodeModel:
    """Fit the binary model of one node.

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
    x0 = np.zeros(features.shape[1], dtype=np.float64)
    result = minimize_lbfgs(
        lambda th: lr_objective_gradient(th, features, y, c, costs),
        x0,
        grad_tol=grad_tol,
        max_iter=max_iter,
    )
    return NodeModel(
        node=node,
        theta=result.x,
        c_used=c,
        final_objective=result.fun,
        converged=result.converged,
    )


def _fit_tree(
    tree: Taxonomy,
    train: Dataset,
    c: float | Mapping[int, float],
    costs: np.ndarray | None,
    grad_tol: float,
    max_iter: int,
) -> dict[int, NodeModel]:
    """One model per non-root node of ``tree``, collected in node order.

    Every setting is checked before the first node is fit.
    """
    _check_labels(tree, train)
    nodes = tree.non_root_nodes()
    try:
        c_of = {n: c[n] if isinstance(c, Mapping) else c for n in nodes}
    except KeyError as exc:
        raise LearnerError(f"no C value for node {exc.args[0]}") from None
    _check_solver_settings(c_of.values(), grad_tol, max_iter)

    return {
        n: train_node(tree, n, train, c_of[n], costs, grad_tol=grad_tol, max_iter=max_iter)
        for n in nodes
    }


def _check_labels(tax: Taxonomy, train: Dataset) -> None:
    """Reject labels that are not leaves; warn about leaves without instances."""
    present = set(train.labels)
    unknown = sorted(present - tax.leaves)
    if unknown:
        raise LearnerError(
            f"{len(unknown)} training labels are not leaves of the hierarchy: {unknown[:10]}"
        )
    empty = sorted(tax.leaves - present)
    if empty:
        warnings.warn(
            f"{len(empty)} leaf classes have no training instances: {empty[:10]}",
            stacklevel=4,
        )


def _one_level(tax: Taxonomy) -> Taxonomy:
    """The flat hierarchy over ``tax``'s classes: every leaf a child of the root."""
    return Taxonomy(tax.root, {leaf: tax.root for leaf in tax.leaves if leaf != tax.root})


def train_topdown(
    tax: Taxonomy,
    train: Dataset,
    c: float | Mapping[int, float],
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
    models = _fit_tree(tax, train, c, costs, grad_tol, max_iter)
    c_used = dict(c) if isinstance(c, Mapping) else float(c)
    return ModelSet("td-lr", tax.fingerprint(), train.dimensionality, c_used, models)


def train_flat(
    tax: Taxonomy,
    train: Dataset,
    c: float | Mapping[int, float],
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
    models = _fit_tree(_one_level(tax), train, c, costs, grad_tol, max_iter)
    c_used = dict(c) if isinstance(c, Mapping) else float(c)
    return ModelSet("flat", tax.fingerprint(), train.dimensionality, c_used, models)


# ----------------------------------------------------------------------
# prediction

# Start of the flat descent: ids are non-negative, so -1 names no node.
_FLAT_START = -1


def _descent_map(
    model_set: ModelSet, tax: Taxonomy | None
) -> tuple[int, dict[int, tuple[int, ...]]]:
    """(start node, node -> children) of the tree prediction descends.

    Flat prediction descends one level over every model; top-down over
    ``tax``, whose every non-root node must have a model.
    """
    if model_set.mode == "flat":
        if not model_set.models:
            raise LearnerError("model set is empty")
        return _FLAT_START, {_FLAT_START: tuple(sorted(model_set.models))}
    if tax is None:
        raise LearnerError("top-down prediction requires the training hierarchy")
    missing = [n for n in tax.non_root_nodes() if n not in model_set.models]
    if missing:
        raise LearnerError(f"model set has no model for node {missing[0]}")
    return tax.root, {n: tax.children(n) for n in tax.internal_nodes}


def predict_dataset(
    model_set: ModelSet,
    data: Dataset,
    tax: Taxonomy | None = None,
    return_evals: bool = False,
):
    """Predict a leaf per instance, verifying the hierarchy fingerprint first.

    Each instance descends from the start node, at each level entering
    the highest-scoring child, where NaN and -inf rank lowest and ties go
    to the smallest id, so top-down only evaluates the models along one
    root-leaf path while flat evaluates every leaf model.  Top-down prediction requires the hierarchy; flat
    prediction only checks it when one is supplied.  Features beyond the
    model's dimensionality contribute nothing.  With ``return_evals`` the
    total number of model evaluations is returned too.
    """
    if tax is not None and tax.fingerprint() != model_set.fingerprint:
        raise FingerprintMismatchError(
            "hierarchy does not match the one the model set was trained on"
        )
    start, children = _descent_map(model_set, tax)
    dim = model_set.dimensionality
    if any(m.theta.shape != (dim,) for m in model_set.models.values()):
        raise LearnerError(f"every model must have {dim} weights")
    # One (children x dim) weight block per internal node.  Each (instance,
    # node) pair gathers its columns once with ``take``, whose rows are
    # contiguous: a dot over such a row equals np.dot(theta[cols], vals)
    # bit for bit (a strided row of block[:, cols] does not).
    blocks = {
        n: np.stack([model_set.models[k].theta for k in kids]) for n, kids in children.items()
    }
    x = data.to_csr()
    if x.shape[1] > dim:
        x = x[:, :dim]
    ptr = x.indptr.tolist()
    preds: list[int] = []
    total_evals = 0
    for s, e in zip(ptr, ptr[1:]):
        cols, vals = x.indices[s:e], x.data[s:e]
        node = start
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
    return (preds, total_evals) if return_evals else preds


# ----------------------------------------------------------------------
# regularization tuning


@dataclass
class TuneResult:
    best_c: float | dict[int, float]
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
    per_node: bool = False,
    grad_tol: float = 1e-6,
    max_iter: int = 1000,
) -> TuneResult:
    """Grid-search C on a seeded held-out part, then fit ``data`` at the winner.

    ``data`` (and ``costs``) are split by :func:`split_train_validation`;
    one classifier is trained on the training part per grid value, and
    the value with the best validation micro-F1 wins, ties going to the
    smaller C.  With ``per_node`` each node independently keeps the C
    with the best validation accuracy on its own binary task.  The
    returned model set is the fixed-C fit of all of ``data``, in its row
    order, at the chosen C (or per-node map).
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
        trainer, tree = train_topdown, tax
    elif mode == "flat":
        trainer, tree = train_flat, _one_level(tax)
    else:
        raise LearnerError(f"unknown mode {mode!r}")
    kwargs = dict(grad_tol=grad_tol, max_iter=max_iter)

    train_idx, val_idx = split_train_validation(data, split, seed)
    sizes = (len(train_idx), len(val_idx))
    if not len(val_idx):
        warnings.warn(
            "validation set is empty; falling back to C=1 without a grid search",
            stacklevel=2,
        )
        return TuneResult(1.0, grid, {}, trainer(tax, data, 1.0, costs, **kwargs), sizes)

    train, validation = data.subset(train_idx), data.subset(val_idx)
    train_costs = None if costs is None else costs[train_idx]
    candidates = {g: trainer(tax, train, g, train_costs, **kwargs) for g in grid}

    scores: dict[float, float] = {}
    best: float | dict[int, float]
    if per_node:
        features = validation.to_csr()
        best = {}
        for node in tree.non_root_nodes():
            y = _binary_labels(validation, tree.subtree_leaves(node))
            node_best, node_hits = grid[0], -1
            for g in grid:
                # Decision +1 on the boundary and above.
                margins = features @ candidates[g].models[node].theta
                hits = int(np.count_nonzero((margins >= 0.0) == (y > 0.0)))
                if hits > node_hits:
                    node_best, node_hits = g, hits
            best[node] = node_best
    else:
        best, best_mu = grid[0], -1.0
        for g in grid:
            preds = predict_dataset(candidates[g], validation, tax)
            mu = micro_f1(list(zip(validation.labels, preds)))
            scores[g] = mu
            if mu > best_mu:
                best, best_mu = g, mu
    return TuneResult(best, grid, scores, trainer(tax, data, best, costs, **kwargs), sizes)


# ----------------------------------------------------------------------
# model set (de)serialization


def _b64(values: np.ndarray, dtype: str) -> str:
    """Standard padded base64 of ``values`` as the little-endian ``dtype``."""
    return base64.b64encode(values.astype(dtype, copy=False).tobytes()).decode("ascii")


def serialize_model_set(model_set: ModelSet) -> str:
    """Text form: ``#key value`` headers, then one ``node indices weights`` line per model.

    ``indices`` is the base64 of the nonzero weights' 1-based ascending
    indices as little-endian int64, ``weights`` the base64 of their
    values as little-endian float64, so loading is bitwise exact.  A
    model with no nonzero weight is its node id alone.  The per-node C
    mapping, when present, is stored as JSON in the C header.
    """
    if isinstance(model_set.c, dict):
        c_text = json.dumps({str(k): model_set.c[k] for k in sorted(model_set.c)}, sort_keys=True)
    else:
        c_text = repr(float(model_set.c))
    lines = [
        f"#mode {model_set.mode}",
        f"#fingerprint {model_set.fingerprint}",
        f"#dimensionality {model_set.dimensionality}",
        f"#C {c_text}",
    ]
    for key in sorted(model_set.extra_headers):
        lines.append(f"#{key} {model_set.extra_headers[key]}")
    for node in sorted(model_set.models):
        theta = model_set.models[node].theta
        nz = np.flatnonzero(theta)
        lines.append(f"{node} {_b64(nz + 1, '<i8')} {_b64(theta[nz], '<f8')}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_c_header(text: str) -> float | dict[int, float]:
    """The ``#C`` header: a float, or a JSON object of node -> number."""
    try:
        if not text.startswith("{"):
            return float(text)
        c = json.loads(text)
        if all(type(v) in (int, float) for v in c.values()):
            return {int(k): float(v) for k, v in c.items()}
    except (ValueError, OverflowError):
        pass
    raise LearnerError(f"the C header is neither a number nor a JSON object of node -> number: "
                       f"{text!r}")


def _decode(lineno: int, token: str, dtype: str) -> np.ndarray:
    """The 8-byte little-endian ``dtype`` values whose base64 is ``token``."""
    try:
        raw = base64.b64decode(token, validate=True)
    except ValueError:
        raw = None
    if raw is None or len(raw) % 8:
        raise LearnerError(f"line {lineno}: malformed token: not the base64 of 8-byte values")
    return np.frombuffer(raw, dtype)


def parse_model_set(text: str) -> ModelSet:
    """Inverse of :func:`serialize_model_set`.

    Unknown headers are ignored.  Loaded models carry no objective value
    (it is not part of the format) and are marked converged.  A model
    line that breaks the format, or one in the older ``idx:weight`` text
    form, raises :class:`LearnerError` naming its line.
    """
    headers: dict[str, str] = {}
    records: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, _, value = stripped[1:].partition(" ")
            headers[key] = value
            continue
        records.append((lineno, stripped))
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
    c = _parse_c_header(headers.pop("C"))

    models: dict[int, NodeModel] = {}
    for lineno, record in records:
        if ":" in record:
            raise LearnerError(f"line {lineno}: an old 'idx:weight' model line; retrain the model")
        node_text, *codes = record.split()
        try:
            node = int(node_text)
        except ValueError:
            raise LearnerError(f"line {lineno}: non-numeric node id {node_text!r}") from None
        if not -(2**63) <= node < 2**63:
            raise LearnerError(f"line {lineno}: node id {node_text!r} is out of the int64 range")
        if len(codes) not in (0, 2):
            raise LearnerError(f"line {lineno}: expected 'node indices weights', "
                               f"got {len(codes) + 1} tokens")
        idx = _decode(lineno, codes[0], "<i8") if codes else np.zeros(0, np.int64)
        weights = _decode(lineno, codes[1], "<f8") if codes else np.zeros(0)
        if idx.size != weights.size:
            raise LearnerError(f"line {lineno}: {idx.size} indices but {weights.size} weights")
        if idx.size and (idx[0] < 1 or idx[-1] > dim or np.any(idx[1:] <= idx[:-1])):
            raise LearnerError(f"line {lineno}: weight indices must ascend strictly in 1..{dim}")
        if not np.isfinite(weights).all():
            raise LearnerError(f"line {lineno}: non-finite weight")
        if node in models:
            raise LearnerError(f"line {lineno}: duplicate model for node {node}")
        if isinstance(c, dict) and node not in c:
            raise LearnerError(f"line {lineno}: the C header has no value for node {node}")
        theta = np.zeros(dim, dtype=np.float64)
        theta[idx - 1] = weights
        node_c = c[node] if isinstance(c, dict) else c
        models[node] = NodeModel(node=node, theta=theta, c_used=node_c)
    return ModelSet(mode, fingerprint, dim, c, models, extra_headers=headers)
