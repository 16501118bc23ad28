"""Brute-force reference implementations the tests check against.

Everything here is written from the definitions, independently of the
package code: different traversals, different accumulation order, no
shared helpers.  Where a package function and its reference agree
exactly, both would have to be wrong in the same way for a bug to slip
through.
"""

import csv
import dataclasses
import json
import math
import warnings
from array import array
from collections import Counter, deque

import numpy as np
from scipy import sparse as sp

from taxrewire.corpus import Dataset, DatasetFormatError, SparseVector, make_sparse
from taxrewire.learner import LearnerError
from taxrewire.simgraph import SimilarityError, SimilarPairSet, all_pairs_scores
from taxrewire.solver import SolveResult
from taxrewire.synthbench import BenchError
from taxrewire.taxonomy import Taxonomy


def fd_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function, one axis at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


# ----------------------------------------------------------------------
# The L-BFGS solver as it was before it kept its inner products: every
# norm through np.linalg.norm, and the two-loop scaling gamma recomputed
# from the last stored pair.  The package solver must match it bit for bit.


def norm_recomputing_lbfgs(fun_grad, x0, grad_tol=1e-6, max_iter=1000, record_history=False,
                           skipped=None):
    """``minimize_lbfgs`` with each norm and gamma computed where it is used.

    ``skipped``, a list if given, receives the iteration of every pair the
    curvature guard drops while an earlier pair is stored.
    """
    c1, memory, backtrack, max_backtracks = 1e-4, 10, 0.5, 60
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g = fun_grad(x)
    g = np.asarray(g, dtype=np.float64)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise ValueError("objective is not finite at the starting point")
    g0_norm = float(np.linalg.norm(g))
    tol = grad_tol * max(1.0, g0_norm)
    history = [f] if record_history else None
    s_list, y_list, rho_list = deque(maxlen=memory), deque(maxlen=memory), deque(maxlen=memory)
    n_iter = 0
    converged = float(np.linalg.norm(g)) <= tol
    while not converged and n_iter < max_iter:
        d = norm_recomputing_two_loop(g, s_list, y_list, rho_list)
        gd = float(np.dot(g, d))
        if gd >= 0.0:
            d = -g
            gd = -float(np.dot(g, g))
        step = 1.0 if s_list else min(1.0, 1.0 / max(1.0, g0_norm))
        accepted = False
        for _ in range(max_backtracks):
            x_new = x + step * d
            f_new, g_new = fun_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + c1 * step * gd:
                accepted = True
                break
            step *= backtrack
        if not accepted:
            break
        s = x_new - x
        y = np.asarray(g_new, dtype=np.float64) - g
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
        elif s_list and skipped is not None:
            skipped.append(n_iter)
        x, f, g = x_new, f_new, np.asarray(g_new, dtype=np.float64)
        n_iter += 1
        if history is not None:
            history.append(f)
        converged = float(np.linalg.norm(g)) <= tol
    return SolveResult(x=x, fun=f, grad_norm=float(np.linalg.norm(g)), n_iter=n_iter,
                       converged=converged, history=history)


def norm_recomputing_two_loop(g, s_list, y_list, rho_list):
    """The two-loop recursion, gamma from the last stored pair's s.y / y.y."""
    q = g.copy()
    tmp = np.empty_like(q)
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= np.multiply(a, y, out=tmp)
    if s_list:
        s, y = s_list[-1], y_list[-1]
        gamma = float(np.dot(s, y)) / float(np.dot(y, y))
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += np.multiply(a - b, s, out=tmp)
    return -q


def brute_knee(values):
    """Knee rank via vertical offsets above the first-to-last chord.

    For fixed endpoints the vertical offset is a fixed positive multiple
    of the signed perpendicular offset, so the argmax (and the tie
    pattern) must match the package's chord rule exactly once the same
    positive factor is applied.
    """
    m = len(values)
    x1, y1 = 1.0, float(values[0])
    x2, y2 = float(m), float(values[-1])
    slope = (y2 - y1) / (x2 - x1)
    best_rank, best_vert = 1, 0.0
    for i, v in enumerate(values, 1):
        vert = float(v) - (y1 + slope * (i - x1))
        if vert > best_vert:
            best_rank, best_vert = i, vert
    # Same degeneracy rule as the package, restated in vertical terms:
    # signed = vert * (x2 - x1) / chord_length.
    length = math.hypot(x2 - x1, y2 - y1)
    scale = max(abs(y1), abs(y2), 1e-12)
    if best_vert * (x2 - x1) / length <= 1e-12 * scale:
        return 1
    return best_rank


def brute_cosine_pairs(centroids):
    """All unordered pair cosines via dense vectors, sorted like the package."""
    ids = sorted(centroids)
    dim = max(
        (int(v.indices.max()) for v in centroids.values() if v.nnz), default=1
    )
    dense = {}
    for label in ids:
        row = np.zeros(dim)
        v = centroids[label]
        row[v.indices - 1] = v.values
        dense[label] = row
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            na, nb = np.linalg.norm(dense[a]), np.linalg.norm(dense[b])
            s = 0.0 if na == 0.0 or nb == 0.0 else float(dense[a] @ dense[b] / (na * nb))
            out.append((a, b, max(-1.0, min(1.0, s))))
    out.sort(key=lambda t: (-t[2], t[0], t[1]))
    return out


def per_pair_scores(centroids, workers=1):
    """The per-pair scorer the score table replaced, kept as its reference.

    Same CSR build, norms and scaling as the package, and the sparse
    product ``unit[rows] @ unit.T`` that the package's blocked sparse ×
    dense Gram kernel must match bit for bit; then one Python entry per
    pair, a zero-norm test and clip per pair, and a sort with a Python
    key.  Returns ``(a, b, score)`` tuples, best first.
    """
    ids = sorted(centroids)
    dim = max((int(c.indices[-1]) for c in centroids.values() if c.nnz), default=1)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    for r, label in enumerate(ids):
        indptr[r + 1] = indptr[r] + centroids[label].nnz
    if indptr[-1]:
        col = np.concatenate([centroids[label].indices - 1 for label in ids])
        dat = np.concatenate([centroids[label].values for label in ids])
    else:
        col = np.array([], dtype=np.int64)
        dat = np.array([], dtype=np.float64)
    mat = sp.csr_matrix((dat, col, indptr), shape=(len(ids), dim))
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    scale = np.where(norms > 0.0, norms, 1.0)
    unit = (sp.diags(1.0 / scale) @ mat).tocsr()

    n = len(ids)
    step = math.ceil(n / max(1, min(workers, n)))
    out = []
    for start in range(0, n, step):
        stop = min(start + step, n)
        gram = (unit[start:stop] @ unit.T).toarray()
        for r in range(start, stop):
            zero_r = norms[r] == 0.0
            for c in range(r + 1, n):
                s = 0.0 if zero_r or norms[c] == 0.0 else float(gram[r - start, c])
                out.append((ids[r], ids[c], min(1.0, max(-1.0, s))))
    out.sort(key=lambda t: (-t[2], t[0], t[1]))
    return out


def table_select_pairs(centroids, tau=None, top_k=None):
    """The selection that cut a whole sorted score table, kept as its reference.

    Scores every pair into ``all_pairs_scores``' table, then keeps the
    scores strictly above ``tau``, or the first ``top_k`` rows with the
    k-th score as the threshold; same checks and messages.
    """
    scores = all_pairs_scores(centroids)
    if (tau is None) == (top_k is None):
        raise SimilarityError("exactly one of tau and top_k must be given")
    if tau is not None:
        if not -1.0 <= tau <= 1.0:
            raise SimilarityError(f"tau must lie in [-1, 1], got {tau}")
        k = int(np.count_nonzero(scores.score > tau))
        if not k:
            raise SimilarityError(f"no pair scores above tau {tau} (top score {scores.score[0]})")
    else:
        if top_k < 1:
            raise SimilarityError(f"top_k must be >= 1, got {top_k}")
        if top_k > len(scores):
            warnings.warn(
                f"top_k={top_k} exceeds the {len(scores)} available pairs; keeping all",
                stacklevel=2,
            )
        k = min(top_k, len(scores))
        tau = scores.score[k - 1]
    return SimilarPairSet(scores.a[:k], scores.b[:k], scores.score[:k], tau)


def csv_score_curve(pairs, out):
    """The ``csv.writer`` curve dump the one-join writer replaced."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "class_a", "class_b", "score"])
    for rank, (a, b, score) in enumerate(pairs, 1):
        writer.writerow([rank, a, b, repr(score)])


def brute_micro_f1(pairs):
    """Pooled F1 from scratch: every prediction is one retrieval decision."""
    tp = sum(1 for t, p in pairs if t == p)
    n = len(pairs)
    precision = tp / n
    recall = tp / n
    if precision + recall == 0.0:
        return 0.0
    if precision == recall:
        return precision
    return 2 * precision * recall / (precision + recall)


def brute_macro_f1(pairs, classes):
    total = 0.0
    for c in classes:
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        if prec + rec:
            total += prec if prec == rec else 2 * prec * rec / (prec + rec)
    return total / len(classes)


def without(tax, node):
    """A new tree without the childless non-root ``node``, rebuilt and validated whole."""
    return Taxonomy(tax.root, {c: tax.parent(c) for c in tax.non_root_nodes() if c != node})


def round_by_round_delete_sweep(tax, class_leaves):
    """Delete childless non-root non-class nodes in rounds over the whole tree.

    Each round rescans every node and removes the doomed ones in ascending
    id order, each into a freshly built tree.  Returns the tree and the
    ``(node, parent)`` of every deletion.
    """
    keep = frozenset(class_leaves)
    ops = []
    while True:
        doomed = sorted(
            n for n in tax.nodes if n != tax.root and tax.is_leaf(n) and n not in keep
        )
        if not doomed:
            return tax, ops
        for node in doomed:
            ops.append((node, tax.parent(node)))
            tax = without(tax, node)


def round_by_round_collapse(tax):
    """Splice the smallest single-child non-root node until none is left.

    Every round rescans the whole tree.  Returns the tree and the
    ``(node, child, parent)`` of every splice.
    """
    ops = []
    while True:
        chained = sorted(
            n for n in tax.nodes if n != tax.root and len(tax.children(n)) == 1
        )
        if not chained:
            return tax, ops
        node = chained[0]
        child, parent = tax.children(node)[0], tax.parent(node)
        ops.append((node, child, parent))
        tax = without(tax.reparent(child, parent), node)


def json_dumps_log(ops):
    """Rewire log text: ``json.dumps(record, sort_keys=True)`` of each op, one per line.

    The record is the op's name plus its dataclass fields, a tuple field
    as a JSON list.
    """
    names = {"CreateOp": "node_create", "MoveOp": "pc_rewire",
             "DeleteOp": "node_delete", "CollapseOp": "collapse"}
    lines = []
    for op in ops:
        record = {"op": names[type(op).__name__]}
        for field in dataclasses.fields(op):
            value = getattr(op, field.name)
            record[field.name] = list(value) if isinstance(value, tuple) else value
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def oracle_lca(tax: Taxonomy, a: int, b: int) -> int:
    """Reference lowest common ancestor: intersect full root paths, take the deepest.

    Deliberately naive; used by equivalence tests against the tree's own
    lockstep-walk implementation.
    """
    path_a = tax.path_to_root(a)
    path_b = set(tax.path_to_root(b))
    common = [n for n in path_a if n in path_b]
    return max(common, key=lambda n: len(tax.path_to_root(n)))


def oracle_hier_f1(pairs, tax: Taxonomy) -> float:
    """Reference ancestor-overlap F1 with ancestor lists materialized per pair."""
    if not pairs:
        raise BenchError("no pairs to score")
    overlap = 0
    n_pred = 0
    n_true = 0
    for true, pred in pairs:
        true_set = [n for n in tax.path_to_root(true) if n != tax.root]
        pred_set = [n for n in tax.path_to_root(pred) if n != tax.root]
        overlap += sum(1 for n in pred_set if n in true_set)
        n_pred += len(pred_set)
        n_true += len(true_set)
    precision = overlap / n_pred if n_pred else 0.0
    recall = overlap / n_true if n_true else 0.0
    if precision + recall == 0.0:
        return 0.0
    if precision == recall:
        return precision
    return 2.0 * precision * recall / (precision + recall)


def random_taxonomy(rng: np.random.Generator, n_nodes: int) -> Taxonomy:
    """Random rooted tree on ids 0..n_nodes-1 (0 is the root); test fodder."""
    if n_nodes < 1:
        raise BenchError("need at least one node")
    parent_of = {v: int(rng.integers(0, v)) for v in range(1, n_nodes)}
    return Taxonomy(0, parent_of)


def random_pair_set(
    rng: np.random.Generator, tax: Taxonomy, max_pairs: int | None = None
) -> SimilarPairSet:
    """Random subset of leaf pairs with random descending scores; test fodder."""
    leaves = sorted(tax.leaves)
    all_pairs = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
    rows: list[tuple[int, int, float]] = []
    if all_pairs:
        cap = len(all_pairs) if max_pairs is None else min(max_pairs, len(all_pairs))
        k = int(rng.integers(0, cap + 1))
        chosen = sorted(rng.permutation(len(all_pairs))[:k])
        scores = np.sort(rng.uniform(-1.0, 1.0, size=k))[::-1]
        rows = sorted(
            ((all_pairs[i][0], all_pairs[i][1], float(s)) for i, s in zip(chosen, scores)),
            key=lambda r: (-r[2], r[0], r[1]),
        )
    tau = rows[-1][2] if rows else 1.0
    return SimilarPairSet([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], tau)


# ----------------------------------------------------------------------
# Per-row dataset transforms: the loops the CSR-matrix versions replaced.
# Each takes and returns SparseVector rows (1-based indices).


def per_row_to_csr(vectors, dimensionality):
    """Rows stacked into a CSR matrix with 0-based columns, one row at a time."""
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        indptr[i + 1] = indptr[i] + v.nnz
    if vectors:
        indices = np.concatenate([v.indices - 1 for v in vectors])
        data = np.concatenate([v.values for v in vectors])
    else:
        indices = np.array([], dtype=np.int64)
        data = np.array([], dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(len(vectors), dimensionality))


def per_row_compute_idf(vectors):
    df = Counter()
    for v in vectors:
        df.update(int(i) for i in v.indices)
    n = len(vectors)
    return {i: math.log(n / c) for i, c in sorted(df.items())}


def per_row_apply_tfidf(vectors, idf):
    out = []
    for v in vectors:
        idx, val = [], []
        for i, x in zip(v.indices, v.values):
            w = idf.get(int(i))
            if w is None or w == 0.0:
                continue
            idx.append(int(i))
            val.append(float(x) * w)
        sv = make_sparse(idx, val)
        nrm = sv.norm()
        if nrm > 0.0:
            sv = SparseVector(sv.indices, sv.values * (1.0 / nrm))
        out.append(sv)
    return out


def per_row_with_constant_feature(vectors, index):
    out = []
    for v in vectors:
        keep = v.indices < index
        out.append(SparseVector(
            np.append(v.indices[keep], np.int64(index)), np.append(v.values[keep], 1.0)
        ))
    return out


def per_row_class_centroids(vectors, labels, leaves):
    """Per-class dict sums in instance order, each divided by the class count."""
    wanted = set(leaves)
    sums, counts = {}, {}
    for vec, label in zip(vectors, labels):
        if label not in wanted:
            continue
        acc = sums.setdefault(label, {})
        for i, x in zip(vec.indices, vec.values):
            acc[int(i)] = acc.get(int(i), 0.0) + float(x)
        counts[label] = counts.get(label, 0) + 1
    return {
        label: make_sparse(sums[label].keys(), [x / counts[label] for x in sums[label].values()])
        for label in sorted(counts)
    }


# ----------------------------------------------------------------------
# Per-instance prediction: the SparseVector loops the CSR-row descent
# replaced.


def sparse_score(theta, x):
    """theta . x for a sparse instance; features beyond the trained
    dimensionality contribute nothing."""
    if x.nnz == 0:
        return 0.0
    idx = x.indices - 1
    if int(idx[-1]) >= theta.size:
        keep = idx < theta.size
        if not np.any(keep):
            return 0.0
        return float(np.dot(theta[idx[keep]], x.values[keep]))
    return float(np.dot(theta[idx], x.values))


def _thetas(model_set):
    """Each node's weights, read from its parent's block by its position among the children."""
    return {kid: model_set.blocks[parent].weights[i]
            for parent, kids in model_set.children.items() for i, kid in enumerate(kids)}


def predict_topdown(model_set, tax, x, return_evals=False):
    """Descend from the root, at each level entering the highest-scoring child.

    Ties go to the smallest child id.  Returns the reached leaf, plus the
    number of model evaluations when ``return_evals`` is set.
    """
    if model_set.mode != "td-lr":
        raise LearnerError(f"top-down prediction needs a td-lr model set, got {model_set.mode!r}")
    thetas = _thetas(model_set)
    node = tax.root
    evals = 0
    while not tax.is_leaf(node):
        kids = tax.children(node)
        best_child, best_score = kids[0], -math.inf  # NaN and -inf rank lowest
        for child in kids:
            if child not in thetas:
                raise LearnerError(f"model set has no model for node {child}")
            score = sparse_score(thetas[child], x)
            evals += 1
            if score > best_score:
                best_child, best_score = child, score
        node = best_child
    return (node, evals) if return_evals else node


def predict_flat(model_set, x, return_evals=False):
    """Score every leaf model and return the argmax leaf (ties: smallest id)."""
    if model_set.mode != "flat":
        raise LearnerError(f"flat prediction needs a flat model set, got {model_set.mode!r}")
    thetas = _thetas(model_set)
    if not thetas:
        raise LearnerError("model set is empty")
    leaves = sorted(thetas)
    best_leaf, best_score = leaves[0], -math.inf  # NaN and -inf rank lowest
    evals = 0
    for leaf in leaves:
        score = sparse_score(thetas[leaf], x)
        evals += 1
        if score > best_score:
            best_leaf, best_score = leaf, score
    return (best_leaf, evals) if return_evals else best_leaf


def per_token_parse_row(lineno, line):
    """The per-token row parser as it was before bulk parsing."""
    parts = line.split()
    try:
        label = int(parts[0])
    except ValueError:
        raise DatasetFormatError(f"line {lineno}: non-numeric label {parts[0]!r}") from None
    cols, vals, prev = [], [], 0
    for tok in parts[1:]:
        try:
            i_str, v_str = tok.split(":", 1)
            i, v = int(i_str), float(v_str)
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: malformed entry {tok!r}") from None
        if not math.isfinite(v):
            raise DatasetFormatError(f"line {lineno}: non-finite value in {tok!r}")
        if i <= prev:
            raise DatasetFormatError(
                f"line {lineno}: feature indices must be 1-based strictly increasing"
            )
        prev = i
        cols.append(i - 1)
        vals.append(v)
    return label, cols, vals


def per_line_parse_dataset(text):
    """The dataset reader bulk parsing replaced: one row parse per line into
    typed buffers.  An index beyond int64 raises OverflowError, and a label
    beyond it is accepted."""
    labels = []
    indptr, cols, vals = array("q", [0]), array("q"), array("d")
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        label, row_cols, row_vals = per_token_parse_row(lineno, stripped)
        labels.append(label)
        cols.extend(row_cols)
        vals.extend(row_vals)
        indptr.append(len(cols))
    if not labels:
        raise DatasetFormatError("dataset is empty")
    matrix = sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), np.asarray(cols, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), int(np.max(cols, initial=-1)) + 1),
    )
    matrix.eliminate_zeros()
    matrix.resize(len(labels), int(np.max(matrix.indices, initial=-1)) + 1)
    return Dataset._from_matrix(matrix, labels)


# ----------------------------------------------------------------------
# The planted-benchmark generator one instance at a time: a reparent copy
# per misplaced leaf, one draw and one norm per row, and the separability
# check on the whole ranked score table.


def per_instance_gen_planted(config):
    """``(true_tree, corrupted_tree, data, misplaced)`` for ``config``, or the
    same BenchError the generator raises."""
    from taxrewire.simgraph import all_pairs_scores, class_centroids
    from taxrewire.synthbench import perfect_tree

    def unit(rng, dims):
        v = rng.standard_normal(dims)
        return v / np.linalg.norm(v)

    tree = perfect_tree(config.fanout, config.depth)
    leaves = sorted(tree.leaves)
    rng = np.random.default_rng(config.seed)

    directions = {node: unit(rng, config.dims) for node in tree.non_root_nodes()}
    centroids = {}
    for leaf in leaves:
        total = config.leaf_weight * directions[leaf]
        for anc in tree.ancestors(leaf):
            if anc != tree.root:
                total = total + directions[anc]
        centroids[leaf] = total / np.linalg.norm(total)

    lo, hi = config.instance_range()
    counts = {leaf: (lo if lo == hi else int(rng.integers(lo, hi + 1))) for leaf in leaves}
    rows, labels = [], []
    for leaf in leaves:
        for _ in range(counts[leaf]):
            x = centroids[leaf] + config.noise * unit(rng, config.dims)
            rows.append(x / np.linalg.norm(x))
            labels.append(leaf)
    dense = np.asarray(rows).reshape(len(labels), config.dims)
    data = Dataset._from_matrix(sp.csr_matrix(dense), labels)

    parents = sorted({tree.parent(leaf) for leaf in leaves})
    remaining = {p: sum(1 for leaf in leaves if tree.parent(leaf) == p) for p in parents}
    misplaced = {}
    corrupted = tree
    if config.n_misplaced:
        order = [leaves[i] for i in rng.permutation(len(leaves))]
        chosen = []
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
        cents = class_centroids(data, tree.leaves)
        scores = all_pairs_scores(cents)
        ids = np.asarray(cents.labels, dtype=np.int64)
        parent = np.asarray([tree.parent(int(leaf)) for leaf in ids])
        same = parent[np.searchsorted(ids, scores.a)] == parent[np.searchsorted(ids, scores.b)]
        within, cross = scores.score[same], scores.score[~same]
        if within.size and cross.size and within.min() <= cross.max():
            raise BenchError(
                f"planted groups are not separable: weakest within-group score "
                f"{within.min():.4f} <= strongest cross-group score {cross.max():.4f}"
            )
    return tree, corrupted, data, misplaced
