"""Brute-force reference implementations the tests check against.

Everything here is written from the definitions, independently of the
package code: different traversals, different accumulation order, no
shared helpers.  Where a package function and its reference agree
exactly, both would have to be wrong in the same way for a bug to slip
through.
"""

import csv
import math

import numpy as np
from scipy import sparse as sp


def fd_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function, one axis at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


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

    Same CSR build, norms, scaling and sparse product ``unit[rows] @ unit.T``
    as the package, so every score must match bit for bit; then one Python
    entry per pair, a zero-norm test and clip per pair, and a sort with a
    Python key.  Returns ``(a, b, score)`` tuples, best first.
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


def round_by_round_delete_sweep(tax, class_leaves):
    """Delete childless non-root non-class nodes in rounds over the whole tree.

    Each round rescans every node and removes the doomed ones in ascending
    id order through the copy-returning edit.  Returns the tree and the
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
            tax = tax.remove_childless(node)


def round_by_round_collapse(tax, class_leaves=None):
    """Splice the smallest single-child non-root non-class node until none is left.

    Every round rescans the whole tree.  Returns the tree and the
    ``(node, child, parent)`` of every splice.
    """
    keep = frozenset(class_leaves) if class_leaves is not None else tax.leaves
    ops = []
    while True:
        chained = sorted(
            n for n in tax.nodes
            if n != tax.root and n not in keep and len(tax.children(n)) == 1
        )
        if not chained:
            return tax, ops
        node = chained[0]
        child, parent = tax.children(node)[0], tax.parent(node)
        ops.append((node, child, parent))
        tax = tax.reparent(child, parent).remove_childless(node)
