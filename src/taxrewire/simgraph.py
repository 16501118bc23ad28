"""Class-centroid similarity: scoring, ranking, and threshold selection.

The similar-pair list drives the taxonomy rewiring stage.  Every leaf
class is summarized by its centroid (mean of its training vectors), all
leaf pairs are scored by cosine similarity, and a pair survives either a
similarity threshold or a top-k cut.  When no threshold is known up
front, the knee of the sorted similarity curve suggests one.

Every pair list is a :class:`SimilarPairSet`: three numpy arrays of
pairs in descending score order, plus the threshold they passed.  The
knee needs the whole curve, so it reads the set of every pair, sorted
once.  A threshold or top-k cut selects while scoring and holds only one
score block and its candidates.  No pair becomes a Python object; only
rewiring's membership tests build a set of ``(a, b)`` tuples, on first
use.
"""

from __future__ import annotations

import io
import math
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse as sp

from .corpus import Dataset, SparseVector
from .taxonomy import numbered_lines, parse_id


class SimilarityError(ValueError):
    """Raised for invalid similarity inputs or selection parameters.

    ``row`` is the index of the first row that breaks a row rule of
    :class:`SimilarPairSet`, and None for every other error.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class SimilarPairSet:
    """Scored class pairs as three parallel arrays, plus the threshold they passed.

    Row ``i`` is the pair ``(a[i], b[i])`` with cosine ``score[i]``.  A
    full score table (:func:`all_pairs_scores`) and a selection are both
    one.  The rows are checked on construction, in this order: ``a < b``,
    scores in [-1, 1], descending score order, and every score at least
    ``tau``; the first row that breaks a rule is the error's ``row``.
    ``len()`` is the pair count.  Membership tests normalize pair
    orientation, so ``(a, b)`` and ``(b, a)`` are the same pair; the
    first test builds the set of member tuples.
    """

    a: np.ndarray
    b: np.ndarray
    score: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        a, b = np.asarray(self.a), np.asarray(self.b)
        score, tau = np.asarray(self.score, dtype=np.float64), float(self.tau)
        for name, value in (("a", a), ("b", b), ("score", score), ("tau", tau)):
            object.__setattr__(self, name, value)
        if a.ndim != 1 or not a.shape == b.shape == score.shape:
            raise SimilarityError("a, b and score must be 1-d arrays of equal length")
        _require(a >= b, lambda i: f"pair must satisfy a < b, got ({a[i]}, {b[i]})")
        _require(~((score >= -1.0) & (score <= 1.0)),
                 lambda i: f"cosine score out of range: {score[i]}")
        _require(np.concatenate(([False], score[1:] > score[:-1])),
                 lambda i: f"pairs must be sorted by descending score, "
                           f"got {score[i]} after {score[i - 1]}")
        _require(score < tau, lambda i: f"every stored score must be >= tau {tau}, got {score[i]}")

    def __len__(self) -> int:
        return int(self.score.size)

    @cached_property
    def _members(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.a.tolist(), self.b.tolist()))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        if a > b:
            a, b = b, a
        return (a, b) in self._members


def _require(broken: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``SimilarityError(message(i), i)`` for the first row ``i`` that is ``broken``."""
    bad = np.flatnonzero(broken)
    if bad.size:
        i = int(bad[0])
        raise SimilarityError(message(i), i)


def cosine(u: SparseVector, v: SparseVector) -> float:
    """Cosine similarity; 0.0 whenever either vector has zero norm."""
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return u.dot(v) / (nu * nv)


def class_centroids(data: Dataset, leaves: Iterable[int]) -> Dataset:
    """Mean training vector per leaf class, one row per class, labels ascending.

    Leaves with no instances cannot be scored; they are excluded with a
    warning rather than silently producing zero centroids.  Each sum is
    taken in instance order and divided by the class count, so a centroid
    is exactly what summing its rows one by one and dividing gives.
    """
    wanted = set(leaves)
    labels = np.asarray(data.labels, dtype=np.int64)
    ids = np.asarray(sorted(wanted.intersection(labels.tolist())), dtype=np.int64)
    missing = sorted(wanted.difference(ids.tolist()))
    if missing:
        warnings.warn(
            f"{len(missing)} leaf classes have no training instances and are "
            f"excluded from pairing: {missing[:10]}",
            stacklevel=2,
        )
    members = np.flatnonzero(np.isin(labels, ids))
    group = np.searchsorted(ids, labels[members])
    counts = np.bincount(group, minlength=ids.size)
    # One row per class selecting its instances in instance order.
    indicator = sp.csr_matrix(
        (np.ones(members.size), members[np.argsort(group, kind="stable")],
         np.concatenate(([0], np.cumsum(counts)))),
        shape=(ids.size, data.n),
    )
    sums = (indicator @ data.to_csr()).tocsr()
    sums.sort_indices()
    sums.data /= np.repeat(counts, np.diff(sums.indptr))
    sums.eliminate_zeros()
    return Dataset._from_matrix(sums, ids.tolist())


# Ranked pairs whose classes all_pairs_scores names at once.
_PAIR_CHUNK = 1 << 16


def all_pairs_scores(centroids: Dataset) -> SimilarPairSet:
    """Cosine score for every unordered class pair, as a sorted :class:`SimilarPairSet`.

    ``centroids`` has the strictly ascending labels of :func:`class_centroids`.
    Order: descending score, ties by (a, b) ascending.  The scores come
    from :func:`_score_blocks`, one row block at a time, so a pair with a
    zero-norm centroid scores 0.0 and every score lies in [-1, 1]; the
    set's threshold is the lowest score, so it keeps every pair.  Pairs
    are numbered in (a, b) order and scored into one vector by number;
    a pair's classes are computed from its number only once the vector
    is ranked, ``_PAIR_CHUNK`` ranks at a time.  Besides a score block,
    the peak is about 27 bytes per pair: the scores, before and after
    ranking, and the pair numbers in rank order, which become ``b``;
    then ``a``, and a row per pair in the smallest unsigned dtype that
    holds n - 1 (2 bytes up to 65,536 classes).
    """
    labels = _pair_labels(centroids)
    n = labels.size
    scores = np.empty(n * (n - 1) // 2)
    filled = 0
    for start, block in _score_blocks(centroids):
        # Row i's entries right of the diagonal are the next n - 1 - i pairs.
        for i, row in enumerate(block, start):
            scores[filled:filled + n - 1 - i] = row[i + 1:]
            filled += n - 1 - i
    del block, row  # the last block would otherwise live on through the ranking
    # Pair numbers are in (a, b) order, so a stable ranking leaves ties in it.
    order = _rank_descending(scores)
    score = scores[order]
    del scores
    rows = np.arange(n)
    firsts = _row_firsts(n)
    row_of = np.repeat(rows.astype(np.min_scalar_type(n - 1)), n - 1 - rows)
    col_shift = rows + 1 - firsts  # pair k of row i is (i, k + col_shift[i])
    a = np.empty_like(order)
    for start in range(0, order.size, _PAIR_CHUNK):
        k = order[start:start + _PAIR_CHUNK]  # a view: b is written over the numbers it reads
        i = row_of[k]
        a[start:start + k.size] = labels[i]
        k += col_shift[i]
        k[:] = labels[k]
    del row_of  # the set's row checks need its room
    return SimilarPairSet(a, order, score, score[-1])


def _pair_labels(centroids: Dataset) -> np.ndarray:
    """The centroid labels as int64, checked to name at least one pair in ascending order."""
    labels = np.asarray(centroids.labels, dtype=np.int64)
    if labels.size < 2:
        raise SimilarityError("need at least 2 class centroids to form pairs")
    if np.any(labels[1:] <= labels[:-1]):
        raise SimilarityError("centroid labels must be strictly ascending")
    return labels


def _row_firsts(n: int) -> np.ndarray:
    """Pair numbers in (a, b) order: row i holds the n - 1 - i pairs numbered from ``firsts[i]``."""
    rows = np.arange(n)
    return rows * (2 * n - 1 - rows) // 2


def _unit_centroids(centroids: Dataset) -> sp.csr_matrix:
    """The centroid rows scaled to unit norm.

    A row whose norm is zero, or underflows to zero, is scaled by 0, so
    every product with it is a ±0 and every Gram entry it takes part in
    sums to +0.0: a zero-norm centroid scores 0.  Every row keeps its
    columns in descending order, the order the ``sp.diags(...) @ mat``
    product writes; sorting them would change which way a score sums,
    and so its last bits.  Entry (i, j) of ``unit @ unit.T`` sums over
    row i's features in that order, and :func:`_score_blocks` sums it
    over row j's: the same order.
    """
    mat = centroids.to_csr()
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return (sp.diags(scale) @ mat).tocsr()


# Dense floats held at once by _score_blocks, in its operand and in its block.
_GRAM_BLOCK_ENTRIES = 1 << 22


def _score_blocks(centroids: Dataset) -> Iterator[tuple[int, np.ndarray]]:
    """Cosine scores of all centroid pairs, one block of rows at a time: ``(start, block)``.

    ``block`` is rows ``start:start + len(block)`` of the unit-centroid
    Gram ``unit @ unit.T`` (see :func:`_unit_centroids`), clipped to
    [-1, 1], a fresh float array the caller may change.  It is the
    transpose of a CSR × dense product with ``unit[start:stop].T`` made
    dense, so its columns, not its rows, are contiguous.  The product
    adds the same products in the same order as the sparse
    ``unit @ unit.T``; each column of the dense operand also adds a ±0
    product per feature its row lacks, and a sum that starts at +0.0 is
    not changed by one.  So every entry matches the sparse product bit
    for bit.  A block holds ``_GRAM_BLOCK_ENTRIES // max(n, width)``
    rows, at least one, so neither it nor the dense operand outgrows the
    bound unless one row does.
    """
    unit = _unit_centroids(centroids)
    n, width = unit.shape
    step = max(1, _GRAM_BLOCK_ENTRIES // max(n, width, 1))
    for start in range(0, n, step):
        block = (unit @ unit[start:start + step].T.toarray()).T
        yield start, np.clip(block, -1.0, 1.0, out=block)


def _rank_descending(values: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(-values, kind="stable")``, from numpy's faster unstable sort.

    The unstable sort may leave a run of equal values in any order.  Only
    the ranks inside such runs are put back in index order, by numbering
    the runs and sorting ``run * n + index``; NaN counts as equal to NaN,
    as in the stable sort.  That key is below n**2, so it fits int64 up
    to n of about 3e9 values (a score table of that many pairs runs out
    of memory long before).  Besides the result it holds, one after the
    other, the negated values, the values in rank order, two bools per
    value, and three int64s per value in a run of ties.  Each temporary
    is dropped as soon as it is used.
    """
    n = values.size
    order = np.argsort(-values)
    ranked = values[order]  # equal exactly where -values is
    tie = ranked[1:] == ranked[:-1]  # rank i + 1 ties rank i
    if n and np.isnan(ranked[-1]):  # NaN sorts last: the NaN run is the tail
        tie[np.flatnonzero(np.isnan(ranked))[0]:] = True
    del ranked
    tied = np.zeros(n, dtype=bool)
    tied[:-1] = tie
    tied[1:] |= tie
    ranks = np.flatnonzero(tied)  # every rank in a run of ties, ascending
    del tied
    # A rank that does not tie the tied rank before it starts the next run.
    key = np.zeros(ranks.size, dtype=np.int64)
    np.cumsum(~tie[ranks[:-1]], out=key[1:])
    del tie
    key *= n
    key += order[ranks]
    key.sort()
    key %= n
    order[ranks] = key
    return order


def select_pairs(
    centroids: Dataset,
    tau: float | None = None,
    top_k: int | None = None,
) -> SimilarPairSet:
    """The similar pairs of ``centroids``, selected while they are scored.

    ``centroids`` is what :func:`all_pairs_scores` takes, and the result
    is the first rows of its set.  Exactly one of ``tau`` and ``top_k``
    must be given.  Threshold mode keeps scores strictly above ``tau`` and
    fails when there are none; top-k mode keeps the ``k`` best pairs and
    adopts the k-th score as the set's threshold.

    No array has an entry per pair.  Each row of a score block passes
    its pairs scoring strictly above a running cut to a buffer of
    (score, pair number), in pair-number order.  In top-k mode, a buffer
    of more than 2k entries keeps only those at or above its k-th best
    score, and the cut rises to that score: a later pair that ties it
    ranks after k pairs already held.  Ranking the buffer stably leaves
    ties in (a, b) order, as in :func:`all_pairs_scores`.  Besides a
    score block, this holds O(k) entries in top-k mode and the kept pairs
    in threshold mode.
    """
    labels = _pair_labels(centroids)
    if (tau is None) == (top_k is None):
        raise SimilarityError("exactly one of tau and top_k must be given")
    n = labels.size
    n_pairs = n * (n - 1) // 2
    if tau is not None:
        if not -1.0 <= tau <= 1.0:
            raise SimilarityError(f"tau must lie in [-1, 1], got {tau}")
        cut, limit = tau, math.inf
    else:
        if top_k < 1:
            raise SimilarityError(f"top_k must be >= 1, got {top_k}")
        if top_k > n_pairs:
            warnings.warn(
                f"top_k={top_k} exceeds the {n_pairs} available pairs; keeping all",
                stacklevel=2,
            )
        cut, limit = -math.inf, 2 * top_k  # every score beats -inf
    firsts = _row_firsts(n)
    score_parts: list[np.ndarray] = []
    number_parts: list[np.ndarray] = []
    held = 0
    top = -math.inf  # the best score, for the error text
    for start, block in _score_blocks(centroids):
        for i, row in enumerate(block[:n - 1 - start], start):
            tail = row[i + 1:]
            if not held:  # only needed while nothing has passed the cut
                top = max(top, tail.max())
            keep = np.flatnonzero(tail > cut)
            if not keep.size:
                continue
            score_parts.append(tail[keep])
            keep += firsts[i]
            number_parts.append(keep)
            held += keep.size
            if held > limit:
                score, number = np.concatenate(score_parts), np.concatenate(number_parts)
                cut = np.partition(score, held - top_k)[held - top_k]
                best = score >= cut
                score_parts, number_parts = [score[best]], [number[best]]
                held = score_parts[0].size
    if not held:  # in threshold mode only: every score beats -inf
        raise SimilarityError(f"no pair scores above tau {tau} (top score {top})")
    score, number = np.concatenate(score_parts), np.concatenate(number_parts)
    order = _rank_descending(score)[:top_k]  # all of them in threshold mode
    score, number = score[order], number[order]
    row = np.searchsorted(firsts, number, side="right") - 1
    return SimilarPairSet(labels[row], labels[number - firsts[row] + row + 1], score,
                          score[-1] if tau is None else tau)


def select_at_knee(scores: SimilarPairSet) -> SimilarPairSet:
    """Keep every pair scoring at least the knee score of :func:`auto_threshold`.

    This is the default selection.  Unlike ``select_pairs(tau=...)``, which
    is strict, it keeps the knee pair itself and any pair tied with it;
    the set's threshold is the knee score.  The set's arrays are views of
    the first rows of ``scores``.
    """
    knee = auto_threshold(scores)
    k = int(np.count_nonzero(scores.score >= knee))
    return SimilarPairSet(scores.a[:k], scores.b[:k], scores.score[:k], scores.score[k - 1])


def knee_rank(values: Sequence[float] | np.ndarray) -> int:
    """1-based rank of the knee of a descending curve.

    The knee is the point farthest above the chord joining the first and
    last points (signed perpendicular offset).  Ties resolve to the
    smallest rank.  A straight or constant curve has no knee; rank 1 is
    returned with a warning.
    """
    v = np.asarray(values, dtype=np.float64)
    m = v.size
    if m < 3:
        raise SimilarityError("need at least 3 points to locate a knee")
    if np.any(v[1:] > v[:-1]):
        raise SimilarityError("curve must be non-increasing")
    x1, y1 = 1.0, float(v[0])
    x2, y2 = float(m), float(v[-1])
    # Signed offset above the chord; scale-free in x and y jointly.
    length = math.hypot(x2 - x1, y2 - y1)
    off = ((x2 - x1) * (v - y1) - (y2 - y1) * (np.arange(1, m + 1) - x1)) / length
    # Only offsets above the chord count; argmax takes the first maximum.
    above = np.where(off > 0.0, off, 0.0)
    best = int(np.argmax(above))
    best_off = float(above[best])
    scale = max(abs(y1), abs(y2), 1e-12)
    if best_off <= 1e-12 * scale:
        warnings.warn("curve has no knee (straight or constant); using rank 1", stacklevel=2)
        return 1
    return best + 1


def auto_threshold(scores: SimilarPairSet) -> float:
    """Pick the similarity threshold at the knee of the sorted score curve.

    Returns the score at the knee rank.  Every pair scoring at least that
    value is what :func:`select_at_knee` keeps; ``select_pairs(tau=...)``
    at the returned value drops the knee pair, because it is strict.
    """
    rank = knee_rank(scores.score)
    return float(scores.score[rank - 1])


# Ranks of the sorted set that write_score_curve writes.
_CURVE_SAMPLE_ROWS = 1_024

# Rows formatted per write by write_pair_set: bounds the text and the
# per-row Python objects held in memory.
_WRITE_CHUNK_ROWS = 65_536


def write_score_curve(scores: SimilarPairSet, out: IO[str]) -> None:
    """CSV sample of a sorted pair set: rank, class ids, score (``repr``).

    No command writes it; it stays importable for callers of the API.
    Writes ``T = min(_CURVE_SAMPLE_ROWS, n)`` ranks spread evenly over
    the curve, ``1 + floor(j * (n - 1) / (T - 1))`` for ``j = 0..T-1``:
    the first and the last rank, and every rank when ``n <= T``.
    """
    n = len(scores)
    t = min(_CURVE_SAMPLE_ROWS, n)
    rows = np.arange(t, dtype=np.int64) * (n - 1) // max(t - 1, 1)  # 0-based
    lines = zip(
        (rows + 1).tolist(), scores.a[rows].tolist(),
        scores.b[rows].tolist(), scores.score[rows].tolist(),
    )
    out.write("rank,class_a,class_b,score\n")
    out.write("".join(f"{r},{a},{b},{s!r}\n" for r, a, b, s in lines))


def write_pair_set(pair_set: SimilarPairSet, out: IO[str]) -> None:
    """Text form: a ``# tau`` header, then one ``a b score`` line per pair, in chunks of rows."""
    out.write(f"# tau {pair_set.tau!r}\n")
    for start in range(0, len(pair_set), _WRITE_CHUNK_ROWS):
        part = slice(start, start + _WRITE_CHUNK_ROWS)
        rows = zip(pair_set.a[part].tolist(), pair_set.b[part].tolist(),
                   pair_set.score[part].tolist())
        out.write("".join(f"{a} {b} {s!r}\n" for a, b, s in rows))


def serialize_pair_set(pair_set: SimilarPairSet) -> str:
    """The text :func:`write_pair_set` writes, as one string."""
    buf = io.StringIO()
    write_pair_set(pair_set, buf)
    return buf.getvalue()


def parse_pair_set(text: str | Iterable[str]) -> SimilarPairSet:
    """Inverse of :func:`serialize_pair_set`.

    Each pair line names two distinct classes by their node ids (see
    :func:`~taxrewire.taxonomy.parse_id`), in either order, and a score;
    no pair may be listed twice.  The rows must keep the rules of
    :class:`SimilarPairSet`, which checks them once the whole file is
    read.  Errors name the line.  The file has at most one ``# tau``
    header; without one the last score is the threshold.
    """
    tau: float | None = None
    # Typed buffers hold every pair; only the current line's are Python objects.
    lo, hi, linenos, score = array("q"), array("q"), array("q"), array("d")
    for lineno, line in numbered_lines(text):
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "tau":
                if tau is not None:
                    raise SimilarityError(f"line {lineno}: a second '# tau' header")
                try:
                    tau = float(parts[1])
                except ValueError:
                    raise SimilarityError(f"line {lineno}: non-numeric tau {parts[1]!r}") from None
                if not -1.0 <= tau <= 1.0:
                    raise SimilarityError(f"line {lineno}: tau must lie in [-1, 1], got {parts[1]}")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SimilarityError(f"line {lineno}: expected 'a b score', got {line!r}")
        a = parse_id(parts[0], lineno, SimilarityError)
        b = parse_id(parts[1], lineno, SimilarityError)
        try:
            s = float(parts[2])
        except ValueError:
            raise SimilarityError(f"line {lineno}: malformed pair line {line!r}") from None
        if a == b:
            raise SimilarityError(f"line {lineno}: pair ({a}, {b}) names one class twice")
        lo.append(a if a < b else b)
        hi.append(b if a < b else a)
        linenos.append(lineno)
        score.append(s)
    if not score:
        raise SimilarityError("pair list is empty")
    try:
        pairs = SimilarPairSet(lo, hi, score, score[-1] if tau is None else tau)
    except SimilarityError as exc:
        if exc.row is None:
            raise
        raise SimilarityError(f"line {linenos[exc.row]}: {exc}", exc.row) from None
    # A stable sort by pair: a row equal to the one before it repeats that pair.
    order = np.lexsort((pairs.b, pairs.a))
    later = order[1:][(np.diff(pairs.a[order]) == 0) & (np.diff(pairs.b[order]) == 0)]
    if later.size:
        i = later.min()
        raise SimilarityError(f"line {linenos[i]}: pair ({lo[i]}, {hi[i]}) is listed twice")
    return pairs
