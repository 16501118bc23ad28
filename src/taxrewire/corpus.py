"""Labeled sparse datasets in the classic one-line-per-instance text format.

Each line reads ``label idx:val idx:val ...`` with 1-based, strictly
increasing feature indices.  Labels are integer leaf ids of the taxonomy
the data is classified against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse as sp


class DatasetFormatError(ValueError):
    """Raised for malformed dataset text or inconsistent construction."""


# Labels are stored as int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# The largest feature index, and so the largest width: every stage
# allocates float64 vectors of the width, and numpy addresses at most
# 2^63 - 1 bytes.
MAX_WIDTH = 2**60 - 1

# Entries per bulk pass of :func:`parse_rows`: larger chunks raise the
# peak memory of a parse, smaller ones pay numpy's per-call overhead.
_PARSE_CHUNK = 4_096


@dataclass(frozen=True)
class SparseVector:
    """Sparse feature vector with 1-based strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise DatasetFormatError("indices and values must be 1-d arrays of equal length")
        if self.indices.size:
            if self.indices[0] < 1 or np.any(np.diff(self.indices) <= 0):
                raise DatasetFormatError("feature indices must be 1-based and strictly increasing")
            if np.any(self.values == 0.0):
                raise DatasetFormatError("zero-valued entries must not be stored")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.values, self.values)))

    def dot(self, other: "SparseVector") -> float:
        # Merge by index; both index arrays are sorted.
        common, ia, ib = np.intersect1d(
            self.indices, other.indices, assume_unique=True, return_indices=True
        )
        if common.size == 0:
            return 0.0
        return float(np.dot(self.values[ia], other.values[ib]))


def make_sparse(indices: Iterable[int], values: Iterable[float]) -> SparseVector:
    """Build a SparseVector from unordered entries, dropping exact zeros."""
    idx = np.asarray(list(indices), dtype=np.int64)
    val = np.asarray(list(values), dtype=np.float64)
    if idx.size:
        order = np.argsort(idx, kind="stable")
        idx, val = idx[order], val[order]
        keep = val != 0.0
        idx, val = idx[keep], val[keep]
    return SparseVector(idx, val)


class Dataset:
    """Labeled instances stored once, as one CSR matrix.

    The matrix is n x ``dimensionality`` with 0-based columns (feature
    index minus one), sorted indices in every row and no stored zeros;
    row ``i`` carries label ``labels[i]``.  ``dimensionality`` is the
    largest feature index present (or a larger explicit bound); subsets
    inherit it so train/validation halves agree on the feature space.

    The constructor is the boundary for code that builds instances one by
    one: it stacks the :class:`SparseVector` rows once.  Library
    transforms build their results from matrices directly.
    """

    def __init__(
        self,
        vectors: Sequence[SparseVector],
        labels: Sequence[int],
        dimensionality: int = 0,
    ) -> None:
        vectors = list(vectors)
        if len(vectors) != len(labels):
            raise DatasetFormatError("vectors and labels differ in length")
        nnz = np.fromiter((v.nnz for v in vectors), dtype=np.int64, count=len(vectors))
        indptr = np.concatenate(([0], np.cumsum(nnz)))
        cols = np.concatenate([v.indices - 1 for v in vectors] or [np.zeros(0, np.int64)])
        vals = np.concatenate([v.values for v in vectors] or [np.zeros(0)])
        max_idx = int(cols.max()) + 1 if cols.size else 0
        if dimensionality == 0:
            dimensionality = max_idx
        elif dimensionality < max_idx:
            raise DatasetFormatError(
                f"dimensionality {dimensionality} below max feature index {max_idx}"
            )
        self._matrix = _csr(vals, cols, indptr, dimensionality)
        self.labels = list(labels)

    @classmethod
    def _from_matrix(cls, matrix: sp.csr_matrix, labels: list[int]) -> "Dataset":
        """Wrap a CSR matrix that already holds the invariants above."""
        data = cls.__new__(cls)
        data._matrix = matrix
        data.labels = labels
        return data

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dimensionality(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def vectors(self) -> list[SparseVector]:
        """The instances as :class:`SparseVector` rows, built on each access."""
        m = self._matrix
        cols = m.indices.astype(np.int64) + 1
        vals = m.data.astype(np.float64)
        ptr = m.indptr.tolist()
        return [SparseVector(cols[s:e], vals[s:e]) for s, e in zip(ptr, ptr[1:])]

    def to_csr(self) -> sp.csr_matrix:
        """The stored matrix itself, not a copy: callers must not modify it."""
        return self._matrix

    def subset(self, indices: Sequence[int]) -> "Dataset":
        rows = np.asarray(indices, dtype=np.intp)
        return Dataset._from_matrix(
            self._matrix[rows], [self.labels[i] for i in rows.tolist()]
        )


def _csr(values, cols, indptr, dimensionality: int) -> sp.csr_matrix:
    """A CSR matrix from entries already in row order, sorted within each row."""
    return sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), np.asarray(cols, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, dimensionality),
    )


def _row_norms(m: sp.csr_matrix) -> np.ndarray:
    """``np.sqrt(np.dot(row, row))`` for every row of ``m``, bit for bit.

    Rows of equal length are gathered into one block and reduced by a
    stacked ``(1, k) @ (k, 1)`` matmul, which numpy evaluates with the
    same dot kernel as ``np.dot`` on each row.  A segmented sum would add
    in another order and change the last bits of the weights.
    """
    lengths = np.diff(m.indptr)
    out = np.zeros(m.shape[0])
    order = np.argsort(lengths, kind="stable")
    ks, starts = np.unique(lengths[order], return_index=True)
    for k, rows in zip(ks.tolist(), np.split(order, starts[1:])):
        if k:
            block = m.data[m.indptr[rows][:, None] + np.arange(k)]
            out[rows] = np.sqrt(np.matmul(block[:, None, :], block[:, :, None]).ravel())
    return out


def parse_row(lineno: int, line: str) -> tuple[int, list[int], list[float]]:
    """One ``label idx:val ...`` line as (label, 0-based columns, values).

    Errors name ``lineno``.  Zeros are returned too, to be range-checked.
    A label outside int64, or an index above ``MAX_WIDTH``, is rejected
    once the line passes every other check.
    """
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
    if not _INT64_MIN <= label <= _INT64_MAX:
        raise DatasetFormatError(f"line {lineno}: label {parts[0]!r} is out of the int64 range")
    if prev > MAX_WIDTH:
        raise DatasetFormatError(f"line {lineno}: feature index above 2^60 - 1 in {parts[-1]!r}")
    return label, cols, vals


def _chunks(
    records: Iterable[tuple[int, str]],
) -> Iterator[tuple[list[tuple[int, str]], list[list[str]]]]:
    """Runs of ``(lineno, line)`` records, and their split lines, of at most
    ``_PARSE_CHUNK`` entries; a longer line is a run of its own."""
    chunk: list[tuple[int, str]] = []
    rows: list[list[str]] = []
    size = 0
    for record in records:
        parts = record[1].split()
        if chunk and size + len(parts) - 1 > _PARSE_CHUNK:
            yield chunk, rows
            chunk, rows, size = [], [], 0
        chunk.append(record)
        rows.append(parts)
        size += len(parts) - 1
    if chunk:
        yield chunk, rows


def _bulk_parse(
    rows: list[list[str]],
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray] | None:
    """(labels, row lengths, 0-based columns, values) of split lines, or
    None if any line fails a check of :func:`parse_row`.

    The tokens go through the ``int`` and ``float`` that :func:`parse_row`
    calls, one C-level pass each, so every number is the same.
    """
    try:
        labels = list(map(int, map(operator.itemgetter(0), rows)))
    except ValueError:
        return None
    if min(labels) < _INT64_MIN or max(labels) > _INT64_MAX:
        return None
    lengths = np.fromiter(map(len, rows), np.int64, len(rows)) - 1
    entries = list(chain.from_iterable(map(operator.itemgetter(slice(1, None)), rows)))
    n = len(entries)
    if not n:
        return labels, lengths, np.zeros(0, np.int64), np.zeros(0)
    # Exactly one ':' per entry, so the fields alternate index and value.
    joined = ":".join(entries)
    if joined.count(":") != 2 * n - 1 or not all(map(operator.contains, entries, repeat(":"))):
        return None
    fields = joined.split(":")
    try:
        idx = np.fromiter(map(int, fields[0::2]), np.int64, n)
        vals = np.fromiter(map(float, fields[1::2]), np.float64, n)
    except (ValueError, OverflowError):
        return None
    prev = np.empty_like(idx)  # the index before each entry in its row, 0 at a row start
    prev[1:] = idx[:-1]
    prev[(np.cumsum(lengths) - lengths)[lengths > 0]] = 0
    if not (np.isfinite(vals).all() and (idx > prev).all() and idx.max() <= MAX_WIDTH):
        return None
    return labels, lengths, idx - 1, vals


def parse_rows(
    records: Iterable[tuple[int, str]],
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """``(lineno, line)`` records of ``label idx:val ...`` as (labels, indptr,
    0-based columns, values), zeros included.

    Accepts exactly the lines :func:`parse_row` accepts, with the same
    numbers.  Lines are parsed in bulk, in chunks of at most
    ``_PARSE_CHUNK`` entries; a chunk that fails a check goes through
    :func:`parse_row` line by line, which raises the error of its first
    bad line.
    """
    labels: list[int] = []
    # Seeded with indptr's leading 0 and empty arrays, so no rows parse too.
    lengths, cols, vals = [np.zeros(1, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for chunk, rows in _chunks(records):
        parsed = _bulk_parse(rows)
        if parsed is None:
            for lineno, line in chunk:
                parse_row(lineno, line)
            raise AssertionError(f"line {chunk[0][0]}: bulk parse refused lines parse_row accepts")
        chunk_labels, chunk_lengths, chunk_cols, chunk_vals = parsed
        labels += chunk_labels
        lengths.append(chunk_lengths)
        cols.append(chunk_cols)
        vals.append(chunk_vals)
    # One at a time, so each list of chunks is freed before the next is joined.
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return labels, np.cumsum(np.concatenate(lengths)), cols, vals


def format_row(label: int, cols: np.ndarray, values: np.ndarray) -> str:
    """Inverse of :func:`parse_row`; ``repr`` values parse back bit for bit."""
    entries = zip((cols + 1).tolist(), values.tolist())
    return " ".join([str(label), *(f"{i}:{x!r}" for i, x in entries)])


def _records(text: str) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` of the stripped lines of a dataset text that are
    neither blank nor ``#`` comments."""
    return (
        (lineno, stripped)
        for lineno, stripped in enumerate(map(str.strip, text.splitlines()), 1)
        if stripped and not stripped.startswith("#")
    )


def parse_labels(text: str) -> list[int]:
    """The labels of the lines :func:`parse_dataset` reads, in order.

    Only the first token of each line is read, and it goes through
    :func:`parse_row`'s label rule: a non-numeric label, or one outside
    int64, is rejected with its line number, as is a text with no line.
    The feature entries are not read, so they are not checked either.
    """
    labels = [parse_row(lineno, line.split(None, 1)[0])[0] for lineno, line in _records(text)]
    if not labels:
        raise DatasetFormatError("dataset is empty")
    return labels


def parse_dataset(text: str) -> Dataset:
    """Parse ``label idx:val ...`` lines; blank and ``#`` lines are skipped.

    Values must be finite, labels fit in int64 and indices be at most
    ``MAX_WIDTH``: anything else is rejected with the line number.
    Stored zeros are dropped on input so the no-zero invariant holds for
    data regardless of origin.
    """
    labels, indptr, cols, vals = parse_rows(_records(text))
    if not labels:
        raise DatasetFormatError("dataset is empty")
    # Wide enough for every index read; the width shrinks to the nonzero ones.
    matrix = _csr(vals, cols, indptr, int(np.max(cols, initial=-1)) + 1)
    matrix.eliminate_zeros()
    matrix.resize(len(labels), int(np.max(matrix.indices, initial=-1)) + 1)
    return Dataset._from_matrix(matrix, labels)


def serialize_dataset(data: Dataset) -> str:
    """Inverse of :func:`parse_dataset`; values rendered with ``repr`` round-trip bitwise."""
    m = data.to_csr()
    ptr = m.indptr.tolist()
    lines = [
        format_row(label, m.indices[s:e], m.data[s:e])
        for label, s, e in zip(data.labels, ptr, ptr[1:])
    ]
    return "\n".join(lines) + "\n"


def compute_idf(data: Dataset) -> dict[int, float]:
    """Inverse document frequency ln(N / df) per feature, from this corpus only."""
    df = np.bincount(data.to_csr().indices)
    present = np.flatnonzero(df)
    n = data.n
    return {i + 1: math.log(n / c) for i, c in zip(present.tolist(), df[present].tolist())}


def serialize_idf(idf: dict[int, float]) -> str:
    """One ``index idf`` line per feature, ascending; repr keeps floats exact."""
    return "".join(f"{i} {v!r}\n" for i, v in sorted(idf.items()))


def parse_idf(text: str) -> dict[int, float]:
    """Inverse of :func:`serialize_idf`.

    Non-finite weights, indices below 1 or outside int64 and repeated
    indices are rejected with their line number.
    """
    out: dict[int, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            if len(parts) != 2:
                raise ValueError
            index, weight = int(parts[0]), float(parts[1])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: expected 'index idf'") from None
        if not math.isfinite(weight):
            raise DatasetFormatError(f"line {lineno}: non-finite idf {parts[1]!r}")
        if index < 1:
            raise DatasetFormatError(f"line {lineno}: idf index must be at least 1, got {index}")
        if index > _INT64_MAX:
            raise DatasetFormatError(
                f"line {lineno}: idf index {parts[0]!r} is out of the int64 range"
            )
        if index in out:
            raise DatasetFormatError(f"line {lineno}: idf index {index} is listed twice")
        out[index] = weight
    return out


def apply_tfidf(data: Dataset, idf: dict[int, float]) -> Dataset:
    """Reweight raw counts by a fixed idf table, then l2-normalize each instance.

    Features absent from the table (unseen at idf time) are dropped, as are
    features whose idf is 0 (present in every document).  All-zero vectors
    are left empty rather than normalized.
    """
    m = data.to_csr()
    dim = m.shape[1]
    weights = np.zeros(dim)
    keys = np.fromiter(idf, dtype=np.int64, count=len(idf))
    inside = (keys >= 1) & (keys <= dim)
    weights[keys[inside] - 1] = np.fromiter(idf.values(), dtype=np.float64, count=len(idf))[inside]
    out = sp.csr_matrix(
        (m.data * weights[m.indices], m.indices.copy(), m.indptr.copy()), shape=m.shape
    )
    out.eliminate_zeros()
    norms = _row_norms(out)
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    out.data *= np.repeat(scale, np.diff(out.indptr))
    out.eliminate_zeros()
    return Dataset._from_matrix(out, list(data.labels))


def tfidf_normalize(data: Dataset) -> Dataset:
    """tf-idf weight a corpus against itself and l2-normalize the rows."""
    return apply_tfidf(data, compute_idf(data))


def split_train_validation(
    data: Dataset, ratio: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle, then an exact head/tail split of the row positions.

    Returns the (train, validation) positions of ``data``'s rows, each in
    shuffled order; the training part gets ``ceil(ratio * n)`` of them.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    if data.n < 2:
        raise DatasetFormatError("need at least 2 instances to split")
    perm = np.random.default_rng(seed).permutation(data.n)
    n_train = math.ceil(ratio * data.n)
    return perm[:n_train], perm[n_train:]


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    if a.dimensionality != b.dimensionality:
        raise DatasetFormatError("cannot concatenate datasets of different dimensionality")
    return Dataset._from_matrix(
        sp.vstack([a.to_csr(), b.to_csr()], format="csr"), a.labels + b.labels
    )


def with_constant_feature(data: Dataset, index: int) -> Dataset:
    """Append a constant 1.0 feature at ``index`` to every instance.

    Used for optional intercept handling: training appends the column one
    past the data's dimensionality, prediction appends it at the model's
    last column.  Entries at or beyond ``index`` are dropped first, which
    for test data also discards features the model never saw.
    """
    if index < 1:
        raise DatasetFormatError(f"feature index must be >= 1, got {index}")
    m = data.to_csr()
    n = data.n
    keep = m.indices < index - 1
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(m.indptr))[keep], np.arange(n)])
    # A stable sort by row puts each row's constant after its kept entries.
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([m.indices[keep], np.full(n, index - 1)])[order]
    vals = np.concatenate([m.data[keep], np.ones(n)])[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return Dataset._from_matrix(_csr(vals, cols, indptr, index), list(data.labels))
