"""Labeled sparse datasets in the classic one-line-per-instance text format.

Each line reads ``label idx:val idx:val ...`` with 1-based, strictly
increasing feature indices.  Labels are integer leaf ids of the taxonomy
the data is classified against.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse as sp


class DatasetFormatError(ValueError):
    """Raised for malformed dataset text or inconsistent construction."""


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

    def scaled(self, alpha: float) -> "SparseVector":
        if alpha == 0.0:
            return make_sparse([], [])
        return SparseVector(self.indices, self.values * alpha)


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


@dataclass
class Dataset:
    """A list of sparse instances with integer labels.

    ``dimensionality`` is the largest feature index present (or a larger
    explicit bound); subsets inherit it so train/validation halves agree
    on the feature space.
    """

    vectors: list[SparseVector]
    labels: list[int]
    dimensionality: int = 0

    def __post_init__(self) -> None:
        if len(self.vectors) != len(self.labels):
            raise DatasetFormatError("vectors and labels differ in length")
        max_idx = max((int(v.indices[-1]) for v in self.vectors if v.nnz), default=0)
        if self.dimensionality == 0:
            self.dimensionality = max_idx
        elif self.dimensionality < max_idx:
            raise DatasetFormatError(
                f"dimensionality {self.dimensionality} below max feature index {max_idx}"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def label_counts(self) -> dict[int, int]:
        return dict(Counter(self.labels))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset(
            [self.vectors[i] for i in indices],
            [self.labels[i] for i in indices],
            self.dimensionality,
        )

    def to_csr(self, dimensionality: int | None = None) -> sp.csr_matrix:
        """Instances as a CSR matrix with 0-based columns."""
        dim = self.dimensionality if dimensionality is None else dimensionality
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for i, v in enumerate(self.vectors):
            indptr[i + 1] = indptr[i] + v.nnz
        if self.n:
            indices = np.concatenate([v.indices - 1 for v in self.vectors])
            data = np.concatenate([v.values for v in self.vectors])
        else:
            indices = np.array([], dtype=np.int64)
            data = np.array([], dtype=np.float64)
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, dim))


def parse_dataset(text: str) -> Dataset:
    """Parse ``label idx:val ...`` lines; blank and ``#`` lines are skipped.

    Values must be finite: ``nan`` and ``inf`` are rejected with the line
    number.  Stored zeros are dropped on input so the no-zero invariant
    holds for data regardless of origin.
    """
    vectors: list[SparseVector] = []
    labels: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            label = int(parts[0])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric label {parts[0]!r}") from None
        idx: list[int] = []
        val: list[float] = []
        prev = 0
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
            if v != 0.0:
                idx.append(i)
                val.append(v)
        vectors.append(SparseVector(np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.float64)))
        labels.append(label)
    if not vectors:
        raise DatasetFormatError("dataset is empty")
    return Dataset(vectors, labels)


def serialize_dataset(data: Dataset) -> str:
    """Inverse of :func:`parse_dataset`; values rendered with ``repr`` round-trip bitwise."""
    lines = []
    for v, label in zip(data.vectors, data.labels):
        entries = " ".join(f"{int(i)}:{float(x)!r}" for i, x in zip(v.indices, v.values))
        lines.append(f"{label} {entries}".rstrip())
    return "\n".join(lines) + "\n"


def compute_idf(data: Dataset) -> dict[int, float]:
    """Inverse document frequency ln(N / df) per feature, from this corpus only."""
    df: Counter[int] = Counter()
    for v in data.vectors:
        df.update(int(i) for i in v.indices)
    n = data.n
    return {i: math.log(n / c) for i, c in sorted(df.items())}


def serialize_idf(idf: dict[int, float]) -> str:
    """One ``index idf`` line per feature, ascending; repr keeps floats exact."""
    return "".join(f"{i} {v!r}\n" for i, v in sorted(idf.items()))


def parse_idf(text: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            if len(parts) != 2:
                raise ValueError
            out[int(parts[0])] = float(parts[1])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: expected 'index idf'") from None
    return out


def apply_tfidf(data: Dataset, idf: dict[int, float]) -> Dataset:
    """Reweight raw counts by a fixed idf table, then l2-normalize each instance.

    Features absent from the table (unseen at idf time) are dropped, as are
    features whose idf is 0 (present in every document).  All-zero vectors
    are left empty rather than normalized.
    """
    out: list[SparseVector] = []
    for v in data.vectors:
        idx: list[int] = []
        val: list[float] = []
        for i, x in zip(v.indices, v.values):
            w = idf.get(int(i))
            if w is None or w == 0.0:
                continue
            idx.append(int(i))
            val.append(float(x) * w)
        sv = make_sparse(idx, val)
        nrm = sv.norm()
        if nrm > 0.0:
            sv = sv.scaled(1.0 / nrm)
        out.append(sv)
    return Dataset(out, list(data.labels), data.dimensionality)


def tfidf_normalize(data: Dataset) -> Dataset:
    """tf-idf weight a corpus against itself and l2-normalize the rows."""
    return apply_tfidf(data, compute_idf(data))


def split_train_validation(
    data: Dataset, ratio: float, seed: int, return_indices: bool = False
):
    """Seeded uniform shuffle, then an exact head/tail split.

    The training part gets ``ceil(ratio * n)`` instances.  Instances keep
    the shuffled order inside each part.  With ``return_indices`` the
    original positions of each part are returned as well, so per-instance
    side data (e.g. costs) can be sliced consistently.
    """
    if not 0.0 < ratio < 1.0:
        raise DatasetFormatError(f"split ratio must be in (0, 1), got {ratio}")
    if data.n < 2:
        raise DatasetFormatError("need at least 2 instances to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    n_train = math.ceil(ratio * data.n)
    train_idx = [int(i) for i in perm[:n_train]]
    val_idx = [int(i) for i in perm[n_train:]]
    train, val = data.subset(train_idx), data.subset(val_idx)
    if not val_idx:
        warnings.warn("validation part is empty at this ratio", stacklevel=2)
    if return_indices:
        return train, val, train_idx, val_idx
    return train, val


def concat_datasets(a: Dataset, b: Dataset) -> Dataset:
    if a.dimensionality != b.dimensionality:
        raise DatasetFormatError("cannot concatenate datasets of different dimensionality")
    return Dataset(a.vectors + b.vectors, a.labels + b.labels, a.dimensionality)


def with_constant_feature(data: Dataset, index: int) -> Dataset:
    """Append a constant 1.0 feature at ``index`` to every instance.

    Used for optional intercept handling: training appends the column one
    past the data's dimensionality, prediction appends it at the model's
    last column.  Entries at or beyond ``index`` are dropped first, which
    for test data also discards features the model never saw.
    """
    if index < 1:
        raise DatasetFormatError(f"feature index must be >= 1, got {index}")
    out = []
    for v in data.vectors:
        keep = v.indices < index
        idx = np.append(v.indices[keep], np.int64(index))
        val = np.append(v.values[keep], 1.0)
        out.append(SparseVector(idx, val))
    return Dataset(out, list(data.labels), index)
