import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxrewire.corpus import (
    Dataset,
    DatasetFormatError,
    SparseVector,
    apply_tfidf,
    compute_idf,
    concat_datasets,
    format_row,
    make_sparse,
    parse_dataset,
    parse_idf,
    parse_labels,
    parse_row,
    parse_rows,
    serialize_dataset,
    serialize_idf,
    split_train_validation,
    tfidf_normalize,
    with_constant_feature,
)
from taxrewire import corpus
from taxrewire.simgraph import class_centroids

from conftest import traced_peak
from reference_impls import (
    per_line_parse_dataset,
    per_row_apply_tfidf,
    per_row_class_centroids,
    per_row_compute_idf,
    per_row_to_csr,
    per_row_with_constant_feature,
)


def sv(*entries):
    return make_sparse([i for i, _ in entries], [v for _, v in entries])


class TestSparseVector:
    def test_invariants_enforced(self):
        with pytest.raises(DatasetFormatError, match="1-based"):
            SparseVector(np.array([0]), np.array([1.0]))
        with pytest.raises(DatasetFormatError, match="increasing"):
            SparseVector(np.array([2, 2]), np.array([1.0, 1.0]))
        with pytest.raises(DatasetFormatError, match="zero"):
            SparseVector(np.array([1]), np.array([0.0]))
        with pytest.raises(DatasetFormatError, match="equal length"):
            SparseVector(np.array([1, 2]), np.array([1.0]))

    def test_make_sparse_sorts_and_drops_zeros(self):
        v = make_sparse([3, 1, 2], [1.0, 2.0, 0.0])
        assert list(v.indices) == [1, 3]
        assert list(v.values) == [2.0, 1.0]
        assert make_sparse([], []).nnz == 0

    def test_dot_and_norm(self):
        u = sv((1, 3.0), (2, 4.0))
        assert u.norm() == 5.0
        assert u.dot(sv((2, 2.0), (5, 9.0))) == 8.0
        assert u.dot(sv((7, 1.0))) == 0.0


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(DatasetFormatError, match="differ in length"):
            Dataset([sv((1, 1.0))], [1, 2])

    def test_dimensionality_defaults_to_max_index(self):
        data = Dataset([sv((1, 1.0)), sv((7, 2.0))], [0, 1])
        assert data.dimensionality == 7

    def test_explicit_dimensionality_below_max_rejected(self):
        with pytest.raises(DatasetFormatError, match="below max"):
            Dataset([sv((7, 2.0))], [0], dimensionality=3)

    def test_subset_keeps_dimensionality(self):
        data = Dataset([sv((1, 1.0)), sv((2, 1.0))], [0, 1], dimensionality=9)
        sub = data.subset([1])
        assert sub.dimensionality == 9
        assert sub.labels == [1]

    def test_to_csr(self):
        data = Dataset([sv((1, 1.0), (3, 2.0)), sv((2, 5.0))], [0, 1])
        m = data.to_csr()
        assert m.shape == (2, 3)
        dense = m.toarray()
        assert dense[0].tolist() == [1.0, 0.0, 2.0]
        assert dense[1].tolist() == [0.0, 5.0, 0.0]


class TestParsing:
    def test_basic_round_trip(self):
        text = "7 1:0.5 3:1.25\n2 2:1.0\n"
        data = parse_dataset(text)
        assert data.labels == [7, 2]
        assert serialize_dataset(data) == text

    def test_comments_blank_lines_and_empty_vectors(self):
        data = parse_dataset("# header\n\n3\n1 2:1.0\n")
        assert data.n == 2
        assert data.vectors[0].nnz == 0

    def test_explicit_zero_dropped(self):
        data = parse_dataset("1 1:0.0 2:3.0\n")
        assert list(data.vectors[0].indices) == [2]

    def test_zeros_dropped_across_rows(self):
        data = parse_dataset("1 1:0.0 2:3.0\n2 1:0.0\n3 4:-0.0 5:1.0\n4 2:2.0 9:0.0\n")
        m = data.to_csr()
        assert m.indptr.tolist() == [0, 1, 1, 2, 3]
        assert m.indices.tolist() == [1, 4, 1]
        assert m.data.tolist() == [3.0, 1.0, 2.0]
        assert data.dimensionality == 5  # a zero at index 9 sets no width

    def test_row_codec(self):
        label, cols, vals = parse_row(4, "12 1:0.5 3:-0.0 7:1e308")
        assert (label, cols, vals) == (12, [0, 2, 6], [0.5, -0.0, 1e308])
        assert math.copysign(1.0, vals[1]) == -1.0  # zeros come back as written
        text = format_row(12, np.array([0, 6]), np.array([0.1, 5e-324]))
        assert text == "12 1:0.1 7:5e-324"
        assert parse_row(1, text) == (12, [0, 6], [0.1, 5e-324])
        assert format_row(3, np.array([], dtype=np.int64), np.array([])) == "3"
        with pytest.raises(DatasetFormatError, match="line 4: malformed entry '2'"):
            parse_row(4, "1 1:1.0 2")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("x 1:1.0\n", "non-numeric label"),
            ("1 nope\n", "malformed entry"),
            ("1 2:1.0 1:1.0\n", "strictly increasing"),
            ("1 0:1.0\n", "strictly increasing"),
            ("1 1:nan\n", "line 1: non-finite"),
            ("1 1:1.0\n2 1:0.5 3:-inf\n", "line 2: non-finite"),
            ("", "empty"),
            # One entry with two ':' and one with none hold one ':' each on average.
            ("1 1:2:3 7\n", "line 1: malformed entry '1:2:3'"),
            ("1 2:1\n1 1:2:3\n2 7\n", "line 2: malformed entry '1:2:3'"),
            ("1 1:2.0 3\n4 5:6:7\n", "line 1: malformed entry '3'"),
            ("99999999999999999999 1:1.0\n", "line 1: label '99999999999999999999' is out"),
            ("1 1:1.0\n1 2:1.0 99999999999999999999:1.0\n",
             "line 2: feature index above 2\\^60 - 1 in '99999999999999999999:1.0'"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(DatasetFormatError, match=fragment):
            parse_dataset(text)

    def test_error_line_numbers(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset("1 1:1.0\n1 bad\n")

    @pytest.mark.parametrize("line,ok,msg", [
        ("9223372036854775807 1152921504606846975:1.0", True, ""),
        ("-9223372036854775808 1:1.0", True, ""),
        ("9223372036854775808 1:1.0", False, "int64 range"),
        ("-9223372036854775809 1:1.0", False, "int64 range"),
        ("1 1152921504606846976:1.0", False, "above 2\\^60 - 1"),
        ("1 9223372036854775807:1.0", False, "above 2\\^60 - 1"),
        ("1 9223372036854775808:1.0", False, "above 2\\^60 - 1"),
    ], ids=["max", "min", "label-above", "label-below", "index-above-width",
            "index-int64-max", "index-above-int64"])
    def test_label_and_index_bounds(self, line, ok, msg):
        # The bulk pass and parse_row agree at the edges: labels fit in
        # int64, indices are at most 2^60 - 1.
        label = int(line.split()[0])
        if ok:
            assert parse_row(3, line)[0] == label
            assert parse_rows([(3, line)])[0] == [label]
            return
        for parse in (parse_row, lambda lineno, text: parse_rows([(lineno, text)])):
            with pytest.raises(DatasetFormatError, match=f"line 3: .*{msg}"):
                parse(3, line)

    def test_parse_rows_arrays(self):
        labels, indptr, cols, vals = parse_rows(
            [(1, "4 2:0.5 7:-1"), (2, "-2"), (5, "3 1:0.0 2:1e3")]
        )
        assert labels == [4, -2, 3]
        assert indptr.tolist() == [0, 2, 2, 4]
        assert cols.tolist() == [1, 6, 0, 1]
        assert vals.tolist() == [0.5, -1.0, 0.0, 1000.0]

    def test_parse_from_a_file_holds_no_text(self, tmp_path):
        # Word counts over 6,000 features, about 2 MB of text: the whole
        # text and its line list took 4.3 times the file's bytes.
        rng = np.random.default_rng(8)
        lines = []
        for _ in range(4_000):
            cols = np.sort(rng.choice(6_000, int(rng.integers(1, 120)), replace=False))
            lines.append(format_row(int(rng.integers(64)), cols,
                                    rng.geometric(0.6, cols.size).astype(float)))
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def parse():
            with path.open(encoding="utf-8") as fh:
                return parse_dataset(fh)

        data, peak = traced_peak(parse)
        assert data.n == 4_000
        assert peak < 3.5 * path.stat().st_size

    def test_chunks_hold_at_most_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(corpus, "_PARSE_CHUNK", 3)
        sizes = [2, 1, 1, 5, 0, 0, 3]
        records = [(i, " ".join(["1", *(f"{j}:1" for j in range(1, k + 1))]))
                   for i, k in enumerate(sizes)]
        runs = [[len(parts) - 1 for parts in rows] for _, rows in corpus._chunks(records)]
        assert runs == [[2, 1], [1], [5], [0, 0, 3]]


class TestTfidf:
    def test_idf_values(self):
        # feature 1 in one of two docs, feature 2 in both
        data = parse_dataset("0 1:1.0 2:1.0\n1 2:1.0\n")
        idf = compute_idf(data)
        assert idf[1] == pytest.approx(math.log(2.0), abs=0.0)
        assert idf[2] == 0.0

    def test_apply_drops_everywhere_features_and_normalizes(self):
        data = parse_dataset("0 1:1.0 2:1.0\n1 2:1.0\n")
        weighted = tfidf_normalize(data)
        # doc 1: feature 2 has idf 0 and is dropped, feature 1 normalizes to 1.0
        assert list(weighted.vectors[0].indices) == [1]
        assert weighted.vectors[0].values[0] == 1.0
        # doc 2 loses its only feature
        assert weighted.vectors[1].nnz == 0

    def test_apply_drops_unseen_features(self):
        idf = {1: 1.0}
        out = apply_tfidf(parse_dataset("0 1:2.0 9:5.0\n"), idf)
        assert list(out.vectors[0].indices) == [1]
        assert out.vectors[0].values[0] == 1.0  # normalized

    def test_idf_round_trip(self):
        idf = {1: math.log(7.0 / 3.0), 4: 0.25}
        assert parse_idf(serialize_idf(idf)) == idf

    def test_parse_idf_error(self):
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_idf("1 2 3\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_parse_idf_rejects_non_finite(self, value):
        with pytest.raises(DatasetFormatError, match="line 2: non-finite idf"):
            parse_idf(f"1 0.5\n2 {value}\n")

    # An index is spelled by the node-id rule: int() would read 1_0, +3,
    # ٣٤ and 010 as 10, 3, 34 and 10.
    @pytest.mark.parametrize("text,msg", [
        ("1 0.5\n0 1.0\n", "line 2: idf index must be at least 1, got 0"),
        ("# idf\n-3 1.0\n", "line 2: feature index '-3' is not a decimal integer id"),
        ("1 0.5\n2 0.25\n\n2 0.75\n", "line 4: idf index 2 is listed twice"),
        ("1 0.5\n99999999999999999999 0.5\n",
         "line 2: feature index '99999999999999999999' is above 2^63 - 1"),
        ("1 0.5\n1_0 0.25\n", "line 2: feature index '1_0' is not a decimal integer id"),
        ("1 0.5\n+3 0.25\n", "line 2: feature index '+3' is not a decimal integer id"),
        ("1 0.5\n٣٤ 0.25\n", "line 2: feature index '٣٤' is not a decimal integer id"),
        ("1 0.5\n010 0.25\n", "line 2: feature index '010' is not a decimal integer id"),
    ], ids=["zero", "negative", "repeated", "beyond-int64", "underscore", "plus",
            "arabic-indic", "leading-zero"])
    def test_parse_idf_rejects_bad_index(self, text, msg):
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(msg)}$"):
            parse_idf(text)

    def test_parse_idf_reads_the_largest_index(self):
        assert parse_idf(f"1 0.5\n{2**63 - 1} 0.25\n") == {1: 0.5, 2**63 - 1: 0.25}


class TestSplit:
    def make(self, n):
        return Dataset([sv((1, float(i + 1))) for i in range(n)], list(range(n)))

    def test_sizes_ceil(self):
        train, val = split_train_validation(self.make(10), 0.9, seed=0)
        assert (len(train), len(val)) == (9, 1)
        train, val = split_train_validation(self.make(11), 0.9, seed=0)
        assert (len(train), len(val)) == (10, 1)

    def test_ratio_and_size_validation(self):
        # A bad ratio is a configuration error, not a malformed file.
        for ratio in (1.0, 0.0):
            with pytest.raises(ValueError, match="ratio") as exc:
                split_train_validation(self.make(4), ratio, seed=0)
            assert not isinstance(exc.value, DatasetFormatError)
        with pytest.raises(DatasetFormatError, match="at least 2"):
            split_train_validation(self.make(1), 0.5, seed=0)

    def test_deterministic_in_seed(self):
        a1, b1 = split_train_validation(self.make(50), 0.8, seed=7)
        a2, b2 = split_train_validation(self.make(50), 0.8, seed=7)
        assert a1.tolist() == a2.tolist() and b1.tolist() == b2.tolist()
        a3, _ = split_train_validation(self.make(50), 0.8, seed=8)
        assert a1.tolist() != a3.tolist()

    def test_empty_validation_is_silent(self):
        # tune_c, which falls back to C=1 here, is the one that warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train, val = split_train_validation(self.make(10), 0.99, seed=0)
        assert (len(train), len(val)) == (10, 0)


class TestConcatAndBias:
    def test_concat(self):
        a = Dataset([sv((1, 1.0))], [0], dimensionality=4)
        b = Dataset([sv((2, 1.0))], [1], dimensionality=4)
        merged = concat_datasets(a, b)
        assert merged.n == 2 and merged.dimensionality == 4

    def test_concat_dimension_mismatch(self):
        a = Dataset([sv((1, 1.0))], [0], dimensionality=4)
        b = Dataset([sv((1, 1.0))], [0], dimensionality=5)
        with pytest.raises(DatasetFormatError, match="dimensionality"):
            concat_datasets(a, b)

    def test_constant_feature_appended(self):
        data = Dataset([sv((1, 2.0)), sv()], [0, 1], dimensionality=3)
        out = with_constant_feature(data, 4)
        assert out.dimensionality == 4
        assert list(out.vectors[0].indices) == [1, 4]
        assert list(out.vectors[1].indices) == [4]
        assert out.vectors[1].values[0] == 1.0

    def test_constant_feature_truncates_unseen(self):
        data = Dataset([sv((1, 2.0), (9, 1.0))], [0])
        out = with_constant_feature(data, 4)
        assert list(out.vectors[0].indices) == [1, 4]

    def test_constant_feature_bad_index(self):
        with pytest.raises(DatasetFormatError, match=">= 1"):
            with_constant_feature(Dataset([sv()], [0]), 0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=10_000),
)
def test_split_is_a_partition(n, ratio, seed):
    data = Dataset([sv((1, float(i + 1))) for i in range(n)], list(range(n)))
    train, val = split_train_validation(data, ratio, seed)
    assert len(train) == math.ceil(ratio * n)
    assert sorted(train.tolist() + val.tolist()) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=25),
                    st.floats(
                        min_value=-100, max_value=100,
                        allow_nan=False, allow_infinity=False,
                    ),
                ),
                max_size=6,
            ),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_dataset_text_round_trip(rows):
    vectors = []
    labels = []
    for label, entries in rows:
        seen = {}
        for i, v in entries:
            seen[i] = v
        vectors.append(make_sparse(seen.keys(), seen.values()))
        labels.append(label)
    data = Dataset(vectors, labels)
    again = parse_dataset(serialize_dataset(data))
    assert again.labels == data.labels
    for u, v in zip(again.vectors, data.vectors):
        assert np.array_equal(u.indices, v.indices)
        assert np.array_equal(u.values, v.values)


def assert_rows_bitwise_equal(got, want):
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert u.indices.tolist() == v.indices.tolist()
        assert u.values.tobytes() == v.values.tobytes()


def random_rows(rng):
    """Rows mixing empty ones, small integer counts and floats over six
    orders of magnitude, up to 60 entries long so dot products run past
    the vectorised part of the BLAS kernel."""
    dim = int(rng.integers(1, 90))
    rows = []
    for _ in range(int(rng.integers(1, 30))):
        k = 0 if rng.random() < 0.15 else int(rng.integers(1, min(dim, 60) + 1))
        idx = rng.choice(np.arange(1, dim + 1), size=k, replace=False)
        if rng.random() < 0.5:
            val = rng.integers(1, 6, size=k).astype(np.float64)
        else:
            val = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3, size=k)
        rows.append(make_sparse(idx, val))
    return rows, dim


class TestMatchesPerRowReference:
    """The matrix transforms against the per-row loops they replaced."""

    def test_transforms_match_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            rows, dim = random_rows(rng)
            top = max((int(v.indices[-1]) for v in rows if v.nnz), default=0)
            # A row whose only feature gets idf 0, one whose only feature is
            # missing from the table, and one beyond the table.
            idf = per_row_compute_idf(rows)
            if top:
                zeroed, dropped = int(rng.integers(1, top + 1)), int(rng.integers(1, top + 1))
                rows += [make_sparse([zeroed], [2.0]), make_sparse([dropped], [3.0])]
                idf[zeroed] = 0.0
                idf.pop(dropped, None)
                beyond = top + int(rng.integers(1, 5))
                rows.append(make_sparse([1, beyond], [1.0, 4.0]))
                dim = max(dim, beyond)
            idf.update({0: 5.0, -3: 1.0})  # keys that never match a feature
            if rng.random() < 0.5:
                idf[dim + 7] = 2.0
            labels = [int(x) for x in rng.integers(0, 9, size=len(rows))]
            leaves = [int(x) for x in rng.choice(11, size=int(rng.integers(1, 11)), replace=False)]
            data = Dataset(rows, labels, dim)

            m, ref = data.to_csr(), per_row_to_csr(rows, dim)
            assert m.shape == ref.shape
            assert m.indptr.tolist() == ref.indptr.tolist()
            assert m.indices.tolist() == ref.indices.tolist()
            assert m.data.tobytes() == ref.data.tobytes()

            got_idf, want_idf = compute_idf(data), per_row_compute_idf(rows)
            assert list(got_idf) == list(want_idf)
            assert [float.hex(v) for v in got_idf.values()] == [
                float.hex(v) for v in want_idf.values()
            ]

            weighted = apply_tfidf(data, idf)
            assert weighted.dimensionality == dim
            assert_rows_bitwise_equal(weighted.vectors, per_row_apply_tfidf(rows, idf))

            for index in {dim + 1, max(top, 1), int(rng.integers(1, max(top, 1) + 1))}:
                out = with_constant_feature(data, index)
                assert out.dimensionality == index
                assert_rows_bitwise_equal(out.vectors, per_row_with_constant_feature(rows, index))

            for source in (data, weighted):
                vectors = source.vectors
                want = per_row_class_centroids(vectors, labels, leaves)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # leaves with no instances
                    got = class_centroids(source, leaves)
                assert got.labels == list(want)
                assert_rows_bitwise_equal(got.vectors, list(want.values()))


def dataset_outcome(parse, text):
    """What a reader makes of ``text``: the dataset's content, its error, or
    ``("int64",)`` where the per-line reader overflowed or kept a label
    outside int64."""
    try:
        data = parse(text)
    except DatasetFormatError as exc:
        return ("error", str(exc))
    except OverflowError:
        return ("int64",)
    if not all(-(2**63) <= label < 2**63 for label in data.labels):
        return ("int64",)
    m = data.to_csr()
    return ("ok", data.labels, m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.tobytes())


def random_dataset_text(rng):
    """Rows of 0-8 entries with tricky but valid values, blank and comment
    lines, and stray whitespace."""
    values = ["1", "2.5", "-0.0", "0", "0.0", "1e-3", "5e-324", "1e308", "1_0", "+2", ".5"]
    lines = []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        if kind < 0.08:
            lines.append(" " * int(rng.integers(3)))
        elif kind < 0.14:
            lines.append("# 1:x")
        else:
            idx = np.sort(rng.choice(np.arange(1, 40), size=int(rng.integers(0, 9)), replace=False))
            vals = [str(rng.choice(values)) if rng.random() < 0.4 else repr(float(rng.normal()))
                    for _ in idx]
            sep = "\t" if rng.random() < 0.1 else " "
            label = str(int(rng.integers(-3, 50)))
            row = sep.join([label, *(f"{i}:{v}" for i, v in zip(idx, vals))])
            lines.append(" " * int(rng.integers(2)) + row)
    return "\n".join(lines) + "\n"


def mutate_dataset_text(rng, text):
    """One random edit of a dataset text: a character, a token or a line."""
    lines = text.splitlines() or [""]
    i = int(rng.integers(len(lines)))
    line = lines[i]
    kind = int(rng.integers(5))
    if kind == 0 and line:
        k = int(rng.integers(len(line)))
        line = line[:k] + str(rng.choice(list(" :0129.-+_eanif#x"))) + line[k + 1:]
    elif kind == 1 and line:
        k = int(rng.integers(len(line)))
        line = line[:k] + line[k + 1:]
    elif kind == 2:
        toks = line.split()
        extra = ["1:2:3", "1:", ":1", ":", "nan", "1_0:1", "+1:1", "1e3:1", "1:1..2", "0:1",
                 "99999999999999999999:1.0", "1:nan", "2:-inf", "3:1e400", "x:1", "7"]
        toks.insert(int(rng.integers(len(toks) + 1)), str(rng.choice(extra)))
        line = " ".join(toks)
    elif kind == 3:
        toks = line.split()
        if len(toks) > 1:
            a, b = rng.choice(len(toks), size=2, replace=False)
            toks[a], toks[b] = toks[b], toks[a]
        line = " ".join(toks)
    else:
        extra = ["", "#", "  # 1:x", "5 1:2:3", "7", "99999999999999999999 1:1.0",
                 "-99999999999999999999", "8 99999999999999999999:1", line]
        line = str(rng.choice(extra))
        i = int(rng.integers(len(lines) + 1))
        lines.insert(i, "")
    lines[i] = line
    return "\n".join(lines) + "\n"


def is_label_error(message: str) -> bool:
    """Whether ``message`` is parse_dataset's error for a bad label or an empty text."""
    return ("non-numeric label" in message or message == "dataset is empty"
            or (": label " in message and message.endswith("out of the int64 range")))


def labels_agree(text, outcome) -> str | None:
    """Check :func:`parse_labels` on ``text`` against what :func:`parse_dataset`
    made of it (``outcome``, from :func:`dataset_outcome`).

    Where the dataset reader accepts, the labels are equal; where it rejects
    a label or an empty text, the label reader raises the same message.
    Returns which of the two was checked, or None.
    """
    if outcome[0] == "ok":
        assert parse_labels(text) == outcome[1], text
        return "ok"
    if outcome[0] == "error" and is_label_error(outcome[1]):
        with pytest.raises(DatasetFormatError) as exc:
            parse_labels(text)
        assert str(exc.value) == outcome[1], text
        return "label error"
    return None


class TestMatchesPerLineDatasetReader:
    """The bulk dataset reader against the per-line reader it replaced, and
    the label reader against the dataset reader."""

    def test_accepts_the_same_texts_with_the_same_numbers(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            text = random_dataset_text(rng)
            want = dataset_outcome(per_line_parse_dataset, text)
            got = dataset_outcome(parse_dataset, text)
            assert got == want, text
            labels_agree(text, got)
        empty = dataset_outcome(parse_dataset, "# only a comment\n\n")
        assert empty == ("error", "dataset is empty")
        assert labels_agree("# only a comment\n\n", empty) == "label error"

    def test_rejects_the_same_texts_on_the_same_line(self):
        rng = np.random.default_rng(22)
        seen = {"ok": 0, "error": 0, "int64": 0, "labels ok": 0, "labels label error": 0}
        for _ in range(300):
            text = random_dataset_text(rng)
            for _ in range(8):
                mutated = mutate_dataset_text(rng, text)
                want = dataset_outcome(per_line_parse_dataset, mutated)
                got = dataset_outcome(parse_dataset, mutated)
                seen[want[0]] += 1
                checked = labels_agree(mutated, got)
                if checked:
                    seen[f"labels {checked}"] += 1
                if want[0] == "int64":
                    # The per-line reader crashed, or kept a label numpy
                    # cannot hold; the bulk one names the line.
                    assert got[0] == "error", mutated
                    assert "out of the int64 range" in got[1] or "above 2^60 - 1" in got[1]
                else:
                    assert got == want, mutated
        # Accepted, rejected and int64 cases all occurred, and the label
        # reader met accepted texts and rejected labels.
        assert all(seen.values()), seen

    def test_in_small_parse_chunks(self, parse_chunk):
        self.test_accepts_the_same_texts_with_the_same_numbers()
        self.test_rejects_the_same_texts_on_the_same_line()
