import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from taxrewire import simgraph
from taxrewire.corpus import Dataset, make_sparse
from taxrewire.rewire import rewire_hierarchy
from taxrewire.simgraph import (
    _CURVE_SAMPLE_ROWS,
    _PAIR_CHUNK,
    _WRITE_CHUNK_ROWS,
    _rank_descending,
    _score_blocks,
    _unit_centroids,
    SimilarityError,
    SimilarPairSet,
    all_pairs_scores,
    auto_threshold,
    class_centroids,
    cosine,
    knee_rank,
    parse_pair_set,
    select_at_knee,
    select_pairs,
    serialize_pair_set,
    write_pair_set,
    write_score_curve,
)

from conftest import traced_peak
from reference_impls import (
    brute_cosine_pairs,
    brute_knee,
    csv_score_curve,
    per_pair_scores,
    table_select_pairs,
)


def sv(*entries):
    return make_sparse([i for i, _ in entries], [v for _, v in entries])


def rows(table):
    return list(zip(table.a.tolist(), table.b.tolist(), table.score.tolist()))


def centroid_rows(by_label):
    """A centroid Dataset from a label -> SparseVector mapping, labels ascending."""
    labels = sorted(by_label)
    return Dataset([by_label[label] for label in labels], labels)


class TestCosine:
    def test_identical_direction(self):
        assert cosine(sv((1, 3.0), (2, 4.0)), sv((1, 6.0), (2, 8.0))) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(sv((1, 1.0)), sv((2, 1.0))) == 0.0

    def test_hand_value(self):
        # dot 24, norms 5 and 5
        assert cosine(sv((1, 3.0), (2, 4.0)), sv((1, 4.0), (2, 3.0))) == pytest.approx(
            0.96, abs=1e-15
        )

    def test_zero_norm_is_zero(self):
        assert cosine(sv(), sv((1, 1.0))) == 0.0


class TestCentroids:
    def test_mean_of_class_vectors(self):
        data = Dataset([sv((1, 1.0)), sv((2, 1.0))], [5, 5])
        cents = class_centroids(data, [5])
        assert cents.labels == [5]
        assert cents.dimensionality == data.dimensionality
        (row,) = cents.vectors
        assert list(row.indices) == [1, 2]
        assert list(row.values) == [0.5, 0.5]

    def test_one_row_per_class_labels_ascending(self):
        data = Dataset([sv((1, 2.0)), sv((2, 1.0)), sv((1, 4.0)), sv((3, 1.0))], [9, 2, 9, 4])
        cents = class_centroids(data, [4, 9, 2])
        by_label = dict(zip(cents.labels, cents.vectors))
        assert cents.labels == [2, 4, 9]
        assert list(by_label[9].indices) == [1] and list(by_label[9].values) == [3.0]

    def test_non_leaf_labels_ignored(self):
        data = Dataset([sv((1, 1.0)), sv((2, 9.0))], [5, 3])
        cents = class_centroids(data, [5])
        assert cents.labels == [5]

    def test_empty_class_warns_and_excluded(self):
        data = Dataset([sv((1, 1.0))], [5])
        with pytest.warns(UserWarning, match="no training instances"):
            cents = class_centroids(data, [5, 6])
        assert cents.labels == [5]


class TestAllPairs:
    def random_centroids(self, seed, n, dims=12):
        rng = np.random.default_rng(seed)
        out = {}
        for label in range(n):
            k = int(rng.integers(1, dims))
            idx = sorted(rng.choice(np.arange(1, dims + 1), size=k, replace=False))
            out[label] = make_sparse(idx, rng.uniform(-1, 1, size=k))
        return centroid_rows(out)

    def test_matches_dense_reference(self):
        cents = self.random_centroids(3, 7)
        got = rows(all_pairs_scores(cents))
        want = brute_cosine_pairs(dict(zip(cents.labels, cents.vectors)))
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
        for (_, _, s1), (_, _, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, abs=1e-12)

    def test_sorted_descending_with_id_ties(self):
        cents = centroid_rows({
            1: sv((1, 1.0)),
            2: sv((1, 2.0)),   # same direction as 1 -> score 1.0
            3: sv((2, 1.0)),
        })
        scores = all_pairs_scores(cents)
        assert [(a, b) for a, b, _ in rows(scores)] == [(1, 2), (1, 3), (2, 3)]
        assert scores.score[0] == pytest.approx(1.0)

    def test_needs_two_centroids(self):
        with pytest.raises(SimilarityError, match="at least 2"):
            all_pairs_scores(Dataset([sv((1, 1.0))], [1]))

    @pytest.mark.parametrize("labels", [[2, 1, 3], [1, 1, 3], [3, 2, 1]])
    def test_labels_must_be_strictly_ascending(self, labels):
        cents = Dataset([sv((1, 1.0)), sv((2, 1.0)), sv((1, 1.0), (2, 1.0))], labels)
        with pytest.raises(SimilarityError, match="strictly ascending"):
            all_pairs_scores(cents)

    def test_zero_norm_centroid_scores_zero(self):
        cents = centroid_rows({1: sv(), 2: sv((1, 1.0)), 3: sv((1, 2.0))})
        scores = {(a, b): s for a, b, s in rows(all_pairs_scores(cents))}
        assert scores[(1, 2)] == 0.0
        assert scores[(1, 3)] == 0.0

    def test_all_zero_centroids_score_zero(self):
        cents = centroid_rows({4: sv(), 7: sv(), 9: sv()})
        assert cents.dimensionality == 0
        assert rows(all_pairs_scores(cents)) == [(4, 7, 0.0), (4, 9, 0.0), (7, 9, 0.0)]

    def test_underflowing_norm_scores_positive_zero(self):
        # 1e-170 squared underflows to 0.0, so centroid 2's norm is zero.
        cents = centroid_rows({1: sv((1, 1.0), (2, -1.0)), 2: sv((1, -1e-170), (2, 1e-170)),
                               3: sv((1, -2.0), (2, 1.0))})
        unit = _unit_centroids(cents)
        assert np.all(unit[1].toarray() == 0.0)
        got = rows(all_pairs_scores(cents))
        assert [(a, b, s.hex()) for a, b, s in got[:2]] == [(1, 2, "0x0.0p+0"), (2, 3, "0x0.0p+0")]
        assert got[2][:2] == (1, 3) and got[2][2] == pytest.approx(-3 / math.sqrt(10))

    def test_peak_is_at_most_36_bytes_per_pair(self):
        rng = np.random.default_rng(27)
        cents = Dataset._from_matrix(sp.csr_matrix(rng.standard_normal((729, 32))),
                                     list(range(729)))
        table, peak = traced_peak(lambda: all_pairs_scores(cents))
        assert len(table) == 265_356
        # The table itself is 24 bytes per pair; triangle index arrays were 16 more.
        assert peak <= 36 * len(table)

    def test_underflowing_norms_match_per_pair_scorer(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            cents = random_centroids(rng, int(rng.integers(2, 12)), int(rng.integers(1, 6)))
            csr = cents.to_csr()
            tiny = rng.random(cents.n) < 0.3
            csr.data[np.repeat(tiny, np.diff(csr.indptr))] *= 1e-170
            cents = Dataset._from_matrix(csr, cents.labels)
            want = per_pair_scores(dict(zip(cents.labels, cents.vectors)))
            assert [(a, b, s.hex()) for a, b, s in rows(all_pairs_scores(cents))] == [
                (a, b, s.hex()) for a, b, s in want]


def stable_rank(values):
    return np.argsort(-values, kind="stable")


def assert_ranks_like_stable_sort(values):
    got = _rank_descending(values)
    want = stable_rank(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# Ties, both zeros, the clip values and NaN: what a score table can hold.
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, math.nan]


class TestRankDescending:
    """The ranking is exactly numpy's stable argsort of the negated values,
    whatever order the unstable sort leaves ties in."""

    @pytest.mark.parametrize("values", [
        [], [0.5], [math.nan], [0.5, 0.5], [0.25, 0.5], [-0.0, 0.0], [0.0, -0.0],
        [math.nan, 0.5], [math.nan, math.nan], [0.5, math.nan],
    ])
    def test_smallest_arrays(self, values):
        assert_ranks_like_stable_sort(np.array(values, dtype=np.float64))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [3, 17, 1000])
    def test_seeded_heavy_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        assert_ranks_like_stable_sort(rng.choice(TIE_VALUES, size=n))
        assert_ranks_like_stable_sort(rng.choice(TIE_VALUES[:-1], size=n))
        assert_ranks_like_stable_sort(np.round(rng.uniform(-1.0, 1.0, size=n), 1))

    @pytest.mark.parametrize("value", TIE_VALUES)
    def test_all_values_equal(self, value):
        assert_ranks_like_stable_sort(np.full(1001, value))

    def test_signed_zeros_are_one_tie(self):
        values = np.array([-0.0, 0.5, 0.0, -0.0, 0.0])
        np.testing.assert_array_equal(_rank_descending(values), [1, 0, 2, 3, 4])

    def test_nan_ranks_last_in_index_order(self):
        values = np.array([math.nan, 0.5, math.nan, -1.0, math.nan, 1.0])
        np.testing.assert_array_equal(_rank_descending(values), [5, 1, 3, 0, 2, 4])

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "distinct"])
    def test_large_array(self, tied):
        rng = np.random.default_rng(7)
        n = 300_007
        values = (np.round(rng.uniform(-1.0, 1.0, size=n), 3) if tied
                  else rng.uniform(-1.0, 1.0, size=n))
        values[rng.integers(0, n, size=50)] = math.nan
        values[rng.integers(0, n, size=50)] = -0.0
        assert_ranks_like_stable_sort(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(TIE_VALUES) | st.floats(min_value=-1.0, max_value=1.0),
                    max_size=300))
    def test_matches_stable_sort(self, values):
        assert_ranks_like_stable_sort(np.array(values, dtype=np.float64))


def random_centroids(rng, n, dims, max_nnz=None):
    """n centroids over ``dims`` features, with ascending labels.

    About a fifth each are zero rows, duplicates of an earlier row, and
    rows of small integers (tied scores); the rest are uniform in
    [-1, 1].  A row has at most ``max_nnz`` features (default ``dims``).
    """
    labels = rng.choice(10_000, size=n, replace=False).tolist()
    made = []
    for _ in labels:
        kind = int(rng.integers(5))
        if kind == 0:
            vec = sv()  # zero norm
        elif kind == 1 and made:
            vec = made[int(rng.integers(len(made)))]  # duplicate: tied scores
        else:
            k = int(rng.integers(1, min(dims, max_nnz or dims) + 1))
            idx = rng.choice(np.arange(1, dims + 1), size=k, replace=False)
            if kind == 2:
                vals = rng.integers(-3, 4, size=k).astype(np.float64)  # integer ties
            else:
                vals = rng.uniform(-1.0, 1.0, size=k)
            vec = make_sparse(idx, vals)
        made.append(vec)
    return centroid_rows(dict(zip(labels, made)))


class TestMatchesPerPairScorer:
    """The score table against the per-pair scorer it replaced."""

    def test_order_scores_and_curve_text_match(self):
        rng = np.random.default_rng(2024)
        ties = zeros = negatives = 0
        # Two sets are large.  258 centroids are the fewest whose pairs
        # name a row above 255; 364 make 66,066 pairs, more than write_score_curve
        # samples and more than all_pairs_scores names the classes of at once.
        for trial in range(242):
            n = 2 if trial % 8 == 0 else int(rng.integers(3, 30))
            if trial == 240:
                n = 258
            if trial == 241:
                n = math.isqrt(2 * max(_WRITE_CHUNK_ROWS, _PAIR_CHUNK)) + 2
                assert n * (n - 1) // 2 > max(_CURVE_SAMPLE_ROWS, _PAIR_CHUNK)
            cents = random_centroids(rng, n, int(rng.integers(1, 9)))
            table = all_pairs_scores(cents)
            want = per_pair_scores(dict(zip(cents.labels, cents.vectors)))
            assert [(a, b) for a, b, _ in rows(table)] == [(a, b) for a, b, _ in want]
            assert [s.hex() for s in table.score.tolist()] == [s.hex() for _, _, s in want]
            want_csv = io.StringIO()
            csv_score_curve(want, want_csv)
            check_sampled_curve(table, want_csv.getvalue())
            scores = table.score
            ties += int(np.count_nonzero(scores[1:] == scores[:-1]))
            zeros += int(np.count_nonzero(scores == 0.0))
            negatives += int(np.count_nonzero(scores < 0.0))
        assert ties and zeros and negatives  # the generator reached every case


def check_sampled_curve(table, full_text):
    """``write_score_curve(table)`` against the full curve text."""
    buf = io.StringIO()
    write_score_curve(table, buf)
    text = buf.getvalue()
    full = full_text.splitlines()
    lines = text.splitlines()
    n = len(table)
    t = min(_CURVE_SAMPLE_ROWS, n)
    assert text.endswith("\n") and lines[0] == full[0]
    ranks = [int(line.split(",", 1)[0]) for line in lines[1:]]
    assert [full[r] for r in ranks] == lines[1:]  # the full curve's lines, by rank
    assert ranks == sorted(set(ranks))  # in order, none twice
    assert ranks == [1 + math.floor(Fraction(j * (n - 1), max(t - 1, 1))) for j in range(t)]
    assert len(lines) == 1 + t
    if n:
        assert ranks[0] == 1 and (t == 1 or ranks[-1] == n)
    if n <= _CURVE_SAMPLE_ROWS:
        assert text == full_text
    return ranks


def spy_dense_operands(monkeypatch):
    """Record the shape of every dense array a CSR or CSC matrix makes."""
    shapes = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def toarray(self, *args, _original=cls.toarray, **kwargs):
            out = _original(self, *args, **kwargs)
            shapes.append(out.shape)
            return out
        monkeypatch.setattr(cls, "toarray", toarray)
    return shapes


class TestScoreBlocks:
    """The blocked score kernel against the whole sparse product, clipped, bit for bit."""

    def centroid_sets(self):
        rng = np.random.default_rng(23)
        narrow = [random_centroids(rng, int(rng.integers(2, 30)), int(rng.integers(1, 9)))
                  for _ in range(40)]
        # The text shape: far more features than classes, a few per row.
        wide = [random_centroids(rng, int(rng.integers(5, 25)), 300, max_nnz=12)
                for _ in range(20)]
        assert all(c.dimensionality > c.n for c in wide)
        return narrow + wide

    @pytest.mark.parametrize("rows_per_block", [1, 3])
    def test_blocks_match_the_sparse_product(self, monkeypatch, rows_per_block):
        operands = spy_dense_operands(monkeypatch)
        zeros = negatives = ties = 0
        for cents in self.centroid_sets():
            unit = _unit_centroids(cents)
            n, width = unit.shape
            # The order every row shares, which both products sum in.
            for i in range(n):
                row = unit.indices[unit.indptr[i]:unit.indptr[i + 1]]
                assert np.all(row[1:] < row[:-1])
            want = np.clip((unit @ unit.T).toarray(), -1.0, 1.0)
            operands.clear()
            bound = rows_per_block * max(n, width)
            monkeypatch.setattr(simgraph, "_GRAM_BLOCK_ENTRIES", bound)
            starts = []
            for start, block in _score_blocks(cents):
                starts.append(start)
                assert block.dtype == np.float64
                assert block.shape == (min(rows_per_block, n - start), n)
                # Through the integer view, so a sign bit counts too.
                np.testing.assert_array_equal(
                    block.view(np.int64), want[start:start + len(block)].view(np.int64))
            assert starts == list(range(0, n, rows_per_block))
            assert operands and all(math.prod(shape) <= bound for shape in operands)
            zeros += int(np.count_nonzero(abs(unit).sum(axis=1) == 0.0))
            negatives += int(np.count_nonzero(want < 0.0))
            ties += int(np.count_nonzero(np.diff(np.sort(want, axis=None)) == 0.0))
        assert zeros and negatives and ties  # the sets reached every case

    @pytest.mark.parametrize("rows_per_block", [1, 3])
    def test_score_table_matches_per_pair_scorer(self, monkeypatch, rows_per_block):
        for cents in self.centroid_sets():
            monkeypatch.setattr(simgraph, "_GRAM_BLOCK_ENTRIES",
                                rows_per_block * max(cents.n, cents.dimensionality))
            table = all_pairs_scores(cents)
            want = per_pair_scores(dict(zip(cents.labels, cents.vectors)))
            assert [(a, b, s.hex()) for a, b, s in rows(table)] == [
                (a, b, s.hex()) for a, b, s in want]


class TestScoreCurve:
    """write_score_curve: an even sample of the sorted table's ranks, all ranks of a small table."""

    @staticmethod
    def table(n, seed=0):
        rng = np.random.default_rng(seed)
        scores = np.sort(np.round(rng.uniform(-1.0, 1.0, n), 3))[::-1]  # with ties
        a = rng.integers(0, 500, n)
        return SimilarPairSet(a, a + 1 + rng.integers(0, 500, n), scores, tau=-1.0)

    @staticmethod
    def full_text(table):
        buf = io.StringIO()
        csv_score_curve(rows(table), buf)
        return buf.getvalue()

    def test_small_table_writes_every_row(self):
        buf = io.StringIO()
        write_score_curve(descending(1.0, 0.9, 0.1), buf)
        assert buf.getvalue() == (
            "rank,class_a,class_b,score\n1,0,100,1.0\n2,1,101,0.9\n3,2,102,0.1\n"
        )

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 5, 1023, 1024, 1025, 2047, 3000, _WRITE_CHUNK_ROWS + 3000])
    def test_even_sample_of_the_full_curve(self, n):
        table = self.table(n)
        check_sampled_curve(table, self.full_text(table))

    def test_sample_spans_the_curve(self):
        table = self.table(3000)
        ranks = check_sampled_curve(table, self.full_text(table))
        assert ranks[:4] == [1, 3, 6, 9]  # 1 + floor(j * 2999 / 1023)
        assert ranks[-2:] == [2997, 3000]


def descending(*vals):
    ids = np.arange(len(vals))
    return SimilarPairSet(ids, ids + 100, np.asarray(vals, dtype=np.float64), tau=-1.0)


def four_centroids():
    """Classes 1..4 scoring 1.0 (1, 2); r = 1/sqrt(2), three times: (1, 4), (2, 4), (3, 4);
    then 0.0 (1, 3), (2, 3)."""
    return centroid_rows({1: sv((1, 1.0)), 2: sv((1, 2.0)), 3: sv((2, 1.0)),
                          4: sv((1, 1.0), (2, 1.0))})


class TestSelectPairs:
    def test_exactly_one_mode(self):
        with pytest.raises(SimilarityError, match="exactly one"):
            select_pairs(four_centroids(), tau=0.1, top_k=1)
        with pytest.raises(SimilarityError, match="exactly one"):
            select_pairs(four_centroids())

    def test_tau_is_strict(self):
        r = all_pairs_scores(four_centroids()).score[1]
        kept = select_pairs(four_centroids(), tau=r)
        assert rows(kept) == [(1, 2, 1.0)]
        assert kept.tau == r

    def test_tau_range_checked(self):
        with pytest.raises(SimilarityError, match="tau"):
            select_pairs(four_centroids(), tau=1.5)

    def test_tau_above_every_score_fails(self):
        top = r"no pair scores above tau 1.0 \(top score 1.0\)"
        with pytest.raises(SimilarityError, match=top):
            select_pairs(four_centroids(), tau=1.0)
        half = r"no pair scores above tau 0.75 \(top score 0.7071067811865475\)"
        with pytest.raises(SimilarityError, match=half):
            select_pairs(centroid_rows({1: sv((1, 1.0)), 2: sv((1, 1.0), (2, 1.0))}), tau=0.75)

    @pytest.mark.parametrize("mode", [{"tau": 0.5}, {"top_k": 4}])
    def test_selection_is_the_tables_first_rows(self, mode):
        kept = select_pairs(four_centroids(), **mode)
        assert rows(kept) == rows(all_pairs_scores(four_centroids()))[:4]

    def test_top_k_keeps_k_and_adopts_kth_score(self):
        kept = select_pairs(four_centroids(), top_k=2)
        assert [(a, b) for a, b, _ in rows(kept)] == [(1, 2), (1, 4)]
        assert kept.tau == pytest.approx(1 / math.sqrt(2))

    def test_top_k_through_a_tie_keeps_the_first_pairs(self):
        kept = select_pairs(four_centroids(), top_k=3)
        assert [(a, b) for a, b, _ in rows(kept)] == [(1, 2), (1, 4), (2, 4)]

    def test_top_k_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="top_k=7 exceeds the 6 available pairs; keeping all"):
            kept = select_pairs(four_centroids(), top_k=7)
        assert len(kept) == 6

    def test_top_k_validation(self):
        with pytest.raises(SimilarityError, match=">= 1"):
            select_pairs(four_centroids(), top_k=0)
        with pytest.raises(SimilarityError, match="at least 2"):
            select_pairs(Dataset([sv((1, 1.0))], [1]), top_k=1)
        with pytest.raises(SimilarityError, match="strictly ascending"):
            select_pairs(Dataset([sv((1, 1.0)), sv((2, 1.0))], [2, 1]), tau=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_table_cut(self, data):
        """Against the cut of the whole sorted table, on tie-heavy sets, in small blocks."""
        dims = data.draw(st.integers(1, 4))
        row = st.lists(st.integers(-2, 2), min_size=dims, max_size=dims)
        dense = np.array(data.draw(st.lists(row, min_size=2, max_size=14)), dtype=np.float64)
        n = len(dense)
        labels = sorted(data.draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n)))
        cents = Dataset._from_matrix(sp.csr_matrix(dense), labels)
        table = all_pairs_scores(cents)
        n_pairs = len(table)
        ties = np.flatnonzero(table.score[1:] == table.score[:-1])
        modes = [{"top_k": k} for k in (1, 2, 5, n_pairs, n_pairs + 1)]
        modes += [{"top_k": int(i) + 1} for i in ties[:1]]  # cuts through a tie
        modes += [{"tau": data.draw(st.sampled_from(table.score.tolist()))},
                  {"tau": float(table.score[0])}]  # no score above it: fails
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simgraph, "_GRAM_BLOCK_ENTRIES",
                       data.draw(st.integers(1, 3)) * max(n, cents.dimensionality))
            for mode in modes:
                assert selection_text(select_pairs, cents, mode) == selection_text(
                    table_select_pairs, cents, mode)

    @pytest.mark.parametrize("same", [False, True], ids=["random", "all-tied"])
    def test_bounded_modes_hold_one_block_and_their_pairs(self, monkeypatch, same):
        # The whole table of these 1,124,250 pairs took over 30 MB.
        rng = np.random.default_rng(31)
        n, rows_per_block = 1500, 16
        dense = rng.standard_normal((n, 16))
        if same:
            dense[:] = dense[0]  # every pair scores the same
        cents = Dataset._from_matrix(sp.csr_matrix(dense), list(range(n)))
        csr = cents.to_csr()
        fixed = 2 * 8 * rows_per_block * n + 3 * (csr.data.nbytes + csr.indices.nbytes)
        monkeypatch.setattr(simgraph, "_GRAM_BLOCK_ENTRIES", rows_per_block * n)
        for mode in ({"top_k": 1}, {"top_k": 1000}, {"tau": 0.6}):
            if same and "tau" in mode:
                continue  # every pair is kept
            kept, peak = traced_peak(lambda: select_pairs(cents, **mode))
            assert 0 < len(kept) < 10_000
            assert peak <= fixed + 100 * len(kept)


def selection_text(select, cents, mode):
    """``select(cents, **mode)`` as pair-list text, or its error or warning text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = serialize_pair_set(select(cents, **mode))
        except SimilarityError as exc:
            text = f"error: {exc}"
    return text, [str(w.message) for w in caught]


class TestSimilarPairSet:
    def test_shapes_checked(self):
        for a, b, score in (([1], [2, 3], [0.5]), ([[1]], [[2]], [[0.5]])):
            with pytest.raises(SimilarityError, match="equal length") as caught:
                SimilarPairSet(a, b, score, tau=0.0)
            assert caught.value.row is None
        assert len(SimilarPairSet([1, 1], [2, 3], [0.5, 0.25], tau=0.25)) == 2

    @pytest.mark.parametrize("a,b,score,tau,msg,row", [
        ([1, 1, 1], [2, 3, 4], [0.5, 0.1, 0.9], 0.0,
         "pairs must be sorted by descending score, got 0.9 after 0.1", 2),
        ([1, 1], [2, 3], [0.9, 0.1], 0.5, "every stored score must be >= tau 0.5, got 0.1", 1),
        ([1, 2], [3, 1], [0.9, 0.5], 0.0, r"a < b, got \(2, 1\)", 1),
        ([1], [1], [0.5], 0.0, r"a < b, got \(1, 1\)", 0),
        ([1, 1], [2, 3], [0.5, 1.5], -1.0, "cosine score out of range: 1.5", 1),
        ([1], [2], [-1.5], -1.0, "cosine score out of range: -1.5", 0),
        ([1], [2], [math.nan], -1.0, "cosine score out of range: nan", 0),
        ([1], [2], [math.inf], -1.0, "cosine score out of range: inf", 0),
        # The rules are checked in order: the range before the order.
        ([1, 1], [2, 3], [0.5, 2.0], 0.0, "out of range", 1),
    ])
    def test_row_rules_name_the_first_failing_row(self, a, b, score, tau, msg, row):
        with pytest.raises(SimilarityError, match=msg) as caught:
            SimilarPairSet(a, b, score, tau)
        assert caught.value.row == row

    def test_ties_are_in_order(self):
        assert len(SimilarPairSet([1, 3], [2, 4], [0.5, 0.5], tau=0.5)) == 2

    def test_other_errors_carry_no_row(self):
        with pytest.raises(SimilarityError) as caught:
            select_pairs(four_centroids(), tau=2.0)
        assert caught.value.row is None

    def test_full_table_is_a_pair_set(self, letter_tree):
        # Every pair, its threshold the lowest score: it serializes,
        # parses back and rewires like any selection.
        cents = centroid_rows({leaf: sv((1, 1.0), (2, 1.0 + leaf)) for leaf in letter_tree.leaves})
        table = all_pairs_scores(cents)
        assert len(table) == 15 and table.tau == table.score[-1]
        again = parse_pair_set(serialize_pair_set(table))
        assert rows(again) == rows(table) and again.tau == table.tau
        assert (table.b[0], table.a[0]) in table
        modified, _ = rewire_hierarchy(letter_tree, table)
        modified.validate()

    def test_contains_normalizes_orientation(self):
        s = SimilarPairSet([1], [2], [0.9], tau=0.5)
        assert (1, 2) in s and (2, 1) in s
        assert (1, 3) not in s

    def test_empty_set(self):
        s = SimilarPairSet([], [], [], tau=1.0)
        assert len(s) == 0 and (1, 2) not in s


class TestKnee:
    def test_spec_style_cliff(self):
        assert knee_rank([1.0, 0.95, 0.9, 0.2, 0.19, 0.18]) == 3

    def test_plateau_then_drop(self):
        assert knee_rank([1.0] * 5 + [0.2] * 5) == 5

    def test_short_curve_rejected(self):
        with pytest.raises(SimilarityError, match="at least 3"):
            knee_rank([1.0, 0.5])

    def test_increasing_curve_rejected(self):
        with pytest.raises(SimilarityError, match="non-increasing"):
            knee_rank([0.1, 0.5, 0.2])

    def test_straight_line_warns_rank_one(self):
        with pytest.warns(UserWarning, match="no knee"):
            assert knee_rank([0.9, 0.6, 0.3, 0.0]) == 1

    def test_constant_curve_warns_rank_one(self):
        with pytest.warns(UserWarning, match="no knee"):
            assert knee_rank([0.5, 0.5, 0.5]) == 1

    def test_matches_vertical_offset_reference(self):
        rng = np.random.default_rng(21)
        import warnings

        for _ in range(200):
            m = int(rng.integers(3, 30))
            vals = np.sort(rng.uniform(-1, 1, size=m))[::-1].tolist()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                assert knee_rank(vals) == brute_knee(vals)

    def test_auto_threshold_returns_knee_score(self):
        scores = descending(1.0, 0.95, 0.9, 0.2, 0.19, 0.18)
        assert auto_threshold(scores) == 0.9

    def test_auto_selection_keeps_the_knee_pair(self):
        kept = select_at_knee(descending(1.0, 0.95, 0.9, 0.2, 0.19, 0.18))
        assert kept.score.tolist() == [1.0, 0.95, 0.9]
        assert kept.tau == 0.9
        kept = select_at_knee(descending(1.0, 0.95, 0.9, 0.9, 0.2, 0.19, 0.18))
        assert kept.score.tolist() == [1.0, 0.95, 0.9, 0.9]


class TestPairSetText:
    def test_round_trip(self):
        s = SimilarPairSet([0, 1], [3, 2], [0.875, 0.25], tau=0.125)
        text = serialize_pair_set(s)
        assert text == "# tau 0.125\n0 3 0.875\n1 2 0.25\n"
        again = parse_pair_set(text)
        assert again.tau == s.tau
        assert rows(again) == rows(s)

    def test_text_over_several_chunks(self):
        n = _WRITE_CHUNK_ROWS + 1000
        rng = np.random.default_rng(2)
        a = rng.integers(0, 500, n)
        b = a + 1 + rng.integers(0, 500, n)
        score = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
        s = SimilarPairSet(a, b, score, tau=float(score[-1]))
        lines = [f"# tau {s.tau!r}"] + [
            f"{x} {y} {z!r}" for x, y, z in zip(a.tolist(), b.tolist(), score.tolist())
        ]
        text = "\n".join(lines) + "\n"
        assert serialize_pair_set(s) == text
        out = io.StringIO()
        write_pair_set(s, out)
        assert out.getvalue() == text

    def test_parse_normalizes_orientation(self):
        s = parse_pair_set("5 2 0.75\n")
        assert s.a.tolist() == [2] and s.b.tolist() == [5]
        assert (5, 2) in s

    def test_tau_defaults_to_last_score(self):
        s = parse_pair_set("1 2 0.9\n1 3 0.4\n")
        assert s.tau == 0.4

    def test_parse_errors(self):
        with pytest.raises(SimilarityError, match="line 1"):
            parse_pair_set("1 2\n")
        with pytest.raises(SimilarityError, match="empty"):
            parse_pair_set("# tau 0.5\n")
        with pytest.raises(SimilarityError, match="line 2: malformed pair line"):
            parse_pair_set("1 2 0.9\n1 3 x\n")
        with pytest.raises(SimilarityError, match="line 2: node '9223372036854775808' is above"):
            parse_pair_set(f"1 2 0.9\n1 {2 ** 63} 0.5\n")

    @pytest.mark.parametrize("text,msg", [
        ("3 3 0.9\n", r"line 1: pair \(3, 3\) names one class twice"),
        ("# tau 0.5\n\n1 2 1.5\n", "line 3: cosine score out of range: 1.5"),
        ("1 2 -1.5\n", "line 1: cosine score out of range: -1.5"),
        ("1 2 nan\n", "line 1: cosine score out of range: nan"),
        ("1 2 inf\n", "line 1: cosine score out of range: inf"),
        ("1 2 0.9\n1 3 -1.50\n", "line 2: cosine score out of range: -1.5$"),  # the parsed value
        ("# tau 0.5\n1 2 0.9\n# tau 0.1\n", "line 3: a second '# tau' header"),
        ("# tau 0.5\n# tau 0.5\n1 2 0.9\n", "line 2: a second '# tau' header"),
        ("1 2 0.5\n# c\n1 3 0.9\n",
         "line 3: pairs must be sorted by descending score, got 0.9 after 0.5"),
        ("# tau 0.5\n1 2 0.9\n\n1 3 0.4\n",
         "line 4: every stored score must be >= tau 0.5, got 0.4"),
        ("3 5 0.9\n5 3 0.8\n", r"line 2: pair \(3, 5\) is listed twice"),
        ("3 5 0.9\n3 5 0.9\n", r"line 2: pair \(3, 5\) is listed twice"),
        ("# c\n7 8 0.9\n1 2 0.8\n\n8 7 0.7\n2 1 0.6\n",
         r"line 5: pair \(7, 8\) is listed twice"),
    ])
    def test_bad_pair_lines_name_the_line(self, text, msg):
        with pytest.raises(SimilarityError, match=msg):
            parse_pair_set(text)

    def test_parse_from_a_file_holds_no_text(self, tmp_path):
        # The whole text and its line list took 147 B per pair.
        n = 50_000
        rng = np.random.default_rng(5)
        a = np.arange(n)
        s = SimilarPairSet(a, a + 1 + rng.integers(0, 10**6, n),
                           np.sort(rng.uniform(-1.0, 1.0, n))[::-1], tau=-1.0)
        path = tmp_path / "pairs.txt"
        with path.open("w", encoding="utf-8") as fh:
            write_pair_set(s, fh)

        def parse():
            with path.open(encoding="utf-8") as fh:
                return parse_pair_set(fh)

        again, peak = traced_peak(parse)
        assert rows(again) == rows(s)
        assert peak < 80 * n

    def test_curve_csv_format(self):
        buf = io.StringIO()
        write_score_curve(SimilarPairSet([1], [2], [0.5], tau=0.5), buf)
        assert buf.getvalue() == "rank,class_a,class_b,score\n1,1,2,0.5\n"
