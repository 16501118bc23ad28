import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxrewire.metrics import (
    ClassStats,
    MetricsError,
    build_report,
    hier_f1,
    macro_f1,
    micro_f1,
    per_class_stats,
    rare_category_report,
    rare_classes,
    report_as_dict,
    write_per_class_csv,
)
from taxrewire.taxonomy import parse_taxonomy

from reference_impls import brute_macro_f1, brute_micro_f1, oracle_hier_f1, random_taxonomy

# 1/3 of these are right; class 2 is never predicted correctly
MIXED = [(1, 1), (2, 3), (3, 2)]


def random_pairs(rng, n_classes=6, n=40):
    return [
        (int(rng.integers(n_classes)), int(rng.integers(n_classes))) for _ in range(n)
    ]


class TestPerClass:
    def test_counts_by_hand(self):
        pairs = [(1, 1), (1, 2), (2, 2), (2, 2), (3, 2)]
        stats = per_class_stats(pairs)
        assert stats[1] == ClassStats(1.0, 0.5, 2 / 3, 2)
        # class 2: tp=2, fp=2, fn=0
        assert stats[2].precision == 0.5 and stats[2].recall == 1.0
        assert stats[2].support == 2
        assert stats[3] == ClassStats(0.0, 0.0, 0.0, 1)

    def test_explicit_class_set_pads_with_zeros(self):
        stats = per_class_stats([(1, 1)], class_set=[1, 7])
        assert stats[7] == ClassStats(0.0, 0.0, 0.0, 0)
        assert set(stats) == {1, 7}

    def test_empty_pairs_rejected(self):
        with pytest.raises(MetricsError, match="no prediction pairs"):
            per_class_stats([])


class TestMicro:
    def test_equals_accuracy_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pairs = random_pairs(rng, n=int(rng.integers(1, 60)))
            acc = sum(1 for t, p in pairs if t == p) / len(pairs)
            assert micro_f1(pairs) == acc

    def test_frozen_third(self):
        assert micro_f1(MIXED) == 1 / 3

    def test_matches_brute_route(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pairs = random_pairs(rng)
            assert micro_f1(pairs) == brute_micro_f1(pairs)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            micro_f1([])


class TestMacro:
    def test_defaults_to_truth_classes(self):
        # classes 1..3 in the truth: F1s are 1, 0, 0
        assert macro_f1(MIXED) == 1 / 3

    def test_predicted_only_class_excluded_by_default(self):
        pairs = [(1, 1), (1, 9)]
        assert macro_f1(pairs) == macro_f1(pairs, class_set=[1])

    def test_class_set_extends_denominator(self):
        assert macro_f1(MIXED, class_set=[1, 2, 3, 4]) == pytest.approx(0.25)

    def test_matches_brute_route(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pairs = random_pairs(rng)
            assert macro_f1(pairs) == brute_macro_f1(pairs, {t for t, _ in pairs})

    def test_empty_class_set_rejected(self):
        with pytest.raises(MetricsError, match="empty class set"):
            macro_f1(MIXED, class_set=[])


class TestHier:
    def test_half_by_hand(self):
        # true leaf 3, predicted its sibling 4: ancestor sets {1,3} vs
        # {1,4} overlap in 1 of 2 on both sides.
        tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n2 5\n")
        assert hier_f1([(3, 4)], tax) == 0.5

    def test_cross_tree_mistake_scores_zero(self):
        tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n2 5\n")
        assert hier_f1([(3, 5)], tax) == 0.0

    def test_perfect_predictions(self):
        tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n2 5\n")
        assert hier_f1([(3, 3), (5, 5), (4, 4)], tax) == 1.0

    def test_near_miss_beats_far_miss(self):
        tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n2 5\n")
        assert hier_f1([(3, 4)], tax) > hier_f1([(3, 5)], tax)

    def test_unknown_label_rejected(self):
        tax = parse_taxonomy("0 1\n0 2\n")
        with pytest.raises(MetricsError, match="not in the hierarchy"):
            hier_f1([(1, 99)], tax)

    def test_internal_label_rejected(self):
        tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n")
        for pairs, label in (([(3, 1)], 1), ([(0, 3)], 0)):
            with pytest.raises(MetricsError, match=f"label {label} is not a leaf of the hierarchy"):
                hier_f1(pairs, tax)

    def test_matches_brute_route_on_random_trees(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            tax = random_taxonomy(rng, int(rng.integers(3, 31)))
            leaves = sorted(tax.leaves)
            pairs = [
                (leaves[int(rng.integers(len(leaves)))], leaves[int(rng.integers(len(leaves)))])
                for _ in range(25)
            ]
            assert hier_f1(pairs, tax) == oracle_hier_f1(pairs, tax)


class TestRare:
    COUNTS = {1: 3, 2: 50, 3: 9, 4: 10}

    def test_strictly_below_threshold(self):
        assert rare_classes(self.COUNTS, 10) == [1, 3]
        assert rare_classes(self.COUNTS, 4) == [1]
        assert rare_classes(self.COUNTS, 1) == []

    def test_threshold_validated(self):
        with pytest.raises(MetricsError, match=">= 1"):
            rare_classes(self.COUNTS, 0)
        with pytest.raises(MetricsError, match=">= 1"):
            build_report([(1, 1)], rare_threshold=0)  # also without training counts

    def test_report_restricted_to_rare(self):
        pairs = [(1, 1), (2, 2), (3, 2), (4, 4)]
        report = rare_category_report(pairs, self.COUNTS, 10)
        assert sorted(report) == [1, 3]
        assert report[1].f1 == 1.0 and report[3].f1 == 0.0

    def test_rare_macro(self):
        pairs = [(1, 1), (2, 2), (3, 2), (4, 4)]

        def rare_macro(threshold):
            report = build_report(pairs, train_counts=self.COUNTS, rare_threshold=threshold)
            return report_as_dict(report)["rare_macro_f1"]

        assert rare_macro(10) == 0.5
        assert rare_macro(1) == 0.0
        assert rare_category_report(pairs, self.COUNTS, 1) == {}


class TestReport:
    def test_bundle_and_json_view(self):
        tax = parse_taxonomy("0 1\n0 2\n1 3\n1 4\n2 5\n")
        pairs = [(3, 3), (4, 3), (5, 5)]
        report = build_report(pairs, tax, train_counts={3: 2, 4: 20, 5: 20}, rare_threshold=10)
        as_dict = report_as_dict(report)
        assert set(as_dict) == {
            "micro_f1", "macro_f1", "hier_f1", "rare_threshold",
            "n_rare_classes", "rare_macro_f1",
        }
        assert as_dict["micro_f1"] == 2 / 3
        assert as_dict["hier_f1"] == report.hier_f1 is not None
        assert as_dict["n_rare_classes"] == 1
        assert as_dict["rare_macro_f1"] == report.rare_slice[3].f1

    def test_without_tree_or_counts(self):
        report = build_report(MIXED)
        assert report.hier_f1 is None and report.rare_slice == {}
        assert report_as_dict(report)["hier_f1"] is None

    def test_csv_layout(self):
        report = build_report([(1, 1), (2, 1)], train_counts={1: 5, 2: 30})
        out = io.StringIO()
        write_per_class_csv(report, out, train_counts={1: 5, 2: 30})
        lines = out.getvalue().splitlines()
        assert lines[0] == "class,precision,recall,f1,support,train_count"
        assert lines[1] == "1,0.5,1.0,0.6666666666666666,1,5"
        assert lines[2] == "2,0.0,0.0,0.0,1,30"

    def test_csv_without_counts_leaves_blank(self):
        report = build_report([(1, 1)])
        out = io.StringIO()
        write_per_class_csv(report, out)
        assert out.getvalue().splitlines()[1] == "1,1.0,1.0,1.0,1,"


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=50
    )
)
def test_micro_macro_bounds_and_brute_agreement(pairs):
    mu, ma = micro_f1(pairs), macro_f1(pairs)
    assert 0.0 <= mu <= 1.0 and 0.0 <= ma <= 1.0
    assert mu == brute_micro_f1(pairs)
    assert ma == brute_macro_f1(pairs, {t for t, _ in pairs})
