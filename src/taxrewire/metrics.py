"""Evaluation metrics for single-label hierarchical classification.

All functions take a list of (true_leaf, predicted_leaf) pairs.  The
hierarchical score additionally needs the taxonomy the labels live in:
each label is expanded to its ancestor set (the node itself and all
ancestors except the root) and precision/recall are pooled over the
overlaps of those sets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

from .taxonomy import Taxonomy


class MetricsError(ValueError):
    """Raised for empty inputs, labels that are not leaves of the hierarchy,
    and a rare threshold below 1."""


class ClassStats(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


Pair = tuple[int, int]


def _check_pairs(pairs: Sequence[Pair]) -> None:
    if not pairs:
        raise MetricsError("no prediction pairs to score")


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    if precision == recall:
        # Harmonic mean of equal numbers is that number; keeps the pooled
        # score exactly equal to accuracy in the single-label case.
        return precision
    return 2.0 * precision * recall / (precision + recall)


def per_class_stats(
    pairs: Sequence[Pair], class_set: Iterable[int] | None = None
) -> dict[int, ClassStats]:
    """Precision/recall/F1 and true-label support per class.

    Classes scored are the union of true and predicted labels unless an
    explicit ``class_set`` is given.  A class never predicted and never
    true gets all-zero stats.
    """
    _check_pairs(pairs)
    tp: dict[int, int] = {}
    fp: dict[int, int] = {}
    fn: dict[int, int] = {}
    for true, pred in pairs:
        if true == pred:
            tp[true] = tp.get(true, 0) + 1
        else:
            fp[pred] = fp.get(pred, 0) + 1
            fn[true] = fn.get(true, 0) + 1
    if class_set is None:
        classes = sorted({t for t, _ in pairs} | {p for _, p in pairs})
    else:
        classes = sorted(set(class_set))
    out: dict[int, ClassStats] = {}
    for cls in classes:
        t, f_pos, f_neg = tp.get(cls, 0), fp.get(cls, 0), fn.get(cls, 0)
        precision = t / (t + f_pos) if t + f_pos else 0.0
        recall = t / (t + f_neg) if t + f_neg else 0.0
        out[cls] = ClassStats(precision, recall, _f1(precision, recall), t + f_neg)
    return out


def micro_f1(pairs: Sequence[Pair]) -> float:
    """Pooled-count F1.  For single-label data this equals plain accuracy."""
    _check_pairs(pairs)
    tp = sum(1 for t, p in pairs if t == p)
    fp = len(pairs) - tp
    fn = len(pairs) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return _f1(precision, recall)


def macro_f1(pairs: Sequence[Pair], class_set: Iterable[int] | None = None) -> float:
    """Unweighted mean of per-class F1 scores.

    Averages over the classes present in the truth by default; pass an
    explicit ``class_set`` to average over a fixed class universe instead
    (classes without any true or predicted instance contribute 0).
    """
    _check_pairs(pairs)
    if class_set is None:
        class_set = {t for t, _ in pairs}
    stats = per_class_stats(pairs, class_set)
    if not stats:
        raise MetricsError("macro-F1 over an empty class set")
    return sum(s.f1 for s in stats.values()) / len(stats)


def _ancestor_set(tax: Taxonomy, node: int) -> frozenset[int]:
    if node not in tax:
        raise MetricsError(f"label {node} is not in the hierarchy")
    if node not in tax.leaves:
        raise MetricsError(f"label {node} is not a leaf of the hierarchy")
    return frozenset(n for n in tax.path_to_root(node) if n != tax.root)


def hier_f1(pairs: Sequence[Pair], tax: Taxonomy) -> float:
    """Ancestor-overlap F1.

    Each label, which must be a leaf of ``tax``, contributes its ancestor
    set (itself included, root excluded); precision pools overlap over
    predicted-set sizes, recall over true-set sizes.  Mistakes between
    nearby leaves therefore cost less than mistakes across the tree.
    """
    _check_pairs(pairs)
    overlap = 0
    pred_total = 0
    true_total = 0
    cache: dict[int, frozenset[int]] = {}
    for true, pred in pairs:
        if true not in cache:
            cache[true] = _ancestor_set(tax, true)
        if pred not in cache:
            cache[pred] = _ancestor_set(tax, pred)
        a_true, a_pred = cache[true], cache[pred]
        overlap += len(a_true & a_pred)
        pred_total += len(a_pred)
        true_total += len(a_true)
    precision = overlap / pred_total if pred_total else 0.0
    recall = overlap / true_total if true_total else 0.0
    return _f1(precision, recall)


def rare_classes(train_counts: dict[int, int], threshold: int) -> list[int]:
    """Classes seen fewer than ``threshold`` times in training, ascending."""
    if threshold < 1:
        raise MetricsError(f"rare threshold must be >= 1, got {threshold}")
    return sorted(c for c, n in train_counts.items() if n < threshold)


def rare_category_report(
    pairs: Sequence[Pair], train_counts: dict[int, int], threshold: int = 10
) -> dict[int, ClassStats]:
    """Per-class stats restricted to the rare-in-training classes."""
    rare = rare_classes(train_counts, threshold)
    if not rare:
        return {}
    stats = per_class_stats(pairs, rare)
    return {c: stats[c] for c in rare}


@dataclass
class MetricsReport:
    micro_f1: float
    macro_f1: float
    hier_f1: float | None
    per_class: dict[int, ClassStats]
    rare_slice: dict[int, ClassStats]
    rare_threshold: int


def build_report(
    pairs: Sequence[Pair],
    tax: Taxonomy | None = None,
    train_counts: dict[int, int] | None = None,
    rare_threshold: int = 10,
    class_set: Iterable[int] | None = None,
) -> MetricsReport:
    """Bundle the full metric suite for one prediction run."""
    return MetricsReport(
        micro_f1=micro_f1(pairs),
        macro_f1=macro_f1(pairs, class_set),
        hier_f1=hier_f1(pairs, tax) if tax is not None else None,
        per_class=per_class_stats(pairs, class_set),
        # Without training counts no class is rare, but the threshold is
        # still checked.
        rare_slice=rare_category_report(pairs, train_counts or {}, rare_threshold),
        rare_threshold=rare_threshold,
    )


def report_as_dict(report: MetricsReport) -> dict:
    """JSON-ready view of a report (class keys as strings, sorted)."""
    return {
        "micro_f1": report.micro_f1,
        "macro_f1": report.macro_f1,
        "hier_f1": report.hier_f1,
        "rare_threshold": report.rare_threshold,
        "n_rare_classes": len(report.rare_slice),
        "rare_macro_f1": (
            sum(s.f1 for s in report.rare_slice.values()) / len(report.rare_slice)
            if report.rare_slice
            else 0.0
        ),
    }


def write_per_class_csv(
    report: MetricsReport, out: IO[str], train_counts: dict[int, int] | None = None
) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["class", "precision", "recall", "f1", "support", "train_count"])
    counts = train_counts or {}
    for cls in sorted(report.per_class):
        s = report.per_class[cls]
        writer.writerow(
            [cls, repr(s.precision), repr(s.recall), repr(s.f1), s.support, counts.get(cls, "")]
        )
