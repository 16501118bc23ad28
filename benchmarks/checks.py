"""Output checks and quality scores of one pipeline run.

Each check returns ``(name, ok, detail)``; the benchmark counts every
check it makes as an attempted operation and every failed one into
``ops_failed``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

from taxrewire import rewire, taxonomy

Check = tuple[str, bool, str]


def digest(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under ``root``."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def same_files(name: str, a: dict[str, str], b: dict[str, str]) -> Check:
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return name, not differ, f"files differ: {differ[:5]}" if differ else ""


def _tree(path: Path) -> taxonomy.Taxonomy:
    return taxonomy.parse_taxonomy(path.read_text(encoding="utf-8"))


def sibling_pairs(tax: taxonomy.Taxonomy, classes: frozenset[int]) -> set[tuple[int, int]]:
    """Unordered pairs of class leaves that share a parent."""
    out = set()
    for node in tax.internal_nodes:
        kids = [c for c in tax.children(node) if c in classes]
        out.update(combinations(kids, 2))
    return out


def sibling_f1(true: taxonomy.Taxonomy, found: taxonomy.Taxonomy) -> float:
    """F1 of the found tree's same-parent leaf pairs against the true tree's."""
    classes = true.leaves
    want, got = sibling_pairs(true, classes), sibling_pairs(found, classes)
    hit = len(want & got)
    if not hit:
        return 0.0
    precision, recall = hit / len(got), hit / len(want)
    return 2 * precision * recall / (precision + recall)


def _test_labels(path: Path) -> list[int]:
    return [int(line.split(" ", 1)[0]) for line in path.read_text(encoding="utf-8").splitlines()]


def check_outputs(inputs: Path, out: Path, method: str | None) -> list[Check]:
    """Correctness checks of one run's artifacts under ``out``."""
    corrupted = _tree(inputs / "corrupted.edges")
    modified = _tree(out / "rewire" / "modified.edges")
    log = rewire.RewireLog.from_jsonl(
        (out / "rewire" / "rewire_log.jsonl").read_text(encoding="utf-8")
    )
    checks: list[Check] = [
        ("rewire keeps the class leaves", modified.leaves == corrupted.leaves,
         f"{len(modified.leaves)} leaves vs {len(corrupted.leaves)}"),
        ("rewire log replays to modified.edges",
         rewire.replay_log(corrupted, log) == modified, ""),
    ]
    if method is None:
        return checks

    truth = _test_labels(inputs / "test.txt")
    rows = [line.split() for line in
            (out / "predict" / "predictions.txt").read_text(encoding="utf-8").splitlines()]
    try:
        pairs = [(int(i), int(label)) for i, label in rows]
    except ValueError:  # a row that is not two integers
        pairs = []
    preds = [label for _, label in pairs]
    covered = [i for i, _ in pairs] == list(range(len(truth))) and set(preds) <= modified.leaves
    checks.append(("predictions cover every test instance with a leaf", covered,
                   f"{len(rows)} rows for {len(truth)} instances"))
    if not covered:
        return checks

    if method == "flat":
        expected = len(truth) * len(modified.leaves)
    else:
        # td-lr scores every child of each node on the root-to-leaf path.
        expected = sum(
            len(modified.children(node))
            for leaf in preds for node in modified.ancestors(leaf)
        )
    summary = json.loads((out / "predict" / "predict_summary.json").read_text(encoding="utf-8"))
    evals = summary["n_model_evaluations"]
    checks.append(("model evaluation count is exact", evals == expected,
                   f"{evals} reported, {expected} expected"))

    accuracy = sum(t == p for t, p in zip(truth, preds)) / len(truth)
    micro = quality(inputs, out)["micro_f1"]
    checks.append(("micro_f1 equals plain accuracy", abs(micro - accuracy) <= 1e-12,
                   f"micro_f1 {micro!r}, accuracy {accuracy!r}"))
    return checks


def quality(inputs: Path, out: Path) -> dict[str, float]:
    """Repair and classification quality of one run against the planted tree."""
    scores = {"sibling_f1": sibling_f1(_tree(inputs / "true.edges"),
                                       _tree(out / "rewire" / "modified.edges"))}
    report = out / "evaluate" / "metrics.json"
    if report.exists():
        payload = json.loads(report.read_text(encoding="utf-8"))
        scores.update({k: payload[k] for k in ("micro_f1", "macro_f1", "hier_f1")})
    return scores
