"""Spans and counters recorded around taxrewire's layer entry points.

The benchmark does not change the program to trace it.  A :class:`Tracer`
replaces each entry point listed in :func:`entry_points` with a wrapper
that records a span (name, start, end, parent, run id), plus counters
read from the call's arguments or result, and puts every original back
when it is closed.  Spans stay in memory until the benchmark writes them
out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from taxrewire import corpus, learner, metrics, rewire, simgraph, synthbench, taxonomy
from workloads import STAGES

CountFn = Callable[[Counter, Any, tuple, dict], None]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _count_entries(c: Counter, result, args, kwargs) -> None:
    c["corpus.entries"] += sum(v.nnz for v in result.vectors)


def _count_scored(c: Counter, result, args, kwargs) -> None:
    c["simgraph.pairs_scored"] += len(result)


def _count_kept(c: Counter, result, args, kwargs) -> None:
    c["simgraph.pairs_kept"] += len(result)


def _count_edits(c: Counter, result, args, kwargs) -> None:
    _, log = result
    for op, n in log.counts().items():
        c[f"rewire.{op}"] += n
    c["rewire.pairs"] += len(args[1] if len(args) > 1 else kwargs["pairs"])


def _count_solve(c: Counter, result, args, kwargs) -> None:
    c["solver.iterations"] += result.n_iter
    c["solver.unconverged"] += not result.converged


def _count_predict(c: Counter, result, args, kwargs) -> None:
    if isinstance(result, tuple):
        preds, evals = result
        c["learner.model_evals"] += evals
    else:
        preds = result
    c["learner.instances"] += len(preds)


def _count_model_bytes(c: Counter, result, args, kwargs) -> None:
    c["learner.model_bytes"] += len(result.encode("utf-8"))


def entry_points() -> list[tuple[object, str, str, CountFn | None]]:
    """(owner, attribute, span name, counter) of every traced entry point.

    ``minimize_lbfgs`` is wrapped where the learner looks it up, so every
    solve the learner starts is seen.
    """
    points: list[tuple[object, str, str, CountFn | None]] = []
    for name in ("parse_dataset", "serialize_dataset", "compute_idf", "serialize_idf",
                 "parse_idf", "apply_tfidf", "tfidf_normalize", "split_train_validation",
                 "concat_datasets", "with_constant_feature"):
        points.append((corpus, name, f"corpus.{name}",
                       _count_entries if name == "parse_dataset" else None))
    points.append((corpus.Dataset, "to_csr", "corpus.to_csr", None))
    for name in ("class_centroids", "all_pairs_scores", "select_pairs", "knee_rank",
                 "auto_threshold", "write_score_curve", "serialize_pair_set",
                 "parse_pair_set", "cosine"):
        count = {"all_pairs_scores": _count_scored, "select_pairs": _count_kept}.get(name)
        points.append((simgraph, name, f"simgraph.{name}", count))
    points += [
        (taxonomy, "parse_taxonomy", "taxonomy.parse_taxonomy", None),
        (taxonomy, "serialize_taxonomy", "taxonomy.serialize_taxonomy", None),
        (taxonomy.Taxonomy, "validate", "taxonomy.validate", None),
        (rewire, "rewire_hierarchy", "rewire.rewire_hierarchy", _count_edits),
        (rewire, "collapse_chains", "rewire.collapse_chains", None),
        (learner, "minimize_lbfgs", "solver.minimize_lbfgs", _count_solve),
        (learner, "train_topdown", "learner.train_topdown", None),
        (learner, "train_flat", "learner.train_flat", None),
        (learner, "train_node", "learner.train_node", None),
        (learner, "tune_c", "learner.tune_c", None),
        (learner, "lr_objective_gradient", "learner.lr_objective_gradient", None),
        (learner, "predict_dataset", "learner.predict_dataset", _count_predict),
        (learner, "serialize_model_set", "learner.serialize_model_set", _count_model_bytes),
        (learner, "parse_model_set", "learner.parse_model_set", None),
        (metrics, "build_report", "metrics.build_report", None),
        (metrics, "report_as_dict", "metrics.report_as_dict", None),
        (metrics, "write_per_class_csv", "metrics.write_per_class_csv", None),
        (synthbench, "gen_planted", "synthbench.gen_planted", None),
    ]
    return points


class Tracer:
    """Records spans and counters while installed; a context manager.

    Spans opened by a worker thread with nothing open in that thread take
    the innermost span open in the installing thread as their parent, so
    per-node training in a thread pool hangs under the training call.
    """

    def __init__(self, run: str, extra: tuple[tuple[object, str, str, CountFn | None], ...] = ()):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._points = entry_points() + list(extra)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[int] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self._local.stack = self._main
        for owner, attr, name, count in self._points:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc) -> None:
        """Put every wrapped entry point back, also when the block raised."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span of the calling thread."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else next(reversed(self._main), None)
        sid = next(self._ids)  # itertools.count is atomic under the GIL
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    def _wrap(self, original: Callable, name: str, count: CountFn | None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                with tracer._lock:  # solver counters update from pool threads
                    count(tracer.counts, result, args, kwargs)
            return result

        return traced


# ----------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans.

    Children from parallel threads may overlap; their union is subtracted.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def busy_time(spans: list[Span], names: set[str]) -> float:
    """Summed duration of the spans named in ``names`` that have no
    ancestor also named in ``names`` (so nested calls count once).
    Spans of parallel threads add up."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            total += s.end - s.start
    return total


# per-layer time metric -> span names it covers
LAYER_TIMES: dict[str, set[str]] = {
    "corpus.parse_s": {"corpus.parse_dataset"},
    "corpus.tfidf_s": {"corpus.tfidf_normalize", "corpus.compute_idf", "corpus.apply_tfidf"},
    "simgraph.centroids_s": {"simgraph.class_centroids"},
    "simgraph.score_s": {"simgraph.all_pairs_scores"},
    "simgraph.select_s": {"simgraph.select_pairs", "simgraph.auto_threshold",
                          "simgraph.knee_rank"},
    "taxonomy.validate_s": {"taxonomy.validate"},
    "rewire.rewire_s": {"rewire.rewire_hierarchy"},
    "solver.solve_s": {"solver.minimize_lbfgs"},
    "learner.train_s": {"learner.train_topdown", "learner.train_flat"},
    "learner.objective_s": {"learner.lr_objective_gradient"},
    "learner.predict_s": {"learner.predict_dataset"},
    "learner.model_write_s": {"learner.serialize_model_set"},
    "learner.model_read_s": {"learner.parse_model_set"},
    "metrics.report_s": {"metrics.build_report"},
    "synthbench.generate_s": {"synthbench.gen_planted", "bench.gen_text"},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (s) and counts of one traced pipeline run."""
    spans, c = tracer.spans, tracer.counts
    out = {name: busy_time(spans, names) for name, names in LAYER_TIMES.items()}
    selfs = self_times(spans)
    for stage in STAGES:
        out[f"cli.{stage}_s"] = busy_time(spans, {f"cli.{stage}"})
    out["cli.self_s"] = sum(selfs[s.id] for s in spans if s.name.startswith("cli."))
    n = Counter(s.name for s in spans)
    edits = c["rewire.node_create"] + c["rewire.pc_rewire"] + c["rewire.node_delete"]
    out.update({
        "corpus.entries": c["corpus.entries"],
        "simgraph.pairs_scored": c["simgraph.pairs_scored"],
        "simgraph.pairs_kept": c["simgraph.pairs_kept"],
        "simgraph.kept_ratio": _ratio(c["simgraph.pairs_kept"], c["simgraph.pairs_scored"]),
        "taxonomy.trees_validated": n["taxonomy.validate"],
        "rewire.node_create": c["rewire.node_create"],
        "rewire.pc_rewire": c["rewire.pc_rewire"],
        "rewire.node_delete": c["rewire.node_delete"],
        "rewire.edits_per_pair": _ratio(edits, c["rewire.pairs"]),
        "solver.solves": n["solver.minimize_lbfgs"],
        "solver.iterations": c["solver.iterations"],
        "solver.unconverged": c["solver.unconverged"],
        "learner.objective_evals": n["learner.lr_objective_gradient"],
        "learner.evals_per_iteration": _ratio(n["learner.lr_objective_gradient"],
                                              c["solver.iterations"]),
        "learner.model_evals": c["learner.model_evals"],
        "learner.evals_per_instance": _ratio(c["learner.model_evals"], c["learner.instances"]),
        "learner.model_bytes": c["learner.model_bytes"],
    })
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """All spans as JSON lines, each with its self time."""
    with path.open("w", encoding="utf-8") as f:
        for t in tracers:
            selfs = self_times(t.spans)
            for s in sorted(t.spans, key=lambda s: s.start):
                f.write(json.dumps({
                    "run": s.run, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "self": selfs[s.id],
                }) + "\n")
