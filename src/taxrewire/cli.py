"""Command-line pipeline for taxonomy rewiring and hierarchical classification.

Subcommands, in pipeline order:

  bench       generate a planted benchmark (true tree, corrupted tree, data)
  similarity  score class-centroid pairs and select the similar ones
              (--tau, --top-k, or by default the knee of the score curve)
  rewire      correct a hierarchy using the selected pairs
  train       fit a top-down or flat classifier, optionally tuning C
  predict     label instances with a trained model file
  evaluate    score predictions against --hierarchy (micro/macro/hierarchical
              F1, rare slice); pass modified.edges to score on the repaired tree

Every command takes --out DIR, which must be new or an empty directory.
Each ``cmd_*`` returns its fixed-named artifacts as ``{file name: text |
JSON dict | writer function}``; :func:`main` writes them into a fresh
directory beside --out once the command has returned and renames it to
--out, so a command that fails, or an artifact that cannot be written,
leaves no --out behind.
Outputs embed the semantic configuration (never paths, --out, or
train's --workers) and contain no timestamps, so reruns with the same
inputs and flags are byte-identical.

Exit codes: 0 success, 2 usage, 3 missing input file, 4 malformed
hierarchy/dataset file, 5 model/hierarchy fingerprint mismatch, 6 other
invalid input or configuration (including a pair that names a node
which is not a class leaf, an evaluated label that is not a leaf of
--hierarchy, a --rare-threshold below 1, tf-idf features that are all
zero, a tf-idf model given no --idf or a raw-feature model given one,
an input too large to allocate, an --out that is a file, lies under one
or is a non-empty directory, and an artifact that cannot be written).
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import corpus, learner, metrics, rewire, simgraph, synthbench, taxonomy
from .learner import FingerprintMismatchError, LearnerError
from .rewire import RewireError
from .taxonomy import TaxonomyError
from .corpus import DatasetFormatError

# Ranks of the sorted pair table that similarity writes to pairs.csv.
_CURVE_SAMPLE_ROWS = 1_024


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _provenance(args: argparse.Namespace) -> dict:
    """Semantic flags only: no paths, no --out, no --workers."""
    skip = {
        "func", "command", "out", "workers", "data", "hierarchy", "pairs",
        "model", "idf", "cost_file", "predictions", "train_data",
    }
    config = {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}
    config["command"] = args.command
    return config


def _config_line(args: argparse.Namespace) -> str:
    return "# config " + json.dumps(_provenance(args), sort_keys=True)


def _check_out(out: Path) -> None:
    """Fail before the command runs if --out is a file, under one, or not empty."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if out.is_symlink() or not existing.is_dir():
        raise ValueError(f"--out {out} is a file or lies under one")
    if existing == out and any(out.iterdir()):
        raise ValueError(f"--out {out} is not empty")


def _write_artifacts(args: argparse.Namespace, artifacts: dict) -> None:
    """Write each artifact into a fresh directory, then rename it to --out.

    JSON artifacts get the config added.  If anything fails, the fresh
    directory and the parents of --out made for it are removed, --out is
    left as it was, and an OSError is raised as ValueError.
    """
    out = Path(args.out)
    made = list(itertools.takewhile(lambda p: not p.exists(), out.parents))  # deepest first
    tmp = None
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
        for name, body in artifacts.items():
            with (tmp / name).open("w", encoding="utf-8") as fh:
                if isinstance(body, dict):
                    payload = {**body, "config": _provenance(args)}
                    fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
                elif callable(body):
                    body(fh)
                else:
                    fh.write(body)
        umask = os.umask(0)  # mkdtemp makes the directory 0700; give it the usual mode
        os.umask(umask)
        tmp.chmod(0o777 & ~umask)
        os.replace(tmp, out)
    except BaseException as exc:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        for parent in made:
            try:
                parent.rmdir()
            except OSError:
                break
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write --out {out}: {exc}") from None
        raise


def _load_hierarchy(path: str) -> taxonomy.Taxonomy:
    return taxonomy.parse_taxonomy(_read(path))


def _check_tfidf(data: corpus.Dataset) -> corpus.Dataset:
    """``data``, the tf-idf features of a command, unless every one is zero."""
    if not data.to_csr().nnz:
        raise ValueError(
            "tf-idf leaves no nonzero feature (a feature in every instance gets idf 0);"
            " pass --no-tfidf"
        )
    return data


# ----------------------------------------------------------------------
# subcommands


def cmd_similarity(args: argparse.Namespace) -> dict:
    tax = _load_hierarchy(args.hierarchy)
    data = corpus.parse_dataset(_read(args.data))
    if not args.no_tfidf:
        data = _check_tfidf(corpus.tfidf_normalize(data))
    centroids = simgraph.class_centroids(data, tax.leaves)
    scores = simgraph.all_pairs_scores(centroids)
    if args.tau is None and args.top_k is None:
        selected = simgraph.select_at_knee(scores)
    else:
        selected = simgraph.select_pairs(scores, tau=args.tau, top_k=args.top_k)

    def write_pairs(fh) -> None:
        fh.write(_config_line(args) + "\n")
        simgraph.write_pair_set(selected, fh)

    return {
        "pairs.csv": lambda fh: simgraph.write_score_curve(scores, fh, sample=_CURVE_SAMPLE_ROWS),
        "pairs.txt": write_pairs,
        "similarity_summary.json": {
            "n_classes": centroids.n,
            "n_pairs": len(scores),
            "n_selected": len(selected),
            "tau_selected": selected.tau,
        },
    }


def cmd_rewire(args: argparse.Namespace) -> dict:
    tax = _load_hierarchy(args.hierarchy)
    selected = simgraph.parse_pair_set(_read(args.pairs))
    before_leaves = tax.leaves
    modified, log = rewire.rewire_hierarchy(tax, selected)
    if args.collapse_chains:
        modified, collapse_ops = rewire.collapse_chains(modified)
        log.ops.extend(collapse_ops)
    if modified.leaves != before_leaves:  # pragma: no cover - structural guarantee
        raise RewireError("rewiring changed the class leaves")

    return {
        "modified.edges": _config_line(args) + "\n" + taxonomy.serialize_taxonomy(modified),
        "rewire_log.jsonl": log.to_jsonl(),
        "rewire_summary.json": {
            "n_pairs_used": len(selected),
            "tau_selected": selected.tau,
            "operations": log.counts(),
            "nodes_before": len(tax),
            "nodes_after": len(modified),
            "n_leaves": len(modified.leaves),
            "fingerprint_before": tax.fingerprint(),
            "fingerprint_after": modified.fingerprint(),
        },
    }


def _parse_grid(text: str) -> list[float]:
    if text == "default":
        return list(learner.DEFAULT_C_GRID)
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise LearnerError(f"bad grid {text!r}; use 'default' or comma-separated floats") from None


def cmd_train(args: argparse.Namespace) -> dict:
    if args.per_node_C and args.grid is None:
        raise LearnerError("--per-node-C needs --grid")
    artifacts: dict = {}
    tax = _load_hierarchy(args.hierarchy)
    raw = corpus.parse_dataset(_read(args.data))
    if args.no_tfidf:
        data = raw
    else:
        idf = corpus.compute_idf(raw)
        data = _check_tfidf(corpus.apply_tfidf(raw, idf))
        artifacts["idf.txt"] = corpus.serialize_idf(idf)
    if args.bias:
        data = corpus.with_constant_feature(data, data.dimensionality + 1)

    costs = None
    if args.cost_file is not None:
        costs = learner.parse_costs(_read(args.cost_file))
        if costs.shape[0] != data.n:
            raise LearnerError(
                f"cost file has {costs.shape[0]} entries for {data.n} instances"
            )

    kwargs = dict(grad_tol=args.grad_tol, max_iter=args.max_iter)
    summary: dict = {"n_instances": data.n, "n_classes": len(tax.leaves)}
    if args.C is not None:
        trainer = learner.train_topdown if args.method == "td-lr" else learner.train_flat
        model_set = trainer(tax, data, args.C, costs, **kwargs)
        summary["c_selected"] = args.C
    else:
        tuned = learner.tune_c(
            tax, data, _parse_grid(args.grid), mode=args.method, costs=costs,
            split=args.split, seed=args.seed, per_node=args.per_node_C, **kwargs,
        )
        model_set = tuned.model_set
        summary["c_selected"] = (
            {str(k): v for k, v in sorted(tuned.best_c.items())}
            if isinstance(tuned.best_c, dict) else tuned.best_c
        )
        summary["grid"] = tuned.grid
        summary["grid_scores"] = {repr(k): v for k, v in sorted(tuned.scores.items())}
        summary["split"] = dict(zip(("train", "validation"), tuned.split))

    summary["n_models"] = len(model_set.models)
    summary["n_unconverged"] = sum(1 for m in model_set.models.values() if not m.converged)
    summary["fingerprint"] = model_set.fingerprint
    model_set.extra_headers["config"] = json.dumps(_provenance(args), sort_keys=True)
    if args.bias:
        model_set.extra_headers["bias"] = "1"
    if not args.no_tfidf:
        model_set.extra_headers["tfidf"] = "1"
    artifacts["model.txt"] = learner.serialize_model_set(model_set)
    artifacts["train_summary.json"] = summary
    return artifacts


def cmd_predict(args: argparse.Namespace) -> dict:
    model_set = learner.parse_model_set(_read(args.model))
    tfidf = model_set.extra_headers.get("tfidf") == "1"
    if tfidf and args.idf is None:
        raise LearnerError("the model was trained on tf-idf features; pass its --idf table")
    if not tfidf and args.idf is not None:
        raise LearnerError("the model was trained on raw features (--no-tfidf); drop --idf")
    data = corpus.parse_dataset(_read(args.data))
    if args.idf is not None:
        data = corpus.apply_tfidf(data, corpus.parse_idf(_read(args.idf)))
    if model_set.extra_headers.get("bias") == "1":
        data = corpus.with_constant_feature(data, model_set.dimensionality)
    tax = _load_hierarchy(args.hierarchy) if args.hierarchy else None
    if model_set.mode == "td-lr" and tax is None:
        raise LearnerError("--hierarchy is required for td-lr models")
    preds, n_evals = learner.predict_dataset(model_set, data, tax, return_evals=True)

    # one line per instance, nothing else: downstream tools count lines
    lines = [f"{i} {label}" for i, label in enumerate(preds)]
    return {
        "predictions.txt": "\n".join(lines) + "\n",
        "predict_summary.json": {
            "mode": model_set.mode,
            "n_instances": data.n,
            "n_model_evaluations": n_evals,
        },
    }


def _parse_predictions(text: str, expected: int) -> list[int]:
    rows: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise DatasetFormatError(f"line {lineno}: expected 'index label'")
        try:
            idx, label = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric prediction") from None
        if idx in rows:
            raise DatasetFormatError(f"line {lineno}: duplicate index {idx}")
        rows[idx] = label
    if sorted(rows) != list(range(expected)):
        raise DatasetFormatError(
            f"predictions cover {len(rows)} instances, expected 0..{expected - 1}"
        )
    return [rows[i] for i in range(expected)]


def cmd_evaluate(args: argparse.Namespace) -> dict:
    labels = corpus.parse_labels(_read(args.data))
    preds = _parse_predictions(_read(args.predictions), len(labels))
    tax = _load_hierarchy(args.hierarchy)

    train_counts = None
    if args.train_data is not None:
        train_counts = collections.Counter(corpus.parse_labels(_read(args.train_data)))

    pairs = list(zip(labels, preds))
    class_set = sorted(tax.leaves) if args.macro_classes == "all" else None
    report = metrics.build_report(
        pairs, tax, train_counts,
        rare_threshold=args.rare_threshold, class_set=class_set,
    )
    payload = metrics.report_as_dict(report)
    payload["n_instances"] = len(labels)
    return {
        "metrics.json": payload,
        "per_class.csv": lambda fh: metrics.write_per_class_csv(report, fh, train_counts),
    }


def _parse_count(text: str) -> int | tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    return int(text)


def cmd_bench(args: argparse.Namespace) -> dict:
    config = synthbench.PlantConfig(
        n_leaves=args.leaves,
        fanout=args.fanout,
        dims=args.dims,
        instances_per_leaf=_parse_count(args.instances_per_leaf),
        noise=args.noise,
        n_misplaced=args.misplaced,
        seed=args.seed,
        leaf_weight=args.leaf_weight,
    )
    bench = synthbench.gen_planted(config)
    return {
        "true.edges": taxonomy.serialize_taxonomy(bench.true_tree),
        "corrupted.edges": taxonomy.serialize_taxonomy(bench.corrupted_tree),
        "data.txt": corpus.serialize_dataset(bench.data),
        "bench_summary.json": {
            "n_instances": bench.data.n,
            "n_leaves": len(bench.true_tree.leaves),
            "misplaced": {str(k): list(v) for k, v in sorted(bench.misplaced.items())},
            "fingerprint_true": bench.true_tree.fingerprint(),
            "fingerprint_corrupted": bench.corrupted_tree.fingerprint(),
        },
    }


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxrewire",
        description="Similarity-driven taxonomy rewiring and hierarchical classification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("similarity", help="score and select similar class pairs")
    sim.add_argument("--data", required=True, help="training data (label idx:val ...)")
    sim.add_argument("--hierarchy", required=True, help="taxonomy edge list")
    sim.add_argument("--out", required=True, help="output directory")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None,
                       help="keep pairs with cosine strictly above this threshold")
    group.add_argument("--top-k", type=int, default=None,
                       help="keep the k most similar pairs (with neither flag: every "
                            "pair scoring at least the knee of the score curve)")
    sim.add_argument("--no-tfidf", action="store_true", help="use raw feature values")
    sim.set_defaults(func=cmd_similarity)

    rew = subs.add_parser("rewire", help="correct a hierarchy from similar pairs")
    rew.add_argument("--hierarchy", required=True)
    rew.add_argument("--out", required=True)
    rew.add_argument("--pairs", required=True, help="pair list from the similarity step")
    rew.add_argument("--collapse-chains", action="store_true",
                     help="splice out single-child internal nodes afterwards")
    rew.set_defaults(func=cmd_rewire)

    tr = subs.add_parser("train", help="fit a hierarchical or flat classifier")
    tr.add_argument("--data", required=True)
    tr.add_argument("--hierarchy", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--method", choices=("td-lr", "flat"), default="td-lr")
    cgroup = tr.add_mutually_exclusive_group(required=True)
    cgroup.add_argument("--C", type=float, default=None, help="fixed regularization weight")
    cgroup.add_argument("--grid", default=None,
                        help="'default' or comma-separated C values to tune over")
    tr.add_argument("--split", type=float, default=0.9,
                    help="train fraction of the tuning split")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--cost-file", default=None, help="one positive weight per instance")
    tr.add_argument("--per-node-C", action="store_true",
                    help="tune C independently per node")
    tr.add_argument("--bias", action="store_true",
                    help="append a constant feature (off by default)")
    tr.add_argument("--no-tfidf", action="store_true")
    tr.add_argument("--grad-tol", type=float, default=1e-6)
    tr.add_argument("--max-iter", type=int, default=1000)
    tr.add_argument("--workers", type=int, default=1, help="changes nothing; kept for old scripts")
    tr.set_defaults(func=cmd_train)

    pr = subs.add_parser("predict", help="label instances with a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--hierarchy", default=None,
                    help="taxonomy the model was trained on (required for td-lr)")
    pr.add_argument("--idf", default=None,
                    help="idf table from the train step, for tf-idf data")
    pr.set_defaults(func=cmd_predict)

    ev = subs.add_parser("evaluate", help="score a prediction file")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--data", required=True, help="test data with true labels")
    ev.add_argument("--hierarchy", required=True,
                    help="taxonomy to score against (modified.edges for the repaired tree)")
    ev.add_argument("--train-data", default=None,
                    help="training data, enables the rare-category slice")
    ev.add_argument("--rare-threshold", type=int, default=10)
    ev.add_argument("--macro-classes", choices=("test", "all"), default="test",
                    help="average over classes seen in the test truth, or all leaves")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    be = subs.add_parser("bench", help="generate a planted benchmark")
    be.add_argument("--out", required=True)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--fanout", type=int, default=3)
    be.add_argument("--leaves", type=int, default=27)
    be.add_argument("--dims", type=int, default=32)
    be.add_argument("--instances-per-leaf", default="8",
                    help="fixed count or inclusive lo:hi range")
    be.add_argument("--noise", type=float, default=0.1)
    be.add_argument("--misplaced", type=int, default=2)
    be.add_argument("--leaf-weight", type=float, default=0.5)
    be.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        _check_out(Path(args.out))
        _write_artifacts(args, args.func(args))
        return 0
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FingerprintMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (TaxonomyError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except MemoryError:
        print("error: the input is too large to allocate; a vector is as long as the largest"
              " feature index, or a model's #dimensionality", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
