"""End-to-end pipeline runs through the console entry point, in process."""

import base64
import collections
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import taxrewire
from taxrewire import corpus
from taxrewire.cli import main
from taxrewire.corpus import parse_dataset
from taxrewire.learner import serialize_model_set, train_flat, train_topdown
from taxrewire.metrics import build_report, report_as_dict, write_per_class_csv
from taxrewire.rewire import RewireLog, replay_log
from taxrewire.simgraph import class_centroids, parse_pair_set
from taxrewire.taxonomy import parse_taxonomy, serialize_taxonomy

from reference_impls import csv_score_curve, per_pair_scores

BENCH_ARGS = [
    "--seed", "7", "--fanout", "3", "--leaves", "9", "--dims", "16",
    "--instances-per-leaf", "6", "--noise", "0.08", "--misplaced", "1",
]


def run(*argv) -> int:
    return main([str(a) for a in argv])


def model_lines(out: Path) -> list[str]:
    """The node lines of ``out/model.txt``, without its ``#`` headers."""
    return [l for l in (out / "model.txt").read_text().splitlines() if not l.startswith("#")]


def b64(values: np.ndarray, dtype: str) -> str:
    return base64.b64encode(values.astype(dtype).tobytes()).decode("ascii")


def node_line(node: str, idx: np.ndarray, weights: np.ndarray) -> str:
    """A ``model.txt`` node line: the node, its indices and its weights."""
    return f"{node} {b64(idx, '<i8')} {b64(weights, '<f8')}"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run: bench -> similarity -> rewire -> train -> predict -> evaluate."""
    root = tmp_path_factory.mktemp("pipeline")
    b, s, r, t, p, e = (root / name for name in "bench sim rewire train predict eval".split())
    assert run("bench", "--out", b, *BENCH_ARGS) == 0
    assert run(
        "similarity", "--data", b / "data.txt", "--hierarchy", b / "corrupted.edges",
        "--out", s, "--no-tfidf",
    ) == 0
    assert run(
        "rewire", "--hierarchy", b / "corrupted.edges", "--pairs", s / "pairs.txt",
        "--out", r,
    ) == 0
    assert run(
        "train", "--data", b / "data.txt", "--hierarchy", r / "modified.edges",
        "--out", t, "--method", "td-lr", "--C", "10", "--no-tfidf",
    ) == 0
    assert run(
        "predict", "--model", t / "model.txt", "--data", b / "data.txt",
        "--hierarchy", r / "modified.edges", "--out", p,
    ) == 0
    assert run(
        "evaluate", "--predictions", p / "predictions.txt", "--data", b / "data.txt",
        "--hierarchy", r / "modified.edges", "--train-data", b / "data.txt", "--out", e,
    ) == 0
    return {"bench": b, "sim": s, "rewire": r, "train": t, "predict": p, "eval": e}


class TestArtifacts:
    def test_bench_outputs(self, pipeline):
        b = pipeline["bench"]
        for name in ("true.edges", "corrupted.edges", "data.txt", "bench_summary.json"):
            assert (b / name).exists()
        summary = json.loads((b / "bench_summary.json").read_text())
        assert len(summary["misplaced"]) == 1
        assert summary["n_instances"] == 54
        assert summary["config"]["seed"] == 7
        corrupted = parse_taxonomy((b / "corrupted.edges").read_text())
        true = parse_taxonomy((b / "true.edges").read_text())
        assert corrupted.leaves == true.leaves

    def test_similarity_outputs(self, pipeline):
        s = pipeline["sim"]
        summary = json.loads((s / "similarity_summary.json").read_text())
        assert summary["n_classes"] == 9
        assert summary["n_pairs"] == 36
        assert 0 < summary["n_selected"] <= 36
        assert "tau_suggested" not in summary
        selected = parse_pair_set((s / "pairs.txt").read_text())
        assert len(selected) == summary["n_selected"]
        curve = (s / "pairs.csv").read_text().splitlines()
        assert curve[0] == "rank,class_a,class_b,score"
        assert len(curve) == 37
        # the default selection keeps the knee pair: every pair scoring at least tau
        scores = [float(line.split(",")[3]) for line in curve[1:]]
        assert summary["n_selected"] == sum(s >= summary["tau_selected"] for s in scores)

    def test_rewire_outputs_and_replay(self, pipeline):
        b, r = pipeline["bench"], pipeline["rewire"]
        summary = json.loads((r / "rewire_summary.json").read_text())
        assert summary["n_leaves"] == 9
        assert set(summary["operations"]) == {
            "node_create", "pc_rewire", "node_delete", "collapse",
        }
        modified = parse_taxonomy((r / "modified.edges").read_text())
        start = parse_taxonomy((b / "corrupted.edges").read_text())
        log = RewireLog.from_jsonl((r / "rewire_log.jsonl").read_text())
        assert replay_log(start, log) == modified
        assert summary["fingerprint_after"] == modified.fingerprint()
        # this seed plants an easily recovered corruption
        truth = parse_taxonomy((b / "true.edges").read_text())
        assert serialize_taxonomy(modified) == serialize_taxonomy(truth)

    def test_train_outputs(self, pipeline):
        t = pipeline["train"]
        summary = json.loads((t / "train_summary.json").read_text())
        assert summary["c_selected"] == 10.0
        assert summary["n_models"] == 12  # 13-node perfect tree minus the root
        assert summary["n_unconverged"] == 0
        assert not (t / "idf.txt").exists()  # --no-tfidf
        model_text = (t / "model.txt").read_text()
        assert model_text.startswith("#mode td-lr\n")
        assert "#config" in model_text
        assert "#tfidf" not in model_text  # --no-tfidf

    def test_predict_outputs(self, pipeline):
        p = pipeline["predict"]
        lines = (p / "predictions.txt").read_text().splitlines()
        assert len(lines) == 54  # exactly one line per instance
        assert all(not l.startswith("#") for l in lines)
        assert [int(l.split()[0]) for l in lines] == list(range(54))
        summary = json.loads((p / "predict_summary.json").read_text())
        assert summary["n_instances"] == 54
        assert summary["n_model_evaluations"] == 54 * 6  # 3 + 3 per instance

    def test_evaluate_outputs(self, pipeline):
        e = pipeline["eval"]
        payload = json.loads((e / "metrics.json").read_text())
        for key in ("micro_f1", "macro_f1", "hier_f1", "rare_threshold",
                    "n_rare_classes", "rare_macro_f1", "n_instances", "config"):
            assert key in payload
        assert payload["micro_f1"] == 1.0  # separable planted data
        assert payload["n_rare_classes"] == 9  # 6 per class < default threshold 10
        csv_lines = (e / "per_class.csv").read_text().splitlines()
        assert csv_lines[0] == "class,precision,recall,f1,support,train_count"
        assert len(csv_lines) == 10


@pytest.fixture(scope="module")
def bench81(tmp_path_factory):
    """A planted 81-leaf benchmark: 3,240 class pairs."""
    out = tmp_path_factory.mktemp("bench81")
    assert run("bench", "--out", out, "--seed", "3", "--leaves", "81") == 0
    return out


class TestScoreCurve:
    def test_curve_is_an_even_sample_of_the_full_curve(self, bench81, tmp_path):
        out = tmp_path / "sim"
        assert run(
            "similarity", "--data", bench81 / "data.txt",
            "--hierarchy", bench81 / "corrupted.edges", "--out", out,
            "--no-tfidf", "--top-k", "100",
        ) == 0
        # The full curve of the per-pair scorer and csv writer.
        data = parse_dataset((bench81 / "data.txt").read_text())
        leaves = parse_taxonomy((bench81 / "corrupted.edges").read_text()).leaves
        cents = class_centroids(data, leaves)
        buf = io.StringIO()
        csv_score_curve(per_pair_scores(dict(zip(cents.labels, cents.vectors))), buf)
        full_lines = buf.getvalue().splitlines()
        assert len(full_lines) == 1 + 3240

        lines = (out / "pairs.csv").read_text().splitlines()
        ranks = [int(line.split(",", 1)[0]) for line in lines[1:]]
        assert lines[0] == full_lines[0]
        assert [full_lines[r] for r in ranks] == lines[1:]
        assert ranks == sorted(set(ranks)) and len(lines) == 1 + 1024
        assert ranks[0] == 1 and ranks[-1] == 3240
        # Sampled ranks within the selection are the pairs of pairs.txt.
        selected = parse_pair_set((out / "pairs.txt").read_text())
        head = [line.split(",") for line in lines[1:] if int(line.split(",", 1)[0]) <= 100]
        assert len(head) == 32  # 1 + floor(j * 3239 / 1023) <= 100 for j = 0..31
        assert [(int(a), int(b)) for _, a, b, _ in head] == [
            (selected.a[int(r) - 1], selected.b[int(r) - 1]) for r, _, _, _ in head
        ]


class TestDeterminism:
    def test_bench_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "bench2"
        assert run("bench", "--out", again, *BENCH_ARGS) == 0
        for name in ("true.edges", "corrupted.edges", "data.txt", "bench_summary.json"):
            assert filecmp.cmp(pipeline["bench"] / name, again / name, shallow=False)

    @pytest.mark.parametrize("fit", [["--C", "1"], ["--grid", "0.1,10", "--split", "0.5"]])
    def test_train_workers_keep_exit_code_and_stderr(self, tmp_path, fit):
        # Leaf 3 has no instances: training warns about the empty leaf, and
        # the fit of node 3 finds no positives.
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n0 3\n")
        data = tmp_path / "d.txt"
        data.write_text("1 1:1.0\n1 1:0.9\n1 1:0.8\n1 1:0.7\n"
                        "2 2:1.0\n2 2:0.8\n2 2:0.6\n2 2:0.5\n")
        # Warnings print to stderr only outside pytest, so run the CLI in a child.
        src = str(Path(taxrewire.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        outcomes = []
        for workers in ("1", "2"):
            out = tmp_path / f"t{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "taxrewire.cli", "train", "--data", str(data),
                 "--hierarchy", str(tax), "--out", str(out), "--method", "flat",
                 "--no-tfidf", "--workers", workers, *fit],
                capture_output=True, text=True, env=env,
            )
            outcomes.append((proc.returncode, proc.stderr))
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 0
        assert "1 leaf classes have no training instances" in err
        assert err.count("node 3 has no positive training instances") == 1
        for name in ("model.txt", "train_summary.json"):
            assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t2" / name, shallow=False)

    def test_provenance_has_flags_but_no_paths(self, pipeline):
        summary = json.loads((pipeline["sim"] / "similarity_summary.json").read_text())
        config = summary["config"]
        assert config["command"] == "similarity"
        assert "seed" not in config  # similarity has no --seed
        assert config["no_tfidf"] is True
        for absent in ("out", "data", "hierarchy", "auto_tau"):
            assert absent not in config


class TestTrainModes:
    def test_tfidf_writes_idf_sidecar(self, pipeline, tmp_path):
        b = pipeline["bench"]
        out = tmp_path / "train_tfidf"
        # uniform planted features mean idf can zero everything; grid path
        # still needs to run, so keep raw features for the split instead
        assert run(
            "train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
            "--out", out, "--method", "flat", "--grid", "0.1,10", "--no-tfidf",
            "--split", "0.8", "--max-iter", "60",
        ) == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert summary["grid"] == [0.1, 10.0]
        assert set(summary["grid_scores"]) == {"0.1", "10.0"}
        assert summary["split"] == {"train": 44, "validation": 10}
        assert summary["c_selected"] in (0.1, 10.0)

    def test_idf_round_trip_through_predict(self, tmp_path):
        # Word-count style data where tf-idf matters end to end.
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        train = tmp_path / "train.txt"
        train.write_text(
            "1 1:2.0 3:1.0\n1 1:3.0 3:2.0\n2 2:2.0 3:1.0\n2 2:1.0 3:3.0\n"
        )
        t_out, p_out = tmp_path / "t", tmp_path / "p"
        assert run("train", "--data", train, "--hierarchy", tax, "--out", t_out,
                   "--method", "flat", "--C", "5") == 0
        assert (t_out / "idf.txt").exists()
        assert "#tfidf 1\n" in (t_out / "model.txt").read_text()
        assert run("predict", "--model", t_out / "model.txt", "--data", train,
                   "--idf", t_out / "idf.txt", "--out", p_out) == 0
        preds = [int(l.split()[1]) for l in (p_out / "predictions.txt").read_text().splitlines()]
        assert preds == [1, 1, 2, 2]

    @pytest.mark.parametrize("tfidf,msg", [
        (True, "the model was trained on tf-idf features; pass its --idf table"),
        (False, "the model was trained on raw features (--no-tfidf); drop --idf"),
    ], ids=["tfidf-model-without-idf", "raw-model-with-idf"])
    def test_idf_must_match_the_model(self, tmp_path, capsys, tfidf, msg):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        train = tmp_path / "train.txt"
        train.write_text("1 1:2.0 3:1.0\n1 1:3.0 3:2.0\n2 2:2.0 3:1.0\n2 2:1.0 3:3.0\n")
        common = ["train", "--data", train, "--hierarchy", tax, "--method", "flat", "--C", "5"]
        assert run(*common, "--out", tmp_path / "tfidf") == 0
        assert run(*common, "--no-tfidf", "--out", tmp_path / "raw") == 0
        model = tmp_path / ("tfidf" if tfidf else "raw") / "model.txt"
        idf = [] if tfidf else ["--idf", tmp_path / "tfidf" / "idf.txt"]
        assert run("predict", "--model", model, "--data", train, *idf,
                   "--out", tmp_path / "p") == 6
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert not (tmp_path / "p").exists()

    def test_bias_header_round_trip(self, tmp_path):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        # classes differ only by overall scale; only a bias separates them
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.1\n1 1:0.2\n2 1:2.0\n2 1:2.5\n")
        t_out, p_out = tmp_path / "t", tmp_path / "p"
        assert run("train", "--data", data, "--hierarchy", tax, "--out", t_out,
                   "--method", "flat", "--C", "100", "--no-tfidf", "--bias") == 0
        assert "#bias 1\n" in (t_out / "model.txt").read_text()
        assert run("predict", "--model", t_out / "model.txt", "--data", data,
                   "--out", p_out) == 0
        preds = [int(l.split()[1]) for l in (p_out / "predictions.txt").read_text().splitlines()]
        assert preds == [1, 1, 2, 2]

    def test_cost_file(self, pipeline, tmp_path):
        b = pipeline["bench"]
        costs = tmp_path / "costs.txt"
        costs.write_text("1.0\n" * 54)
        out = tmp_path / "train_costs"
        assert run(
            "train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
            "--out", out, "--C", "1", "--no-tfidf", "--cost-file", costs,
        ) == 0

    @pytest.mark.parametrize("costs", [False, True], ids=["no-costs", "costs"])
    @pytest.mark.parametrize("method", ["td-lr", "flat"])
    def test_grid_ends_in_the_fixed_c_fit(self, pipeline, tmp_path, method, costs):
        # The tuned model is the --C fit of every instance, in file order, at
        # the chosen C.
        b, r = pipeline["bench"], pipeline["rewire"]
        cost_file = tmp_path / "costs.txt"
        cost_file.write_text("".join(f"{1 + i % 3}.0\n" for i in range(54)))
        common = ["train", "--data", b / "data.txt", "--hierarchy", r / "modified.edges",
                  "--method", method, "--no-tfidf", *(["--cost-file", cost_file] * costs)]
        assert run(*common, "--grid", "0.1,10", "--split", "0.5", "--out", tmp_path / "g") == 0
        chosen = json.loads((tmp_path / "g" / "train_summary.json").read_text())["c_selected"]
        assert run(*common, "--C", chosen, "--out", tmp_path / "c") == 0
        assert model_lines(tmp_path / "g") == model_lines(tmp_path / "c")

    @pytest.mark.parametrize("costs", [False, True], ids=["no-costs", "costs"])
    @pytest.mark.parametrize("method", ["td-lr", "flat"])
    def test_per_node_grid_ends_in_the_fit_at_the_chosen_map(
        self, pipeline, tmp_path, method, costs
    ):
        b, r = pipeline["bench"], pipeline["rewire"]
        weights = [1.0 + i % 3 for i in range(54)]
        cost_file = tmp_path / "costs.txt"
        cost_file.write_text("".join(f"{w!r}\n" for w in weights))
        assert run("train", "--data", b / "data.txt", "--hierarchy", r / "modified.edges",
                   "--method", method, "--no-tfidf", "--grid", "0.01,10", "--per-node-C",
                   "--split", "0.5", *(["--cost-file", cost_file] * costs),
                   "--out", tmp_path / "g") == 0
        summary = json.loads((tmp_path / "g" / "train_summary.json").read_text())
        chosen = {int(k): v for k, v in summary["c_selected"].items()}
        trainer = train_topdown if method == "td-lr" else train_flat
        fit = trainer(parse_taxonomy((r / "modified.edges").read_text()),
                      parse_dataset((b / "data.txt").read_text()), chosen,
                      np.asarray(weights) if costs else None)
        assert model_lines(tmp_path / "g") == [
            l for l in serialize_model_set(fit).splitlines() if not l.startswith("#")
        ]

    def test_cost_length_mismatch(self, pipeline, tmp_path):
        b = pipeline["bench"]
        costs = tmp_path / "costs.txt"
        costs.write_text("1.0\n2.0\n")
        assert run(
            "train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
            "--out", tmp_path / "x", "--C", "1", "--no-tfidf", "--cost-file", costs,
        ) == 6


class TestEvaluateModes:
    def test_macro_classes_all_extends_denominator(self, pipeline, tmp_path):
        b, p = pipeline["bench"], pipeline["predict"]
        # drop class coverage by scoring against the 27-leaf default tree?
        # simpler: compare test vs all on a truncated prediction set
        preds = tmp_path / "preds.txt"
        lines = (p / "predictions.txt").read_text().splitlines()
        # rewrite predictions so one class is never predicted correctly
        rewritten = []
        for line in lines:
            idx, label = line.split()
            rewritten.append(f"{idx} {label}")
        preds.write_text("\n".join(rewritten) + "\n")
        out_test, out_all = tmp_path / "etest", tmp_path / "eall"
        common = ["evaluate", "--predictions", preds, "--data", b / "data.txt",
                  "--hierarchy", b / "true.edges"]
        assert run(*common, "--out", out_test, "--macro-classes", "test") == 0
        assert run(*common, "--out", out_all, "--macro-classes", "all") == 0
        m_test = json.loads((out_test / "metrics.json").read_text())
        m_all = json.loads((out_all / "metrics.json").read_text())
        # all 9 classes appear in this test set, so the two views agree here
        assert m_test["macro_f1"] == m_all["macro_f1"]
        assert m_test["config"]["macro_classes"] == "test"

    def test_rare_fields_need_train_data(self, pipeline, tmp_path):
        b, p = pipeline["bench"], pipeline["predict"]
        out = tmp_path / "norare"
        assert run(
            "evaluate", "--predictions", p / "predictions.txt", "--data", b / "data.txt",
            "--hierarchy", b / "true.edges", "--out", out,
        ) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["n_rare_classes"] == 0
        assert payload["rare_macro_f1"] == 0.0

    def test_scores_against_the_given_tree(self, pipeline, tmp_path):
        b, r = pipeline["bench"], pipeline["rewire"]
        data = parse_dataset((b / "data.txt").read_text())
        leaves = sorted(parse_taxonomy((b / "true.edges").read_text()).leaves)
        # Every third prediction names the next leaf: errors the two trees score differently.
        labels = [leaves[(leaves.index(y) + 1) % len(leaves)] if i % 3 == 0 else y
                  for i, y in enumerate(data.labels)]
        preds = tmp_path / "preds.txt"
        preds.write_text("".join(f"{i} {y}\n" for i, y in enumerate(labels)))
        hier = {}
        for tree in (b / "corrupted.edges", r / "modified.edges"):
            out = tmp_path / tree.stem
            assert run("evaluate", "--predictions", preds, "--data", b / "data.txt",
                       "--hierarchy", tree, "--out", out) == 0
            payload = json.loads((out / "metrics.json").read_text())
            want = build_report(list(zip(data.labels, labels)), parse_taxonomy(tree.read_text()))
            assert payload["micro_f1"] == want.micro_f1
            assert payload["macro_f1"] == want.macro_f1
            assert payload["hier_f1"] == want.hier_f1
            hier[tree.stem] = payload["hier_f1"]
        assert hier["corrupted"] != hier["modified"]


class TestEvaluateReadsLabels:
    """evaluate reads the label column of --data and --train-data only."""

    @pytest.mark.parametrize("train", [False, True], ids=["data", "train_data"])
    def test_writes_the_report_without_parsing_features(
        self, pipeline, tmp_path, monkeypatch, train
    ):
        b, p, r = pipeline["bench"], pipeline["predict"], pipeline["rewire"]
        labels = parse_dataset((b / "data.txt").read_text()).labels
        preds = [int(l.split()[1]) for l in (p / "predictions.txt").read_text().splitlines()]
        tax = parse_taxonomy((r / "modified.edges").read_text())
        counts = collections.Counter(labels) if train else None

        def no_parse(text):
            raise AssertionError("evaluate parsed the feature entries")

        monkeypatch.setattr(corpus, "parse_dataset", no_parse)
        extra = ["--train-data", b / "data.txt"] if train else []
        out = tmp_path / "e"
        assert run("evaluate", "--predictions", p / "predictions.txt", "--data", b / "data.txt",
                   "--hierarchy", r / "modified.edges", *extra, "--out", out) == 0
        report = build_report(list(zip(labels, preds)), tax, counts)
        payload = json.loads((out / "metrics.json").read_text())
        del payload["config"]
        assert payload == {**report_as_dict(report), "n_instances": len(labels)}
        assert payload["n_rare_classes"] == (9 if train else 0)
        want = io.StringIO()
        write_per_class_csv(report, want, counts)
        assert (out / "per_class.csv").read_text() == want.getvalue()

    def test_malformed_feature_entries_are_scored(self, pipeline, tmp_path):
        b, p, r = pipeline["bench"], pipeline["predict"], pipeline["rewire"]
        lines = (b / "data.txt").read_text().splitlines()
        lines[0] = lines[0].split()[0] + " 1:2:3"
        data = tmp_path / "data.txt"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "e"
        assert run("evaluate", "--predictions", p / "predictions.txt", "--data", data,
                   "--hierarchy", r / "modified.edges", "--train-data", data, "--out", out) == 0
        assert filecmp.cmp(out / "metrics.json", pipeline["eval"] / "metrics.json", shallow=False)

    @pytest.mark.parametrize("train", [False, True], ids=["data", "train_data"])
    def test_rare_threshold_below_one(self, pipeline, tmp_path, capsys, train):
        b, p = pipeline["bench"], pipeline["predict"]
        extra = ["--train-data", b / "data.txt"] if train else []
        out = tmp_path / "e"
        assert run("evaluate", "--predictions", p / "predictions.txt", "--data", b / "data.txt",
                   "--hierarchy", b / "true.edges", *extra, "--rare-threshold", "0",
                   "--out", out) == 6
        assert "rare threshold must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("node", ["root", "internal"])
    @pytest.mark.parametrize("side", ["predicted", "true"])
    def test_label_not_a_leaf(self, pipeline, tmp_path, capsys, side, node):
        b, p, r = pipeline["bench"], pipeline["predict"], pipeline["rewire"]
        tax = parse_taxonomy((r / "modified.edges").read_text())
        label = tax.root if node == "root" else next(
            n for n in tax.internal_nodes if n != tax.root)
        preds, data = p / "predictions.txt", b / "data.txt"
        if side == "predicted":
            lines = preds.read_text().splitlines()
            lines[0] = f"0 {label}"
            preds = tmp_path / "predictions.txt"
            preds.write_text("\n".join(lines) + "\n")
        else:
            lines = data.read_text().splitlines()
            lines[0] = f"{label} " + lines[0].split(None, 1)[1]
            data = tmp_path / "data.txt"
            data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "e"
        assert run("evaluate", "--predictions", preds, "--data", data,
                   "--hierarchy", r / "modified.edges", "--out", out) == 6
        assert f"label {label} is not a leaf of the hierarchy" in capsys.readouterr().err
        assert not out.exists()


class TestRewireModes:
    @pytest.mark.parametrize("flag", [[], ["--tau", "0.5"], ["--top-k", "100"]],
                             ids=["knee", "tau", "top-k"])
    def test_rewire_uses_the_similarity_selection(self, bench81, tmp_path, flag):
        sim, rew = tmp_path / "sim", tmp_path / "rewire"
        tree = ["--hierarchy", bench81 / "corrupted.edges"]
        assert run("similarity", "--data", bench81 / "data.txt", "--no-tfidf", *flag,
                   *tree, "--out", sim) == 0
        assert run("rewire", *tree, "--pairs", sim / "pairs.txt", "--out", rew) == 0
        assert (rew / "rewire_log.jsonl").read_text()
        selected = json.loads((sim / "similarity_summary.json").read_text())
        summary = json.loads((rew / "rewire_summary.json").read_text())
        assert summary["n_pairs_used"] == selected["n_selected"] > 0
        assert summary["tau_selected"] == selected["tau_selected"]

    def test_collapse_chains_flag(self, tmp_path):
        tax = tmp_path / "chain.edges"
        tax.write_text("0 1\n1 2\n2 3\n2 4\n")
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("# tau 0.5\n3 4 0.9\n")  # same parent: no rewiring
        out = tmp_path / "collapsed"
        assert run("rewire", "--hierarchy", tax, "--pairs", pairs, "--out", out,
                   "--collapse-chains") == 0
        modified = parse_taxonomy((out / "modified.edges").read_text())
        assert len(modified) == 4  # 1 and 2 splice down to one node
        log = RewireLog.from_jsonl((out / "rewire_log.jsonl").read_text())
        assert replay_log(parse_taxonomy(tax.read_text()), log) == modified


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert run("rewire", "--hierarchy", tmp_path / "nope.edges",
                   "--pairs", tmp_path / "nope.txt", "--out", tmp_path / "o") == 3

    def test_malformed_hierarchy(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 2 3\n")
        assert run("rewire", "--hierarchy", bad, "--pairs", bad,
                   "--out", tmp_path / "o") == 4

    def test_malformed_dataset(self, tmp_path):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("1 not-a-feature\n")
        assert run("train", "--data", bad, "--hierarchy", tax,
                   "--out", tmp_path / "o", "--C", "1") == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_dataset_value(self, pipeline, tmp_path, capsys, value):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 1:1.0\n1 1:0.5 2:{value}\n")
        h = pipeline["bench"] / "true.edges"
        assert run("similarity", "--data", bad, "--hierarchy", h,
                   "--out", tmp_path / "s", "--no-tfidf") == 4
        assert run("train", "--data", bad, "--hierarchy", h,
                   "--out", tmp_path / "t", "--C", "1") == 4
        assert "line 2: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "s" / "pairs.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_idf_value(self, tmp_path, capsys, value):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        data = tmp_path / "d.txt"
        data.write_text("1 1:2.0 3:1.0\n1 1:3.0 3:2.0\n2 2:2.0 3:1.0\n2 2:1.0 3:3.0\n")
        assert run("train", "--data", data, "--hierarchy", tax, "--out", tmp_path / "t",
                   "--method", "flat", "--C", "5") == 0
        idf = tmp_path / "t" / "idf.txt"
        lines = idf.read_text().splitlines()
        lines[1] = f"{lines[1].split()[0]} {value}"
        idf.write_text("\n".join(lines) + "\n")
        assert run("predict", "--model", tmp_path / "t" / "model.txt", "--data", data,
                   "--idf", idf, "--out", tmp_path / "p") == 4
        assert "line 2: non-finite idf" in capsys.readouterr().err
        assert not (tmp_path / "p" / "predictions.txt").exists()

    @pytest.mark.parametrize("edit,msg", [
        (lambda n, i, w: node_line(n, i, w).replace(" ", " !", 1), "line {at}: malformed token"),
        (lambda n, i, w: f"{n} {b64(i, '<i8')} {base64.b64encode(w.tobytes()[:-1]).decode()}",
         "line {at}: malformed token"),
        (lambda n, i, w: f"{n} {b64(i, '<i8')}",
         "line {at}: expected 'node indices weights', got 2 tokens"),
        (lambda n, i, w: node_line(n, i, w[1:]), "line {at}: 16 indices but 15 weights"),
        (lambda n, i, w: node_line(n, i[::-1], w),
         "line {at}: weight indices must ascend strictly in 1..16"),
        (lambda n, i, w: node_line(n, i + 1, w),
         "line {at}: weight indices must ascend strictly in 1..16"),
        (lambda n, i, w: node_line(n, i, np.append(math.nan, w[1:])),
         "line {at}: non-finite weight"),
        (lambda n, i, w: node_line(n, i, np.append(w[1:], -math.inf)),
         "line {at}: non-finite weight"),
        (lambda n, i, w: node_line("99999999999999999999", i, w),
         "line {at}: node id '99999999999999999999' is out of the int64 range"),
        (lambda n, i, w: node_line(n, i, w) + "\n" + node_line(n, i, w),
         "line {next}: duplicate model for node"),
        (lambda n, i, w: " ".join([n, *(f"{k}:{x!r}" for k, x in zip(i.tolist(), w.tolist()))]),
         "line {at}: an old 'idx:weight' model line; retrain the model"),
    ], ids=["bad-base64", "not-8-byte-values", "missing-token", "count-mismatch", "descending",
            "index-above-dimensionality", "nan-weight", "inf-weight", "node-beyond-int64",
            "duplicate-node", "old-format"])
    def test_malformed_model_line(self, pipeline, tmp_path, capsys, edit, msg):
        lines = (pipeline["train"] / "model.txt").read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        node, idx, weights = lines[first].split()
        lines[first] = edit(node, np.frombuffer(base64.b64decode(idx), "<i8"),
                            np.frombuffer(base64.b64decode(weights), "<f8"))
        model = tmp_path / "model.txt"
        model.write_text("\n".join(lines) + "\n")
        b, r = pipeline["bench"], pipeline["rewire"]
        assert run("predict", "--model", model, "--data", b / "data.txt",
                   "--hierarchy", r / "modified.edges", "--out", tmp_path / "p") == 6
        assert f"error: {msg.format(at=first + 1, next=first + 2)}" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("body,msg", [
        ("1 1:1.0\n1 99999999999999999999:1.0\n",
         "line 2: feature index above 2^60 - 1 in '99999999999999999999:1.0'"),
        ("99999999999999999999 1:1.0\n1 2:1.0\n",
         "line 1: label '99999999999999999999' is out of the int64 range"),
    ], ids=["index", "label"])
    def test_dataset_beyond_int64(self, tmp_path, capsys, body, msg):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        data = tmp_path / "d.txt"
        data.write_text(body)
        assert run("similarity", "--data", data, "--hierarchy", tax,
                   "--out", tmp_path / "s", "--no-tfidf") == 4
        assert run("train", "--data", data, "--hierarchy", tax,
                   "--out", tmp_path / "t", "--C", "1") == 4
        assert capsys.readouterr().err == f"error: {msg}\n" * 2
        assert not (tmp_path / "s").exists() and not (tmp_path / "t").exists()

    @pytest.mark.parametrize("index,code,msg", [
        (2**59, 6, "error: the input is too large to allocate"),
        (2**63 - 1, 4, "error: line 2: feature index above 2^60 - 1"),
    ], ids=["2^59", "2^63-1"])
    def test_dataset_too_wide(self, tmp_path, capsys, index, code, msg):
        # The width is the largest index: at most 2^60 - 1, and an
        # allocation that fails is an input error, not a crash.
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        data = tmp_path / "d.txt"
        data.write_text(f"1 1:1.0\n2 {index}:1.0\n")
        for command, flags in (("similarity", []), ("train", ["--C", "1"])):
            assert run(command, "--data", data, "--hierarchy", tax, "--no-tfidf", *flags,
                       "--out", tmp_path / command) == code
            assert not (tmp_path / command).exists()
        assert capsys.readouterr().err.count(msg) == 2

    def test_idf_index_beyond_int64(self, tmp_path, capsys):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        data = tmp_path / "d.txt"
        data.write_text("1 1:2.0 3:1.0\n1 1:3.0 3:2.0\n2 2:2.0 3:1.0\n2 2:1.0 3:3.0\n")
        assert run("train", "--data", data, "--hierarchy", tax, "--out", tmp_path / "t",
                   "--method", "flat", "--C", "5") == 0
        idf = tmp_path / "t" / "idf.txt"
        lines = idf.read_text().splitlines() + ["99999999999999999999 0.5"]
        idf.write_text("\n".join(lines) + "\n")
        assert run("predict", "--model", tmp_path / "t" / "model.txt", "--data", data,
                   "--idf", idf, "--out", tmp_path / "p") == 4
        assert capsys.readouterr().err == (f"error: line {len(lines)}: idf index"
                                           " '99999999999999999999' is out of the int64 range\n")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command,flags", [
        ("similarity", []),
        ("train", ["--C", "10"]),
    ], ids=["similarity", "train"])
    def test_all_zero_tfidf(self, pipeline, tmp_path, capsys, command, flags):
        # Every bench feature occurs in every instance, so every idf is 0.
        b = pipeline["bench"]
        assert run(command, "--data", b / "data.txt", "--hierarchy", b / "true.edges",
                   *flags, "--out", tmp_path / "o") == 6
        err = capsys.readouterr().err
        assert err.startswith("error: tf-idf leaves no nonzero feature") and "--no-tfidf" in err
        assert not (tmp_path / "o").exists()

    def test_per_node_c_map_missing_a_node(self, pipeline, tmp_path, capsys):
        b, r = pipeline["bench"], pipeline["rewire"]
        assert run("train", "--data", b / "data.txt", "--hierarchy", r / "modified.edges",
                   "--out", tmp_path / "t", "--method", "td-lr", "--grid", "0.1,10",
                   "--per-node-C", "--no-tfidf") == 0
        lines = (tmp_path / "t" / "model.txt").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("#C "))
        c = json.loads(lines[at][3:])
        dropped = sorted(c, key=int)[1]
        del c[dropped]
        lines[at] = "#C " + json.dumps(c, sort_keys=True)
        row = next(i for i, line in enumerate(lines) if line.split()[0] == dropped)
        model = tmp_path / "model.txt"
        model.write_text("\n".join(lines) + "\n")
        assert run("predict", "--model", model, "--data", b / "data.txt",
                   "--hierarchy", r / "modified.edges", "--out", tmp_path / "p") == 6
        err = capsys.readouterr().err
        assert f"line {row + 1}: the C header has no value for node {dropped}" in err
        assert not (tmp_path / "p" / "predictions.txt").exists()

    def test_negative_model_dimensionality(self, pipeline, tmp_path, capsys):
        text = (pipeline["train"] / "model.txt").read_text()
        model = tmp_path / "model.txt"
        model.write_text(re.sub(r"(?m)^#dimensionality \d+$", "#dimensionality -3", text))
        b, r = pipeline["bench"], pipeline["rewire"]
        assert run("predict", "--model", model, "--data", b / "data.txt",
                   "--hierarchy", r / "modified.edges", "--out", tmp_path / "p") == 6
        assert "dimensionality header must not be negative, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("header,msg", [
        ("#dimensionality 99999999999999999", "the input is too large to allocate"),
        ("#dimensionality 1152921504606846976",
         "dimensionality header must be at most 2^60 - 1"),
        ('#C {"1": null, "2": 1.0}', "the C header is neither a number nor a JSON object"),
        ("#C [1]", "the C header is neither a number nor a JSON object"),
    ], ids=["dimensionality-too-large-to-allocate", "dimensionality-above-2^60-1",
            "C-map-with-null", "C-list"])
    def test_bad_model_header(self, pipeline, tmp_path, capsys, header, msg):
        text = (pipeline["train"] / "model.txt").read_text()
        key = header.split(" ", 1)[0]
        model = tmp_path / "model.txt"
        model.write_text(re.sub(rf"(?m)^{key} .*$", lambda _: header, text))
        b, r = pipeline["bench"], pipeline["rewire"]
        assert run("predict", "--model", model, "--data", b / "data.txt",
                   "--hierarchy", r / "modified.edges", "--out", tmp_path / "p") == 6
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("split", ["0", "1", "1.5"])
    def test_split_outside_unit_interval(self, pipeline, tmp_path, capsys, split):
        b = pipeline["bench"]
        assert run("train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
                   "--out", tmp_path / "o", "--grid", "1", "--split", split,
                   "--no-tfidf") == 6
        assert "split ratio must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.txt").exists()

    @pytest.mark.parametrize("method", ["td-lr", "flat"])
    def test_training_label_not_a_leaf(self, tmp_path, capsys, method):
        tax = tmp_path / "h.edges"
        tax.write_text("0 1\n0 2\n")
        data = tmp_path / "d.txt"
        data.write_text("1 1:1.0\n2 2:1.0\n7 1:0.5\n0 2:0.5\n7 2:0.5\n")
        assert run("train", "--data", data, "--hierarchy", tax, "--method", method,
                   "--out", tmp_path / "o", "--C", "1", "--no-tfidf") == 6
        err = capsys.readouterr().err
        assert "2 training labels are not leaves of the hierarchy: [0, 7]" in err
        assert not (tmp_path / "o" / "model.txt").exists()

    def test_fingerprint_mismatch(self, pipeline, tmp_path):
        b, t = pipeline["bench"], pipeline["train"]
        assert run(
            "predict", "--model", t / "model.txt", "--data", b / "data.txt",
            "--hierarchy", b / "corrupted.edges", "--out", tmp_path / "o",
        ) == 5

    def test_bad_tau_value(self, pipeline, tmp_path):
        b = pipeline["bench"]
        assert run(
            "similarity", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
            "--out", tmp_path / "o", "--tau", "2.0",
        ) == 6

    @pytest.mark.parametrize("method", ["td-lr", "flat"])
    @pytest.mark.parametrize("flags,msg", [
        (["--C", "1", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
        (["--C", "1", "--max-iter", "-5"], "max_iter must be at least 1, got -5"),
        (["--C", "1", "--grad-tol", "nan"], "grad_tol must be finite and non-negative, got nan"),
        (["--C", "1", "--grad-tol", "-1"], "grad_tol must be finite and non-negative, got -1.0"),
        (["--C", "nan"], "C must be finite and positive, got nan"),
        (["--C", "inf"], "C must be finite and positive, got inf"),
        (["--grid", "nan,1"], "C must be finite and positive, got nan"),
        (["--grid", "1", "--per-node-C", "--max-iter", "0"], "max_iter must be at least 1"),
        (["--C", "10", "--per-node-C"], "--per-node-C needs --grid"),
    ])
    def test_bad_solver_settings(self, pipeline, tmp_path, capsys, method, flags, msg):
        b = pipeline["bench"]
        assert run("train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
                   "--out", tmp_path / "o", "--method", method, "--no-tfidf", *flags) == 6
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.txt").exists()

    @pytest.mark.parametrize("tau,msg", [
        ("nan", "line 1: tau must lie in [-1, 1], got nan"),
        ("-inf", "line 1: tau must lie in [-1, 1], got -inf"),
        ("-7", "line 1: tau must lie in [-1, 1], got -7"),
        ("1.5", "line 1: tau must lie in [-1, 1], got 1.5"),
        ("abc", "line 1: non-numeric tau 'abc'"),
    ])
    def test_bad_pairs_tau_header(self, pipeline, tmp_path, capsys, tau, msg):
        text = (pipeline["sim"] / "pairs.txt").read_text()
        body = [line for line in text.splitlines() if not line.startswith("#")]
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("\n".join([f"# tau {tau}", *body]) + "\n")
        assert run("rewire", "--hierarchy", pipeline["bench"] / "corrupted.edges",
                   "--pairs", pairs, "--out", tmp_path / "o") == 6
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "o" / "rewire_summary.json").exists()

    @pytest.mark.parametrize("body,msg", [
        ("3 3 0.9", "line 2: pair (3, 3) names one class twice"),
        ("1 2 1.5", "line 2: cosine score out of range: 1.5"),
        ("3 5 0.9\n5 3 0.8", "line 3: pair (3, 5) is listed twice"),
    ])
    def test_bad_pair_lines(self, pipeline, tmp_path, capsys, body, msg):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"# tau 0.5\n{body}\n")
        assert run("rewire", "--hierarchy", pipeline["bench"] / "corrupted.edges",
                   "--pairs", pairs, "--out", tmp_path / "o") == 6
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_grid(self, pipeline, tmp_path):
        b = pipeline["bench"]
        assert run(
            "train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
            "--out", tmp_path / "o", "--grid", "abc",
        ) == 6

    @pytest.mark.parametrize("workers", ["-4", "0"])
    def test_workers_below_one(self, pipeline, tmp_path, capsys, workers):
        argv = ["train", "--data", pipeline["bench"] / "data.txt", "--hierarchy",
                pipeline["bench"] / "true.edges", "--C", "1", "--no-tfidf", "--workers", workers]
        assert run(*argv, "--out", tmp_path / "o") == 6
        assert "--workers must be at least 1, got " + workers in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,code,msg", [
        (["bench", "--leaves", "10"], 6, "n_leaves=10 is not a positive power of fanout=3"),
        (["similarity", "--data", "{b}/data.txt", "--hierarchy", "{b}/corrupted.edges",
          "--no-tfidf", "--tau", "0.99999"], 6, "no pair scores above tau 0.99999 (top score "),
        (["rewire", "--hierarchy", "{b}/corrupted.edges", "--pairs", "{tmp}/pairs.txt"],
         6, "line 2: cosine score out of range: 1.5"),
        (["train", "--data", "{b}/data.txt", "--hierarchy", "{b}/true.edges", "--C", "-1",
          "--no-tfidf"], 6, "C must be finite and positive, got -1.0"),
        (["predict", "--model", "{t}/model.txt", "--data", "{b}/data.txt",
          "--hierarchy", "{b}/corrupted.edges"], 5, "hierarchy does not match the one"),
        (["evaluate", "--predictions", "{tmp}/predictions.txt", "--data", "{b}/data.txt",
          "--hierarchy", "{b}/true.edges"], 4, "predictions cover 53 instances, expected 0..53"),
    ], ids=["bench", "similarity", "rewire", "train", "predict", "evaluate"])
    def test_failed_command_writes_nothing(self, pipeline, tmp_path, capsys, argv, code, msg):
        """Each command fails on its inputs, after reading them, and leaves no --out."""
        (tmp_path / "pairs.txt").write_text("# tau 0.5\n1 2 1.5\n")
        preds = (pipeline["predict"] / "predictions.txt").read_text().splitlines()
        (tmp_path / "predictions.txt").write_text("\n".join(preds[:-1]) + "\n")
        argv = [a.format(b=pipeline["bench"], t=pipeline["train"], tmp=tmp_path) for a in argv]
        assert run(*argv, "--out", tmp_path / "o") == code
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_is_a_file(self, tmp_path, capsys, under):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / "sub" if under else afile
        assert run("bench", "--out", out) == 6
        assert capsys.readouterr().err == f"error: --out {out} is a file or lies under one\n"
        assert afile.read_text() == "keep\n"
        assert list(tmp_path.iterdir()) == [afile]

    @pytest.mark.parametrize("body,msg", [
        ("1 999 0.9", "pair (1, 999): node 1 is not a class leaf of the tree"),
        ("4 999 0.9", "pair (4, 999): node 999 is not a class leaf of the tree"),
        ("4 5 0.95\n4 2 0.9", "pair (2, 4): node 2 is not a class leaf of the tree"),
    ], ids=["unknown", "unknown-second", "internal"])
    def test_pairs_outside_the_class_leaves(self, pipeline, tmp_path, capsys, body, msg):
        # Quick-start tree: root 0, internal 1..3, class leaves 4..12.
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"# tau 0.5\n{body}\n")
        assert run("rewire", "--hierarchy", pipeline["bench"] / "corrupted.edges",
                   "--pairs", pairs, "--out", tmp_path / "o") == 6
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert not (tmp_path / "o").exists()

    def test_non_empty_out_is_left_alone(self, pipeline, tmp_path, capsys):
        b = pipeline["bench"]
        argv = ["train", "--data", b / "data.txt", "--hierarchy", b / "true.edges",
                "--C", "10", "--no-tfidf", "--out"]
        out = tmp_path / "t"
        assert run(*argv, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*argv, out) == 6
        assert capsys.readouterr().err == f"error: --out {out} is not empty\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # A directory where an artifact would go is not removed either.
        blocked = tmp_path / "blocked"
        (blocked / "model.txt").mkdir(parents=True)
        assert run(*argv, blocked) == 6
        assert capsys.readouterr().err == f"error: --out {blocked} is not empty\n"
        assert [p.name for p in blocked.iterdir()] == ["model.txt"]
        assert (blocked / "model.txt").is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "t"]

    def test_empty_out_is_filled(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert run("bench", "--out", out, *BENCH_ARGS) == 0
        assert (out / "data.txt").is_file()
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert oct(out.stat().st_mode & 0o777) == oct(0o777 & ~_umask())

    def test_write_error_leaves_no_out(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_space(*args):
            raise OSError(28, "No space left on device")

        # pairs.csv is written first; the pair list then fails.
        monkeypatch.setattr("taxrewire.simgraph.write_pair_set", no_space)
        b = pipeline["bench"]
        out = tmp_path / "deep" / "s"
        assert run("similarity", "--data", b / "data.txt", "--hierarchy",
                   b / "corrupted.edges", "--no-tfidf", "--out", out) == 6
        assert capsys.readouterr().err == (
            f"error: cannot write --out {out}: [Errno 28] No space left on device\n"
        )
        assert list(tmp_path.iterdir()) == []  # nor the parent made for it
        # A parent that existed before the run is kept.
        (tmp_path / "kept").mkdir()
        assert run("similarity", "--data", b / "data.txt", "--hierarchy",
                   b / "corrupted.edges", "--no-tfidf",
                   "--out", tmp_path / "kept" / "made" / "s") == 6
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run("similarity")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", "d", "--hierarchy", "h", "--out", "o",
                "--C", "1", "--grid", "default")  # mutually exclusive
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("no-such-command")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("rewire", "--hierarchy", "h", "--out", "o")  # --pairs is required
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag", [
        ("similarity", ["--auto-tau"]),
        ("similarity", ["--workers", "2"]),
        ("evaluate --predictions p", ["--eval-hierarchy", "modified"]),
        ("evaluate --predictions p", ["--modified-hierarchy", "m.edges"]),
    ], ids=["auto-tau", "similarity-workers", "eval-hierarchy", "modified-hierarchy"])
    def test_removed_flags_are_usage_errors(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(*command.split(), "--data", "d", "--hierarchy", "h", "--out", "o", *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
