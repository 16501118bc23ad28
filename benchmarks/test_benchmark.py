"""Tests of the benchmark itself, at tiny shapes.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import dataclasses
import json
from pathlib import Path
from time import perf_counter

import pytest

import run
import tracing
import workloads
from workloads import Planted, Text, Workload

TINY_PLANTED = Planted(leaves=9, fanout=3, dims=8, per_leaf=6, test_per_leaf=3,
                       noise=0.2, misplaced=1)
TINY_TEXT = Text(groups=2, leaves_per_group=3, vocab=200, topic_words=5,
                 train_per_leaf=4, test_per_leaf=4, doc_len=30,
                 leaf_share=0.15, group_share=0.15, zipf_s=1.1, misplaced=1)

TINY = {
    "repair": Workload("repair", "", TINY_PLANTED, None, ("--top-k", "5"), False),
    "tdlr": Workload("tdlr", "", TINY_PLANTED, "td-lr", (), False),
    "text-flat": Workload("text-flat", "", TINY_TEXT, "flat", ("--top-k", "6"), True),
}


def _measure(workload, tmp_path, trace):
    return run.measure(workload, 3, 0.0, trace, tmp_path / "work", perf_counter())


def _reported(table):
    return {name for name, spec in table.items() if spec.reported}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, capsys):
    values, tally, samples = _measure(TINY[name], tmp_path, trace)
    table = run.PER_LAYER if trace else run.END_TO_END
    result = run.report(values, table, tally, samples, name)
    printed = capsys.readouterr().out

    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _reported(table)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == table[metric].unit
        assert isinstance(entry["value"], float)
    for metric, spec in table.items():
        line = next(line for line in printed.splitlines() if line.split()[:1] == [metric])
        assert spec.unit in line and f"{spec.better} is better" in line
    if TINY[name].method is not None and not trace:
        assert {"fit_s", "predict_ips", "micro_f1", "macro_f1", "hier_f1"} <= set(values)
    json.dumps(result)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"] for m in spec[key]} == _reported(table)
        for m in spec[key]:
            assert (m["unit"], m["better"]) == (table[m["name"]].unit, table[m["name"]].better)


def test_traced_run_reports_layer_work(tmp_path):
    values, tally, _ = _measure(TINY["tdlr"], tmp_path, True)
    assert tally.failed == 0
    assert values["solver.solves"] == 12  # one model per non-root node of the tree
    assert values["learner.objective_evals"] >= values["solver.iterations"] > 0
    assert values["taxonomy.trees_validated"] > 0
    assert values["learner.model_bytes"] == (tmp_path / "work" / "run0" / "train"
                                             / "model.txt").stat().st_size
    assert (tmp_path / "work" / "trace.jsonl").stat().st_size > 0


def test_a_failing_check_is_counted(tmp_path, monkeypatch):
    from taxrewire import rewire

    real = rewire.replay_log
    # a replay that grows one extra node can never match modified.edges
    monkeypatch.setattr(rewire, "replay_log",
                        lambda tax, log: real(tax, log).add_node(tax.root)[0])
    values, tally, samples = _measure(TINY["repair"], tmp_path, False)
    assert tally.failed == 1
    assert any("replays" in note for note in tally.notes)
    assert values["ops_failed"] == 1 / tally.attempted
    assert run.report(values, run.END_TO_END, tally, samples, "repair")["correct"] is False


def test_a_failing_stage_is_counted_with_the_stages_after_it(tmp_path, monkeypatch):
    real = workloads.stage_argv

    def broken(workload, inputs, out):
        stages = real(workload, inputs, out)
        name, argv = stages[2]
        return stages[:2] + [(name, argv + ["--C", "-1"])] + stages[3:]

    monkeypatch.setattr(workloads, "stage_argv", broken)
    values, tally, _ = _measure(TINY["tdlr"], tmp_path, False)
    # train fails; predict and evaluate are not run and count as failed too
    assert tally.failed == 3
    assert values == {}


def test_wrappers_leave_no_patched_function_behind():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.entry_points()]
    tracer = tracing.Tracer("t")
    with pytest.raises(RuntimeError):
        with tracer:
            assert [getattr(o, a) for o, a, _, _ in tracing.entry_points()] != before
            raise RuntimeError("stage crashed")
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.entry_points()] == before


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, "cli.train", 0.0, 10.0, None, "r"),
        tracing.Span(2, "a", 1.0, 4.0, 1, "r"),
        tracing.Span(3, "b", 3.0, 6.0, 1, "r"),  # overlaps a: a parallel thread
        tracing.Span(4, "a", 2.0, 3.0, 2, "r"),  # nested in a: counted once
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(5.0)
    assert tracing.busy_time(spans, {"a"}) == pytest.approx(3.0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    import checks

    for name in ("tdlr", "text-flat"):
        workloads.make_inputs(TINY[name], 5, tmp_path / "a" / name)
        workloads.make_inputs(TINY[name], 5, tmp_path / "b" / name)
        workloads.make_inputs(TINY[name], 6, tmp_path / "c" / name)
        a, b, c = (checks.digest(tmp_path / d / name) for d in "abc")
        assert a == b != c
        assert set(a) == {"true.edges", "corrupted.edges", "train.txt", "test.txt"}


def test_text_corpus_is_noisy_enough_to_misclassify(tmp_path):
    """At the workload's own mix, flat LR must not reach micro_f1 1.0,
    or the benchmark could not show a quality regression."""
    import checks

    full = workloads.WORKLOADS["text-flat-64"]
    workload = dataclasses.replace(full, shape=dataclasses.replace(full.shape, test_per_leaf=5))
    workloads.make_inputs(workload, 1, tmp_path / "inputs")
    result = run.run_pipeline(workload, tmp_path / "inputs", tmp_path / "out", perf_counter() + 120)
    assert result.ok
    assert checks.quality(tmp_path / "inputs", tmp_path / "out")["micro_f1"] < 0.95


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "text-flat-64", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_times_are_read_at_the_paired_reference_speed(tmp_path):
    values, tally, samples = _measure(TINY["repair"], tmp_path, False)
    assert tally.failed == 0
    pairs = zip(samples["pipeline_s"], samples["pipeline_wall_s"], samples["reference_wall_s"])
    for scaled, wall, reference in pairs:
        assert scaled == pytest.approx(wall * TINY["repair"].reference_s / reference)
    assert len(samples["reference_wall_s"]) == len(samples["pipeline_wall_s"]) >= run.MIN_PAIRS


def test_reference_copy_is_frozen():
    """The reference is the yardstick of every timing; editing it would
    move every reported time.  Replace it only together with every
    workload's ``reference_s``."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((run.REFERENCE / "taxrewire_ref").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "5a4fda67726478bbe56cfd7dcaace34a61ee335f9474c5be652997290ff885bf"
    )
