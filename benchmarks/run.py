"""Benchmark of the taxrewire pipeline: one workload, one seed, one run.

    python3 benchmarks/run.py --workload text-flat-64 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from ``--seed`` (timed as ``setup_s``), then runs the workload's
CLI stages in-process through ``taxrewire.cli.main`` again and again
for about ``--seconds``, and checks the artifacts.  Every pass of the
program is paired with a pass of a frozen copy of it (``reference/``) on
the same inputs, stage beside stage, and times are reported at the
reference's speed: wall time x the reference's nominal seconds / its
wall time in the same pair.  That cancels the drift of a shared
machine's speed; the wall times are printed too.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object with the metrics of the mode:
end-to-end metrics with ``--trace 0``, per-layer metrics (from runs with
every layer entry point wrapped) with ``--trace 1``.  The exit code is 0
only when every stage and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3  # at least; more until SETUP_MIN_S of set-up, at most SETUP_MAX_REPS
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 15
MIN_PAIRS = 3  # program-reference passes per run, --seconds notwithstanding
DEADLINE_S = 165.0  # whole run, checks included; the limit is 180 s
CHECK_RESERVE_S = 20.0
WORKLOAD_NAMES = ("repair-729", "text-flat-64")  # workloads.WORKLOADS


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    reported: bool  # emitted in the JSON line; False: printed only


# The JSON line carries only metrics that exist, and are not zero, on
# every workload.  The others exist only where the workload runs their
# layer, and sibling_f1 spreads too widely over seeds (25% on repair-729)
# for any bound; they are printed only.
END_TO_END = {
    "pipeline_s": Metric("s", "lower", True),
    "setup_s": Metric("s", "lower", True),
    "peak_rss_mb": Metric("MB", "lower", True),
    "pipeline_wall_s": Metric("s", "lower", False),
    "sibling_f1": Metric("ratio", "higher", False),
    "fit_s": Metric("s", "lower", False),
    "predict_ips": Metric("1/s", "higher", False),
    "micro_f1": Metric("ratio", "higher", False),
    "macro_f1": Metric("ratio", "higher", False),
    "hier_f1": Metric("ratio", "higher", False),
    "ops_failed": Metric("ratio", "lower", False),
}

PER_LAYER = {
    "corpus.parse_s": Metric("s", "lower", True),
    "corpus.tfidf_s": Metric("s", "lower", False),
    "corpus.entries": Metric("count", "lower", True),
    "simgraph.centroids_s": Metric("s", "lower", True),
    "simgraph.score_s": Metric("s", "lower", True),
    "simgraph.select_s": Metric("s", "lower", True),
    "simgraph.pairs_scored": Metric("count", "lower", True),
    "simgraph.pairs_kept": Metric("count", "lower", True),
    "simgraph.kept_ratio": Metric("ratio", "lower", True),
    "taxonomy.trees_validated": Metric("count", "lower", True),
    "taxonomy.validate_s": Metric("s", "lower", True),
    "rewire.rewire_s": Metric("s", "lower", True),
    "rewire.node_create": Metric("count", "lower", True),
    "rewire.pc_rewire": Metric("count", "lower", True),
    "rewire.node_delete": Metric("count", "lower", True),
    "rewire.edits_per_pair": Metric("edits/pair", "lower", True),
    "solver.solves": Metric("count", "lower", True),
    "solver.iterations": Metric("count", "lower", True),
    "solver.unconverged": Metric("count", "lower", True),
    "solver.solve_s": Metric("s", "lower", False),
    "learner.train_s": Metric("s", "lower", False),
    "learner.objective_evals": Metric("count", "lower", True),
    "learner.objective_s": Metric("s", "lower", False),
    "learner.evals_per_iteration": Metric("evals/iter", "lower", True),
    "learner.predict_s": Metric("s", "lower", False),
    "learner.model_evals": Metric("count", "lower", True),
    "learner.evals_per_instance": Metric("evals/inst", "lower", True),
    "learner.model_write_s": Metric("s", "lower", False),
    "learner.model_read_s": Metric("s", "lower", False),
    "learner.model_bytes": Metric("B", "lower", True),
    "metrics.report_s": Metric("s", "lower", False),
    "cli.similarity_s": Metric("s", "lower", True),
    "cli.rewire_s": Metric("s", "lower", True),
    "cli.train_s": Metric("s", "lower", False),
    "cli.predict_s": Metric("s", "lower", False),
    "cli.evaluate_s": Metric("s", "lower", False),
    "cli.self_s": Metric("s", "lower", True),
    "synthbench.generate_s": Metric("s", "lower", True),
    "trace.overhead_s": Metric("s", "lower", True),
}


class StageTimeout(BaseException):
    """Raised by the alarm in a stage that overruns the run's deadline.

    A BaseException, so the CLI's own error handling cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise StageTimeout


def run_stage(argv: list[str], budget: float, cli=None) -> tuple[object, float]:
    """Run one CLI command in-process; returns (exit code or reason, seconds).

    ``cli`` is the program's ``taxrewire.cli`` unless given.
    """
    if cli is None:
        from taxrewire import cli

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(budget, 0.001))
    start = perf_counter()
    try:
        code = cli.main(argv)
    except StageTimeout:
        code = "did not finish"
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception:  # a crash is a failed stage, not a crashed benchmark
        traceback.print_exc()
        code = "crashed"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, perf_counter() - start


@dataclass
class Run:
    """One pass over the workload's stages."""

    out: Path
    traced: bool
    stage_s: dict[str, float] = field(default_factory=dict)
    codes: dict[str, object] = field(default_factory=dict)  # 0 is success
    layers: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return all(code == 0 for code in self.codes.values())

    @property
    def total_s(self) -> float:
        return sum(self.stage_s.values())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {detail}")


def run_pipeline(workload, inputs: Path, out: Path, deadline: float, tracer=None,
                 cli=None) -> Run:
    import workloads

    run = Run(out, tracer is not None)
    for name, argv in workloads.stage_argv(workload, inputs, out):
        if not run.ok:
            run.codes[name] = "not run, an earlier stage failed"
            continue
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            run.codes[name], run.stage_s[name] = run_stage(argv, deadline - perf_counter(), cli)
    return run


def run_paired(workload, inputs: Path, out: Path, ref_out: Path, deadline: float,
               reference_cli, turn: int) -> tuple[Run, Run]:
    """One pass of the program and one of the frozen reference, interleaved.

    Each stage of the program runs right beside the same stage of the
    reference, first and second by turns, so the two see the machine at
    nearly the same speed.
    """
    import workloads

    run, ref = Run(out, False), Run(ref_out, False)
    ref_argv = dict(workloads.stage_argv(workload, inputs, ref_out))
    for k, (name, argv) in enumerate(workloads.stage_argv(workload, inputs, out)):
        if not (run.ok and ref.ok):
            run.codes[name] = ref.codes[name] = "not run, an earlier stage failed"
            continue
        sides = [(run, argv, None), (ref, ref_argv[name], reference_cli)]
        for side, args, cli in sides if (k + turn) % 2 == 0 else sides[::-1]:
            side.codes[name], side.stage_s[name] = run_stage(args, deadline - perf_counter(), cli)
    return run, ref


def set_up(workload, seed: int, dest: Path, trace: bool):
    """Generate the inputs into ``dest`` once; returns (seconds, tracer or None)."""
    import tracing
    import workloads

    shutil.rmtree(dest, ignore_errors=True)
    start = perf_counter()
    if not trace:
        workloads.make_inputs(workload, seed, dest)
        return perf_counter() - start, None
    gen_text = (workloads, "gen_text", "bench.gen_text", None)
    with tracing.Tracer(dest.name, extra=(gen_text,)) as tracer:
        workloads.make_inputs(workload, seed, dest)
    return perf_counter() - start, tracer


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, started: float):
    """The whole run; returns (metrics, tally, timing samples)."""
    import checks
    import tracing
    from taxrewire_ref import cli as reference_cli

    deadline = started + DEADLINE_S
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    inputs = work / "inputs"
    setups = [set_up(workload, seed, inputs, trace)]
    setup_after = [0]  # the pass whose pair scales each set-up
    expected = checks.digest(inputs)
    # The later set-ups are spread over the run, a share after each of the
    # first MIN_PAIRS passes, so that their median does not hang on the
    # machine's speed at one moment.
    setup_reps = min(SETUP_MAX_REPS,
                     max(SETUP_REPS, math.ceil(SETUP_MIN_S / max(setups[0][0], 1e-3))))
    setup_wall = 0.0  # spent on set-ups since the measurement began

    def set_up_again() -> None:
        nonlocal setup_wall
        start = perf_counter()
        again = work / "inputs-again"
        setups.append(set_up(workload, seed, again, trace))
        setup_after.append(max(len(runs) - 1, 0))
        tally.add(*checks.same_files("set-up is deterministic", expected, checks.digest(again)))
        shutil.rmtree(again)
        setup_wall += perf_counter() - start

    runs: list[Run] = []
    ref_runs: list[Run] = []  # without --trace, paired with runs, in order
    tracers = []
    first_files = None
    peak_rss_mb = 0.0
    measuring = perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        out = work / f"run{len(runs)}"
        gc.collect()
        if traced:
            with tracing.Tracer(f"run{len(runs)}") as tracer:
                run = run_pipeline(workload, inputs, out, deadline, tracer)
            run.layers = tracing.layer_metrics(tracer)
            tracers.append(tracer)
        elif trace:
            run = run_pipeline(workload, inputs, out, deadline)
        else:
            ref_out = work / "reference"
            shutil.rmtree(ref_out, ignore_errors=True)
            if runs:
                run, ref = run_paired(workload, inputs, out, ref_out, deadline, reference_cli,
                                      len(runs))
            else:
                # The first pass runs the program alone, then the
                # reference, so that peak_rss_mb counts the program only.
                run = run_pipeline(workload, inputs, out, deadline)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                ref = Run(ref_out, False)
                if run.ok:
                    ref = run_pipeline(workload, inputs, ref_out, deadline, cli=reference_cli)
            ref_runs.append(ref)
            # Only the reference's exit codes are checked; its artifacts
            # are not the program's business.
            for name, code in ref.codes.items():
                tally.add(f"reference stage {name}", code == 0, f"exit {code}")
        runs.append(run)
        for name, code in run.codes.items():
            tally.add(f"stage {name} of {out.name}", code == 0, f"exit {code}")
        if not (run.ok and all(r.ok for r in ref_runs)):
            break
        files = checks.digest(out)
        if first_files is None:
            first_files = files
        else:
            name = ("traced artifacts equal the untraced run's" if traced
                    else "rerun artifacts equal the first run's")
            tally.add(*checks.same_files(name, first_files, files))
            shutil.rmtree(out)
        due = 1 + math.ceil((setup_reps - 1) * len(runs) / MIN_PAIRS)
        while len(setups) < min(setup_reps, due):
            set_up_again()
        measured = perf_counter() - measuring - setup_wall
        # Stop where one more pass would end further past --seconds than
        # stopping now falls short of it.
        per_pass = measured / len(runs)
        enough = (0 < sum(r.traced for r in runs) < len(runs) if trace
                  else len(runs) >= MIN_PAIRS)
        if enough and measured + per_pass / 2 >= seconds:
            break
        if deadline - perf_counter() < 1.5 * per_pass + CHECK_RESERVE_S:
            break

    if not (runs[-1].ok and all(r.ok for r in ref_runs)):
        return {}, tally, {}
    while len(setups) < setup_reps:
        set_up_again()
    setup_times = [secs for secs, _ in setups]
    setup_tracers = [tracer for _, tracer in setups if tracer is not None]
    first = runs[0]
    for check in checks.check_outputs(inputs, first.out, workload.method):
        tally.add(*check)

    plain = [r for r in runs if not r.traced]
    if trace:
        traced_runs = [r for r in runs if r.traced]
        samples = {"setup_s": setup_times, "pipeline_s": [r.total_s for r in plain],
                   "traced pipeline_s": [r.total_s for r in traced_runs]}
        values = tracing.median_metrics([r.layers for r in traced_runs])
        values["synthbench.generate_s"] = statistics.median(
            tracing.busy_time(t.spans, tracing.LAYER_TIMES["synthbench.generate_s"])
            for t in setup_tracers
        )
        values["trace.overhead_s"] = (statistics.median(samples["traced pipeline_s"])
                                      - statistics.median(samples["pipeline_s"]))
        tracing.write_spans(work / "trace.jsonl", setup_tracers + tracers)
        return values, tally, samples

    # Seconds at the reference's speed: each pass's wall time times the
    # reference's nominal time over its time in the same pair.
    scales = [workload.reference_s / ref.total_s for ref in ref_runs]
    samples = {
        "reference_wall_s": [ref.total_s for ref in ref_runs],
        "pipeline_wall_s": [r.total_s for r in plain],
        "pipeline_s": [r.total_s * k for r, k in zip(plain, scales)],
        "setup_wall_s": setup_times,
        "setup_s": [secs * scales[i] for secs, i in zip(setup_times, setup_after)],
    }
    values = {
        "pipeline_s": statistics.median(samples["pipeline_s"]),
        "pipeline_wall_s": statistics.median(samples["pipeline_wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
    }
    values.update(checks.quality(inputs, first.out))
    if workload.method is not None:
        n_test = len((inputs / "test.txt").read_text(encoding="utf-8").splitlines())
        samples["fit_s"] = [r.stage_s["train"] * k for r, k in zip(plain, scales)]
        samples["predict_ips"] = [n_test / (r.stage_s["predict"] * k)
                                  for r, k in zip(plain, scales)]
        values["fit_s"] = statistics.median(samples["fit_s"])
        values["predict_ips"] = statistics.median(samples["predict_ips"])
    values["ops_failed"] = tally.failed / tally.attempted
    return values, tally, samples


def report(values: dict[str, float], table: dict[str, Metric], tally: Tally,
           samples: dict[str, list[float]], workload: str) -> dict:
    """Print every metric, then return the JSON result line's object."""
    print(f"workload {workload}; medians of:")
    for name, xs in samples.items():
        print(f"  samples of {name} n={len(xs)}: " + " ".join(f"{x:.4g}" for x in xs))
    for name, spec in table.items():
        shown = f"{values[name]:.6g}" if name in values else "n/a (layer not run)"
        print(f"  {name:28s} {shown:>22s} {spec.unit:10s} {spec.better} is better")
    for note in tally.notes:
        print(note)
    metrics = {
        name: {"value": float(values[name]), "unit": spec.unit}
        for name, spec in table.items() if spec.reported and name in values
    }
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to measure; the run repeats the stages until about then")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (SRC / "taxrewire" / "cli.py").is_file():
        print(f"error: no taxrewire sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the pipeline's own
    # --workers 2 then keeps the process at two cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # The checkout's own sources, never an installed copy, and the
    # frozen reference copy beside them.
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(REFERENCE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    values, tally, samples = measure(workload, args.seed, args.seconds, bool(args.trace),
                                    WORK / args.workload, started)
    table = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(report(values, table, tally, samples, args.workload)))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
