"""Benchmark of the sgrel pipeline: one workload, one seed, timed for a fixed wall-clock budget.

    python3 perfbench/run.py --workload ablation --seed 7 --seconds 55 --trace 0

Run from the root of a checkout. The run

1. generates the inputs (synth plus a seeded recalls file) of four corpora
   drawn from the seed, each in its own process, the first twice to check that
   the copies match, and reports the median as ``setup_s``;
2. runs the six stages zsplit, weights, resample, train, refine and eval
   through ``sgrel.cli.main``, one process per pipeline (every child pinned
   to the same CPU), cycling over the
   corpora until ``--seconds`` have passed and every corpus has run, the first
   one twice; untraced pipelines repeat refine + eval for a few seconds. It
   reports medians of the timings (``pipeline_s`` is ``model_s + rescore_s``)
   and the mean quality over the corpora;
3. checks every pipeline's outputs and counts failed stages and checks;
4. prints every metric with its unit, the environment, and as the last line
   one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced pipelines alternate; the metrics are the per-layer ones
from the traced pipelines, plus the tracing overhead. Scratch files, results
and spans go under ``perfbench/.work/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, corpus_seeds  # noqa: E402

# A run must end within 180 s however slow the machine: no child outlives this.
DEADLINE_S = 170.0
# Single-threaded BLAS: the stages run in one process with no extra threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("model_s", "s"),
    ("rescore_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("R_100", "ratio"),
    ("mR_100", "ratio"),
    ("zR_100", "ratio"),
)
# mRIC@100 varies too much from seed to seed (on dense_sggen) for any bound
# the benchmark may set, so it is reported with the per-layer metrics, ungated.
MRIC = "metrics.mRIC_100"
QUALITY = {"R_100": "recall", "mR_100": "mean_recall", "zR_100": "zero_shot_recall",
           MRIC: "mric"}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stage_cpu() -> int | None:
    """The CPU every child runs on: the highest-numbered one this process may use.

    On a small shared VM the vCPUs need not run at the same speed (CPU 0 also
    takes most interrupts; on a 2-vCPU Xeon VM it ran a fixed loop 15-40%
    slower than CPU 1), so a child placed by the scheduler times whichever CPU
    it landed on. Pinning every child to one CPU takes that draw out of the
    measurement. None where the platform cannot pin.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def environment(workload, seed: int) -> dict:
    """What the numbers depend on besides the code: versions, BLAS, cores, load, config."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "stage_cpu": stage_cpu(),
        "loadavg_at_start": list(os.getloadavg()),
        "workload": workload.name,
        "seed": seed,
        "corpus_seeds": corpus_seeds(seed),
        "config": workload.resolved(seed),
    }


class Run:
    """One benchmark invocation: its scratch directory, child processes and tallies."""

    def __init__(self, workload, trace: bool, directory: Path):
        self.workload = workload
        self.trace = trace
        self.dir = directory
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
        self.cpu = stage_cpu()
        self.attempted = 0
        self.failures: list[str] = []
        self.jobs = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def record(self, name: str, passed: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")
        return passed

    def child(self, mode: str, seed: int, traced: bool, **paths) -> dict | None:
        """Run pipeline.py in its own process; its result, or None if it did not finish."""
        self.jobs += 1
        result = self.dir / f"{mode}-{self.jobs}.json"
        job = {"seed": seed, **self.workload.resolved(seed), "trace": traced, "cpu": self.cpu,
               "result": str(result), **{k: str(v) for k, v in paths.items()}}
        job_path = self.dir / f"{mode}-{self.jobs}.job.json"
        job_path.write_text(json.dumps(job, sort_keys=True), encoding="utf-8")
        with open(self.dir / "children.log", "ab") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "pipeline.py"), mode, str(job_path)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=log,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result.exists():
            return None
        return json.loads(result.read_text(encoding="utf-8"))


class Corpus:
    """One generated corpus, with the counts its outputs are checked against."""

    def __init__(self, index: int, seed: int, path: Path, setups: list[dict]):
        self.index = index
        self.seed = seed
        self.path = path
        self.setups = setups
        self.gt_triples, self.ordered_pairs = checks.test_split_counts(path / "test.jsonl")
        self.report: bytes | None = None  # first report.json of this corpus


def set_up(run: Run, seed: int, ks: list[int]) -> list[Corpus] | None:
    """Generate every corpus in its own process, the first one twice: the copies must match."""
    corpora = []
    for i, corpus_seed in enumerate(corpus_seeds(seed)):
        path = run.dir / f"corpus-{i}"
        copies = [path, run.dir / "corpus-0-again"] if i == 0 else [path]
        results = []
        for copy in copies:
            result = run.child("setup", corpus_seed, run.trace, corpus=copy)
            ok = result is not None and result["exit_codes"]["synth"] == 0
            if not run.record(f"set-up of corpus {i} finishes", ok, "see children.log"):
                return None
            results.append(result)
        for copy in copies[1:]:
            run.record(*checks.same_files(path, copy))
            shutil.rmtree(copy)
        corpora.append(Corpus(i, corpus_seed, path, results))
        run.record(*checks.oracle_check(path, run.workload.d_roi, ks, run.workload.subtask))
    return corpora


def run_pipeline(run: Run, corpus: Corpus, traced: bool, ks: list[int], out: Path) -> dict | None:
    """One pipeline on ``corpus`` and every check on its outputs; None if a stage failed."""
    began = time.perf_counter()
    result = run.child("stages", corpus.seed, traced, corpus=corpus.path, out=out)
    if not run.record("stage process finishes", result is not None, "see children.log"):
        return None
    for stage, code in result["exit_codes"]:
        run.record(f"{stage} exits 0", code == 0, f"exit {code}, see children.log")
    if "pipeline_s" not in result:
        return None
    run.record("repeated refine + eval write the same report.json", result["reports"] == 1,
               f"{result['reports']} different reports")
    report_bytes = (out / "report.json").read_bytes()
    corpus.report = corpus.report or report_bytes
    run.record(f"report.json of corpus {corpus.index} identical across pipelines",
               report_bytes == corpus.report)
    report = json.loads(report_bytes)
    for check in checks.report_checks(report, ks, corpus.gt_triples):
        run.record(*check)
    for check in checks.prediction_checks(out, corpus.ordered_pairs):
        run.record(*check)
    if traced:
        run.record("stage spans account for stage time", result["span_residual_s"] < 1e-6,
                   f"{result['span_residual_s']:.3g} s unaccounted")
    shutil.rmtree(out)
    result.update(traced=traced, wall_s=time.perf_counter() - began, report=report,
                  corpus=corpus.index)
    return result


def median(values):
    return statistics.median(values) if values else None


def spread(values) -> str:
    return f"{len(values)} samples, min {min(values):.4g}, max {max(values):.4g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgrel" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'sgrel'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sgrel.metrics import DEFAULT_KS

    ks = list(DEFAULT_KS)
    workload = WORKLOADS[args.workload]
    env_record = environment(workload, args.seed)
    run = Run(workload, bool(args.trace), WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}")

    corpora = set_up(run, args.seed, ks)
    if corpora is None:
        return fail(run)

    # Cycle over the corpora until the budget is spent, every corpus has run
    # and the first has run twice; a trace run alternates untraced and traced.
    pipelines: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        last = pipelines[-1]["wall_s"] if pipelines else 0.0
        if len(pipelines) > len(corpora) and args.seconds - elapsed < last:
            break
        n = len(pipelines)
        result = run_pipeline(run, corpora[n % len(corpora)], run.trace and n % 2 == 1, ks,
                              run.dir / f"pipeline-{n}")
        if result is None:
            return fail(run)
        pipelines.append(result)
    measured_s = time.perf_counter() - start
    env_record["blas_threads_seen"] = pipelines[0]["blas_threads"]

    plain = [p for p in pipelines if not p["traced"]]
    traced = [p for p in pipelines if p["traced"]]
    samples: dict[str, list[float]] = {"setup_s": [s["setup_s"] for c in corpora for s in c.setups]}
    for key in ("model_s", "pipeline_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in plain]
    samples["rescore_s"] = [loop for p in plain for loop in p["rescore_s"]]
    for name, family in QUALITY.items():
        samples[name] = [json.loads(c.report)["report"]["metrics"][family]["100"] for c in corpora]
    units = {**dict(END_TO_END), MRIC: "bits"}
    values = {name: median(samples[name]) for name in samples}
    values["pipeline_s"] = values["model_s"] + values["rescore_s"]
    for name in QUALITY:  # quality is the mean over the corpora, not a timing
        values[name] = statistics.fmean(samples[name])

    if run.trace:
        layer_names = list(traced[0]["layers"])
        for name in layer_names:
            samples[name] = [p["layers"][name] for p in traced]
            units[name] = per_layer_units(name)
        samples["synth.generate_s"] = [s["layers"]["synth.generate_s"] for c in corpora for s in c.setups]
        samples["trace.pipeline_s"] = [p["pipeline_s"] for p in traced]
        values.update({name: median(samples[name]) for name in layer_names})
        values["trace.pipeline_s"] = median(samples["trace.pipeline_s"])
        values["trace.overhead_s"] = values["trace.pipeline_s"] - median(samples["pipeline_s"])
        samples["trace.overhead_s"] = [values["trace.overhead_s"]]
        units.update({"trace.pipeline_s": "s", "trace.overhead_s": "s"})
        reported = ["trace.overhead_s", "trace.pipeline_s", *layer_names, MRIC]
    else:
        reported = [name for name, _ in END_TO_END]

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced pipelines over {len(corpora)} corpora "
          f"in {measured_s:.1f} s (timings: medians; quality: mean over corpora)")
    for name in dict.fromkeys([*(n for n, _ in END_TO_END), MRIC, *reported]):
        print(f"  {name:38s} {values[name]:14.6g} {units[name]:6s} {spread(samples[name])}")
    failed = len(run.failures)
    print(f"  {'failed_ops':38s} {failed / run.attempted:14.6g} {'ratio':6s} {failed} of {run.attempted}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print("environment: " + json.dumps(env_record, sort_keys=True))

    for corpus in corpora:
        shutil.rmtree(corpus.path)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in reported}
    payload = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    (run.dir / "result.json").write_text(
        json.dumps({**payload, "samples": samples, "failures": run.failures, "environment": env_record},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(payload, sort_keys=True))
    return 0


def fail(run: Run) -> int:
    """A stage or set-up did not finish, so the metrics cannot be computed: no result line."""
    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench: see {run.dir / 'children.log'}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
