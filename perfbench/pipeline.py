"""One benchmark child process: generate a corpus, or run the six stages on it once.

    python3 perfbench/pipeline.py setup  <job.json>
    python3 perfbench/pipeline.py stages <job.json>

The job file holds the resolved synth and stage configs, the seed, the
directories, the result path, whether to trace and the CPU to pin the process
to. Stages run in this one process, in order, through ``sgrel.cli.main``, with no extra threads. The result (timings, exit codes, peak resident memory
and, when traced, per-layer metrics) is written as JSON to the result path; the
spans of a traced run are written next to it when the process ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, install, layer_metrics, stage_residual

MODEL_STAGES = ("zsplit", "weights", "resample", "train")
RESCORE_STAGES = ("refine", "eval")
RESCORE_TARGET_S = 2.0
RESCORE_MAX_LOOPS = 8


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k}={_format(v)}\n" for k, v in values.items()), encoding="utf-8")
    return path


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def seeded_recalls(predicate_names: list[str], seed: int) -> dict[str, float]:
    """The baseline recall table resampling reads, drawn from the workload seed."""
    rng = np.random.default_rng([seed, 0x5EC411])
    values = rng.uniform(0.05, 0.95, size=len(predicate_names))
    return {name: float(v) for name, v in zip(predicate_names, values)}


def stage_argvs(job: dict, corpus: Path, out: Path, config: Path) -> dict[str, list[str]]:
    """The argv of each stage, as a user would type it after ``sgrel``."""
    flags = [
        "--config", str(config),
        "--object-labels", str(corpus / "object_labels.txt"),
        "--predicate-labels", str(corpus / "predicate_labels.txt"),
    ]
    d_roi = ["--d-roi", str(job["synth"]["d_roi"])]
    train, test = str(corpus / "train.jsonl"), str(corpus / "test.jsonl")
    recalls = ["--recalls", str(corpus / "recalls.json")] if job["stages"]["use_resampling"] else []
    weights = str(out / "w" / "info_weights.json")
    return {
        "zsplit": ["zsplit", "--out", str(out / "zs"), *flags, "--train", train, "--test", test, *d_roi],
        "weights": ["weights", "--out", str(out / "w"), *flags, "--train", train, *d_roi],
        "resample": ["resample", "--out", str(out), *flags, "--train", train, *d_roi, *recalls],
        "train": [
            "train", "--out", str(out), *flags, "--train", str(out / "train_resampled.jsonl"),
            "--val", str(corpus / "val.jsonl"), "--test", test,
            "--object-embeddings", str(corpus / "object_embeddings.txt"), *d_roi,
            *(["--weights", weights] if job["stages"]["use_reweighting"] else []),
        ],
        "refine": [
            "refine", "--out", str(out), *flags, "--predictions", str(out / "predictions_test.jsonl"),
            "--object-embeddings", str(corpus / "object_embeddings.txt"),
            "--predicate-embeddings", str(corpus / "predicate_embeddings.txt"),
        ],
        "eval": [
            "eval", "--out", str(out), *flags, "--predictions", str(out / "predictions_refined.jsonl"),
            "--dataset", test, *d_roi,
            "--zero-shot", str(out / "zs" / "zero_shot.json"), "--weights", weights,
        ],
    }


def run_setup(job: dict, tracer: Tracer | None) -> dict:
    """Synthetic corpus plus the seeded recalls file: the workload's inputs."""
    from sgrel import cli

    corpus = Path(job["corpus"])
    corpus.mkdir(parents=True, exist_ok=True)
    config = write_config(corpus / "synth.cfg", job["synth"])
    start = time.perf_counter()
    code = cli.main(["synth", "--out", str(corpus), "--config", str(config)])
    if code == 0:
        names = (corpus / "predicate_labels.txt").read_text(encoding="utf-8").split()
        recalls = seeded_recalls(names, job["seed"])
        (corpus / "recalls.json").write_text(json.dumps(recalls, sort_keys=True) + "\n", encoding="utf-8")
    return {"setup_s": time.perf_counter() - start, "exit_codes": {"synth": code}}


def run_stages(job: dict, tracer: Tracer | None) -> dict:
    """The four model stages once, then refine + eval; stops at the first stage that fails.

    Untraced, refine + eval repeat, as when a user sweeps ``alpha``, until
    RESCORE_TARGET_S have been spent on them, so that a short rescore gets
    several samples. Every repeat must write the same report.json.
    """
    from sgrel import cli

    corpus = Path(job["corpus"])
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    argvs = stage_argvs(job, corpus, out, write_config(out / "run.cfg", job["stages"]))
    codes: list[list] = []

    def run(stage: str) -> float:
        span = tracer.begin(f"cli.{stage}") if tracer else None
        start = time.perf_counter()
        codes.append([stage, cli.main(argvs[stage])])
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        return elapsed

    result = {"exit_codes": codes, "model_s": 0.0, "rescore_s": [], "reports": 0}
    for stage in MODEL_STAGES:
        result["model_s"] += run(stage)
        if codes[-1][1]:
            return result
    reports = set()
    rescore = result["rescore_s"]
    while not rescore or (
        tracer is None and sum(rescore) < RESCORE_TARGET_S and len(rescore) < RESCORE_MAX_LOOPS
    ):
        loop = 0.0
        for stage in RESCORE_STAGES:
            loop += run(stage)
            if codes[-1][1]:
                return result
        rescore.append(loop)
        reports.add((out / "report.json").read_bytes())
    result["reports"] = len(reports)
    result["pipeline_s"] = result["model_s"] + rescore[0]
    return result


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS would use, or None where it cannot be asked."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            probe = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        probe.restype = ctypes.c_int
        probe.argtypes = []
        return int(probe())
    return None


def main(argv: list[str]) -> int:
    mode, job_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if job["cpu"] is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        install(tracer)
    result = (run_setup if mode == "setup" else run_stages)(job, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result_path = Path(job["result"])
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        result["span_residual_s"] = stage_residual(tracer.spans)
        with open(result_path.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")
    result_path.write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
