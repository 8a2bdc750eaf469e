"""The traced benchmark patches functions by module and name, and its counters read what they return."""

import importlib
import json
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sgrel import cli, ingest, metrics
from sgrel.cli import main
from sgrel.core import OBJECT, PREDICATE
from sgrel.sampling import build_sampling_plan, count_predicates

from test_fuzz import STAGE_CONFIG, TINY_CORPUS, write_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return perfbench_module("tracing", monkeypatch)


def test_every_trace_target_resolves_to_a_callable(tracing):
    assert tracing.TARGETS
    for module_name, attr, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} is gone; the traced benchmark patches it"


def test_traced_pipeline_counts_what_the_stages_do(tracing, tmp_path, monkeypatch):
    """zsplit -> weights -> resample -> train -> refine -> eval, traced, with every mechanism on."""
    corpus, out = tmp_path / "corpus", tmp_path / "run"
    synth_config = write_config(tmp_path / "synth.cfg", TINY_CORPUS)
    assert main(["synth", "--out", str(corpus), "--config", str(synth_config)]) == 0
    names = (corpus / "predicate_labels.txt").read_text().split()
    recalls = tmp_path / "recalls.json"
    recalls.write_text("{" + ", ".join(f'"{name}": {i % 2}' for i, name in enumerate(names)) + "}\n")
    common = [
        "--config", write_config(tmp_path / "stages.cfg", STAGE_CONFIG),
        "--object-labels", corpus / "object_labels.txt", "--predicate-labels", corpus / "predicate_labels.txt",
    ]
    d_roi = ["--d-roi", TINY_CORPUS["d_roi"]]
    embeddings = ["--object-embeddings", corpus / "object_embeddings.txt"]
    stages = {
        "zsplit": ["--out", out / "zs", "--train", corpus / "train.jsonl", "--test", corpus / "test.jsonl", *d_roi],
        "weights": ["--out", out / "w", "--train", corpus / "train.jsonl", *d_roi],
        "resample": ["--out", out, "--train", corpus / "train.jsonl", "--recalls", recalls, *d_roi],
        "train": ["--out", out, "--train", out / "train_resampled.jsonl", "--val", corpus / "val.jsonl",
                  "--test", corpus / "test.jsonl", *embeddings, "--weights", out / "w" / "info_weights.json", *d_roi],
        "refine": ["--out", out, "--predictions", out / "predictions_test.jsonl", *embeddings,
                   "--predicate-embeddings", corpus / "predicate_embeddings.txt"],
        "eval": ["--out", out, "--predictions", out / "predictions_refined.jsonl", "--dataset", corpus / "test.jsonl",
                 "--zero-shot", out / "zs" / "zero_shot.json", "--weights", out / "w" / "info_weights.json", *d_roi],
    }
    parsed = []  # each annotation file that the JSON-lines parser read
    parse = ingest._parse_annotations
    monkeypatch.setattr(ingest, "_parse_annotations", lambda path, *args: parsed.append(path) or parse(path, *args))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for stage, argv in stages.items():
            span = tracer.begin(f"cli.{stage}")
            try:
                code = main([str(a) for a in [stage, *common, *argv]])
            finally:
                tracer.end(span)
            assert code == 0, stage
    finally:
        restore()

    metrics = tracing.layer_metrics(tracer.spans)
    assert all(math.isfinite(value) for value in metrics.values())
    # zsplit 2, weights 1, resample 1, train 3 and eval 1 splits, each counted under the one traced name.
    read = [argv[argv.index(flag) + 1] for stage, flags in (
        ("zsplit", ("--train", "--test")), ("weights", ("--train",)), ("resample", ("--train",)),
        ("train", ("--train", "--val", "--test")), ("eval", ("--dataset",)),
    ) for argv in [stages[stage]] for flag in flags]
    assert metrics["ingest.load_annotations_calls"] == len(read) == 8
    assert metrics["ingest.images_loaded"] == sum(len(path.read_text().splitlines()) for path in read)
    # Each load ran the one invariant check once, and every split came from its companion: the parser never ran.
    assert sum(span.name == "ingest.validate_annotation" for span in tracer.spans) == len(read)
    assert metrics["ingest.validate_annotation_s"] > 0.0
    assert parsed == []
    refined = (out / "predictions_refined.jsonl").read_text().splitlines()
    assert metrics["refinement.pairs_refined"] == len(refined) > 0
    # One refinement vector per distinct (subject label, object label, pre-refinement top) key.
    keys = {(r["subj_label"], r["obj_label"], int(np.argmax(r["probs"])))
            for r in map(json.loads, (out / "predictions_test.jsonl").read_text().splitlines())}
    assert metrics["refinement.vector_cache_hit_ratio"] == 1.0 - len(keys) / len(refined)
    assert 0 < metrics["sampling.triples_kept"] <= metrics["sampling.triples_in"]
    # One forward and one backward per training step: STAGE_CONFIG trains 2 iterations at a non-zero lr.
    assert STAGE_CONFIG["iterations"] == 2 and STAGE_CONFIG["lr"] > 0
    assert metrics["alignment.forward_batch_calls"] == metrics["alignment.backward_calls"] == 2
    # The prediction counters: train saves val and test, refine saves the refined set; validation predicts val.
    assert metrics["metrics.save_predictions_calls"] == 3
    validations = len((out / "validation.csv").read_text().splitlines()) - 1  # one row per evaluation
    assert metrics["alignment.predict_calls"] == 2 + validations
    test_pairs, val_pairs = (len((out / f"predictions_{split}.jsonl").read_text().splitlines())
                             for split in ("test", "val"))
    assert metrics["alignment.pairs_predicted"] == test_pairs + val_pairs * (1 + validations)
    report = [json.loads(line) for line in (out / "refinement_report.jsonl").read_text().splitlines()]
    assert metrics["refinement.pairs_flipped"] == sum(r["pre_top"] != r["post_top"] for r in report)


@pytest.mark.parametrize("source", ["companion", "text"])
def test_what_the_benchmark_reads_of_the_program(tmp_path, monkeypatch, source):
    """The traced counters read ``len(load_annotations(...).annotations)`` and ``num_triples()`` of resample's
    argument and result, ``match_triples`` is reached through ``metrics``' module global, and the benchmark's
    oracle check scores oracle predictions 1 under predcls and sggen; from a companion and from the text alike."""
    corpus = tmp_path / "corpus"
    synth_config = write_config(tmp_path / "synth.cfg", TINY_CORPUS)
    assert main(["synth", "--out", str(corpus), "--config", str(synth_config)]) == 0
    if source == "text":
        for split in ("train", "test"):
            ingest.companion_path(corpus / f"{split}.jsonl").unlink()
    parsed = []
    parse = ingest._parse_annotations
    monkeypatch.setattr(ingest, "_parse_annotations", lambda path, *args: parsed.append(path) or parse(path, *args))
    spaces = (ingest.load_labels(corpus / "object_labels.txt", OBJECT),
              ingest.load_labels(corpus / "predicate_labels.txt", PREDICATE))
    d_roi = TINY_CORPUS["d_roi"]

    train = cli.load_annotations(corpus / "train.jsonl", *spaces, d_roi, "train")
    lines = [json.loads(line) for line in (corpus / "train.jsonl").read_text().splitlines()]
    assert len(train.annotations) == len(lines) > 0
    assert train.num_triples() == sum(len(record["relations"]) for record in lines)
    plan = build_sampling_plan(count_predicates(train), np.full(spaces[1].size, 0.5), tau=1.0, beta=1.0, seed=3)
    resampled = cli.resample(train, plan)
    assert resampled.num_triples() == plan.targets.sum() < train.num_triples()

    calls = []
    match = metrics.match_triples
    monkeypatch.setattr(metrics, "match_triples", lambda *args: calls.append(args) or match(*args))
    checks = perfbench_module("checks", monkeypatch)
    for protocol in ("predcls", "sggen"):
        name, passed, detail = checks.oracle_check(corpus, d_roi, [5, 10], protocol)
        assert passed, (protocol, detail)
    test_images = len((corpus / "test.jsonl").read_text().splitlines())
    assert len(calls) == test_images > 0  # one call per test image under sggen; predcls joins without it
    assert parsed == ([] if source == "companion" else [corpus / "train.jsonl", corpus / "test.jsonl",
                                                        corpus / "test.jsonl"])
