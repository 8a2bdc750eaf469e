"""The traced benchmark patches functions by module and name, and its counters read what they return."""

import importlib
import json
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from sgrel.cli import main

from test_fuzz import STAGE_CONFIG, TINY_CORPUS, write_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable(tracing):
    assert tracing.TARGETS
    for module_name, attr, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} is gone; the traced benchmark patches it"


def test_traced_pipeline_counts_what_the_stages_do(tracing, tmp_path):
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
    # Every split came from its companion: the parser, which validates each annotation, never ran.
    assert not any(span.name == "ingest.validate_annotation" for span in tracer.spans)
    refined = (out / "predictions_refined.jsonl").read_text().splitlines()
    assert metrics["refinement.pairs_refined"] == len(refined) > 0
    assert 0 < metrics["sampling.triples_kept"] <= metrics["sampling.triples_in"]
    # The prediction counters: train saves val and test, refine saves the refined set; validation predicts val.
    assert metrics["metrics.save_predictions_calls"] == 3
    validations = len((out / "validation.csv").read_text().splitlines()) - 1  # one row per evaluation
    assert metrics["alignment.predict_calls"] == 2 + validations
    test_pairs, val_pairs = (len((out / f"predictions_{split}.jsonl").read_text().splitlines())
                             for split in ("test", "val"))
    assert metrics["alignment.pairs_predicted"] == test_pairs + val_pairs * (1 + validations)
    report = [json.loads(line) for line in (out / "refinement_report.jsonl").read_text().splitlines()]
    assert metrics["refinement.pairs_flipped"] == sum(r["pre_top"] != r["post_top"] for r in report)
