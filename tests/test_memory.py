"""Memory guards: the traced peak of the stages that hold a ``(P, C)`` score table, as a multiple of that table.

Each stage runs in-process under ``tracemalloc``, which numpy reports its
array buffers to, on the test split of a generated corpus the size of the
benchmark's dense_sggen one: about 23,000 pairs and 20 predicates, a 3.5 MiB
table. Besides the table a stage holds the other pair columns (ids, labels,
boxes: about three quarters of it at 20 predicates) and the text writer's
transients for one chunk of lines (about 2.5 MiB, however many pairs there
are), so a much smaller set would measure the writer, not the table. Either
bound fails if the stage keeps one more copy of the table.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from sgrel import alignment, ingest, metrics
from sgrel.cli import main
from sgrel.core import OBJECT, PREDICATE

REFINE_BOUND = 3.9    # the refine stage: load, refine_dataset, save_predictions and the report
PREDICT_BOUND = 3.33  # predict, then save_predictions


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    """The corpus, its object labels, test split and a model, and the test split's predictions saved: as the model
    predicts them, and with each label pair's pairs mostly sharing a top predicate, as after training."""
    out = tmp_path_factory.mktemp("dense")
    config = out / "synth.cfg"
    config.write_text("images=750\nmax_triples=6\nmax_distractors=6\n", encoding="utf-8")
    assert run(["synth", "--out", out, "--seed", 3, "--config", config]) == 0
    objects = ingest.load_labels(out / "object_labels.txt", OBJECT)
    predicates = ingest.load_labels(out / "predicate_labels.txt", PREDICATE)
    test = ingest.load_annotations(out / "test.jsonl", objects, predicates, 32, "test")
    model = alignment.RelationModel.init(32, 16, predicates.size, np.random.default_rng(0))
    predictions = alignment.predict(model, test)
    assert len(predictions) > 20_000
    metrics.save_predictions(predictions, objects, out / "predictions_test.jsonl")
    probs = predictions.probs.copy()
    probs[np.arange(len(probs)), (predictions.subj_label + predictions.obj_label) % predicates.size] += 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    metrics.save_predictions(dataclasses.replace(predictions, probs=probs), objects, out / "trained_test.jsonl")
    return out, objects, test, model


def traced_peak(call):
    """The peak of the memory traced while ``call`` runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_refine_stage_holds_the_input_scores_and_one_working_table(dense, tmp_path):
    out, _, test, _ = dense
    config = tmp_path / "run.cfg"
    config.write_text("use_refinement=true\n", encoding="utf-8")
    argv = ["refine", "--out", tmp_path / "rf", "--config", config, "--predictions", out / "trained_test.jsonl",
            "--object-labels", out / "object_labels.txt", "--predicate-labels", out / "predicate_labels.txt",
            "--object-embeddings", out / "object_embeddings.txt",
            "--predicate-embeddings", out / "predicate_embeddings.txt"]
    assert run(argv) == 0  # first calls happen outside the trace
    codes = []
    peak = traced_peak(lambda: codes.append(run(argv)))
    table = (tmp_path / "rf" / "refinement_report.jsonl").read_bytes().count(b"\n") * test.predicate_space.size * 8
    assert codes == [0] and table > 0
    assert peak < REFINE_BOUND * table, f"{peak / table:.2f} tables"


def test_predict_and_save_predictions(dense, tmp_path):
    out, objects, test, model = dense
    peak = traced_peak(lambda: metrics.save_predictions(alignment.predict(model, test), objects, tmp_path / "p.jsonl"))
    assert (tmp_path / "p.jsonl").read_bytes() == (out / "predictions_test.jsonl").read_bytes()
    table = (tmp_path / "p.jsonl").read_bytes().count(b"\n") * test.predicate_space.size * 8
    assert peak < PREDICT_BOUND * table, f"{peak / table:.2f} tables"
