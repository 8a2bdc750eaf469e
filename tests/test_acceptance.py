"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale ablation
(criterion 6) drives the real CLI end to end on a ~2000-image synthetic corpus
and takes a few minutes; everything else is fast.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from sgrel.alignment import backward, contrastive_loss, forward_batch, pair_inputs
from sgrel.cli import main as cli_main
from reference_annotations import Triple
from sgrel.ingest import build_zero_shot_index, dataset_signatures
from sgrel.metrics import evaluate
from sgrel.refinement import refine
from sgrel.reweighting import info_weights, total_loss
from sgrel.sampling import build_sampling_plan, count_predicates, resample, sampling_rate
from sgrel.synth import SynthConfig, generate, oracle_predictions

from conftest import make_annotation, make_dataset, make_object, make_spaces
from reference_predictions import PairPrediction, to_set
from test_alignment import finite_difference_gradients, max_relative_error, toy_batch


def _ok(criterion, message):
    print(f"\nPASS criterion {criterion}: {message}")


def test_criterion_1_sampling_rate_formula_oracles():
    head = sampling_rate(110000, 0.8, tau=1100.0, beta=0.3)
    assert head == pytest.approx(0.04167, abs=1e-5)
    assert head == pytest.approx(1100.0 / 26400.0, abs=1e-12)
    assert sampling_rate(500, 0.9, tau=1100.0, beta=0.3) == 1.0
    assert sampling_rate(2000, 0.5, tau=1100.0, beta=0.3) == 1.0
    _ok(1, "sampling-rate hand value 0.04167 +/- 1e-5; threshold and cap branches exactly 1")


def test_criterion_2_loss_oracles():
    _, _, identity = contrastive_loss([[1.0, 0.0], [0.0, 1.0]])
    assert identity == pytest.approx(0.31326, abs=1e-5)
    for n in (1, 2, 3, 4, 5, 8):
        assert contrastive_loss(np.full((n, n), 0.37))[2] == math.log(n)
    assert contrastive_loss([[2.5]])[2] == 0.0

    info = info_weights(np.array([4, 2, 1, 1]))
    np.testing.assert_allclose(info.weights, [0.4444, 0.8889, 1.3333, 1.3333], atol=1e-4)

    assert total_loss(0.0, 0.0, 0.3, 1.0, mu=1.2).total == 1.5
    _ok(2, "contrastive 0.31326, ln N exact, N=1 exact; info weights exact; total loss 1.5 exact")


def test_criterion_3_gradient_check_100_batches():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        model, data, table, weights = toy_batch(seed)
        batch = forward_batch(model, data, pair_inputs(data), table)
        analytic = backward(model, batch, weights, mu=1.2)
        numeric = finite_difference_gradients(model, data, table, weights, mu=1.2, h=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4, f"gradient mismatch at seed {seed}: {worst:.3e}"
    elapsed = time.time() - start
    _ok(3, f"100 seeded batches, max relative error {worst:.2e} < 1e-4 ({elapsed:.1f}s)")


def test_criterion_4_refinement_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        v = rng.uniform(0.0, 5.0, size=c)
        probs = rng.dirichlet(np.ones(c))
        idx, _ = refine(probs, np.exp(-v))
        scores = [probs[j] * math.exp(-v[j]) for j in range(c)]
        assert idx == max(range(c), key=lambda j: (scores[j], -j))

    for _ in range(1000):
        c = int(rng.integers(2, 7))
        v = np.full(c, float(rng.uniform(0.0, 5.0)))
        probs = rng.dirichlet(np.ones(c))
        idx, _ = refine(probs, np.exp(-v))
        assert idx == int(np.argmax(probs))
    _ok(4, "refine == exhaustive argmax of D*exp(-v) on 1000 instances; constant v is identity on 1000")


def _random_fixture(rng):
    spaces = make_spaces(c_obj=5, c_pred=4)
    annotations = []
    predictions = []
    for i in range(int(rng.integers(1, 6))):
        n_triples = int(rng.integers(1, 5))
        objects = []
        triples = []
        for t in range(n_triples):
            for offset in range(2):
                objects.append(make_object(2 * t + offset, label=int(rng.integers(5))))
            triples.append(Triple(2 * t, int(rng.integers(4)), 2 * t + 1))
        annotation = make_annotation(f"im{i}", objects=tuple(objects), triples=tuple(triples))
        annotations.append(annotation)
        for subj, obj in itertools.permutations(annotation.objects, 2):
            if rng.uniform() < 0.7:
                predictions.append(
                    PairPrediction(
                        image_id=annotation.image_id,
                        subj_id=subj.object_id,
                        obj_id=obj.object_id,
                        subj_label=subj.label,
                        obj_label=obj.label,
                        subj_box=subj.box,
                        obj_box=obj.box,
                        probs=rng.dirichlet(np.ones(4)),
                    )
                )
    dataset = make_dataset(annotations, spaces)
    signatures = sorted(dataset_signatures(dataset))
    n_zs = int(rng.integers(0, len(signatures) + 1))
    picked = rng.choice(len(signatures), size=n_zs, replace=False)
    zs = frozenset(signatures[int(i)] for i in picked)
    return dataset, predictions, zs


def test_criterion_5_metric_monotonicity_and_identities():
    rng = np.random.default_rng(99)
    ks = (1, 2, 3, 5, 10, 20, 50)
    counts = rng.integers(1, 100, size=4)
    info = info_weights(counts)
    for _ in range(200):
        dataset, predictions, zs = _random_fixture(rng)
        report = evaluate(to_set(predictions), dataset, zs, info, ks=ks)
        for family in (report.recall, report.mean_recall, report.zero_shot_recall, report.mric):
            values = [family[k] for k in ks if family[k] is not None]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        for k in ks:
            recalls = report.per_predicate_recall[k]
            observed = recalls[~np.isnan(recalls)]
            if observed.size:
                assert report.mean_recall[k] == np.mean(observed)

    for seed in range(5):
        data = generate(SynthConfig(images=120, zero_shot_fraction=0.2, seed=seed))
        zs = build_zero_shot_index(data.train, data.test)
        report = evaluate(oracle_predictions(data.test, data.map), data.test, zs)
        for k in report.ks:
            assert report.recall[k] == 1.0
            assert report.zero_shot_recall[k] == 1.0
    _ok(5, "200 random fixtures: R/mR/zR/mRIC non-decreasing in K, per-predicate mean == mR; oracle == 1.0")


# --- desk-scale ablation (criteria 6 and 7) ----------------------------------

ABLATION_SEED = 7
ABLATION_SYNTH = {
    "seed": ABLATION_SEED,
    "images": 2000,
    "c_obj": 30,
    "c_pred": 20,
    "d_roi": 32,
    "d_emb": 16,
    "zipf_s": 1.5,
    "zero_shot_fraction": 0.15,
    "noise_sigma": 0.5,
    "embedding_scale": 160.0,
    "intra_cluster_sigma": 1.0,
}
# Desk-scale training/sampling choices; the shipped defaults (tau=1100,
# lr=0.001) are sized for corpora with hundreds of thousands of triples.
ABLATION_TRAIN = {
    "iterations": 3000,
    "lr": 0.05,
    "batch_size": 16,
    "eval_every": 300,
    "patience": 3,
    "mu": 1.2,
    "alpha": 0.35,
    "tau": 150.0,
    "beta": 0.3,
}


def _write_config(path, **kv):
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()), encoding="utf-8")
    return path


def _run(argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


def _pipeline(corpus, out, config, toggles, recalls=None, weights=None):
    """resample -> train -> refine -> eval on the test split; returns report."""
    out.mkdir(parents=True, exist_ok=True)
    config_path = _write_config(out / "run.cfg", **config, **toggles)
    flags = [
        "--object-labels", corpus / "object_labels.txt",
        "--predicate-labels", corpus / "predicate_labels.txt",
    ]
    _run(["resample", "--out", out, "--config", config_path, *flags,
          "--train", corpus / "train.jsonl", "--d-roi", 32,
          *(["--recalls", recalls] if recalls else [])])
    _run(["train", "--out", out, "--config", config_path, *flags,
          "--train", out / "train_resampled.jsonl", "--val", corpus / "val.jsonl",
          "--test", corpus / "test.jsonl",
          "--object-embeddings", corpus / "object_embeddings.txt", "--d-roi", 32,
          *(["--weights", weights] if weights else [])])
    _run(["refine", "--out", out, "--config", config_path, *flags,
          "--predictions", out / "predictions_test.jsonl",
          "--object-embeddings", corpus / "object_embeddings.txt",
          "--predicate-embeddings", corpus / "predicate_embeddings.txt"])
    _run(["eval", "--out", out, "--config", config_path, *flags,
          "--predictions", out / "predictions_refined.jsonl",
          "--dataset", corpus / "test.jsonl", "--d-roi", 32,
          "--zero-shot", corpus / "zs" / "zero_shot.json",
          "--weights", corpus / "w" / "info_weights.json"])
    return json.loads((out / "report.json").read_text())


OFF = {"use_alignment": "false", "use_refinement": "false",
       "use_resampling": "false", "use_reweighting": "false"}


@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    corpus = root / "corpus"
    synth_config = _write_config(root / "synth.cfg", **ABLATION_SYNTH)
    _run(["synth", "--out", corpus, "--config", synth_config])
    flags = [
        "--object-labels", corpus / "object_labels.txt",
        "--predicate-labels", corpus / "predicate_labels.txt",
    ]
    _run(["zsplit", "--out", corpus / "zs", *flags, "--train", corpus / "train.jsonl",
          "--test", corpus / "test.jsonl", "--d-roi", 32])
    # Info weights from the original train split: used both for reweighted
    # training and as the shared information content behind every mRIC figure.
    _run(["weights", "--out", corpus / "w", *flags, "--train", corpus / "train.jsonl",
          "--d-roi", 32])

    config = {**ABLATION_TRAIN, "seed": ABLATION_SEED}
    runs = {}
    runs["baseline"] = _pipeline(corpus, root / "baseline", config, OFF)

    # Baseline per-predicate recalls on the validation split feed resampling.
    _run(["eval", "--out", root / "baseline" / "val_eval",
          "--config", root / "baseline" / "run.cfg", *flags,
          "--predictions", root / "baseline" / "predictions_val.jsonl",
          "--dataset", corpus / "val.jsonl", "--split", "val", "--d-roi", 32])
    recalls = root / "baseline" / "val_eval" / "recalls.json"

    runs["resampling"] = _pipeline(
        corpus, root / "resampling", config, {**OFF, "use_resampling": "true"}, recalls=recalls
    )
    runs["reweighting"] = _pipeline(
        corpus, root / "reweighting", config, {**OFF, "use_reweighting": "true"},
        weights=corpus / "w" / "info_weights.json",
    )
    runs["refinement"] = _pipeline(
        corpus, root / "refinement", config, {**OFF, "use_refinement": "true"}
    )
    runs["align_refine"] = _pipeline(
        corpus, root / "align_refine", config,
        {**OFF, "use_alignment": "true", "use_refinement": "true"},
    )
    return root, corpus, config, runs


def _metric(report, family, k=100):
    return report["report"]["metrics"][family][str(k)]


def test_criterion_6_ablation_directions(ablation):
    start = time.time()
    _, _, _, runs = ablation
    base_mr = _metric(runs["baseline"], "mean_recall")
    base_mric = _metric(runs["baseline"], "mric")
    base_zr = _metric(runs["baseline"], "zero_shot_recall")

    cgs_mr = _metric(runs["resampling"], "mean_recall")
    ir_mric = _metric(runs["reweighting"], "mric")
    fkr_zr = _metric(runs["refinement"], "zero_shot_recall")
    joint_zr = _metric(runs["align_refine"], "zero_shot_recall")

    assert cgs_mr > base_mr, f"resampling mR@100 {cgs_mr} !> {base_mr}"
    assert ir_mric > base_mric, f"reweighting mRIC@100 {ir_mric} !> {base_mric}"
    assert fkr_zr > base_zr, f"refinement zR@100 {fkr_zr} !> {base_zr}"
    assert joint_zr >= fkr_zr, f"alignment+refinement zR@100 {joint_zr} !>= {fkr_zr}"
    _ok(
        6,
        "ablation directions hold: "
        f"mR@100 {base_mr:.4f}->{cgs_mr:.4f} (+resampling), "
        f"mRIC@100 {base_mric:.2f}->{ir_mric:.2f} (+reweighting), "
        f"zR@100 {base_zr:.4f}->{fkr_zr:.4f} (+refinement), "
        f"zR@100 {joint_zr:.4f} >= {fkr_zr:.4f} (+alignment+refinement) "
        f"[checked in {time.time() - start:.1f}s]",
    )


def test_criterion_6_grid_report(ablation, tmp_path, capsys):
    root, _, _, runs = ablation
    inputs = [root / name / "report.json"
              for name in ("baseline", "resampling", "reweighting", "refinement", "align_refine")]
    _run(["report", "--out", tmp_path, "--inputs", *inputs,
          "--labels", "baseline", "+resampling", "+reweighting", "+refinement", "+align+refine"])
    grid = json.loads((tmp_path / "summary.json").read_text())
    assert len(grid["rows"]) == 5
    _ok(6, "ablation grid assembled over five toggle sets (see summary.json)")


def test_criterion_7_full_pipeline_determinism(ablation, tmp_path_factory):
    root, corpus, config, runs = ablation
    # Repeat the refinement pipeline, synth stage included, in a fresh tree.
    other = tmp_path_factory.mktemp("rerun")
    corpus2 = other / "corpus"
    synth_config = _write_config(other / "synth.cfg", **ABLATION_SYNTH)
    _run(["synth", "--out", corpus2, "--config", synth_config])
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "train.cols", "val.cols", "test.cols",
                 "object_embeddings.txt", "predicate_embeddings.txt", "generative_map.json"):
        assert (corpus2 / name).read_bytes() == (corpus / name).read_bytes()
    flags = ["--object-labels", corpus2 / "object_labels.txt",
             "--predicate-labels", corpus2 / "predicate_labels.txt"]
    _run(["zsplit", "--out", corpus2 / "zs", *flags, "--train", corpus2 / "train.jsonl",
          "--test", corpus2 / "test.jsonl", "--d-roi", 32])
    _run(["weights", "--out", corpus2 / "w", *flags, "--train", corpus2 / "train.jsonl",
          "--d-roi", 32])
    rerun = _pipeline(corpus2, other / "refinement", config, {**OFF, "use_refinement": "true"})
    assert (other / "refinement" / "report.json").read_bytes() == (
        root / "refinement" / "report.json"
    ).read_bytes()
    for name in ("loss_history.csv", "validation.csv", "train_resampled.cols",
                 "predictions_val.cols", "predictions_test.cols", "predictions_refined.cols"):
        assert (other / "refinement" / name).read_bytes() == (root / "refinement" / name).read_bytes()
    assert len((root / "refinement" / "validation.csv").read_text().splitlines()) == 11
    assert rerun == runs["refinement"]
    _ok(7, "repeated full pipeline (synth through eval) is byte-identical, reports and histories included")


def test_criterion_8_resampling_conservation():
    rng = np.random.default_rng(5150)
    spaces = make_spaces(c_obj=3, c_pred=4)
    for trial in range(30):
        counts = [int(c) for c in rng.integers(0, 120, size=4)]
        annotations = []
        image = 0
        for pred, count in enumerate(counts):
            for _ in range(count):
                annotations.append(
                    make_annotation(
                        f"im{image}",
                        objects=(make_object(0, 0), make_object(1, 1)),
                        triples=(Triple(0, pred, 1),),
                    )
                )
                image += 1
        if not annotations:
            continue
        dataset = make_dataset(annotations, spaces)
        recalls = rng.uniform(0.0, 1.0, size=4)
        tau = float(rng.integers(1, 150))
        beta = float(rng.uniform(0.1, 2.0))
        plan = build_sampling_plan(count_predicates(dataset), recalls, tau=tau, beta=beta, seed=trial)
        expected = np.array(
            [math.floor(n * sampling_rate(n, float(r), tau, beta) + 0.5)
             for n, r in zip(counts, recalls)],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(plan.targets, expected)
        out_counts = count_predicates(resample(dataset, plan))
        np.testing.assert_array_equal(out_counts, expected)
        assert (out_counts <= np.asarray(counts)).all()
    _ok(8, "30 random plans: retained counts equal round-half-up(N*s) exactly and never exceed N")
