import itertools

import numpy as np
import pytest

from sgrel.core import BoundingBox, Triple
from sgrel.ingest import ZeroShotIndex
from sgrel.metrics import (
    PREDCLS,
    SGCLS,
    SGGEN,
    PairPrediction,
    PredictedTriple,
    RankedPrediction,
    build_ranked,
    evaluate,
    iou,
    load_predictions,
    match_triples,
    mean_recall_at_k,
    mric_at_k,
    recall_at_k,
    save_predictions,
)
from sgrel.reweighting import InfoWeights, info_weights

from conftest import make_annotation, make_box, make_dataset, make_object, make_spaces


class TestIou:
    def test_identical_boxes(self):
        box = make_box(0, 0, 10, 10)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(make_box(0, 0, 10, 10), make_box(20, 20, 30, 30)) == 0.0

    def test_hand_value(self):
        value = iou(make_box(0, 0, 10, 10), make_box(5, 0, 15, 10))
        assert value == pytest.approx(50.0 / 150.0, abs=1e-5)


def pair(image_id, subj_id, obj_id, probs, subj_label=0, obj_label=1, boxes=None,
         subj_score=1.0, obj_score=1.0):
    subj_box, obj_box = boxes or (make_box(), make_box(20, 0, 30, 10))
    return PairPrediction(
        image_id=image_id,
        subj_id=subj_id,
        obj_id=obj_id,
        subj_label=subj_label,
        obj_label=obj_label,
        subj_box=subj_box,
        obj_box=obj_box,
        probs=np.asarray(probs, dtype=np.float64),
        subj_score=subj_score,
        obj_score=obj_score,
    )


class TestBuildRanked:
    def test_scores_descend_and_top_predicate_kept(self):
        pairs = [
            pair("im0", 0, 1, [0.1, 0.9, 0.0]),
            pair("im0", 1, 0, [0.6, 0.2, 0.2]),
        ]
        ranked = build_ranked(pairs)["im0"]
        assert [t.score for t in ranked.triples] == sorted(
            (t.score for t in ranked.triples), reverse=True
        )
        assert ranked.triples[0].pred == 1
        assert ranked.triples[0].score == pytest.approx(0.9)

    def test_graph_constraint_enforced(self):
        pairs = [pair("im0", 0, 1, [1.0, 0.0]), pair("im0", 0, 1, [0.0, 1.0])]
        with pytest.raises(ValueError, match="graph constraint"):
            build_ranked(pairs)

    def test_label_confidence_scales_score(self):
        ranked = build_ranked([pair("im0", 0, 1, [0.8, 0.2], subj_score=0.5, obj_score=0.5)])
        assert ranked["im0"].triples[0].score == pytest.approx(0.2)


def gt_annotation():
    objects = (
        make_object(0, label=0, box=make_box(0, 0, 10, 10)),
        make_object(1, label=1, box=make_box(20, 0, 30, 10)),
        make_object(2, label=2, box=make_box(40, 0, 50, 10)),
    )
    triples = (Triple(0, 0, 1), Triple(1, 1, 2))
    return make_annotation(objects=objects, triples=triples)


def predicted(annotation, triple, pred=None, score=1.0, jitter=0.0):
    subj = annotation.object_by_id(triple.subj)
    obj = annotation.object_by_id(triple.obj)
    move = lambda b: BoundingBox(b.x1 + jitter, b.y1, b.x2 + jitter, b.y2)
    return PredictedTriple(
        subj_id=subj.object_id,
        obj_id=obj.object_id,
        subj_label=subj.label,
        pred=triple.pred if pred is None else pred,
        obj_label=obj.label,
        subj_box=move(subj.box),
        obj_box=move(obj.box),
        score=score,
    )


class TestMatchTriples:
    def test_exact_match_predcls(self):
        a = gt_annotation()
        ranked = RankedPrediction("im0", (predicted(a, a.triples[0]),))
        assert match_triples(ranked, a, 20, PREDCLS) == {0}

    def test_full_coverage(self):
        a = gt_annotation()
        ranked = RankedPrediction(
            "im0", (predicted(a, a.triples[0]), predicted(a, a.triples[1], score=0.5))
        )
        assert match_triples(ranked, a, 20, PREDCLS) == {0, 1}

    def test_k_window_limits_matches(self):
        a = gt_annotation()
        ranked = RankedPrediction(
            "im0", (predicted(a, a.triples[0]), predicted(a, a.triples[1], score=0.5))
        )
        assert match_triples(ranked, a, 1, PREDCLS) == {0}

    def test_wrong_predicate_no_match(self):
        a = gt_annotation()
        ranked = RankedPrediction("im0", (predicted(a, a.triples[0], pred=2),))
        assert match_triples(ranked, a, 20, PREDCLS) == set()

    def test_sgcls_requires_correct_labels(self):
        a = gt_annotation()
        hit = predicted(a, a.triples[0])
        miss = PredictedTriple(
            subj_id=hit.subj_id, obj_id=hit.obj_id, subj_label=2, pred=hit.pred,
            obj_label=hit.obj_label, subj_box=hit.subj_box, obj_box=hit.obj_box, score=1.0,
        )
        assert match_triples(RankedPrediction("im0", (miss,)), a, 20, SGCLS) == set()
        assert match_triples(RankedPrediction("im0", (hit,)), a, 20, SGCLS) == {0}

    def test_sggen_iou_threshold(self):
        a = gt_annotation()
        # 10-wide boxes shifted by 4: IoU = 6/14 = 0.43 < 0.5 -> no match.
        low = predicted(a, a.triples[0], jitter=4.0)
        assert match_triples(RankedPrediction("im0", (low,)), a, 20, SGGEN) == set()
        # Shifted by 3: IoU = 7/13 = 0.54 -> match.
        high = predicted(a, a.triples[0], jitter=3.0)
        assert match_triples(RankedPrediction("im0", (high,)), a, 20, SGGEN) == {0}

    def test_sggen_ignores_instance_ids(self):
        a = gt_annotation()
        hit = predicted(a, a.triples[0])
        relabeled = PredictedTriple(
            subj_id=90, obj_id=91, subj_label=hit.subj_label, pred=hit.pred,
            obj_label=hit.obj_label, subj_box=hit.subj_box, obj_box=hit.obj_box, score=1.0,
        )
        assert match_triples(RankedPrediction("im0", (relabeled,)), a, 20, SGGEN) == {0}

    def test_greedy_agrees_with_exhaustive_optimum(self, rng):
        # Random small SGGen instances; exhaustive oracle enumerates every
        # one-to-one assignment of predictions to compatible GT triples.
        spaces = make_spaces(c_obj=2, c_pred=2)
        for trial in range(300):
            n_gt = int(rng.integers(1, 4))
            objects = []
            triples = []
            for t in range(n_gt):
                x = float(rng.uniform(0, 40))
                objects.append(make_object(2 * t, label=0, box=make_box(x, 0, x + 10, 10)))
                objects.append(make_object(2 * t + 1, label=1, box=make_box(x + 2, 20, x + 12, 30)))
                triples.append(Triple(2 * t, 0, 2 * t + 1))
            a = make_annotation(objects=objects, triples=triples)

            predictions = []
            for p in range(int(rng.integers(1, 6))):
                x = float(rng.uniform(0, 40))
                predictions.append(
                    PredictedTriple(
                        subj_id=0, obj_id=1, subj_label=0, pred=0, obj_label=1,
                        subj_box=make_box(x, 0, x + 10, 10),
                        obj_box=make_box(x + 2, 20, x + 12, 30),
                        score=float(rng.uniform()),
                    )
                )
            predictions.sort(key=lambda t: -t.score)
            ranked = RankedPrediction("im0", tuple(predictions))
            matched = match_triples(ranked, a, 5, SGGEN)

            compatible = {
                p: [
                    g
                    for g, triple in enumerate(triples)
                    if iou(predictions[p].subj_box, a.object_by_id(triple.subj).box) >= 0.5
                    and iou(predictions[p].obj_box, a.object_by_id(triple.obj).box) >= 0.5
                ]
                for p in range(len(predictions))
            }
            option_lists = [compatible[p] + [None] for p in range(len(predictions))]
            best = 0
            for assignment in itertools.product(*option_lists):
                used = [g for g in assignment if g is not None]
                if len(used) == len(set(used)):
                    best = max(best, len(used))
            assert len(matched) == best


class TestRecallFamilies:
    def test_recall_at_k_basics(self):
        assert recall_at_k([2, 1], [2, 2]) == pytest.approx(0.75)
        assert recall_at_k([0], [0]) is None
        assert recall_at_k([2, 0], [2, 2]) == pytest.approx(0.5)

    def test_mean_recall_excludes_missing_predicates(self):
        mr, recalls = mean_recall_at_k(np.array([2, 0, 0]), np.array([2, 2, 0]))
        assert mr == pytest.approx(0.5)
        assert np.isnan(recalls[2])

    def test_uniform_recalls(self):
        mr, _ = mean_recall_at_k(np.array([1, 2, 3]), np.array([2, 4, 6]))
        assert mr == pytest.approx(0.5)

    def test_zero_shot_absent_when_empty(self):  # zR is recall_at_k over zero-shot triples
        assert recall_at_k([], []) is None
        assert recall_at_k([0, 1], [0, 1]) == 1.0

    def test_mric_hand_value(self):
        info = InfoWeights(
            frequencies=np.array([0.5, 0.25]),
            bits=np.array([1.0, 2.0]),
            weights=np.array([1.0, 1.0]),
        )
        assert mric_at_k(np.array([1.0, 0.5]), info) == pytest.approx(2.0)

    def test_mric_linear(self, rng):
        info = info_weights(rng.integers(1, 100, size=6))
        recalls = rng.uniform(size=6)
        assert mric_at_k(2 * recalls, info) == pytest.approx(2 * mric_at_k(recalls, info))
        assert mric_at_k(np.zeros(6), info) == 0.0


def oracle_pairs(dataset):
    out = []
    for a in dataset.annotations:
        for t in a.triples:
            subj, obj = a.object_by_id(t.subj), a.object_by_id(t.obj)
            probs = np.zeros(dataset.predicate_space.size)
            probs[t.pred] = 1.0
            out.append(
                PairPrediction(
                    image_id=a.image_id, subj_id=t.subj, obj_id=t.obj,
                    subj_label=subj.label, obj_label=obj.label,
                    subj_box=subj.box, obj_box=obj.box, probs=probs,
                )
            )
    return out


class TestEvaluate:
    def test_perfect_oracle(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        report = evaluate(oracle_pairs(dataset), dataset, ks=(2, 20))
        assert report.recall == {2: 1.0, 20: 1.0}
        assert report.mean_recall[20] == 1.0

    def test_empty_predictions(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        report = evaluate([], dataset, ks=(20,))
        assert report.recall[20] == 0.0
        assert report.mean_recall[20] == 0.0

    def test_zero_shot_restriction(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        zs = ZeroShotIndex(signatures=frozenset({(1, 1, 2)}))
        predictions = [p for p in oracle_pairs(dataset) if p.subj_id == 0]  # matches only triple 0
        report = evaluate(predictions, dataset, zero_shot=zs, ks=(20,))
        assert report.zero_shot_recall[20] == 0.0
        assert report.recall[20] == 0.5

    def test_zero_shot_covering_split_equals_recall(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        zs = ZeroShotIndex(signatures=frozenset({(0, 0, 1), (1, 1, 2)}))
        predictions = [p for p in oracle_pairs(dataset) if p.subj_id == 0]
        report = evaluate(predictions, dataset, zero_shot=zs, ks=(20,))
        assert report.zero_shot_recall[20] == report.recall[20]

    def test_shape_mismatch_rejected(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        bad = oracle_pairs(dataset)
        bad[0].probs = np.ones(7)
        with pytest.raises(ValueError, match="shape mismatch"):
            evaluate(bad, dataset, ks=(20,))

    def test_per_predicate_recalls_average_to_mean_recall(self, rng, spaces):
        dataset = make_dataset(
            [gt_annotation(), gt_annotation()], spaces
        )
        predictions = [p for p in oracle_pairs(dataset) if rng.uniform() < 0.6]
        seen = set()
        unique = []
        for p in predictions:
            key = (p.image_id, p.subj_id, p.obj_id)
            if key not in seen:
                seen.add(key)
                unique.append(p)
        report = evaluate(unique, dataset, ks=(20,))
        recalls = report.per_predicate_recall[20]
        observed = recalls[~np.isnan(recalls)]
        assert report.mean_recall[20] == np.mean(observed)


class TestPredictionIO:
    def test_round_trip(self, tmp_path, rng, spaces):
        object_space, _ = spaces
        pairs = [
            pair("im0", 0, 1, rng.dirichlet(np.ones(3))),
            pair("im1", 2, 3, rng.dirichlet(np.ones(3)), subj_label=2, obj_label=3),
        ]
        path = tmp_path / "preds.jsonl"
        save_predictions(pairs, object_space, path)
        loaded = load_predictions(path, object_space)
        assert len(loaded) == 2
        for a, b in zip(pairs, loaded):
            assert (a.image_id, a.subj_id, a.obj_id, a.subj_label, a.obj_label) == (
                b.image_id, b.subj_id, b.obj_id, b.subj_label, b.obj_label
            )
            np.testing.assert_array_equal(a.probs, b.probs)
            assert a.subj_box == b.subj_box
