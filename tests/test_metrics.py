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
from test_acceptance import _random_fixture


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
        assert [t.score for t in ranked] == sorted((t.score for t in ranked), reverse=True)
        assert ranked[0].pred == 1
        assert ranked[0].score == pytest.approx(0.9)

    def test_graph_constraint_enforced(self):
        pairs = [pair("im0", 0, 1, [1.0, 0.0]), pair("im0", 0, 1, [0.0, 1.0])]
        with pytest.raises(ValueError, match="graph constraint"):
            build_ranked(pairs)

    def test_label_confidence_scales_score(self):
        ranked = build_ranked([pair("im0", 0, 1, [0.8, 0.2], subj_score=0.5, obj_score=0.5)])
        assert ranked["im0"][0].score == pytest.approx(0.2)


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
        ranked = (predicted(a, a.triples[0]),)
        assert set(match_triples(ranked, a, 20, PREDCLS)) == {0}

    def test_full_coverage(self):
        a = gt_annotation()
        ranked = (predicted(a, a.triples[0]), predicted(a, a.triples[1], score=0.5))
        assert set(match_triples(ranked, a, 20, PREDCLS)) == {0, 1}

    def test_k_window_limits_matches(self):
        a = gt_annotation()
        ranked = (predicted(a, a.triples[0]), predicted(a, a.triples[1], score=0.5))
        assert set(match_triples(ranked, a, 1, PREDCLS)) == {0}
        assert match_triples(ranked, a, 2, PREDCLS) == {0: 0, 1: 1}

    def test_wrong_predicate_no_match(self):
        a = gt_annotation()
        ranked = (predicted(a, a.triples[0], pred=2),)
        assert set(match_triples(ranked, a, 20, PREDCLS)) == set()

    def test_sgcls_requires_correct_labels(self):
        a = gt_annotation()
        hit = predicted(a, a.triples[0])
        miss = PredictedTriple(
            subj_id=hit.subj_id, obj_id=hit.obj_id, subj_label=2, pred=hit.pred,
            obj_label=hit.obj_label, subj_box=hit.subj_box, obj_box=hit.obj_box, score=1.0,
        )
        assert set(match_triples((miss,), a, 20, SGCLS)) == set()
        assert set(match_triples((hit,), a, 20, SGCLS)) == {0}

    def test_sggen_iou_threshold(self):
        a = gt_annotation()
        # 10-wide boxes shifted by 4: IoU = 6/14 = 0.43 < 0.5 -> no match.
        low = predicted(a, a.triples[0], jitter=4.0)
        assert set(match_triples((low,), a, 20, SGGEN)) == set()
        # Shifted by 3: IoU = 7/13 = 0.54 -> match.
        high = predicted(a, a.triples[0], jitter=3.0)
        assert set(match_triples((high,), a, 20, SGGEN)) == {0}

    def test_sggen_ignores_instance_ids(self):
        a = gt_annotation()
        hit = predicted(a, a.triples[0])
        relabeled = PredictedTriple(
            subj_id=90, obj_id=91, subj_label=hit.subj_label, pred=hit.pred,
            obj_label=hit.obj_label, subj_box=hit.subj_box, obj_box=hit.obj_box, score=1.0,
        )
        assert set(match_triples((relabeled,), a, 20, SGGEN)) == {0}

    def test_greedy_agrees_with_exhaustive_optimum(self, rng):
        # Random small SGGen instances; exhaustive oracle enumerates every
        # one-to-one assignment of the top-k predictions to compatible GT
        # triples, for every k, against a single top-5 matching.
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
            first_rank = match_triples(tuple(predictions), a, 5, SGGEN)

            compatible = {
                p: [
                    g
                    for g, triple in enumerate(triples)
                    if iou(predictions[p].subj_box, a.object_by_id(triple.subj).box) >= 0.5
                    and iou(predictions[p].obj_box, a.object_by_id(triple.obj).box) >= 0.5
                ]
                for p in range(len(predictions))
            }
            for k in range(1, 6):
                option_lists = [compatible[p] + [None] for p in range(min(k, len(predictions)))]
                best = 0
                for assignment in itertools.product(*option_lists):
                    used = [g for g in assignment if g is not None]
                    if len(used) == len(set(used)):
                        best = max(best, len(used))
                assert sum(rank < k for rank in first_rank.values()) == best


def reference_compatible(prediction, gt_subj_label, gt_pred, gt_obj_label, gt_subj_box, gt_obj_box,
                         gt_subj_id, gt_obj_id, protocol):
    if (
        prediction.pred != gt_pred
        or prediction.subj_label != gt_subj_label
        or prediction.obj_label != gt_obj_label
    ):
        return False
    if protocol in (PREDCLS, SGCLS):
        return prediction.subj_id == gt_subj_id and prediction.obj_id == gt_obj_id
    return iou(prediction.subj_box, gt_subj_box) >= 0.5 and iou(prediction.obj_box, gt_obj_box) >= 0.5


def reference_match_triples(triples, annotation, k, protocol):
    """The per-K matcher that one-pass matching replaced: augmenting paths over the top k from scratch."""
    top = triples[:k]
    gt = []
    for idx, triple in enumerate(annotation.triples):
        subj = annotation.object_by_id(triple.subj)
        obj = annotation.object_by_id(triple.obj)
        gt.append((idx, subj.label, triple.pred, obj.label, subj.box, obj.box, triple.subj, triple.obj))

    owner = {}  # gt idx -> position in `top`

    def try_assign(pos, banned):
        p = top[pos]
        for idx, s_lab, g_pred, o_lab, s_box, o_box, s_id, o_id in gt:
            if idx in banned:
                continue
            if not reference_compatible(p, s_lab, g_pred, o_lab, s_box, o_box, s_id, o_id, protocol):
                continue
            banned.add(idx)
            if idx not in owner or try_assign(owner[idx], banned):
                owner[idx] = pos
                return True
        return False

    for pos in range(len(top)):
        try_assign(pos, set())
    return set(owner.keys())


def assert_one_pass_matches_reference(ranked, annotation, protocol):
    first_rank = match_triples(ranked, annotation, len(ranked) + 1, protocol)
    for k in range(len(ranked) + 2):
        within = {idx for idx, rank in first_rank.items() if rank < k}
        assert within == reference_match_triples(ranked, annotation, k, protocol)


class TestOnePassMatching:
    def test_agrees_with_per_k_matcher_on_random_fixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dataset, predictions, _ = _random_fixture(rng)
            ranked = build_ranked(predictions)
            for a in dataset.annotations:
                for protocol in (PREDCLS, SGCLS, SGGEN):
                    assert_one_pass_matches_reference(ranked.get(a.image_id, ()), a, protocol)

    def test_agrees_with_per_k_matcher_on_overlapping_sggen_boxes(self):
        # One label and one predicate, boxes jittered around three nearby
        # anchors: predictions are compatible with several GT triples, and 101
        # of the 2,440 (image, K) checks below match more triples than
        # first-fit would, through augmenting paths.
        rng = np.random.default_rng(17)

        def box_near(anchor):
            x, y = anchor + rng.uniform(-2.5, 2.5, size=2)
            return make_box(x, y, x + 10, y + 10)

        for _ in range(300):
            anchors = rng.uniform(0, 5, size=(3, 2))
            objects = [make_object(i, box=box_near(anchors[i % 3])) for i in range(int(rng.integers(2, 7)))]
            pairs = list(itertools.permutations(range(len(objects)), 2))
            picked = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
            a = make_annotation(objects=objects, triples=[Triple(pairs[i][0], 0, pairs[i][1]) for i in picked])
            ranked = tuple(sorted(
                (
                    PredictedTriple(
                        subj_id=j, obj_id=j + 1, subj_label=0, pred=0, obj_label=0,
                        subj_box=box_near(anchors[rng.integers(3)]),
                        obj_box=box_near(anchors[rng.integers(3)]),
                        score=float(rng.uniform()),
                    )
                    for j in range(int(rng.integers(1, 12)))
                ),
                key=lambda t: -t.score,
            ))
            assert_one_pass_matches_reference(ranked, a, SGGEN)


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
