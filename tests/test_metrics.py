import dataclasses
import functools
import itertools
import json
import math
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_predictions as listed
import reference_ranking as reference
from reference_ranking import PredictedTriple
from sgrel.cli import main
from sgrel import ingest, metrics
from sgrel.core import LabelSpace, box_overlap
from reference_annotations import BoundingBox, Triple
from sgrel.ingest import EmbeddingTable, ParseError, companion_path, load_embeddings, save_embeddings
from sgrel.metrics import (
    PREDCLS,
    PROTOCOLS,
    SGCLS,
    SGGEN,
    MetricReport,
    PredictionSet,
    RankedTriples,
    build_ranked,
    evaluate,
    ground_truth,
    iou_matrix,
    load_predictions,
    match_triples,
    mean_recall_at_k,
    mric_at_k,
    recall_at_k,
    save_predictions,
)
from sgrel.reweighting import InfoWeights, info_weights

from conftest import awkward_pairs, make_annotation, make_box, make_dataset, make_object, make_spaces
import reference_annotations
from reference_annotations import to_objects
from reference_predictions import PairPrediction, to_pairs, to_set
from test_acceptance import _random_fixture
from test_refinement import per_pair_refine_dataset


def as_ranked(triples):
    """``PredictedTriple``s, in their given order, as ranked columns."""
    ints = np.array(
        [(t.subj_id, t.obj_id, t.subj_label, t.obj_label, t.pred) for t in triples], dtype=np.int64
    ).reshape(-1, 5)
    boxes = np.array([(t.subj_box.xyxy, t.obj_box.xyxy) for t in triples]).reshape(-1, 2, 4)
    scores = np.array([t.score for t in triples], dtype=np.float64)
    return RankedTriples(*ints[:, :4].T, boxes[:, 0], boxes[:, 1], ints[:, 4], scores)


def as_triples(ranked):
    """Ranked columns as the ``PredictedTriple`` tuple that the replaced ranking returned."""
    columns = (getattr(ranked, f.name).tolist() for f in dataclasses.fields(RankedTriples))
    return tuple(
        PredictedTriple(s, o, s_label, pred, o_label, BoundingBox(*s_box), BoundingBox(*o_box), score)
        for s, o, s_label, o_label, s_box, o_box, pred, score in zip(*columns)
    )


def image_gt(annotation):
    """An annotation's GT triples, as the columns ``match_triples`` reads."""
    return ground_truth(make_dataset([annotation]))


def match(triples, annotation, k, protocol):
    """``match_triples`` over ``PredictedTriple``s given in rank order."""
    return match_triples(as_ranked(triples), image_gt(annotation), k, protocol)


def iou(a, b):
    """IoU of two boxes through the matrix function."""
    return iou_matrix(np.array([a.xyxy]), np.array([b.xyxy]))[0, 0]


class TestIou:
    def test_identical_boxes(self):
        box = make_box(0, 0, 10, 10)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(make_box(0, 0, 10, 10), make_box(20, 20, 30, 30)) == 0.0

    def test_hand_value(self):
        value = iou(make_box(0, 0, 10, 10), make_box(5, 0, 15, 10))
        assert value == pytest.approx(50.0 / 150.0, abs=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_inverted_box_without_positive_union_is_zero(self):
        # Inverted in x, the box has area -100, which cancels the other box's 100.
        inverted, box = make_box(10, 0, 0, 10), make_box(0, 0, 10, 10)
        assert box_overlap(np.array(inverted.xyxy), np.array(box.xyxy)) == (0, 0)
        assert iou(inverted, box) == reference.iou(inverted, box) == 0.0
        assert iou(make_box(10, 0, 0, 20), box) == 0.0  # union -100

    @pytest.mark.filterwarnings("error")
    def test_matrix_equals_scalar_iou(self):
        rng = np.random.default_rng(3)
        corners = rng.integers(0, 12, size=(40, 4)).astype(float)  # inverted and zero-area boxes too
        boxes, gt_boxes = corners[:25], corners[25:]
        expected = [[reference.iou(BoundingBox(*a), BoundingBox(*b)) for b in gt_boxes] for a in boxes]
        assert iou_matrix(boxes, gt_boxes).tolist() == expected


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
        ranked = build_ranked(to_set(pairs), 3)["im0"]
        assert ranked.score.tolist() == sorted(ranked.score.tolist(), reverse=True)
        assert ranked.pred[0] == 1
        assert ranked.score[0] == pytest.approx(0.9)

    def test_graph_constraint_enforced(self):
        pairs = [pair("im0", 0, 1, [1.0, 0.0]), pair("im0", 0, 1, [0.0, 1.0])]
        with pytest.raises(ValueError, match="graph constraint"):
            build_ranked(to_set(pairs), 2)

    def test_graph_constraint_names_the_first_repeat_in_input_order(self):
        # Each list repeats two pairs, the one that sorts later first: across images, then within one image.
        for keys, (image_id, repeated) in [
            ([("im0", 0, 1), ("im1", 2, 3), ("im0", 2, 3), ("im1", 2, 3), ("im0", 0, 1)], ("im1", (2, 3))),
            ([("im0", 3, 1), ("im0", 0, 2), ("im0", 1, 0), ("im0", 3, 1), ("im0", 0, 2)], ("im0", (3, 1))),
        ]:
            pairs = [pair(image, s, o, [0.5, 0.5]) for image, s, o in keys]
            message = f"image {image_id}: duplicate prediction for pair {repeated} violates the graph constraint"
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                build_ranked(to_set(pairs), 2)
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                listed.build_ranked(pairs, 2)
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                reference.build_ranked(pairs)

    def test_label_confidence_scales_score(self):
        ranked = build_ranked(to_set([pair("im0", 0, 1, [0.8, 0.2], subj_score=0.5, obj_score=0.5)]), 2)
        assert ranked["im0"].score[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("probs, subj_score, obj_score", [
        ([1e308, 0.0], 1e308, 0.0),  # inf * 0 is NaN
        ([0.5, 1e308], 1e308, 1.0),  # overflows to inf
    ])
    def test_non_finite_triple_score_is_refused(self, probs, subj_score, obj_score):
        pairs = [pair("im0", 0, 1, [0.5, 0.5]),
                 pair("im0", 2, 1, probs, subj_score=subj_score, obj_score=obj_score)]
        with pytest.raises(ValueError, match=r"^image im0: pair \(2, 1\) has a non-finite triple score$"):
            build_ranked(to_set(pairs), 2)


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
        assert set(match(ranked, a, 20, PREDCLS)) == {0}

    def test_full_coverage(self):
        a = gt_annotation()
        ranked = (predicted(a, a.triples[0]), predicted(a, a.triples[1], score=0.5))
        assert set(match(ranked, a, 20, PREDCLS)) == {0, 1}

    def test_k_window_limits_matches(self):
        a = gt_annotation()
        ranked = (predicted(a, a.triples[0]), predicted(a, a.triples[1], score=0.5))
        assert set(match(ranked, a, 1, PREDCLS)) == {0}
        assert match(ranked, a, 2, PREDCLS) == {0: 0, 1: 1}

    def test_wrong_predicate_no_match(self):
        a = gt_annotation()
        ranked = (predicted(a, a.triples[0], pred=2),)
        assert set(match(ranked, a, 20, PREDCLS)) == set()

    def test_sgcls_requires_correct_labels(self):
        a = gt_annotation()
        hit = predicted(a, a.triples[0])
        miss = PredictedTriple(
            subj_id=hit.subj_id, obj_id=hit.obj_id, subj_label=2, pred=hit.pred,
            obj_label=hit.obj_label, subj_box=hit.subj_box, obj_box=hit.obj_box, score=1.0,
        )
        assert set(match((miss,), a, 20, SGCLS)) == set()
        assert set(match((hit,), a, 20, SGCLS)) == {0}

    def test_sggen_iou_threshold(self):
        a = gt_annotation()
        # 10-wide boxes shifted by 4: IoU = 6/14 = 0.43 < 0.5 -> no match.
        low = predicted(a, a.triples[0], jitter=4.0)
        assert set(match((low,), a, 20, SGGEN)) == set()
        # Shifted by 3: IoU = 7/13 = 0.54 -> match.
        high = predicted(a, a.triples[0], jitter=3.0)
        assert set(match((high,), a, 20, SGGEN)) == {0}

    def test_sggen_ignores_instance_ids(self):
        a = gt_annotation()
        hit = predicted(a, a.triples[0])
        relabeled = PredictedTriple(
            subj_id=90, obj_id=91, subj_label=hit.subj_label, pred=hit.pred,
            obj_label=hit.obj_label, subj_box=hit.subj_box, obj_box=hit.obj_box, score=1.0,
        )
        assert set(match((relabeled,), a, 20, SGGEN)) == {0}

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
            first_rank = match(tuple(predictions), a, 5, SGGEN)

            compatible = {
                p: [
                    g
                    for g, triple in enumerate(triples)
                    if reference.iou(predictions[p].subj_box, a.object_by_id(triple.subj).box) >= 0.5
                    and reference.iou(predictions[p].obj_box, a.object_by_id(triple.obj).box) >= 0.5
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
    return (reference.iou(prediction.subj_box, gt_subj_box) >= 0.5
            and reference.iou(prediction.obj_box, gt_obj_box) >= 0.5)


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
    first_rank = match(ranked, annotation, len(ranked) + 1, protocol)
    for k in range(len(ranked) + 2):
        within = {idx for idx, rank in first_rank.items() if rank < k}
        assert within == reference_match_triples(ranked, annotation, k, protocol)


def overlapping_sggen_images():
    """300 SGGen images with one label and one predicate, boxes jittered around three nearby anchors.

    Yields each annotation with its predicted triples in rank order.
    Predictions are compatible with several GT triples, and 101 of the 2,440
    (image, K) checks in ``TestOnePassMatching`` match more triples than
    first-fit would, through augmenting paths.
    """
    rng = np.random.default_rng(17)

    def box_near(anchor):
        x, y = anchor + rng.uniform(-2.5, 2.5, size=2)
        return make_box(x, y, x + 10, y + 10)

    for image in range(300):
        anchors = rng.uniform(0, 5, size=(3, 2))
        objects = [make_object(i, box=box_near(anchors[i % 3])) for i in range(int(rng.integers(2, 7)))]
        pairs = list(itertools.permutations(range(len(objects)), 2))
        picked = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
        a = make_annotation(f"im{image}", objects=objects,
                            triples=[Triple(pairs[i][0], 0, pairs[i][1]) for i in picked])
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
        yield a, ranked


class TestOnePassMatching:
    def test_agrees_with_per_k_matcher_on_random_fixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dataset, predictions, _ = _random_fixture(rng)
            ranked = {image_id: as_triples(r) for image_id, r in build_ranked(to_set(predictions), 4).items()}
            for a in to_objects(dataset).annotations:
                for protocol in (PREDCLS, SGCLS, SGGEN):
                    assert_one_pass_matches_reference(ranked.get(a.image_id, ()), a, protocol)

    def test_agrees_with_per_k_matcher_on_overlapping_sggen_boxes(self):
        for a, ranked in overlapping_sggen_images():
            assert_one_pass_matches_reference(ranked, a, SGGEN)

    def test_stack_search_equals_the_recursive_search_on_dense_images(self):
        # Two labels, two predicates and three boxes (two of them overlapping) over 12 objects: each
        # prediction is compatible with runs of GT triples, so augmenting paths are long and skip runs of
        # GT triples already tried. The recursive search is the code the stack search replaced.
        rng = np.random.default_rng(23)
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [1.0, 1.0, 11.0, 11.0], [40.0, 40.0, 50.0, 50.0]])
        pairs = list(itertools.permutations(range(12), 2))
        for image in range(60):
            objects = [make_object(i, label=int(rng.integers(2)), box=make_box(*boxes[rng.integers(3)]))
                       for i in range(12)]
            picked = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs))), replace=False)
            a = make_annotation(f"im{image}", objects=objects,
                                triples=[Triple(pairs[i][0], int(rng.integers(2)), pairs[i][1]) for i in picked])
            n = int(rng.integers(1, 150))
            ranked = RankedTriples(*rng.integers(0, 12, (2, n)), *rng.integers(0, 2, (2, n)),
                                   *boxes[rng.integers(3, size=(2, n))], rng.integers(0, 2, n), np.ones(n))
            for protocol in PROTOCOLS:
                first = match_triples(ranked, image_gt(a), n, protocol)
                assert list(first.items()) == list(reference_annotations.match_triples(ranked, a, n, protocol).items())

    def test_augmenting_paths_longer_than_the_recursion_limit(self):
        # Every one of 1,200 ranked triples may take every one of 1,200 GT triples (one label pair, one
        # predicate, one box): the augmenting path from rank r is r + 1 positions long, and rank r takes GT r.
        n = 1200
        zeros, box = np.zeros(n, dtype=np.int64), np.tile([0.0, 0.0, 10.0, 10.0], (n, 1))
        ranked = RankedTriples(np.arange(n), np.arange(n), zeros, zeros, box, box, zeros, np.ones(n))
        assert match_triples(ranked, ranked, n, SGGEN) == {i: i for i in range(n)}


def assert_same_reports(report, expected):
    for field in dataclasses.fields(MetricReport):
        value, wanted = getattr(report, field.name), getattr(expected, field.name)
        if field.name == "per_predicate_recall":
            assert value.keys() == wanted.keys()
            for k in value:
                np.testing.assert_array_equal(value[k], wanted[k], strict=True)
        elif field.name == "predicate_gt_counts":
            np.testing.assert_array_equal(value, wanted, strict=True)
        else:
            assert value == wanted, field.name


def assert_same_ranked(ranked, expected):
    assert list(ranked) == list(expected)
    for image_id, triples in ranked.items():
        for field in dataclasses.fields(RankedTriples):
            np.testing.assert_array_equal(getattr(triples, field.name), getattr(expected[image_id], field.name),
                                          strict=True, err_msg=field.name)


def assert_same_as_replaced_code(predictions, dataset, zero_shot=None, info=None,
                                 ks=(1, 2, 3, 5, 10, 20, 100), protocol=PREDCLS):
    """Report, ranking and each image's first-rank dict equal those of the replaced code, exactly.

    The replaced code is the list-based ``evaluate`` and ``build_ranked`` and,
    before them, the per-object ranking and matching.
    """
    c_pred = dataset.predicate_space.size
    report = evaluate(to_set(predictions, c_pred), dataset, zero_shot, info, ks, protocol)
    objects = to_objects(dataset)
    assert_same_reports(report, reference_annotations.evaluate(to_set(predictions, c_pred), objects, zero_shot, info,
                                                               ks, protocol))
    for replaced in (listed.evaluate, reference.evaluate):
        assert_same_reports(report, replaced(predictions, objects, zero_shot, info, ks, protocol))

    ranked = build_ranked(to_set(predictions, c_pred), c_pred)
    # As pairs again, integer coordinates read as the set's floats.
    assert_same_ranked(ranked, listed.build_ranked(to_pairs(to_set(predictions, c_pred)), c_pred))
    replaced = reference.build_ranked(predictions)
    assert {image_id: as_triples(r) for image_id, r in ranked.items()} == replaced
    gt, bounds = ground_truth(dataset), dataset.triple_offsets
    for i, a in enumerate(objects.annotations):
        first = match_triples(ranked.get(a.image_id, ()), gt[bounds[i] : bounds[i + 1]], max(ks), protocol)
        assert first == reference.match_triples(replaced.get(a.image_id, ()), a, max(ks), protocol)
        assert first == reference_annotations.match_triples(ranked.get(a.image_id, ()), a, max(ks), protocol)


def awkward_scene(rng, c_pred=3):
    """Four images, three of them predicted: tied and zero scores, exact, jittered, inverted and zero-area boxes."""
    spaces = make_spaces(c_obj=4, c_pred=c_pred)
    annotations = []
    for image in range(4):
        objects = []
        for i in range(4):
            x, y = rng.integers(0, 30, size=2)
            objects.append(make_object(i, label=int(rng.integers(4)), box=make_box(x, y, x + 10, y + 12)))
        pairs = list(itertools.permutations(range(4), 2))
        picked = rng.choice(len(pairs), size=int(rng.integers(1, 7)), replace=False)
        triples = [Triple(pairs[i][0], int(rng.integers(c_pred)), pairs[i][1]) for i in picked]
        annotations.append(make_annotation(f"im{image}", objects=objects, triples=triples))
    predictions = awkward_pairs(rng, c_pred)
    for n, p in enumerate(predictions):
        a = annotations[int(p.image_id[2:])]
        subj, obj = a.object_by_id(p.subj_id), a.object_by_id(p.obj_id)
        if n % 3:  # most pairs keep the GT labels so that some of them match
            p.subj_label, p.obj_label = subj.label, obj.label
        box = subj.box
        p.subj_box, p.obj_box = [
            box,
            BoundingBox(box.x1 + 2, box.y1, box.x2 + 2, box.y2),
            BoundingBox(box.x2, box.y1, box.x1, box.y2),  # inverted in x: union 0 with ``box``
            BoundingBox(box.x1, box.y1, box.x1, box.y2),  # zero area
        ][n % 4], obj.box
        if n % 7 == 0:
            p.subj_score = 0.0
    return make_dataset(annotations, spaces), predictions


@pytest.mark.filterwarnings("error")
class TestRankingAndMatchingAgainstReplacedCode:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_random_fixtures(self, protocol):
        rng = np.random.default_rng(23)
        info = info_weights(rng.integers(1, 100, size=4))
        for _ in range(100):
            dataset, predictions, zero_shot = _random_fixture(rng)
            assert_same_as_replaced_code(predictions, dataset, zero_shot, info, protocol=protocol)

    def test_overlapping_sggen_images(self):
        annotations, pairs = overlapping_sggen_pairs()
        assert_same_as_replaced_code([p for image in pairs for p in image], make_dataset(annotations), protocol=SGGEN)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ties_zero_scores_and_odd_boxes(self, protocol):
        rng = np.random.default_rng(29)
        for _ in range(20):
            dataset, predictions = awkward_scene(rng)
            zero_shot = frozenset({(0, 0, 1), (1, 2, 3), (2, 1, 0)})
            info = info_weights(rng.integers(1, 100, size=3))
            assert_same_as_replaced_code(predictions, dataset, zero_shot, info, protocol=protocol)
            assert_same_as_replaced_code([], dataset, zero_shot, info, protocol=protocol)


@functools.cache
def overlapping_sggen_pairs():
    """``overlapping_sggen_images`` as annotations and each image's predictions as pairs."""
    images = list(overlapping_sggen_images())
    return [a for a, _ in images], [
        [pair(a.image_id, t.subj_id, t.obj_id, [t.score, 0.0, 0.0], subj_label=t.subj_label,
              obj_label=t.obj_label, boxes=(t.subj_box, t.obj_box)) for t in ranked]
        for a, ranked in images
    ]


class TestColumnarAgainstListBased:
    """``PredictionSet`` through ranking and matching gives the list-based code's reports, exactly."""

    @given(seed=st.integers(0, 2**32 - 1), protocol=st.sampled_from(PROTOCOLS))
    def test_random_fixtures(self, seed, protocol):
        rng = np.random.default_rng(seed)
        dataset, predictions, zero_shot = _random_fixture(rng)
        assert_same_as_replaced_code(predictions, dataset, zero_shot, info_weights(rng.integers(1, 100, size=4)),
                                     protocol=protocol)

    @given(picked=st.lists(st.integers(0, 299), min_size=1, max_size=12, unique=True))
    def test_overlapping_sggen_images(self, picked):
        annotations, pairs = overlapping_sggen_pairs()
        predictions = [p for i in picked for p in pairs[i]]
        assert_same_as_replaced_code(predictions, make_dataset([annotations[i] for i in sorted(picked)]),
                                     protocol=SGGEN)


@st.composite
def scenes(draw, max_objects=5, max_predictions=12):
    """One image with nearby boxes and two labels, its GT triples and its pair predictions.

    Predicted boxes are the GT boxes of their pair moved by up to 2 in x and y;
    predicted labels are mostly the GT ones.
    """
    corner = st.tuples(st.integers(0, 6), st.integers(0, 6))
    objects = [
        make_object(i, label=draw(st.integers(0, 1)), box=make_box(x, y, x + 10, y + 10))
        for i, (x, y) in enumerate(draw(st.lists(corner, min_size=2, max_size=max_objects)))
    ]
    pairs = list(itertools.permutations(range(len(objects)), 2))
    picked = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    a = make_annotation(objects=objects, triples=[Triple(s, draw(st.integers(0, 1)), o) for s, o in picked])
    predictions = []
    for s, o in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_predictions, unique=True)):
        dx, dy = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        box = lambda b: make_box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        label = lambda instance: draw(st.sampled_from([instance.label, instance.label, 0, 1]))
        predictions.append(pair(
            a.image_id, s, o, draw(st.sampled_from([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]])),
            subj_label=label(objects[s]), obj_label=label(objects[o]),
            boxes=(box(objects[s].box), box(objects[o].box)),
        ))
    return a, predictions


class TestMatchingProperties:
    @given(scene=scenes(), protocol=st.sampled_from(PROTOCOLS), zero_shot=st.sets(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))))
    def test_recall_families_do_not_decrease_as_k_grows(self, scene, protocol, zero_shot):
        a, predictions = scene
        ks = (1, 2, 3, 5, 8, 13)
        info = info_weights(np.array([3, 1]))
        dataset = make_dataset([a], make_spaces(c_obj=2, c_pred=2))
        report = evaluate(to_set(predictions), dataset, frozenset(zero_shot), info, ks, protocol)
        for family in (report.recall, report.mean_recall, report.zero_shot_recall, report.mric):
            values = [family[k] for k in ks]
            if values[0] is None:
                assert set(values) == {None}
            else:
                assert values == sorted(values)

    @given(scene=scenes(max_objects=4, max_predictions=5))
    def test_sggen_count_equals_brute_force_maximum_matching(self, scene):
        a, predictions = scene
        (ranked,) = build_ranked(to_set(predictions), 2).values()
        first_rank = match_triples(ranked, image_gt(a), len(ranked), SGGEN)
        gt = [(t, a.object_by_id(t.subj), a.object_by_id(t.obj)) for t in a.triples]
        options = [
            [g for g, (t, subj, obj) in enumerate(gt) if reference._compatible(p, t, subj, obj, SGGEN)] + [None]
            for p in as_triples(ranked)
        ]
        for k in range(len(ranked) + 1):
            best = 0
            for assignment in itertools.product(*options[:k]):
                used = [g for g in assignment if g is not None]
                if len(used) == len(set(used)):
                    best = max(best, len(used))
            assert sum(rank < k for rank in first_rank.values()) == best


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

    def test_mric_absent_without_gt(self):  # as mR is: no predicate has a recall to weigh
        info = info_weights(np.array([3, 1, 2]))
        assert mric_at_k(np.full(3, np.nan), info) is None
        assert mric_at_k(np.array([np.nan, 0.0, np.nan]), info) == 0.0


def oracle_pairs(dataset):
    out = []
    for a in to_objects(dataset).annotations:
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
        report = evaluate(to_set(oracle_pairs(dataset)), dataset, ks=(2, 20))
        assert report.recall == {2: 1.0, 20: 1.0}
        assert report.mean_recall[20] == 1.0

    def test_empty_predictions(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        report = evaluate(to_set([], 3), dataset, ks=(20,))
        assert report.recall[20] == 0.0
        assert report.mean_recall[20] == 0.0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_empty_split(self, spaces, protocol):
        """No GT triple anywhere: every metric is None, with information weights and a zero-shot index given."""
        info = info_weights(np.array([3, 1, 2]))
        no_images = make_dataset([], spaces)
        no_triples = make_dataset([make_annotation(triples=())], spaces)  # two objects, so two ordered pairs
        both_pairs = PredictionSet.of_objects(no_triples, np.zeros(2, dtype=np.int64), np.array([0, 1]),
                                              np.array([1, 0]), np.full((2, 3), 1 / 3))
        for dataset, predictions in ((no_images, to_set([], 3)), (no_triples, both_pairs)):
            report = evaluate(predictions, dataset, frozenset({(0, 0, 1)}), info, (1, 20), protocol)
            for family in metrics.FAMILIES:
                assert getattr(report, family) == {1: None, 20: None}, family
            assert report.num_gt_triples == 0

    def test_zero_shot_restriction(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        zs = frozenset({(1, 1, 2)})
        predictions = [p for p in oracle_pairs(dataset) if p.subj_id == 0]  # matches only triple 0
        report = evaluate(to_set(predictions), dataset, zero_shot=zs, ks=(20,))
        assert report.zero_shot_recall[20] == 0.0
        assert report.recall[20] == 0.5

    def test_zero_shot_covering_split_equals_recall(self, spaces):
        dataset = make_dataset([gt_annotation()], spaces)
        zs = frozenset({(0, 0, 1), (1, 1, 2)})
        predictions = [p for p in oracle_pairs(dataset) if p.subj_id == 0]
        report = evaluate(to_set(predictions), dataset, zero_shot=zs, ks=(20,))
        assert report.zero_shot_recall[20] == report.recall[20]

    @pytest.mark.parametrize("width", [2, 7])
    def test_every_pair_of_the_wrong_width_rejected(self, spaces, width):
        dataset = make_dataset([gt_annotation()], spaces)
        bad = oracle_pairs(dataset)
        for p in bad:
            p.probs = np.ones(width)
        with pytest.raises(ValueError, match=r"^prediction shape mismatch: expected \(3,\) predicate scores$"):
            evaluate(to_set(bad), dataset, ks=(20,))

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
        report = evaluate(to_set(unique), dataset, ks=(20,))
        recalls = report.per_predicate_recall[20]
        observed = recalls[~np.isnan(recalls)]
        assert report.mean_recall[20] == np.mean(observed)


JOIN_KS = (*range(1, 13), 20, 100)


def assert_join_equals_matching(predictions, dataset, zero_shot=None, info=None, ks=JOIN_KS):
    """Under PredCls and SGCls, ``evaluate``'s report, or its refusal, is exactly that of the evaluation that
    matched every image with ``match_triples`` (``reference_ranking.evaluate_by_matching``)."""
    for protocol in (PREDCLS, SGCLS):
        try:
            expected = reference.evaluate_by_matching(predictions, dataset, zero_shot, info, ks, protocol)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                evaluate(predictions, dataset, zero_shot, info, ks, protocol)
            assert (type(got.value), str(got.value)) == (type(err), str(err))
            continue
        assert_same_reports(evaluate(predictions, dataset, zero_shot, info, ks, protocol), expected)


def three_objects(labels=(0, 1, 2)):
    return tuple(make_object(i, label=label) for i, label in enumerate(labels))


def one_hot(pred, score=1.0, c_pred=3):
    probs = np.zeros(c_pred)
    probs[pred] = score
    return probs


class TestFirstRanksByJoin:
    """PredCls and SGCls take each GT triple's first rank from one join of the GT triples to the pairs."""

    def test_awkward_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dataset, predictions = awkward_scene(rng)
            info = info_weights(rng.integers(1, 100, size=3))
            assert_join_equals_matching(to_set(predictions), dataset, frozenset({(0, 0, 1), (1, 2, 3)}), info)

    def test_random_fixtures(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            dataset, predictions, zero_shot = _random_fixture(rng)
            info = info_weights(rng.integers(1, 100, size=4))
            assert_join_equals_matching(to_set(predictions), dataset, zero_shot, info)

    def test_repeated_gt_triples_rank_the_first_copy_only(self, monkeypatch):
        """A ``Dataset`` built directly may hold a GT triple twice; the pair that matches it consumes one copy."""
        triples = (Triple(0, 0, 1), Triple(0, 0, 1), Triple(1, 1, 2), Triple(0, 0, 1), Triple(0, 1, 1))
        dataset = make_dataset([make_annotation("a", three_objects(), triples),
                                make_annotation("b", three_objects(), triples[:2])])
        predictions = to_set([pair("a", 0, 1, one_hot(0, 0.9)), pair("a", 1, 2, one_hot(1, 0.8), 1, 2),
                              pair("b", 0, 1, one_hot(0))])
        monkeypatch.setattr(metrics, "match_triples", None)  # not reached under these protocols
        report = evaluate(predictions, dataset, ks=(1, 2, 3))
        assert report.recall == pytest.approx({1: (1 / 5 + 1 / 2) / 2, 2: (2 / 5 + 1 / 2) / 2, 3: (2 / 5 + 1 / 2) / 2})
        monkeypatch.undo()
        assert_join_equals_matching(predictions, dataset)

    def test_ids_and_labels_absent_from_the_gt(self):
        """Pairs on ids that no object has, on labels that are not the GT's or outside the space, beside pairs that
        match; each takes its rank in the image all the same."""
        triples = (Triple(0, 0, 1), Triple(1, 1, 2), Triple(2, 2, 0))
        dataset = make_dataset([make_annotation("a", three_objects(), triples)])
        pairs = [pair("a", 7, 1, one_hot(0)), pair("a", 0, 7, one_hot(0)), pair("a", 2, 0, one_hot(2, 0.95), 3, 0),
                 pair("a", 0, 1, one_hot(0, 0.9)), pair("a", 1, 2, one_hot(1, 0.5), 1, 9),
                 pair("a", 2, 0, one_hot(2, 0.4), 2, -1)]
        # The last pair repeats (2, 0): refused, as by the matching. Without it, triple 0 alone matches, at rank 3.
        assert_join_equals_matching(to_set(pairs), dataset)
        report = evaluate(to_set(pairs[:-1]), dataset, ks=(3, 4))
        assert report.recall == {3: 0.0, 4: 1 / 3}
        assert_join_equals_matching(to_set(pairs[:-1]), dataset)

    def test_images_without_predictions_or_triples(self):
        annotations = [make_annotation(f"im{i}", three_objects(), (Triple(0, i % 3, 1), Triple(1, 0, 2))[: i % 3])
                       for i in range(5)]
        dataset = make_dataset(annotations)
        # Predicted images come in another order than the split's, so pair image 0 is split image 2.
        pairs = [pair(f"im{i}", s, o, one_hot(p), s, o) for i in (2, 4, 1) for s, p, o in ((0, i % 3, 1), (1, 0, 2))]
        assert evaluate(to_set(pairs), dataset, ks=(2,)).recall[2] == 1.0
        assert_join_equals_matching(to_set(pairs), dataset)
        assert_join_equals_matching(to_set([], 3), dataset)

    @pytest.mark.parametrize("ks", [(1,), (1, 2, 3), (5, 2), ()])
    def test_k_below_some_ranks(self, ks):
        """Every ordered pair of six objects is predicted, so most GT triples rank past the window."""
        rng = np.random.default_rng(41)
        objects = tuple(make_object(i, label=int(rng.integers(4))) for i in range(6))
        pairs = list(itertools.permutations(range(6), 2))
        triples = [Triple(s, int(rng.integers(3)), o) for s, o in pairs if rng.uniform() < 0.4]
        dataset = make_dataset([make_annotation("a", objects, triples)])
        predictions = [pair("a", s, o, rng.dirichlet(np.ones(3)), objects[s].label, objects[o].label) for s, o in pairs]
        assert_join_equals_matching(to_set(predictions), dataset, ks=ks)

    @pytest.mark.parametrize("first, second", [
        ("width", "duplicate"), ("duplicate", "non-finite"), ("non-finite", "unknown"), ("unknown", None),
    ])
    def test_refusals_in_the_matching_order(self, first, second):
        """Probs width, a repeated pair, a non-finite score, then image ids outside the split, as the matching
        refuses them."""
        dataset = make_dataset([gt_annotation()])
        broken = {
            "width": lambda p: [dataclasses.replace(q, probs=np.ones(4)) for q in p],
            "duplicate": lambda p: p + [p[0]],
            "non-finite": lambda p: setattr(p[1], "subj_score", math.inf) or p,
            "unknown": lambda p: p + [dataclasses.replace(p[0], image_id="elsewhere")],
        }
        pairs = [dataclasses.replace(p) for p in oracle_pairs(dataset)]
        for name in (second, first):
            if name is not None:
                pairs = broken[name](pairs)
        message = {"width": "prediction shape mismatch", "duplicate": "image img0: duplicate prediction",
                   "non-finite": "image img0: pair (1, 2) has a non-finite", "unknown": "1 predictions for image ids"}
        with pytest.raises(ValueError, match=f"^{re.escape(message[first])}"):
            evaluate(to_set(pairs), dataset)
        assert_join_equals_matching(to_set(pairs), dataset)


PROBS_WITH_TIES = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 0.0])


@st.composite
def small_splits(draw):
    """A few images with ids from a small range, GT triples that may repeat, and pairs in any order, most of them
    on GT pairs, that may name ids or labels absent from the GT; now and then one pair of an image outside the split."""
    annotations, pairs = [], []
    for i in range(draw(st.integers(1, 4))):
        ids = draw(st.lists(st.integers(-3, 5), max_size=4, unique=True))
        labels = {object_id: draw(st.integers(0, 3)) for object_id in ids}
        ends = st.sampled_from(ids) if ids else st.nothing()
        triples = draw(st.lists(st.builds(Triple, ends, st.integers(0, 2), ends), max_size=5 if ids else 0))
        annotations.append(make_annotation(f"im{i}", [make_object(k, label=v) for k, v in labels.items()], triples))
        anywhere = st.tuples(st.sampled_from(ids + [9]), st.sampled_from(ids + [9]))
        on_gt = st.sampled_from([(t.subj, t.obj) for t in triples]) if triples else anywhere
        for s, o in draw(st.lists(st.one_of(on_gt, on_gt, anywhere), max_size=8, unique=True)):
            label = lambda object_id: draw(st.sampled_from([labels.get(object_id, 0)] * 6 + [1, 4, -1]))
            pairs.append(pair(f"im{i}", s, o, draw(st.sampled_from(PROBS_WITH_TIES)), label(s), label(o),
                              subj_score=draw(st.sampled_from([1.0, 1.0, 0.5, 0.0]))))
    if pairs and draw(st.integers(0, 9)) == 0:
        pairs.append(dataclasses.replace(pairs[0], image_id="elsewhere"))
    zero_shot = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)), max_size=6))
    ks = tuple(draw(st.lists(st.integers(1, 10), max_size=4, unique=True)))
    return make_dataset(annotations), draw(st.permutations(pairs)), frozenset(zero_shot), ks


@settings(max_examples=300)
@given(split=small_splits())
def test_join_equals_matching_on_random_small_splits(split):
    dataset, pairs, zero_shot, ks = split
    assert_join_equals_matching(to_set(pairs, 3), dataset, zero_shot, info_weights(np.array([3, 1, 2])), ks)


class TestPredictionIO:
    def test_round_trip(self, tmp_path, rng, spaces):
        object_space, _ = spaces
        pairs = [
            pair("im0", 0, 1, rng.dirichlet(np.ones(3))),
            pair("im1", 2, 3, rng.dirichlet(np.ones(3)), subj_label=2, obj_label=3),
        ]
        path = tmp_path / "preds.jsonl"
        save_predictions(to_set(pairs), object_space, path)
        loaded = to_pairs(load_predictions(path, object_space, 3))
        assert len(loaded) == 2
        for a, b in zip(pairs, loaded):
            assert (a.image_id, a.subj_id, a.obj_id, a.subj_label, a.obj_label) == (
                b.image_id, b.subj_id, b.obj_id, b.subj_label, b.obj_label
            )
            np.testing.assert_array_equal(a.probs, b.probs)
            assert a.subj_box == b.subj_box

    def test_rows_are_views_of_the_columns(self, rng):
        predictions = to_set(awkward_pairs(rng, 3))
        row = predictions[4]
        assert len(predictions) == len(list(predictions)) == 36
        assert (predictions.image_ids[row.image], int(row.subj_id), int(row.obj_id)) == ("im0", 1, 2)
        assert np.shares_memory(row.probs, predictions.probs) and row.probs.shape == (3,)
        assert len(predictions[10:20]) == 10 and predictions[10:20].image_ids == predictions.image_ids


def describe(predictions):
    """A set's image ids, and each column's dtype, shape, bytes and whether it is writable."""
    return predictions.image_ids, [
        (f.name, a.dtype.str, a.shape, a.tobytes(), a.flags.writeable)
        for f in dataclasses.fields(PredictionSet)[1:] for a in [getattr(predictions, f.name)]
    ]


def outcome(path, object_space, num_predicates, load=load_predictions):
    """``load``'s result as ``describe`` gives it, or its error's type and text."""
    try:
        predictions = load(path, object_space, num_predicates)
    except ValueError as err:
        return type(err), str(err)
    return describe(predictions if isinstance(predictions, PredictionSet) else to_set(predictions, num_predicates))


def jsonl_outcome(path, object_space, num_predicates, load=load_predictions):
    """``outcome`` with no companion beside ``path`` (the companion, if any, is put back)."""
    companion = companion_path(path)
    kept = companion.read_bytes() if companion.exists() else None
    companion.unlink(missing_ok=True)
    try:
        return outcome(path, object_space, num_predicates, load)
    finally:
        if kept is not None:
            companion.write_bytes(kept)


def assert_loaders_agree(path, object_space, num_predicates):
    """Companion and JSON lines give one result, and the list-based reader that ``PredictionSet`` replaced too."""
    result = outcome(path, object_space, num_predicates)
    assert result == jsonl_outcome(path, object_space, num_predicates)
    for replaced in (outcome, jsonl_outcome):
        assert replaced(path, object_space, num_predicates, listed.load_predictions) == result
    return result


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.0, 0.1])  # all valid scores
coordinate = st.one_of(finite, edge_floats, st.integers(-(2**53), 2**53))
label_score = st.one_of(st.floats(0.0, 1e308), edge_floats, st.integers(0, 2**53))
prob = st.one_of(st.floats(0.0, 1e250), st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0]), st.integers(0, 7))
image_id = st.one_of(st.text(st.characters(exclude_categories=()), max_size=6),
                     st.sampled_from(['"', "\\", "\n", " ", "\x85", "é", "\ud800", "{}"]))


@st.composite
def prediction_lists(draw, c_obj=4, c_pred=3, values=(coordinate, label_score, prob)):
    coordinate, label_score, prob = values
    size = draw(st.integers(0, 6))
    return [
        PairPrediction(
            image_id=draw(image_id),
            subj_id=draw(st.integers(-(2**63), 2**63 - 1)),
            obj_id=draw(st.integers(-(2**63), 2**63 - 1)),
            subj_label=draw(st.integers(0, c_obj - 1)),
            obj_label=draw(st.integers(0, c_obj - 1)),
            subj_box=BoundingBox(*draw(st.lists(coordinate, min_size=4, max_size=4))),
            obj_box=BoundingBox(*draw(st.lists(coordinate, min_size=4, max_size=4))),
            probs=np.array(draw(st.lists(prob, min_size=c_pred, max_size=c_pred)), dtype=np.float64),
            subj_score=draw(label_score),
            obj_score=draw(label_score),
        )
        for _ in range(size)
    ]


def saved(predictions, object_space, directory):
    path = Path(directory) / "preds.jsonl"
    save_predictions(predictions, object_space, path)
    return path


class TestCompanion:
    """The binary companion changes nothing that ``load_predictions`` returns or refuses."""

    @given(prediction_lists())
    def test_round_trip_agrees_bit_for_bit_and_in_type(self, pairs):
        object_space, _ = make_spaces()
        predictions = to_set(pairs, 3)
        with tempfile.TemporaryDirectory() as directory:
            path = saved(predictions, object_space, directory)
            assert companion_path(path).exists() == bool(pairs)
            from_companion = assert_loaders_agree(path, object_space, 3)
            if pairs:
                assert metrics._load_companion(path, object_space, 3) is not None  # the arrays were read
        assert from_companion == describe(predictions)

    @given(prediction_lists(values=(st.floats(), st.one_of(st.floats(), st.integers()), st.floats())))
    def test_any_values_give_the_jsonl_result(self, pairs):
        object_space, _ = make_spaces()
        with tempfile.TemporaryDirectory() as directory:
            try:
                path = saved(to_set(pairs, 3), object_space, directory)
            except OverflowError:  # an integer too large for a float is not a column value
                return
            except ValueError as err:  # a value that no reader accepts is refused before anything is written
                assert re.search(f"holds ({'|'.join(UNWRITABLE)})$", str(err)) and not list(Path(directory).iterdir())
                return
            assert_loaders_agree(path, object_space, 3)

    @given(prediction_lists(values=(finite, st.one_of(st.floats(), st.integers(-(2**53), 2**53)), st.one_of(
        st.floats(), st.sampled_from([1.7976931348623157e308, 1e308, 6e291, 1e300, -0.0, -5e-324])))))
    def test_whatever_is_written_both_readers_return(self, pairs):
        object_space, _ = make_spaces()
        with tempfile.TemporaryDirectory() as directory:
            try:
                path = saved(to_set(pairs, 3), object_space, directory)
            except ValueError:
                assert not list(Path(directory).iterdir())
                return
            if pairs:
                assert metrics._load_companion(path, object_space, 3) is not None
            from_text = jsonl_outcome(path, object_space, 3)
            assert type(from_text[0]) is tuple  # the image ids of a loaded set, not an error's type
            assert outcome(path, object_space, 3) == from_text

    def test_a_row_that_only_a_left_to_right_sum_keeps_finite(self, tmp_path):
        object_space, _ = make_spaces(c_obj=4)
        probs = np.array([1.7976931348623157e308] + [6e291] * 8)  # a pairwise sum overflows
        pairs = awkward_pairs(np.random.default_rng(5), 9)
        pairs[4].probs = probs
        path = saved(to_set(pairs), object_space, tmp_path)
        from_companion = metrics._load_companion(path, object_space, 9)
        assert from_companion is not None
        np.testing.assert_array_equal(from_companion.probs[4], probs)
        assert describe(from_companion) == jsonl_outcome(path, object_space, 9)

    @pytest.fixture
    def written(self, tmp_path):
        object_space, _ = make_spaces(c_obj=4)
        pairs = awkward_pairs(np.random.default_rng(5), 3)
        pairs[0].image_id = "im é"
        path = saved(to_set(pairs), object_space, tmp_path)
        return path, object_space, jsonl_outcome(path, object_space, 3)

    def test_every_flipped_header_byte_and_sampled_payload_bytes(self, written):
        path, object_space, expected = written
        companion = companion_path(path)
        data = companion.read_bytes()
        header_end = data.index(b"\n") + 1
        rng = random.Random(3)
        positions = [*range(header_end), *rng.sample(range(header_end, len(data)), 64)]
        for position in positions:
            flipped = bytearray(data)
            flipped[position] ^= rng.randrange(1, 256)
            companion.write_bytes(flipped)
            assert outcome(path, object_space, 3) == expected, position

    @pytest.mark.parametrize("cut", [1, 8, 100, 10**9])
    def test_truncated_payload(self, written, cut):
        path, object_space, expected = written
        companion = companion_path(path)
        data = companion.read_bytes()
        companion.write_bytes(data[: max(data.index(b"\n") + 1, len(data) - cut)])
        assert outcome(path, object_space, 3) == expected

    @pytest.mark.parametrize("header", [b"[" * 100_000, b"{}", b'{"format": "sgrel-predictions"}', b"\xff"],
                             ids=["nested-too-deep", "empty", "format-only", "not-utf8"])
    def test_foreign_header(self, written, header):
        path, object_space, expected = written
        companion = companion_path(path)
        companion.write_bytes(header + b"\n" + companion.read_bytes().split(b"\n", 1)[1])
        assert outcome(path, object_space, 3) == expected

    def test_jsonl_edited_after_it_was_written(self, written):
        path, object_space, expected = written
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["probs"] = [0.0, 0.0, 1.0]
        record["image_id"] = "edited"
        path.write_text("".join(lines[:2] + [json.dumps(record) + "\n"] + lines[3:]))
        edited = assert_loaders_agree(path, object_space, 3)
        assert edited != expected
        loaded = load_predictions(path, object_space, 3)
        assert loaded.image_ids[loaded.image[2]] == "edited"

    @pytest.mark.parametrize("names", [("thing1", "thing0", "thing2", "thing3"),
                                       ("thing0", "thing1", "thing2", "thing3", "x")])
    def test_another_label_space(self, written, names):
        path, _, _ = written
        assert_loaders_agree(path, LabelSpace("object", names), 3)

    @pytest.mark.parametrize("num_predicates", [2, 4])
    def test_another_predicate_count(self, written, num_predicates):
        path, object_space, _ = written
        refused = assert_loaders_agree(path, object_space, num_predicates)
        assert refused[0] is ParseError and f"expected {num_predicates} predicate scores" in refused[1]

    @pytest.mark.parametrize("change", [
        lambda p: setattr(p, "probs", np.array([1e308, 1e308, 0.0])),  # each finite, the sum is not
        lambda p: setattr(p, "probs", np.array([0.5, -1e-300, 0.5])),
        lambda p: setattr(p, "subj_score", -0.5),
    ])
    def test_values_the_jsonl_refuses_are_refused_alike(self, tmp_path, change):
        """Values ``save_predictions`` refuses, forged under valid digests by the list-based writer, which still
        writes them with a companion: the companion reader's own checks refuse them, as the JSON lines do."""
        object_space, _ = make_spaces(c_obj=4)
        pairs = awkward_pairs(np.random.default_rng(5), 3)
        change(pairs[4])
        path = tmp_path / "preds.jsonl"
        listed.save_predictions(pairs, object_space, path)
        assert companion_path(path).exists()
        assert metrics._load_companion(path, object_space, 3) is None
        refused = assert_loaders_agree(path, object_space, 3)
        assert refused[0] is ParseError and refused[1].startswith(f"{path}:5: bad ")

    @pytest.mark.parametrize("change, problem", [
        (lambda p: setattr(p, "probs", np.array([0.5, np.nan, 0.5])), "a non-finite value"),
        (lambda p: setattr(p, "probs", np.array([0.5, 0.5, -np.inf])), "a non-finite value"),
        (lambda p: setattr(p, "obj_score", math.inf), "a non-finite value"),
        (lambda p: setattr(p, "obj_box", BoundingBox(0.0, 0.0, math.inf, 1.0)), "a non-finite value"),
        (lambda p: setattr(p, "subj_label", -1), "a label outside the object labels"),
        (lambda p: setattr(p, "obj_label", 4), "a label outside the object labels"),
        (lambda p: setattr(p, "probs", np.array([0.5, -1e-300, 0.5])), "a negative value"),
        (lambda p: setattr(p, "subj_score", -1.0), "a negative value"),
        (lambda p: setattr(p, "probs", np.array([1e308, 1e308, 0.0])), "probs whose sum is not finite"),
    ], ids=["nan-prob", "-inf-prob", "inf-label-score", "inf-box", "label-minus-1", "label-past-the-space",
            "negative-prob", "negative-label-score", "probs-summing-past-the-largest-float"])
    def test_values_no_reader_accepts_are_refused_at_write(self, written, tmp_path, change, problem):
        path, object_space, expected = written
        pairs = awkward_pairs(np.random.default_rng(5), 3)
        change(pairs[4])
        change(pairs[7])
        message = f"{path}: image im0: pair (1, 2) holds {problem}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_predictions(to_set(pairs), object_space, path)
        assert outcome(path, object_space, 3) == expected  # nothing was written
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        with pytest.raises(ValueError, match=f"holds {problem}$"):
            saved(to_set(pairs), object_space, fresh)
        assert not list(fresh.iterdir())

    def test_pairs_without_predicate_scores_are_refused_at_write(self, tmp_path):
        """Probs of shape ``(P, 0)``, ``P > 0``, would be written as ``"probs":[]``, which no reader accepts."""
        object_space, _ = make_spaces(c_obj=4)
        pairs = awkward_pairs(np.random.default_rng(5), 3, images=1)[:2]
        predictions = dataclasses.replace(to_set(pairs), probs=np.zeros((2, 0)))
        path = tmp_path / "z.jsonl"
        message = f"{path}: image im0: pair (0, 1) holds no predicate scores"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_predictions(predictions, object_space, path)
        assert not list(tmp_path.iterdir())
        save_predictions(to_set([], 0), object_space, path)  # no pairs: an empty file, as before
        assert path.read_bytes() == b"" and not companion_path(path).exists()

    @pytest.mark.parametrize("first, second", [("subj_score", "probs"), ("probs", "obj_score")])
    def test_the_first_pair_that_breaks_a_rule_is_named(self, written, first, second):
        path, object_space, _ = written
        pairs = awkward_pairs(np.random.default_rng(5), 3)
        for row, column in ((4, first), (7, second)):  # one rule, broken in two different columns
            setattr(pairs[row], column, np.array([0.5, -1.0, 0.5]) if column == "probs" else -1.0)
        message = f"{path}: image im0: pair (1, 2) holds a negative value"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_predictions(to_set(pairs), object_space, path)

    def test_missing_companion(self, written):
        path, object_space, expected = written
        companion_path(path).unlink()
        assert outcome(path, object_space, 3) == expected

    def test_no_pairs_leave_no_companion(self, written):
        path, object_space, _ = written
        save_predictions(to_set([], 3), object_space, path)
        assert not companion_path(path).exists() and path.read_bytes() == b""
        assert assert_loaders_agree(path, object_space, 3) == describe(to_set([], 3))


# The per-pair ranking, writer and refinement report that the stacked versions
# replaced: the differential oracles below.
def per_pair_build_ranked(predictions):
    by_image = {}
    for pair in predictions:
        by_image.setdefault(pair.image_id, []).append(pair)
    ranked = {}
    for image_id, pairs in by_image.items():
        seen_pairs = set()
        triples = []
        for pair in pairs:
            key = (pair.subj_id, pair.obj_id)
            if key in seen_pairs:
                raise ValueError(
                    f"image {image_id}: duplicate prediction for pair {key} "
                    "violates the graph constraint"
                )
            seen_pairs.add(key)
            probs = np.asarray(pair.probs, dtype=np.float64)
            top = int(np.argmax(probs))
            triples.append(
                PredictedTriple(
                    subj_id=pair.subj_id,
                    obj_id=pair.obj_id,
                    subj_label=pair.subj_label,
                    pred=top,
                    obj_label=pair.obj_label,
                    subj_box=pair.subj_box,
                    obj_box=pair.obj_box,
                    score=float(probs[top]) * pair.subj_score * pair.obj_score,
                )
            )
        triples.sort(key=lambda t: (-t.score, t.subj_id, t.obj_id))
        ranked[image_id] = tuple(triples)
    return ranked


def per_pair_save_predictions(predictions, object_space, path):
    lines = []
    for pair in predictions:
        record = {
            "image_id": pair.image_id,
            "subj_id": pair.subj_id,
            "obj_id": pair.obj_id,
            "subj_label": object_space.names[pair.subj_label],
            "obj_label": object_space.names[pair.obj_label],
            "subj_box": [pair.subj_box.x1, pair.subj_box.y1, pair.subj_box.x2, pair.subj_box.y2],
            "obj_box": [pair.obj_box.x1, pair.obj_box.y1, pair.obj_box.x2, pair.obj_box.y2],
            "subj_score": pair.subj_score,
            "obj_score": pair.obj_score,
            "probs": [float(p) for p in pair.probs],
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def per_pair_refinement_report(predictions, refined, predicate_space, path):
    lines = []
    for before, after in zip(predictions, refined):
        pre_top, post_top = int(np.argmax(before.probs)), int(np.argmax(after.probs))
        record = {
            "image_id": before.image_id,
            "subj_id": before.subj_id,
            "obj_id": before.obj_id,
            "pre_top": predicate_space.names[pre_top],
            "post_top": predicate_space.names[post_top],
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


escaped = st.one_of(  # strings the JSON encoder escapes: quotes, backslashes, control characters, non-ASCII
    st.text(st.characters(exclude_categories=()), min_size=1, max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\x00", "\x1f\x7f", "\t\n\r", "é", "雪", "\ud800", "\udfff", "\U0001f600",
                     "\u2028"]),
)
# Values that reach every branch of ``ingest._float_reprs``. Left to repr: 1.0, powers of two (2**-25 and
# 2**-44 come out wrong on a symmetric round-trip interval), the smallest normal, a subnormal, 14 digits or fewer,
# |x| >= 1 and ties (0.10000991821289062 rounds down, 0.10000228881835938 up). Formatted: 15, 16 and 17 digits on
# both sides of 1e-4 (fixed above, exponent below), exponents of two and three digits, and negatives of each. Also
# left to repr: values whose round-trip interval has a 14- or 15-digit decimal within a hair of its boundary.
def interval_boundary_values():
    """Doubles in [0.5, 1) with a 14- or 15-digit decimal d * 10**-k at their round-trip interval's boundary.

    d * 10**-k lies 1 / (5**k * 2**54) from the binary midpoint (2j + 1) * 2**-54 exactly when
    d * 2**(54 - k) - (2j + 1) * 5**k = +-1, that is d = +-2**-(54 - k) mod 5**k. For the first three such d of
    each sign and k, both doubles next to the midpoint.
    """
    values = []
    for k in (14, 15):
        modulus = 5**k
        inverse = pow(2 ** (54 - k), -1, modulus)
        for sign in (1, -1):
            residue = sign * inverse % modulus
            first = residue - (residue - 5 * 10 ** (k - 1)) // modulus * modulus  # the least d with k digits
            for d in range(first, first + 3 * modulus, modulus):
                midpoint = (d * 2 ** (54 - k) - sign) // modulus
                values += [(midpoint - 1) / 2**54, (midpoint + 1) / 2**54]  # exact: even numerators below 2**54
    return values


INTERVAL_BOUNDARIES = interval_boundary_values()
REPR_BRANCHES = [
    1.0, 0.5, 0.1, 1e-4, 9.999999999999999e-05, 0.00010000000000000002, 1e-5, 5e-324, 2.2250738585072014e-308,
    2.225073858507202e-308, 2.0**-25, 2.0**-44, 0.12345678901234, 0.123456789012345, 0.1234567890123456,
    0.12345678901234568, 0.9999999999999999, 0.00012345678901234567, 1.2345678901234567e-05,
    1.2345678901234567e-100, 0.10000991821289062, 0.10000228881835938, -0.1234567890123456, 1.5, 123.456,
    *INTERVAL_BOUNDARIES,
]
written_float = st.one_of(
    finite, st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16, 1e300, 0.1, -2.5, *REPR_BRANCHES]),
)
written_score = st.one_of(  # label scores and probs: not negative
    st.floats(0.0, allow_infinity=False), st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16, 1e300, 0.1]),
    st.sampled_from(REPR_BRANCHES).map(abs),
)
# Values a pair may hold: integers that the set holds as floats, and values that no reader accepts, which it
# refuses to write.
TRIGGERS = {
    "int coordinate": lambda p: setattr(p, "obj_box", BoundingBox(7, *p.obj_box.xyxy[1:])),
    "int label score": lambda p: setattr(p, "obj_score", 1),
    "nan prob": lambda p: p.probs.__setitem__(0, math.nan),
    "inf prob": lambda p: p.probs.__setitem__(-1, math.inf),
    "-inf prob": lambda p: p.probs.__setitem__(-1, -math.inf),
    "nan label score": lambda p: setattr(p, "subj_score", math.nan),
    "negative prob": lambda p: p.probs.__setitem__(0, -2.5),
    "negative label score": lambda p: setattr(p, "obj_score", -0.5),
}
REFUSED = {"nan prob", "inf prob", "-inf prob", "nan label score"}
UNWRITABLE = ("a non-finite value", "a negative value", "probs whose sum is not finite")


def negative_or_overflowing(pairs):
    """Whether a pair holds a negative label score or prob, or probs whose left-to-right sum is not finite."""
    return any(min(p.subj_score, p.obj_score, *p.probs) < 0 or math.isinf(ingest.left_to_right_sum(map(float, p.probs)))
               for p in pairs)


@st.composite
def written_cases(draw):
    """An object space with names to escape, pairs sharing boxes (0.0 and -0.0 among them), and a trigger."""
    object_space = LabelSpace("object", tuple(draw(st.lists(escaped, min_size=1, max_size=4, unique=True))))
    c_pred = draw(st.integers(1, 4))
    box = st.builds(BoundingBox, written_float, written_float, written_float, written_float)
    boxes = [*draw(st.lists(box, min_size=1, max_size=3)), BoundingBox(0.0, 0.0, 1.0, 1.0),
             BoundingBox(-0.0, 0.0, 1.0, 1.0)]
    label = st.integers(0, object_space.size - 1)
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            probs = np.array(draw(st.lists(written_score, min_size=c_pred, max_size=c_pred)))
        else:
            width32 = st.floats(0.0, width=32, allow_infinity=False)
            probs = np.array(draw(st.lists(width32, min_size=c_pred, max_size=c_pred)), dtype=np.float32)
        pairs.append(PairPrediction(
            draw(st.one_of(st.just(""), escaped)), draw(st.integers(-(2**63), 2**63 - 1)),
            draw(st.integers(-(2**63), 2**63 - 1)), draw(label), draw(label), draw(st.sampled_from(boxes)),
            draw(st.sampled_from(boxes)), probs, draw(written_score), draw(written_score),
        ))
    trigger = draw(st.sampled_from([None, *TRIGGERS])) if pairs else None
    if trigger:
        TRIGGERS[trigger](draw(st.sampled_from(pairs)))
    return object_space, pairs, trigger


class TestStackedRanking:
    """Stacked ranking and writing against the per-pair code they replaced, exactly."""

    @given(written_cases())
    def test_save_predictions_writes_what_the_per_pair_encoder_writes(self, case):
        object_space, pairs, trigger = case
        predictions = to_set(pairs, 1)
        with tempfile.TemporaryDirectory() as directory:
            new, old, replaced = (Path(directory) / name for name in ("new.jsonl", "old.jsonl", "replaced.jsonl"))
            if trigger in REFUSED or negative_or_overflowing(pairs):
                refused = UNWRITABLE[:1] if trigger in REFUSED else UNWRITABLE[1:]
                with pytest.raises(ValueError, match=f"holds ({'|'.join(refused)})$"):
                    save_predictions(predictions, object_space, new)
                assert not list(Path(directory).iterdir())
                return
            save_predictions(predictions, object_space, new)
            per_pair_save_predictions(to_pairs(predictions), object_space, old)
            listed.save_predictions(to_pairs(predictions), object_space, replaced)  # the list-based writer
            assert new.read_bytes() == old.read_bytes() == replaced.read_bytes()
            if trigger is None:  # the pairs as drawn, float32 probs included, give the same text
                per_pair_save_predictions(pairs, object_space, old)
                assert new.read_bytes() == old.read_bytes()
            assert companion_path(new).exists() == companion_path(replaced).exists() == bool(pairs)
            if pairs:
                assert companion_path(new).read_bytes() == companion_path(replaced).read_bytes()
                assert_loaders_agree(new, object_space, pairs[0].probs.size)

    def test_build_ranked_equals_per_pair_ranking_for_every_width(self):
        rng = np.random.default_rng(13)
        for c_pred in range(1, 131):
            pairs = awkward_pairs(rng, c_pred)
            ranked = build_ranked(to_set(pairs), c_pred)
            assert {image_id: as_triples(r) for image_id, r in ranked.items()} == per_pair_build_ranked(pairs)
            assert_same_ranked(ranked, listed.build_ranked(pairs, c_pred))
            assert all(r.pred.dtype == np.int64 and r.score.dtype == np.float64 for r in ranked.values())

    def test_build_ranked_of_nothing(self):
        assert build_ranked(to_set([], 3), 3) == per_pair_build_ranked([]) == listed.build_ranked([], 3) == {}

    def test_save_predictions_writes_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(17)
        object_space, _ = make_spaces(c_obj=4)
        for c_pred in (1, 2, 7, 8, 9, 20, 127, 128, 129, 130):
            pairs = awkward_pairs(rng, c_pred)
            pairs[0].subj_box = make_box(-0.0, 1e-300, 3.0, 1e300)
            pairs[1].probs[0] = 5e-324
            save_predictions(to_set(pairs), object_space, tmp_path / "new.jsonl")
            per_pair_save_predictions(pairs, object_space, tmp_path / "old.jsonl")
            listed.save_predictions(pairs, object_space, tmp_path / "replaced.jsonl")
            for name in ("old.jsonl", "replaced.jsonl", "replaced.cols"):
                new = tmp_path / name.replace(name.split(".")[0], "new")
                assert new.read_bytes() == (tmp_path / name).read_bytes(), name

    @pytest.mark.parametrize("count", [511, 512, 513])
    def test_save_predictions_across_a_write_chunk_boundary(self, tmp_path, count):
        rng = np.random.default_rng(count)
        object_space, _ = make_spaces(c_obj=4)
        probs = rng.dirichlet(np.full(7, 0.2), size=count)
        probs.ravel()[::3][: 2 * len(REPR_BRANCHES)] = np.abs(REPR_BRANCHES * 2)  # probs are not negative
        pairs = [pair(f"im{i // 100}", i, i + 1, row, boxes=(make_box(), make_box(1.0, 2.0, 3.5, 4.25)))
                 for i, row in enumerate(probs)]
        save_predictions(to_set(pairs), object_space, tmp_path / "new.jsonl")
        per_pair_save_predictions(pairs, object_space, tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    def test_save_predictions_of_nothing(self, tmp_path):
        object_space, _ = make_spaces()
        save_predictions(to_set([], 3), object_space, tmp_path / "new.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("c_pred", [1, 2, 7, 8, 9, 20, 127, 128, 129, 130])
    def test_refine_stage_writes_the_same_files(self, tmp_path, c_pred):
        rng = np.random.default_rng(c_pred)
        object_space = LabelSpace("object", ('thing"0', "thing\\1", "thïng2", "雪"))
        predicate_space = LabelSpace("predicate", tuple(f'rel"{i}\\é' for i in range(c_pred)))
        (tmp_path / "objects.txt").write_text("".join(n + "\n" for n in object_space.names), encoding="utf-8")
        (tmp_path / "predicates.txt").write_text("".join(n + "\n" for n in predicate_space.names), encoding="utf-8")
        save_embeddings(EmbeddingTable(object_space, rng.normal(size=(4, 3))), tmp_path / "obj.txt")
        save_embeddings(EmbeddingTable(predicate_space, rng.normal(size=(c_pred, 3))), tmp_path / "pred.txt")
        pairs = awkward_pairs(rng, c_pred)
        for p in pairs:  # image ids the JSON encoder escapes
            p.image_id = {"im0": 'im "0"', "im1": "im\\1\t\x00", "im2": "ïm2\ud800\u2028"}[p.image_id]
        per_pair_save_predictions(pairs, object_space, tmp_path / "predictions.jsonl")
        (tmp_path / "run.cfg").write_text("use_refinement=true\nalpha=0.6\n")
        out = tmp_path / "out"
        assert main([str(a) for a in (
            "refine", "--out", out, "--config", tmp_path / "run.cfg",
            "--object-labels", tmp_path / "objects.txt", "--predicate-labels", tmp_path / "predicates.txt",
            "--predictions", tmp_path / "predictions.jsonl",
            "--object-embeddings", tmp_path / "obj.txt", "--predicate-embeddings", tmp_path / "pred.txt",
        )]) == 0

        loaded = to_pairs(load_predictions(tmp_path / "predictions.jsonl", object_space, c_pred))
        refined = per_pair_refine_dataset(
            loaded,
            load_embeddings(tmp_path / "obj.txt", object_space),
            load_embeddings(tmp_path / "pred.txt", predicate_space),
            alpha=0.6,
        )
        per_pair_save_predictions(refined, object_space, tmp_path / "refined.jsonl")
        per_pair_refinement_report(loaded, refined, predicate_space, tmp_path / "report.jsonl")
        assert (out / "predictions_refined.jsonl").read_bytes() == (tmp_path / "refined.jsonl").read_bytes()
        assert (out / "refinement_report.jsonl").read_bytes() == (tmp_path / "report.jsonl").read_bytes()


def assert_float_reprs(values):
    x = np.asarray(values, dtype=np.float64).ravel()
    expected = np.array(list(map(float.__repr__, x.tolist())), dtype="S24")
    got = ingest._float_reprs(x)
    assert got.dtype == expected.dtype
    wrong = np.flatnonzero(got != expected)
    assert not wrong.size, [(x[i].hex(), got[i], expected[i]) for i in wrong[:5]]


class TestFloatReprs:
    """The vectorised formatter against ``float.__repr__``, value for value."""

    def test_every_branch(self):
        assert_float_reprs(REPR_BRANCHES + [-v for v in REPR_BRANCHES] + [0.0, -0.0, math.inf, -math.inf, math.nan])

    def test_interval_boundaries_are_left_to_repr(self):
        """A decimal this close to the interval's boundary is in doubt: ``_shortest_digits`` must not prove it."""
        values = np.array(INTERVAL_BOUNDARIES)
        assert len(values) == 24 and ((0.5 <= values) & (values < 1.0)).all()
        for value, k in zip(values.tolist(), [14] * 12 + [15] * 12):
            decimal = Fraction(round(Fraction(value) * 10**k), 10**k)  # half an ulp, 2**-54, from the double
            assert abs(abs(Fraction(value) - decimal) - Fraction(1, 2**54)) == Fraction(1, 5**k * 2**54)
        proven, *_ = ingest._shortest_digits(values)
        assert not proven.any()
        assert_float_reprs(values)

    @given(st.lists(st.floats(allow_subnormal=True), max_size=64))
    def test_any_float(self, values):
        assert_float_reprs(values)

    def test_negation_proves_the_same_digits(self):
        """``_shortest_digits`` proves -x exactly when it proves x, with the same digits and layout."""
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2**63, size=10**5, dtype=np.uint64).view(np.float64)  # sign bit clear
        x = np.concatenate([np.array(REPR_BRANCHES + INTERVAL_BOUNDARIES), rng.random(10**5), bits,
                            10.0 ** rng.uniform(-308, 0, 10**5)])
        x = np.abs(x[np.isfinite(x)])
        positive, negative = ingest._shortest_digits(x), ingest._shortest_digits(-x)
        assert positive[0].any() and not positive[0].all()
        np.testing.assert_array_equal(positive[0], negative[0])
        for got, expected in zip(negative[1:], positive[1:]):
            np.testing.assert_array_equal(got[positive[0]], expected[positive[0]])
        assert_float_reprs(-x)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(15).integers(0, 2**64, size=10**6, dtype=np.uint64)
        for chunk in np.array_split(bits.view(np.float64), 20):
            assert_float_reprs(chunk)

    def test_values_in_the_unit_interval(self):
        rng = np.random.default_rng(16)
        uniform, log_uniform = rng.random(10**5), 10.0 ** rng.uniform(-308, 0, 10**5)
        softmax = rng.dirichlet(np.full(20, 0.1), size=5000)
        for values in (uniform, log_uniform, softmax):
            assert_float_reprs(values)
