import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_ranking as reference
from reference_ranking import PredictedTriple
from sgrel.cli import main
from sgrel.core import BoundingBox, Triple, box_overlap
from sgrel.ingest import EmbeddingTable, ZeroShotIndex, load_embeddings, save_embeddings
from sgrel.metrics import (
    PREDCLS,
    PROTOCOLS,
    SGCLS,
    SGGEN,
    MetricReport,
    PairPrediction,
    RankedTriples,
    build_ranked,
    evaluate,
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


def match(triples, annotation, k, protocol):
    """``match_triples`` over ``PredictedTriple``s given in rank order."""
    return match_triples(as_ranked(triples), annotation, k, protocol)


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
        ranked = build_ranked(pairs, 3)["im0"]
        assert ranked.score.tolist() == sorted(ranked.score.tolist(), reverse=True)
        assert ranked.pred[0] == 1
        assert ranked.score[0] == pytest.approx(0.9)

    def test_graph_constraint_enforced(self):
        pairs = [pair("im0", 0, 1, [1.0, 0.0]), pair("im0", 0, 1, [0.0, 1.0])]
        with pytest.raises(ValueError, match="graph constraint"):
            build_ranked(pairs, 2)

    def test_graph_constraint_names_the_first_repeat_in_input_order(self):
        pairs = [pair(image, s, o, [0.5, 0.5]) for image, s, o in
                 [("im0", 0, 1), ("im1", 2, 3), ("im0", 2, 3), ("im1", 2, 3), ("im0", 0, 1)]]
        message = "image im1: duplicate prediction for pair (2, 3) violates the graph constraint"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build_ranked(pairs, 2)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            reference.build_ranked(pairs)

    def test_label_confidence_scales_score(self):
        ranked = build_ranked([pair("im0", 0, 1, [0.8, 0.2], subj_score=0.5, obj_score=0.5)], 2)
        assert ranked["im0"].score[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("probs, subj_score, obj_score", [
        ([1e308, 0.0], 1e308, 0.0),  # inf * 0 is NaN
        ([0.5, 1e308], 1e308, 1.0),  # overflows to inf
    ])
    def test_non_finite_triple_score_is_refused(self, probs, subj_score, obj_score):
        pairs = [pair("im0", 0, 1, [0.5, 0.5]),
                 pair("im0", 2, 1, probs, subj_score=subj_score, obj_score=obj_score)]
        with pytest.raises(ValueError, match=r"^image im0: pair \(2, 1\) has a non-finite triple score$"):
            build_ranked(pairs, 2)


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
            ranked = {image_id: as_triples(r) for image_id, r in build_ranked(predictions, 4).items()}
            for a in dataset.annotations:
                for protocol in (PREDCLS, SGCLS, SGGEN):
                    assert_one_pass_matches_reference(ranked.get(a.image_id, ()), a, protocol)

    def test_agrees_with_per_k_matcher_on_overlapping_sggen_boxes(self):
        for a, ranked in overlapping_sggen_images():
            assert_one_pass_matches_reference(ranked, a, SGGEN)


def assert_same_as_replaced_code(predictions, dataset, zero_shot=None, info=None,
                                 ks=(1, 2, 3, 5, 10, 20, 100), protocol=PREDCLS):
    """Report, ranking and each image's first-rank dict equal those of the replaced code, exactly."""
    report = evaluate(predictions, dataset, zero_shot, info, ks, protocol)
    expected = reference.evaluate(predictions, dataset, zero_shot, info, ks, protocol)
    for field in dataclasses.fields(MetricReport):
        value, wanted = getattr(report, field.name), getattr(expected, field.name)
        if field.name == "per_predicate_recall":
            assert value.keys() == wanted.keys()
            for k in ks:
                np.testing.assert_array_equal(value[k], wanted[k], strict=True)
        elif field.name == "predicate_gt_counts":
            np.testing.assert_array_equal(value, wanted, strict=True)
        else:
            assert value == wanted, field.name

    ranked = build_ranked(predictions, dataset.predicate_space.size)
    replaced = reference.build_ranked(predictions)
    assert {image_id: as_triples(r) for image_id, r in ranked.items()} == replaced
    for a in dataset.annotations:
        first = match_triples(ranked.get(a.image_id, ()), a, max(ks), protocol)
        assert first == reference.match_triples(replaced.get(a.image_id, ()), a, max(ks), protocol)


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
        images = list(overlapping_sggen_images())
        predictions = [
            pair(a.image_id, t.subj_id, t.obj_id, [t.score, 0.0, 0.0], subj_label=t.subj_label,
                 obj_label=t.obj_label, boxes=(t.subj_box, t.obj_box))
            for a, ranked in images for t in ranked
        ]
        dataset = make_dataset([a for a, _ in images])
        assert_same_as_replaced_code(predictions, dataset, protocol=SGGEN)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_ties_zero_scores_and_odd_boxes(self, protocol):
        rng = np.random.default_rng(29)
        for _ in range(20):
            dataset, predictions = awkward_scene(rng)
            zero_shot = ZeroShotIndex(signatures=frozenset({(0, 0, 1), (1, 2, 3), (2, 1, 0)}))
            info = info_weights(rng.integers(1, 100, size=3))
            assert_same_as_replaced_code(predictions, dataset, zero_shot, info, protocol=protocol)
            assert_same_as_replaced_code([], dataset, zero_shot, info, protocol=protocol)


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
        report = evaluate(predictions, dataset, ZeroShotIndex(frozenset(zero_shot)), info, ks, protocol)
        for family in (report.recall, report.mean_recall, report.zero_shot_recall, report.mric):
            values = [family[k] for k in ks]
            if values[0] is None:
                assert set(values) == {None}
            else:
                assert values == sorted(values)

    @given(scene=scenes(max_objects=4, max_predictions=5))
    def test_sggen_count_equals_brute_force_maximum_matching(self, scene):
        a, predictions = scene
        (ranked,) = build_ranked(predictions, 2).values()
        first_rank = match_triples(ranked, a, len(ranked), SGGEN)
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
        bad[0].probs = np.ones(7)  # ragged: the other pair holds 3 scores
        with pytest.raises(ValueError, match=r"^prediction shape mismatch: expected \(3,\) predicate scores$"):
            evaluate(bad, dataset, ks=(20,))

    @pytest.mark.parametrize("width", [2, 7])
    def test_every_pair_of_the_wrong_width_rejected(self, spaces, width):
        dataset = make_dataset([gt_annotation()], spaces)
        bad = oracle_pairs(dataset)
        for p in bad:
            p.probs = np.ones(width)
        with pytest.raises(ValueError, match=r"^prediction shape mismatch: expected \(3,\) predicate scores$"):
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
        loaded = load_predictions(path, object_space, 3)
        assert len(loaded) == 2
        for a, b in zip(pairs, loaded):
            assert (a.image_id, a.subj_id, a.obj_id, a.subj_label, a.obj_label) == (
                b.image_id, b.subj_id, b.obj_id, b.subj_label, b.obj_label
            )
            np.testing.assert_array_equal(a.probs, b.probs)
            assert a.subj_box == b.subj_box


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
            "scores": [float(v) for v in after.probs],
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestStackedRanking:
    """Stacked ranking and writing against the per-pair code they replaced, exactly."""

    def test_build_ranked_equals_per_pair_ranking_for_every_width(self):
        rng = np.random.default_rng(13)
        for c_pred in range(1, 131):
            pairs = awkward_pairs(rng, c_pred)
            ranked = build_ranked(pairs, c_pred)
            assert {image_id: as_triples(r) for image_id, r in ranked.items()} == per_pair_build_ranked(pairs)
            assert all(r.pred.dtype == np.int64 and r.score.dtype == np.float64 for r in ranked.values())

    def test_build_ranked_of_nothing(self):
        assert build_ranked([], 3) == per_pair_build_ranked([]) == {}

    def test_save_predictions_writes_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(17)
        object_space, _ = make_spaces(c_obj=4)
        for c_pred in (1, 2, 7, 8, 9, 20, 127, 128, 129, 130):
            pairs = awkward_pairs(rng, c_pred)
            pairs[0].subj_box = make_box(-0.0, 1e-300, 3.0, 1e300)
            pairs[1].probs[0] = 5e-324
            texts = save_predictions(pairs, object_space, tmp_path / "new.jsonl")
            per_pair_save_predictions(pairs, object_space, tmp_path / "old.jsonl")
            written = (tmp_path / "new.jsonl").read_bytes()
            assert written == (tmp_path / "old.jsonl").read_bytes()
            assert [json.loads(line)["probs"] for line in written.splitlines()] == [
                json.loads(text) for text in texts
            ]

    def test_save_predictions_of_nothing(self, tmp_path):
        object_space, _ = make_spaces()
        assert save_predictions([], object_space, tmp_path / "new.jsonl") == []
        assert (tmp_path / "new.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("c_pred", [1, 2, 7, 8, 9, 20, 127, 128, 129, 130])
    def test_refine_stage_writes_the_same_files(self, tmp_path, c_pred):
        rng = np.random.default_rng(c_pred)
        object_space, predicate_space = make_spaces(c_obj=4, c_pred=c_pred)
        (tmp_path / "objects.txt").write_text("".join(n + "\n" for n in object_space.names))
        (tmp_path / "predicates.txt").write_text("".join(n + "\n" for n in predicate_space.names))
        save_embeddings(EmbeddingTable(object_space, rng.normal(size=(4, 3))), tmp_path / "obj.txt")
        save_embeddings(EmbeddingTable(predicate_space, rng.normal(size=(c_pred, 3))), tmp_path / "pred.txt")
        pairs = awkward_pairs(rng, c_pred)
        per_pair_save_predictions(pairs, object_space, tmp_path / "predictions.jsonl")
        (tmp_path / "run.cfg").write_text("use_refinement=true\nalpha=0.6\n")
        out = tmp_path / "out"
        assert main([str(a) for a in (
            "refine", "--out", out, "--config", tmp_path / "run.cfg",
            "--object-labels", tmp_path / "objects.txt", "--predicate-labels", tmp_path / "predicates.txt",
            "--predictions", tmp_path / "predictions.jsonl",
            "--object-embeddings", tmp_path / "obj.txt", "--predicate-embeddings", tmp_path / "pred.txt",
        )]) == 0

        loaded = load_predictions(tmp_path / "predictions.jsonl", object_space, c_pred)
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
