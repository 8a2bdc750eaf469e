"""The per-object ranking and matching that the stacked columns replaced, kept as the differential oracle.

Each definition is the replaced code unchanged, except that ``overlap`` was the
``BoundingBox.overlap`` method and is called as a function here, and box areas
are computed inline.
"""

from dataclasses import dataclass

import numpy as np

from sgrel.metrics import (
    DEFAULT_KS,
    PREDCLS,
    PROTOCOLS,
    SGCLS,
    SGGEN,
    SGGEN_IOU_THRESHOLD,
    MetricReport,
    mean_recall_at_k,
    mric_at_k,
    recall_at_k,
)
from sgrel.reweighting import InfoWeights

from reference_annotations import BoundingBox, Dataset, ObjectInstance, SceneGraphAnnotation, Triple, triple_signature
from reference_predictions import PairPrediction


def overlap(self: BoundingBox, other: BoundingBox) -> tuple[float, float]:
    """Intersection and union areas of this box and ``other``."""
    ix = max(0.0, min(self.x2, other.x2) - max(self.x1, other.x1))
    iy = max(0.0, min(self.y2, other.y2) - max(self.y1, other.y1))
    inter = ix * iy
    area = (self.x2 - self.x1) * (self.y2 - self.y1)
    other_area = (other.x2 - other.x1) * (other.y2 - other.y1)
    return inter, area + other_area - inter


@dataclass(frozen=True)
class PredictedTriple:
    """One ranked triple: labels, boxes, predicate, and its ranking score."""

    subj_id: int
    obj_id: int
    subj_label: int
    pred: int
    obj_label: int
    subj_box: BoundingBox
    obj_box: BoundingBox
    score: float


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes."""
    inter, union = overlap(a, b)
    if union <= 0.0:
        return 0.0
    return inter / union


def stack_probs(predictions: list[PairPrediction]) -> np.ndarray:
    """The pairs' predicate score vectors as one ``(P, C)`` float64 matrix (``P > 0``)."""
    return np.array([pair.probs for pair in predictions], dtype=np.float64)


def build_ranked(predictions: list[PairPrediction]) -> dict[str, tuple[PredictedTriple, ...]]:
    """Group pair predictions per image and rank them (descending score).

    Each pair contributes its top predicate only (graph constraint); the triple
    score is the predicate score times both label confidences. Ties are broken
    by instance ids so ranking is deterministic.
    """
    if not predictions:
        return {}
    probs = stack_probs(predictions)
    top = probs.argmax(axis=1)
    label_scores = np.array([(pair.subj_score, pair.obj_score) for pair in predictions])
    scores = probs[np.arange(len(top)), top] * label_scores[:, 0] * label_scores[:, 1]

    seen_pairs: set[tuple[str, int, int]] = set()
    by_image: dict[str, list[PredictedTriple]] = {}
    for pair, pred, score in zip(predictions, top.tolist(), scores.tolist()):
        key = (pair.image_id, pair.subj_id, pair.obj_id)
        if key in seen_pairs:
            raise ValueError(
                f"image {pair.image_id}: duplicate prediction for pair {key[1:]} "
                "violates the graph constraint"
            )
        seen_pairs.add(key)
        by_image.setdefault(pair.image_id, []).append(
            PredictedTriple(
                pair.subj_id, pair.obj_id, pair.subj_label, pred, pair.obj_label,
                pair.subj_box, pair.obj_box, score,
            )
        )
    return {
        image_id: tuple(sorted(triples, key=lambda t: (-t.score, t.subj_id, t.obj_id)))
        for image_id, triples in by_image.items()
    }


def _compatible(
    prediction: PredictedTriple, triple: Triple, subj: ObjectInstance, obj: ObjectInstance, protocol: str
) -> bool:
    """Whether ``prediction`` may consume the GT ``triple`` between ``subj`` and ``obj``."""
    if (
        prediction.pred != triple.pred
        or prediction.subj_label != subj.label
        or prediction.obj_label != obj.label
    ):
        return False
    if protocol in (PREDCLS, SGCLS):
        return prediction.subj_id == triple.subj and prediction.obj_id == triple.obj
    return (
        iou(prediction.subj_box, subj.box) >= SGGEN_IOU_THRESHOLD
        and iou(prediction.obj_box, obj.box) >= SGGEN_IOU_THRESHOLD
    )


def match_triples(
    triples: tuple[PredictedTriple, ...],
    annotation: SceneGraphAnnotation,
    k: int,
    protocol: str,
) -> dict[int, int]:
    """Match the top-``k`` ranked triples to GT triples; GT index -> first matching rank.

    Each prediction consumes at most one GT triple; processing in rank order
    with augmenting paths makes the matched set as large as any assignment
    could achieve. A matched GT triple stays matched, so the triples matched
    within the top ``j <= k`` are those whose rank is below ``j``.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    top = triples[:k]
    gt = [(t, annotation.object_by_id(t.subj), annotation.object_by_id(t.obj)) for t in annotation.triples]

    owner: dict[int, int] = {}  # gt idx -> position in `top` that holds it now
    first: dict[int, int] = {}  # gt idx -> rank whose augmenting path matched it

    def try_assign(pos: int, banned: set[int]) -> bool:
        for idx, (triple, subj, obj) in enumerate(gt):
            if idx in banned or not _compatible(top[pos], triple, subj, obj, protocol):
                continue
            banned.add(idx)
            if idx in owner and not try_assign(owner[idx], banned):
                continue
            first.setdefault(idx, rank)  # `rank`: where this augmenting path started
            owner[idx] = pos
            return True
        return False

    for rank in range(len(top)):
        try_assign(rank, set())
    return first


def evaluate(
    predictions: list[PairPrediction],
    test: Dataset,
    zero_shot: frozenset | None = None,
    info: InfoWeights | None = None,
    ks: tuple[int, ...] = DEFAULT_KS,
    protocol: str = PREDCLS,
) -> MetricReport:
    """Full metric report over a test split: R@K, mR@K, zR@K, mRIC@K."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    c_pred = test.predicate_space.size
    for pair in predictions:
        if np.asarray(pair.probs).shape != (c_pred,):
            raise ValueError(
                f"prediction shape mismatch: expected ({c_pred},) predicate scores"
            )
    ranked = build_ranked(predictions)
    unknown = ranked.keys() - {a.image_id for a in test.annotations}
    if unknown:
        first = next(image_id for image_id in ranked if image_id in unknown)
        count = sum(len(ranked[image_id]) for image_id in unknown)
        raise ValueError(
            f"{count} predictions for image ids not in the {test.split} split, first {first!r}"
        )
    max_k = max(ks, default=0)
    gt_per_pred = np.zeros(c_pred, dtype=np.int64)
    matched_per_pred = {k: np.zeros(c_pred, dtype=np.int64) for k in ks}
    image_gt: list[int] = []
    image_matched = {k: [] for k in ks}
    zs_image_gt: list[int] = []
    zs_image_matched = {k: [] for k in ks}
    num_zs_gt = 0

    for annotation in test.annotations:
        gt_n = len(annotation.triples)
        zs_flags = []
        for triple in annotation.triples:
            gt_per_pred[triple.pred] += 1
            is_zs = (
                zero_shot is not None
                and triple_signature(triple, annotation) in zero_shot
            )
            zs_flags.append(is_zs)
        zs_n = sum(zs_flags)
        num_zs_gt += zs_n

        first_rank = match_triples(ranked.get(annotation.image_id, ()), annotation, max_k, protocol)
        image_gt.append(gt_n)
        zs_image_gt.append(zs_n)
        for k in ks:
            matched = [idx for idx, rank in first_rank.items() if rank < k]
            image_matched[k].append(len(matched))
            zs_image_matched[k].append(sum(1 for idx in matched if zs_flags[idx]))
            for idx in matched:
                matched_per_pred[k][annotation.triples[idx].pred] += 1

    recall: dict[int, float | None] = {}
    mean_recall: dict[int, float | None] = {}
    zs_recall: dict[int, float | None] = {}
    mric: dict[int, float | None] = {}
    per_pred: dict[int, np.ndarray] = {}
    for k in ks:
        recall[k] = recall_at_k(image_matched[k], image_gt)
        mr, recalls_k = mean_recall_at_k(matched_per_pred[k], gt_per_pred)
        mean_recall[k] = mr
        per_pred[k] = recalls_k
        zs_recall[k] = recall_at_k(zs_image_matched[k], zs_image_gt)
        mric[k] = mric_at_k(recalls_k, info) if info is not None else None

    return MetricReport(
        subtask=protocol,
        ks=tuple(ks),
        recall=recall,
        mean_recall=mean_recall,
        zero_shot_recall=zs_recall,
        mric=mric,
        per_predicate_recall=per_pred,
        predicate_gt_counts=gt_per_pred,
        num_images=len(test.annotations),
        num_gt_triples=int(sum(image_gt)),
        num_zero_shot_gt=num_zs_gt,
    )
