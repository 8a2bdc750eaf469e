"""Evaluation engine: triple matching under three protocols and the recall metric family.

Protocols
---------
predcls / sgcls
    Ground-truth boxes are given, so matching is by object-instance identity
    plus correct labels and predicate.
sggen
    Nothing is given: subject and object boxes must each overlap a ground-truth
    box at IoU >= 0.5 and all labels must be correct.

A ranked prediction list obeys the graph constraint (one predicate per ordered
instance pair). Within the top-K window, predictions consume ground-truth
triples one-to-one; consumption is resolved by augmenting paths in rank order,
which yields the maximum possible number of matched triples.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    BoundingBox,
    Dataset,
    LabelSpace,
    SceneGraphAnnotation,
    triple_signature,
)
from .ingest import ZeroShotIndex
from .reweighting import InfoWeights

logger = logging.getLogger(__name__)

PREDCLS = "predcls"
SGCLS = "sgcls"
SGGEN = "sggen"
PROTOCOLS = (PREDCLS, SGCLS, SGGEN)

SGGEN_IOU_THRESHOLD = 0.5
DEFAULT_KS = (20, 50, 100)


@dataclass(eq=False)
class PairPrediction:
    """Model output for one ordered object pair: a distribution over predicates."""

    image_id: str
    subj_id: int
    obj_id: int
    subj_label: int
    obj_label: int
    subj_box: BoundingBox
    obj_box: BoundingBox
    probs: np.ndarray
    subj_score: float = 1.0
    obj_score: float = 1.0


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


@dataclass(frozen=True)
class RankedPrediction:
    """Per-image triple list, descending score, one predicate per instance pair."""

    image_id: str
    triples: tuple[PredictedTriple, ...]


@dataclass(eq=False)
class MetricReport:
    """All recall families per K, plus the per-predicate recall table."""

    subtask: str
    ks: tuple[int, ...]
    recall: dict[int, float | None]
    mean_recall: dict[int, float | None]
    zero_shot_recall: dict[int, float | None]
    mric: dict[int, float | None]
    per_predicate_recall: dict[int, np.ndarray]  # NaN where a predicate has no GT
    predicate_gt_counts: np.ndarray
    num_images: int
    num_gt_triples: int
    num_zero_shot_gt: int

    def to_dict(self, predicate_space: LabelSpace | None = None) -> dict:
        payload: dict = {
            "subtask": self.subtask,
            "ks": list(self.ks),
            "metrics": {
                "recall": {str(k): self.recall[k] for k in self.ks},
                "mean_recall": {str(k): self.mean_recall[k] for k in self.ks},
                "zero_shot_recall": {str(k): self.zero_shot_recall[k] for k in self.ks},
                "mric": {str(k): self.mric[k] for k in self.ks},
            },
            "num_images": self.num_images,
            "num_gt_triples": self.num_gt_triples,
            "num_zero_shot_gt": self.num_zero_shot_gt,
        }
        if predicate_space is not None:
            rows = []
            for j, name in enumerate(predicate_space.names):
                row: dict = {"name": name, "gt_count": int(self.predicate_gt_counts[j])}
                for k in self.ks:
                    value = self.per_predicate_recall[k][j]
                    row[f"recall@{k}"] = None if np.isnan(value) else float(value)
                rows.append(row)
            payload["per_predicate"] = rows
        return payload


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes."""
    inter, union = a.overlap(b)
    if union <= 0.0:
        return 0.0
    return inter / union


def build_ranked(predictions: list[PairPrediction]) -> dict[str, RankedPrediction]:
    """Group pair predictions per image and rank them.

    Each pair contributes its top predicate only (graph constraint); the triple
    score is the predicate score times both label confidences. Ties are broken
    by instance ids so ranking is deterministic.
    """
    by_image: dict[str, list[PairPrediction]] = {}
    for pair in predictions:
        by_image.setdefault(pair.image_id, []).append(pair)

    ranked: dict[str, RankedPrediction] = {}
    for image_id, pairs in by_image.items():
        seen_pairs: set[tuple[int, int]] = set()
        triples: list[PredictedTriple] = []
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
        ranked[image_id] = RankedPrediction(image_id=image_id, triples=tuple(triples))
    return ranked


def _compatible(
    prediction: PredictedTriple,
    gt_subj_label: int,
    gt_pred: int,
    gt_obj_label: int,
    gt_subj_box: BoundingBox,
    gt_obj_box: BoundingBox,
    gt_subj_id: int,
    gt_obj_id: int,
    protocol: str,
) -> bool:
    if (
        prediction.pred != gt_pred
        or prediction.subj_label != gt_subj_label
        or prediction.obj_label != gt_obj_label
    ):
        return False
    if protocol in (PREDCLS, SGCLS):
        return prediction.subj_id == gt_subj_id and prediction.obj_id == gt_obj_id
    return (
        iou(prediction.subj_box, gt_subj_box) >= SGGEN_IOU_THRESHOLD
        and iou(prediction.obj_box, gt_obj_box) >= SGGEN_IOU_THRESHOLD
    )


def match_triples(
    prediction: RankedPrediction,
    annotation: SceneGraphAnnotation,
    k: int,
    protocol: str,
) -> set[int]:
    """Indices of GT triples matched by the top-``k`` predictions.

    Each prediction consumes at most one GT triple; processing in rank order
    with augmenting paths makes the matched set as large as any assignment
    could achieve.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    top = prediction.triples[:k]
    gt = []
    for idx, triple in enumerate(annotation.triples):
        subj = annotation.object_by_id(triple.subj)
        obj = annotation.object_by_id(triple.obj)
        gt.append((idx, subj.label, triple.pred, obj.label, subj.box, obj.box, triple.subj, triple.obj))

    owner: dict[int, int] = {}  # gt idx -> position in `top`
    assigned: dict[int, int] = {}  # position in `top` -> gt idx

    def try_assign(pos: int, banned: set[int]) -> bool:
        p = top[pos]
        for idx, s_lab, g_pred, o_lab, s_box, o_box, s_id, o_id in gt:
            if idx in banned:
                continue
            if not _compatible(p, s_lab, g_pred, o_lab, s_box, o_box, s_id, o_id, protocol):
                continue
            banned.add(idx)
            if idx not in owner or try_assign(owner[idx], banned):
                owner[idx] = pos
                assigned[pos] = idx
                return True
        return False

    for pos in range(len(top)):
        try_assign(pos, set())
    return set(owner.keys())


def recall_at_k(matched_counts: list[int], gt_counts: list[int]) -> float | None:
    """Mean per-image recall; images without GT triples are skipped."""
    recalls = [m / g for m, g in zip(matched_counts, gt_counts) if g > 0]
    if not recalls:
        return None
    return float(np.mean(recalls))


def mean_recall_at_k(
    matched_per_predicate: np.ndarray, gt_per_predicate: np.ndarray
) -> tuple[float | None, np.ndarray]:
    """Split-level per-predicate recalls and their mean over predicates with GT."""
    gt = np.asarray(gt_per_predicate, dtype=np.float64)
    matched = np.asarray(matched_per_predicate, dtype=np.float64)
    recalls = np.full(gt.shape, np.nan)
    has_gt = gt > 0
    recalls[has_gt] = matched[has_gt] / gt[has_gt]
    if not has_gt.any():
        return None, recalls
    return float(np.mean(recalls[has_gt])), recalls


def mric_at_k(per_predicate_recall: np.ndarray, info: InfoWeights) -> float:
    """Sum of recall times information content (bits) over predicates with GT."""
    recalls = np.asarray(per_predicate_recall, dtype=np.float64)
    observed = ~np.isnan(recalls)
    return float(np.sum(recalls[observed] * info.bits[observed]))


def evaluate(
    predictions: list[PairPrediction],
    test: Dataset,
    zero_shot: ZeroShotIndex | None = None,
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
        count = sum(len(ranked[image_id].triples) for image_id in unknown)
        raise ValueError(
            f"{count} predictions for image ids not in the {test.split} split, first {first!r}"
        )
    empty = RankedPrediction(image_id="", triples=())

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

        prediction = ranked.get(annotation.image_id, empty)
        image_gt.append(gt_n)
        zs_image_gt.append(zs_n)
        for k in ks:
            matched = match_triples(prediction, annotation, k, protocol)
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


def per_predicate_csv(
    report: MetricReport, predicate_space: LabelSpace, path: str | Path
) -> None:
    """Write the per-predicate recall table (name, gt_count, recall@K...)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "gt_count"] + [f"recall@{k}" for k in report.ks])
        for j, name in enumerate(predicate_space.names):
            row: list = [name, int(report.predicate_gt_counts[j])]
            for k in report.ks:
                value = report.per_predicate_recall[k][j]
                row.append("" if np.isnan(value) else repr(float(value)))
            writer.writerow(row)


def save_predictions(
    predictions: list[PairPrediction],
    object_space: LabelSpace,
    path: str | Path,
) -> None:
    """Serialize pair predictions as JSON lines (labels stored as names)."""
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


def load_predictions(path: str | Path, object_space: LabelSpace) -> list[PairPrediction]:
    predictions: list[PairPrediction] = []
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        record = json.loads(raw)
        predictions.append(
            PairPrediction(
                image_id=record["image_id"],
                subj_id=int(record["subj_id"]),
                obj_id=int(record["obj_id"]),
                subj_label=object_space.index_of(record["subj_label"]),
                obj_label=object_space.index_of(record["obj_label"]),
                subj_box=BoundingBox(*record["subj_box"]),
                obj_box=BoundingBox(*record["obj_box"]),
                subj_score=float(record["subj_score"]),
                obj_score=float(record["obj_score"]),
                probs=np.asarray(record["probs"], dtype=np.float64),
            )
        )
    return predictions
