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
which yields the maximum possible number of matched triples. An augmenting path
never unmatches a triple, so one pass over the top max(K) records, for each
matched triple, the rank that first matched it, and serves every K.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import BoundingBox, Dataset, LabelSpace, SceneGraphAnnotation, box_overlap, triple_signature
from .ingest import ParseError, ZeroShotIndex
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


def stack_probs(predictions: list[PairPrediction]) -> np.ndarray:
    """The pairs' predicate score vectors as one ``(P, C)`` float64 matrix (``P > 0``)."""
    return np.array([pair.probs for pair in predictions], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class RankedTriples:
    """Pair columns, named as in the predictions, plus each pair's top predicate and triple score."""

    subj_id: np.ndarray
    obj_id: np.ndarray
    subj_label: np.ndarray
    obj_label: np.ndarray
    subj_box: np.ndarray  # (n, 4) xyxy
    obj_box: np.ndarray
    pred: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, rows: slice | np.ndarray) -> "RankedTriples":
        return RankedTriples(*(getattr(self, f.name)[rows] for f in fields(self)))


def build_ranked(predictions: list[PairPrediction], num_predicates: int) -> dict[str, RankedTriples]:
    """Group pair predictions per image and rank them (descending score).

    Each pair contributes its top predicate only (graph constraint); the triple
    score is the predicate score times both label confidences. Ties are broken
    by instance ids so ranking is deterministic. Probs that do not stack into
    ``num_predicates`` columns, a pair repeated within an image and a triple
    score that is not finite raise ``ValueError``.
    """
    if not predictions:
        return {}
    try:
        probs = stack_probs(predictions)
        if probs.shape[1:] != (num_predicates,):
            raise ValueError
    except ValueError:  # ragged vectors do not stack either
        raise ValueError(f"prediction shape mismatch: expected ({num_predicates},) predicate scores") from None
    image_index: dict[str, int] = {}  # image id -> index, in order of first appearance
    image, subj_id, obj_id, subj_label, obj_label = np.array([
        (image_index.setdefault(p.image_id, len(image_index)), p.subj_id, p.obj_id, p.subj_label, p.obj_label)
        for p in predictions
    ], dtype=np.int64).T
    subj_box, obj_box = np.array([(p.subj_box.xyxy, p.obj_box.xyxy) for p in predictions]).transpose(1, 0, 2)
    label_scores = np.array([(p.subj_score, p.obj_score) for p in predictions])

    # A stable sort keeps input order within equal pairs, so every row after
    # the first of its run repeats an earlier pair.
    by_pair = np.lexsort((obj_id, subj_id, image))
    keys = np.stack([image, subj_id, obj_id])[:, by_pair]
    repeats = by_pair[1:][(keys[:, 1:] == keys[:, :-1]).all(axis=0)]
    if repeats.size:
        pair = predictions[repeats.min()]
        raise ValueError(
            f"image {pair.image_id}: duplicate prediction for pair {(pair.subj_id, pair.obj_id)} "
            "violates the graph constraint"
        )
    top = probs.argmax(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        score = probs[np.arange(len(top)), top] * label_scores[:, 0] * label_scores[:, 1]
    bad = np.flatnonzero(~np.isfinite(score))
    if bad.size:
        pair = predictions[bad[0]]
        raise ValueError(f"image {pair.image_id}: pair {(pair.subj_id, pair.obj_id)} has a non-finite triple score")

    order = np.lexsort((obj_id, subj_id, -score, image))
    ranked = RankedTriples(subj_id, obj_id, subj_label, obj_label, subj_box, obj_box, top, score)[order]
    bounds = np.searchsorted(image[order], np.arange(len(image_index) + 1)).tolist()
    return {image_id: ranked[bounds[i] : bounds[i + 1]] for i, image_id in enumerate(image_index)}


def iou_matrix(boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """IoU of xyxy ``boxes[i]`` and ``gt_boxes[j]`` at ``[i, j, ...]``; 0 where their union is not positive."""
    inter, union = box_overlap(boxes[:, None], gt_boxes[None])
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0)


def match_triples(triples: RankedTriples, annotation: SceneGraphAnnotation, k: int, protocol: str) -> dict[int, int]:
    """Match the top-``k`` ranked triples to GT triples; GT index -> first matching rank.

    Each prediction consumes at most one GT triple; processing in rank order
    with augmenting paths makes the matched set as large as any assignment
    could achieve. A matched GT triple stays matched, so the triples matched
    within the top ``j <= k`` are those whose rank is below ``j``.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    top = triples[:k]
    gt = annotation.triples
    if not (len(top) and gt):
        return {}
    subj = [annotation.object_by_id(t.subj) for t in gt]
    obj = [annotation.object_by_id(t.obj) for t in gt]
    compatible = (  # (top, GT): may this prediction consume this GT triple?
        (top.pred[:, None] == [t.pred for t in gt])
        & (top.subj_label[:, None] == [o.label for o in subj])
        & (top.obj_label[:, None] == [o.label for o in obj])
    )
    if protocol == SGGEN:
        ends = np.array([(s.box.xyxy, o.box.xyxy) for s, o in zip(subj, obj)])
        overlaps = iou_matrix(np.stack([top.subj_box, top.obj_box], axis=1), ends)
        compatible &= (overlaps >= SGGEN_IOU_THRESHOLD).all(axis=2)
    else:
        compatible &= (top.subj_id[:, None] == [t.subj for t in gt]) & (top.obj_id[:, None] == [t.obj for t in gt])
    options: list[list[int]] = [[] for _ in range(len(top))]  # compatible GT indices per rank
    for pos, idx in np.argwhere(compatible).tolist():
        options[pos].append(idx)

    owner: dict[int, int] = {}  # gt idx -> position in `top` that holds it now
    first: dict[int, int] = {}  # gt idx -> rank whose augmenting path matched it

    def try_assign(pos: int, banned: set[int]) -> bool:
        for idx in options[pos]:
            if idx in banned:
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


def recall_at_k(matched_counts: list[int] | np.ndarray, gt_counts: list[int] | np.ndarray) -> float | None:
    """Mean per-image recall; images without GT triples are skipped."""
    recalls = [m / g for m, g in zip(matched_counts, gt_counts) if g > 0]
    return float(np.mean(recalls)) if recalls else None


def mean_recall_at_k(
    matched_per_predicate: np.ndarray, gt_per_predicate: np.ndarray
) -> tuple[float | None, np.ndarray]:
    """Split-level per-predicate recalls and their mean over predicates with GT."""
    gt = np.asarray(gt_per_predicate, dtype=np.float64)
    matched = np.asarray(matched_per_predicate, dtype=np.float64)
    recalls = np.full(gt.shape, np.nan)
    has_gt = gt > 0
    recalls[has_gt] = matched[has_gt] / gt[has_gt]
    return (float(np.mean(recalls[has_gt])) if has_gt.any() else None), recalls


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
    ranked = build_ranked(predictions, c_pred)
    unknown = ranked.keys() - {a.image_id for a in test.annotations}
    if unknown:
        first = next(image_id for image_id in ranked if image_id in unknown)
        count = sum(len(ranked[image_id]) for image_id in unknown)
        raise ValueError(
            f"{count} predictions for image ids not in the {test.split} split, first {first!r}"
        )
    max_k = max(ks, default=0)
    rows = []  # per GT triple of the split: image, predicate, zero-shot flag, first matching rank
    for i, annotation in enumerate(test.annotations):
        first_rank = match_triples(ranked.get(annotation.image_id, ()), annotation, max_k, protocol)
        rows += [
            (i, t.pred, zero_shot is not None and triple_signature(t, annotation) in zero_shot,
             first_rank.get(idx, max_k))
            for idx, t in enumerate(annotation.triples)
        ]
    image, pred, zs, rank = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    zs = zs.astype(bool)
    n_images = len(test.annotations)
    image_gt = np.bincount(image, minlength=n_images)
    zs_image_gt = np.bincount(image[zs], minlength=n_images)
    gt_per_pred = np.bincount(pred, minlength=c_pred)

    mean_recall: dict[int, float | None] = {}
    per_pred: dict[int, np.ndarray] = {}
    for k in ks:
        mean_recall[k], per_pred[k] = mean_recall_at_k(np.bincount(pred[rank < k], minlength=c_pred), gt_per_pred)
    return MetricReport(
        subtask=protocol,
        ks=tuple(ks),
        recall={k: recall_at_k(np.bincount(image[rank < k], minlength=n_images), image_gt) for k in ks},
        mean_recall=mean_recall,
        zero_shot_recall={
            k: recall_at_k(np.bincount(image[(rank < k) & zs], minlength=n_images), zs_image_gt) for k in ks
        },
        mric={k: mric_at_k(per_pred[k], info) if info is not None else None for k in ks},
        per_predicate_recall=per_pred,
        predicate_gt_counts=gt_per_pred,
        num_images=n_images,
        num_gt_triples=len(rank),
        num_zero_shot_gt=int(zs.sum()),
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


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def json_line(record: dict, key: str, encoded: str) -> str:
    """``record`` as one compact JSON line, with ``key`` added last holding the JSON text ``encoded``."""
    return f'{_ENCODER.encode(record)[:-1]},"{key}":{encoded}}}\n'


def save_predictions(
    predictions: list[PairPrediction],
    object_space: LabelSpace,
    path: str | Path,
) -> list[str]:
    """Serialize pair predictions as JSON lines (labels stored as names).

    Returns the JSON text of each pair's ``probs`` as written, for a caller
    that writes the same vectors again.
    """
    names = object_space.names
    probs_text = [
        _ENCODER.encode(np.asarray(pair.probs, dtype=np.float64).tolist()) for pair in predictions
    ]
    lines = (
        json_line(
            {
                "image_id": pair.image_id,
                "subj_id": pair.subj_id,
                "obj_id": pair.obj_id,
                "subj_label": names[pair.subj_label],
                "obj_label": names[pair.obj_label],
                "subj_box": [pair.subj_box.x1, pair.subj_box.y1, pair.subj_box.x2, pair.subj_box.y2],
                "obj_box": [pair.obj_box.x1, pair.obj_box.y1, pair.obj_box.x2, pair.obj_box.y2],
                "subj_score": pair.subj_score,
                "obj_score": pair.obj_score,
            },
            "probs",
            text,
        )
        for pair, text in zip(predictions, probs_text)
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return probs_text


def _string(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _id(value: object) -> int:
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the 64-bit integer range")
    return value


_NUMBER_TYPES = {int, float}  # what JSON numbers parse to; a boolean is not one


def _score(value: object) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"expected a number, got {value!r}")
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError("must be finite and non-negative")
    return float(value)


def _box(value: object) -> BoundingBox:
    if not (type(value) is list and len(value) == 4 and _NUMBER_TYPES.issuperset(map(type, value))):
        raise TypeError(f"expected [x1, y1, x2, y2], got {value!r}")
    if not all(map(math.isfinite, value)):
        raise ValueError(f"coordinates must be finite, got {value!r}")
    return BoundingBox(*map(float, value))


def _probs(values: object, size: int) -> list:
    if not (type(values) is list and _NUMBER_TYPES.issuperset(map(type, values))):
        raise TypeError("expected a list of numbers")
    if len(values) != size:
        raise ValueError(f"expected {size} predicate scores, got {len(values)}")
    # The sum is NaN or infinite when an entry is, so min() need only catch negatives.
    if not (min(values) >= 0.0 and float(sum(values)) < math.inf):
        raise ValueError("must be finite and non-negative")
    return values


def load_predictions(
    path: str | Path, object_space: LabelSpace, num_predicates: int
) -> list[PairPrediction]:
    """Read the JSON lines ``save_predictions`` writes.

    Invalid JSON, a missing or mistyped key (a boolean is not a number), probs
    or label scores that are negative or not finite, box coordinates that are
    not finite, and a ``probs`` list that does not hold ``num_predicates``
    scores raise ``ParseError`` naming the line.
    """
    label = object_space.index_of
    parsers = (
        ("image_id", _string), ("subj_id", _id), ("obj_id", _id),
        ("subj_label", label), ("obj_label", label), ("subj_box", _box), ("obj_box", _box),
        ("subj_score", _score), ("obj_score", _score),
        ("probs", lambda values: _probs(values, num_predicates)),
    )
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    probs = np.empty((len(lines), num_predicates))  # one matrix; each pair's probs is a row of it
    predictions: list[PairPrediction] = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ParseError(path, lineno, f"invalid JSON: {err.msg}") from err
        if not isinstance(record, dict):
            raise ParseError(path, lineno, "expected a JSON object")
        fields = {}
        for key, parse in parsers:
            try:
                fields[key] = parse(record[key])
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                problem = f"bad {key!r}: {err}" if key in record else f"missing key {key!r}"
                raise ParseError(path, lineno, problem) from err
        probs[lineno - 1] = fields["probs"]
        fields["probs"] = probs[lineno - 1]
        predictions.append(PairPrediction(**fields))
    return predictions
