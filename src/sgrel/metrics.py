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
import itertools
import logging
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import BoundingBox, Dataset, LabelSpace, SceneGraphAnnotation, Signature, box_overlap, triple_signature
from .ingest import COMPACT_JSON, LINES_PER_WRITE, ParseError, box, integer, load_companion, number, parse_fields
from .ingest import read_jsonl, save_with_companion, scores, string
from .reweighting import InfoWeights

logger = logging.getLogger(__name__)

PREDCLS = "predcls"
SGCLS = "sgcls"
SGGEN = "sggen"
PROTOCOLS = (PREDCLS, SGCLS, SGGEN)

SGGEN_IOU_THRESHOLD = 0.5
DEFAULT_KS = (20, 50, 100)

# Each metric family's report key (a ``MetricReport`` field) and its short name, in report order.
FAMILIES = {"recall": "R", "mean_recall": "mR", "zero_shot_recall": "zR", "mric": "mRIC"}


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
                family: {str(k): getattr(self, family)[k] for k in self.ks} for family in FAMILIES
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
    zero_shot: frozenset[Signature] | None = None,
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


COMPANION_FORMAT = "sgrel-predictions"
COMPANION_VERSION = 1
# The companion's arrays, in file order, with their file dtypes; boxes are subject then object xyxy.
_COLUMNS = {
    "image": "<i8", "subj_id": "<i8", "obj_id": "<i8", "subj_label": "<i8", "obj_label": "<i8",
    "boxes": "<f8", "label_scores": "<f8", "probs": "<f8",
}


def _columns(
    predictions: list[PairPrediction], object_space: LabelSpace
) -> tuple[list[str], dict, bool] | None:
    """The image id table, the companion's arrays and whether they give back the JSON text exactly.

    None when the JSON lines would read a value otherwise: no pairs, an image
    id that is not a ``str``, an id or label that is not a plain ``int`` (a
    boolean or a NumPy integer), a coordinate or label score that is neither a
    plain ``int`` nor a ``float``, an id outside int64, a number too large for
    a float, a label outside ``object_space`` or probs that do not stack into
    at least one column. The text is not exact when a coordinate or label
    score is an ``int`` (JSON writes ``1``, the column ``1.0``), a float is
    not finite (JSON writes ``NaN``) or a label name is not a ``str``.
    """
    if not predictions or set(map(type, (p.image_id for p in predictions))) != {str}:
        return None
    image_ids: dict[str, int] = {}
    ints = [(image_ids.setdefault(p.image_id, len(image_ids)), p.subj_id, p.obj_id, p.subj_label, p.obj_label)
            for p in predictions]
    floats = [(*p.subj_box.xyxy, *p.obj_box.xyxy, p.subj_score, p.obj_score) for p in predictions]
    float_types = set(map(type, itertools.chain.from_iterable(floats)))
    if set(map(type, itertools.chain.from_iterable(ints))) != {int} or not all(
        kind is int or issubclass(kind, float) for kind in float_types  # JSON writes a float subclass as a float
    ):
        return None
    try:
        int_columns = np.array(ints, dtype="<i8").T.copy()
        float_columns = np.array(floats, dtype="<f8")
        probs = np.asarray(stack_probs(predictions), dtype="<f8")
    except (OverflowError, ValueError):  # outside int64 or float range, or ragged probs
        return None
    labels = int_columns[3:]
    if probs.ndim != 2 or not probs.shape[1] or labels.min() < 0 or labels.max() >= object_space.size:
        return None
    columns = dict(zip(_COLUMNS, int_columns))
    columns.update(boxes=float_columns[:, :8].copy(), label_scores=float_columns[:, 8:].copy(), probs=probs)
    exact = (int not in float_types and np.isfinite(float_columns).all() and np.isfinite(probs).all()
             and all(isinstance(name, str) for name in object_space.names))
    return list(image_ids), columns, bool(exact)


def _distinct_boxes(boxes: np.ndarray) -> tuple[list[list[float]], np.ndarray]:
    """The distinct 32-byte rows of ``boxes`` (``(P, 8)`` float64: subject, object) and each corner's row.

    Rows are told apart by their bytes, so -0.0 and 0.0 stay apart. The index
    array runs subject, object, subject, ... in pair order.
    """
    distinct, which = np.unique(boxes.reshape(-1, 4).view("V32").ravel(), return_inverse=True)
    return distinct.view(boxes.dtype).reshape(-1, 4).tolist(), which


def _pair_lines(predictions: list[PairPrediction], names: tuple[str, ...]) -> Iterator[str]:
    """The JSON line of each pair, one encoder call per pair: text for values the columns do not hold exactly."""
    for pair in predictions:
        yield COMPACT_JSON.encode({
            "image_id": pair.image_id,
            "subj_id": pair.subj_id,
            "obj_id": pair.obj_id,
            "subj_label": names[pair.subj_label],
            "obj_label": names[pair.obj_label],
            "subj_box": [pair.subj_box.x1, pair.subj_box.y1, pair.subj_box.x2, pair.subj_box.y2],
            "obj_box": [pair.obj_box.x1, pair.obj_box.y1, pair.obj_box.x2, pair.obj_box.y2],
            "subj_score": pair.subj_score,
            "obj_score": pair.obj_score,
            "probs": np.asarray(pair.probs, dtype=np.float64).tolist(),
        }) + "\n"


def _column_lines(image_ids: list[str], columns: dict, names: tuple[str, ...]) -> Iterator[str]:
    """The same JSON lines from the columns: each image id, label name and distinct box formatted once.

    Strings go through the encoder's own escaping and floats through
    ``float.__repr__``, as ``json`` writes them.
    """
    image_text = [f'{{"image_id":{encode_basestring_ascii(image_id)},"subj_id":' for image_id in image_ids]
    label_text = list(map(encode_basestring_ascii, names))
    rows, which = _distinct_boxes(columns["boxes"])
    box_text = ["[" + ",".join(map(float.__repr__, row)) + "]" for row in rows]
    corners = which.reshape(-1, 2)
    ints = [columns[name] for name in ("image", "subj_id", "obj_id", "subj_label", "obj_label")]
    for start in range(0, len(corners), LINES_PER_WRITE):
        chunk = slice(start, start + LINES_PER_WRITE)
        yield from (
            f'{image_text[i]}{s},"obj_id":{o},"subj_label":{label_text[s_label]},'
            f'"obj_label":{label_text[o_label]},"subj_box":{box_text[s_box]},"obj_box":{box_text[o_box]},'
            f'"subj_score":{s_score!r},"obj_score":{o_score!r},"probs":[{",".join(map(float.__repr__, row))}]}}\n'
            for i, s, o, s_label, o_label, (s_box, o_box), (s_score, o_score), row in zip(
                *(column[chunk].tolist() for column in ints), corners[chunk].tolist(),
                columns["label_scores"][chunk].tolist(), columns["probs"][chunk].tolist(),
            )
        )


def save_predictions(
    predictions: list[PairPrediction],
    object_space: LabelSpace,
    path: str | Path,
) -> None:
    """Serialize pair predictions as JSON lines (labels stored as names, ``probs`` last), plus their companion.

    The lines are formatted from the companion's columns, with the bytes
    ``json`` would write; values the columns do not hold exactly (see
    ``_columns``) are encoded pair by pair instead. The binary companion
    (``ingest.save_with_companion``; read by ``load_predictions``) is written
    only when every value reads back from the JSON lines as it is stored;
    otherwise an earlier companion is removed.
    """
    names = object_space.names
    table = _columns(predictions, object_space)
    if table is None:
        return save_with_companion(path, _pair_lines(predictions, names), None)
    image_ids, columns, exact = table
    count, num_predicates = columns["probs"].shape
    header = {
        "format": COMPANION_FORMAT, "version": COMPANION_VERSION, "count": count,
        "num_predicates": num_predicates, "object_labels": list(names), "image_ids": image_ids,
    }
    lines = _column_lines(image_ids, columns, names) if exact else _pair_lines(predictions, names)
    save_with_companion(path, lines, (header, columns))


def _load_companion(
    path: str | Path, object_space: LabelSpace, num_predicates: int
) -> list[PairPrediction] | None:
    """The pairs stored in ``path``'s companion; None when it is missing or anything about it is in doubt."""
    expected = {"format": COMPANION_FORMAT, "version": COMPANION_VERSION, "object_labels": list(object_space.names)}
    loaded = load_companion(path, expected, _COLUMNS)
    if loaded is None:
        return None
    header, columns = loaded
    count, image_ids = header.get("count"), header["image_ids"]
    image, subj_id, obj_id, subj_label, obj_label, boxes, label_scores, probs = columns.values()
    if not (  # the JSON lines' value checks, vectorised; entries below 1e300 / C sum to a finite number
        type(count) is int and count > 0 and num_predicates > 0
        and [column.shape for column in columns.values()]
        == [(count,)] * 5 + [(count, 8), (count, 2), (count, num_predicates)]
        and 0 <= image.min() and image.max() < len(image_ids)
        and 0 <= min(subj_label.min(), obj_label.min())
        and max(subj_label.max(), obj_label.max()) < object_space.size
        and np.isfinite(boxes).all() and ((0.0 <= label_scores) & (label_scores < math.inf)).all()
        and (probs >= 0.0).all() and probs.max() < 1e300 / num_predicates
    ):
        return None
    # An object's box recurs in every pair it is part of: one BoundingBox per distinct row.
    rows, which = _distinct_boxes(boxes)
    made = list(itertools.starmap(BoundingBox, rows))
    corners = [made[k] for k in which.tolist()]  # subject, object, subject, ... in pair order
    return [
        PairPrediction(image_ids[i], s, o, s_label, o_label, s_box, o_box, row, s_score, o_score)
        for i, s, o, s_label, o_label, s_box, o_box, row, (s_score, o_score) in zip(
            image.tolist(), subj_id.tolist(), obj_id.tolist(), subj_label.tolist(), obj_label.tolist(),
            corners[0::2], corners[1::2], probs, label_scores.tolist(),
        )
    ]


def load_predictions(
    path: str | Path, object_space: LabelSpace, num_predicates: int
) -> list[PairPrediction]:
    """Read the JSON lines ``save_predictions`` writes, each value through ``ingest``'s field vocabulary.

    Invalid JSON, a missing key or a refused value (a boolean is not a number;
    probs and label scores are finite and non-negative, ``num_predicates`` of
    them; box coordinates are finite) raise ``ParseError`` naming the line.
    When ``path``'s companion still matches it (format, version, label names,
    shapes, its own digests and that of ``path``'s bytes) and its values pass
    the same checks, the pairs come from the companion's arrays instead: the
    same list, without parsing text. Any doubt falls back to the JSON lines.
    """
    predictions = _load_companion(path, object_space, num_predicates)
    if predictions is not None:
        return predictions
    label = object_space.index_of
    table = (  # in PairPrediction's field order
        ("image_id", string), ("subj_id", integer), ("obj_id", integer),
        ("subj_label", label), ("obj_label", label), ("subj_box", box), ("obj_box", box),
        ("probs", scores(num_predicates)), ("subj_score", number), ("obj_score", number),
    )
    count, records = read_jsonl(path)
    probs = np.empty((count, num_predicates))  # one matrix; each pair's probs is a row of it
    predictions: list[PairPrediction] = []
    for row, record in enumerate(records):
        try:
            pair = PairPrediction(*parse_fields(record, table))
        except ValueError as err:
            raise ParseError(path, row + 1, str(err)) from None
        probs[row] = pair.probs
        pair.probs = probs[row]
        predictions.append(pair)
    return predictions
