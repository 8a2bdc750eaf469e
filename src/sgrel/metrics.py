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
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import Dataset, LabelSpace, Signature, box_overlap, owners, repeats
from .ingest import LINES_PER_WRITE, ParseError, _float_reprs, box, integer, load_companion, number, parse_fields
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


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Model output for ordered object pairs, one row per pair, in predict's order (image, subject, object).

    ``image`` indexes ``image_ids``, which holds exactly the ids that have
    rows, in order of first appearance. Each pair has its predicted labels,
    xyxy boxes and label confidences, and a distribution over predicates.
    """

    image_ids: tuple[str, ...]
    image: np.ndarray       # (P,) int64
    subj_id: np.ndarray
    obj_id: np.ndarray
    subj_label: np.ndarray
    obj_label: np.ndarray
    subj_box: np.ndarray    # (P, 4) float64
    obj_box: np.ndarray
    subj_score: np.ndarray  # (P,) float64
    obj_score: np.ndarray
    probs: np.ndarray       # (P, C) float64

    @classmethod
    def of_objects(cls, dataset: Dataset, image: np.ndarray, subj: np.ndarray, obj: np.ndarray,
                   probs: np.ndarray) -> "PredictionSet":
        """Pairs of ``dataset``'s object rows ``subj`` and ``obj`` in its images ``image`` (ascending): their ids,
        labels and boxes, unit label scores and ``probs``; ``image_ids`` keeps the images that have rows."""
        has_rows = np.bincount(image, minlength=len(dataset.image_ids)) > 0
        ids, labels, boxes = dataset.object_ids, dataset.labels, dataset.boxes
        return cls(
            tuple(image_id for image_id, kept in zip(dataset.image_ids, has_rows.tolist()) if kept),
            (np.cumsum(has_rows) - 1)[image], ids[subj], ids[obj], labels[subj], labels[obj], boxes[subj],
            boxes[obj], np.ones(len(image)), np.ones(len(image)), probs,
        )

    def __len__(self) -> int:
        return len(self.image)

    def __getitem__(self, rows: int | slice | np.ndarray) -> "PredictionSet":
        return PredictionSet(self.image_ids, *(column[rows] for column in list(vars(self).values())[1:]))

    def pair(self, row: int) -> tuple[str, tuple[int, int]]:
        """The image id and the (subject id, object id) of a row, as messages name a pair."""
        return self.image_ids[self.image[row]], (int(self.subj_id[row]), int(self.obj_id[row]))


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
            payload["per_predicate"] = [
                {"name": name, "gt_count": count, **{f"recall@{k}": value for k, value in zip(self.ks, recalls)}}
                for name, count, recalls in self.per_predicate(predicate_space)
            ]
        return payload

    def per_predicate(self, predicate_space: LabelSpace) -> Iterator[tuple[str, int, list[float | None]]]:
        """Each predicate's name, GT count and recall at each K (None where it has no GT)."""
        for j, name in enumerate(predicate_space.names):
            recalls = (self.per_predicate_recall[k][j] for k in self.ks)
            yield name, int(self.predicate_gt_counts[j]), [None if np.isnan(r) else float(r) for r in recalls]


@dataclass(frozen=True, eq=False)
class RankedTriples:
    """Pair columns, named as in the predictions, plus each pair's top predicate and triple score; or, from
    ``ground_truth``, the same columns of GT triples, each of score 1."""

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
        return RankedTriples(*(column[rows] for column in vars(self).values()))


def build_ranked(predictions: PredictionSet, num_predicates: int) -> dict[str, RankedTriples]:
    """Group pair predictions per image and rank them (descending score).

    Each pair contributes its top predicate only (graph constraint); the triple
    score is the predicate score times both label confidences. Ties are broken
    by instance ids so ranking is deterministic. Probs of another width than
    ``num_predicates``, a pair repeated within an image and a triple score that
    is not finite raise ``ValueError``.
    """
    if not len(predictions):
        return {}
    p = predictions
    if p.probs.shape[1:] != (num_predicates,):
        raise ValueError(f"prediction shape mismatch: expected ({num_predicates},) predicate scores")

    repeated = np.flatnonzero(repeats(p.image, p.subj_id, p.obj_id))
    if repeated.size:
        image_id, pair = p.pair(repeated[0])
        raise ValueError(f"image {image_id}: duplicate prediction for pair {pair} violates the graph constraint")
    top = p.probs.argmax(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        score = p.probs[np.arange(len(top)), top] * p.subj_score * p.obj_score
    bad = np.flatnonzero(~np.isfinite(score))
    if bad.size:
        image_id, pair = p.pair(bad[0])
        raise ValueError(f"image {image_id}: pair {pair} has a non-finite triple score")

    order = np.lexsort((p.obj_id, p.subj_id, -score, p.image))
    ranked = RankedTriples(p.subj_id, p.obj_id, p.subj_label, p.obj_label, p.subj_box, p.obj_box, top, score)[order]
    bounds = np.searchsorted(p.image[order], np.arange(len(p.image_ids) + 1)).tolist()
    return {image_id: ranked[bounds[i] : bounds[i + 1]] for i, image_id in enumerate(p.image_ids)}


def iou_matrix(boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """IoU of xyxy ``boxes[i]`` and ``gt_boxes[j]`` at ``[i, j, ...]``; 0 where their union is not positive."""
    inter, union = box_overlap(boxes[:, None], gt_boxes[None])
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0)


def _untried(tried: dict[int, int], idx: int) -> int:
    """The least GT index >= ``idx`` not tried; ``tried`` maps a tried j to an h > j with j..h-1 all tried."""
    while idx in tried:
        tried[idx] = tried.get(tried[idx], tried[idx])
        idx = tried[idx]
    return idx


def match_triples(triples: RankedTriples, gt: RankedTriples, k: int, protocol: str) -> dict[int, int]:
    """Match the top-``k`` ranked triples to an image's GT triples ``gt``; GT index -> first matching rank.

    Each prediction consumes at most one GT triple; processing in rank order
    with augmenting paths makes the matched set as large as any assignment
    could achieve. A matched GT triple stays matched, so the triples matched
    within the top ``j <= k`` are those whose rank is below ``j``.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    top = triples[:k]
    if not (len(top) and len(gt)):
        return {}
    compatible = (  # (top, GT): may this prediction consume this GT triple?
        (top.pred[:, None] == gt.pred) & (top.subj_label[:, None] == gt.subj_label)
        & (top.obj_label[:, None] == gt.obj_label)
    )
    if protocol == SGGEN:
        ends = np.stack([gt.subj_box, gt.obj_box], axis=1)
        overlaps = iou_matrix(np.stack([top.subj_box, top.obj_box], axis=1), ends)
        compatible &= (overlaps >= SGGEN_IOU_THRESHOLD).all(axis=2)
    else:
        compatible &= (top.subj_id[:, None] == gt.subj_id) & (top.obj_id[:, None] == gt.obj_id)
    ranks, gt_indices = np.nonzero(compatible)
    bounds, gt_indices = np.searchsorted(ranks, np.arange(len(top) + 1)).tolist(), gt_indices.tolist()
    options = [gt_indices[a:b] for a, b in zip(bounds, bounds[1:])]  # compatible GT indices per rank, ascending

    owner: dict[int, int] = {}  # gt idx -> position in `top` that holds it now
    first: dict[int, int] = {}  # gt idx -> rank whose augmenting path matched it
    for rank in [rank for rank, opts in enumerate(options) if opts]:
        # Depth-first search for an augmenting path on a stack of [position, options tried], not by recursion.
        # Each GT triple is tried once per search, and a run of tried ones is skipped in one step.
        tried: dict[int, int] = {}
        stack = [[rank, 0]]
        while stack:
            pos, i = stack[-1]
            opts = options[pos]
            while i < len(opts) and opts[i] in tried:
                i = bisect_left(opts, _untried(tried, opts[i]), i)
            if i == len(opts):  # a dead end: back up to the position that led here
                stack.pop()
                continue
            stack[-1][1] = i + 1
            tried[opts[i]] = opts[i] + 1
            if opts[i] in owner:  # held: its holder must move to another GT triple
                stack.append([owner[opts[i]], 0])
                continue
            for pos, i in stack:  # free: each position on the path takes its last try
                first.setdefault(options[pos][i - 1], rank)
                owner[options[pos][i - 1]] = pos
            break
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


def mric_at_k(per_predicate_recall: np.ndarray, info: InfoWeights) -> float | None:
    """Sum of recall times information content (bits) over predicates with GT; None when none has GT."""
    recalls = np.asarray(per_predicate_recall, dtype=np.float64)
    observed = ~np.isnan(recalls)
    return float(np.sum(recalls[observed] * info.bits[observed])) if observed.any() else None


def ground_truth(test: Dataset) -> RankedTriples:
    """The split's GT triples in file order as ranked-triple columns, each of score 1."""
    subj, obj = test.end_rows().T
    subj_id, pred, obj_id = test.triples.T
    return RankedTriples(subj_id, obj_id, test.labels[subj], test.labels[obj], test.boxes[subj], test.boxes[obj], pred,
                         np.ones(len(pred)))


def evaluate(
    predictions: PredictionSet,
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
    unknown = ranked.keys() - set(test.image_ids)
    if unknown:
        first = next(image_id for image_id in ranked if image_id in unknown)
        count = sum(len(ranked[image_id]) for image_id in unknown)
        raise ValueError(
            f"{count} predictions for image ids not in the {test.split} split, first {first!r}"
        )
    max_k = max(ks, default=0)
    gt = ground_truth(test)
    bounds = test.triple_offsets.tolist()
    rank = np.full(len(gt), max_k)  # per GT triple of the split: the first matching rank
    for i, image_id in enumerate(test.image_ids):
        first_rank = match_triples(ranked.get(image_id, ()), gt[bounds[i] : bounds[i + 1]], max_k, protocol)
        rank[[bounds[i] + idx for idx in first_rank]] = list(first_rank.values())
    image, pred = owners(test.triple_offsets), gt.pred
    zs = np.zeros(len(gt), dtype=bool)
    if zero_shot is not None:
        zs[:] = [signature in zero_shot for signature in map(tuple, test.signatures().tolist())]
    n_images = len(test.image_ids)
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
        for name, count, recalls in report.per_predicate(predicate_space):
            writer.writerow([name, count, *("" if r is None else repr(r) for r in recalls)])


COMPANION_FORMAT = "sgrel-predictions"
COMPANION_VERSION = 1
# The companion's arrays, in file order, with their file dtypes; boxes are subject then object xyxy.
_COLUMNS = {
    "image": "<i8", "subj_id": "<i8", "obj_id": "<i8", "subj_label": "<i8", "obj_label": "<i8",
    "boxes": "<f8", "label_scores": "<f8", "probs": "<f8",
}


def _distinct_boxes(boxes: np.ndarray) -> tuple[list[list[float]], np.ndarray]:
    """The distinct 32-byte rows of ``boxes`` (``(P, 8)`` float64: subject, object) and each corner's row.

    Rows are told apart by their bytes, so -0.0 and 0.0 stay apart. The index
    array runs subject, object, subject, ... in pair order.
    """
    distinct, which = np.unique(boxes.reshape(-1, 4).view("V32").ravel(), return_inverse=True)
    return distinct.view(boxes.dtype).reshape(-1, 4).tolist(), which


def line_prefixes(image_ids: tuple[str, ...]) -> list[str]:
    """Each image id's JSON-line start, ``{"image_id":<id>,"subj_id":``, escaped as ``json`` writes it."""
    return [f'{{"image_id":{encode_basestring_ascii(image_id)},"subj_id":' for image_id in image_ids]


def _column_lines(image_ids: tuple[str, ...], columns: dict, names: tuple[str, ...]) -> Iterator[str]:
    """Each pair's JSON line from the columns: each image id, label name and distinct box formatted once.

    Strings go through the encoder's own escaping and floats are the
    ``float.__repr__`` text ``json`` writes: probs through ``_float_reprs``
    one write chunk at a time, the rest through ``float.__repr__``.
    """
    image_text = line_prefixes(image_ids)
    label_text = list(map(encode_basestring_ascii, names))
    rows, which = _distinct_boxes(columns["boxes"])
    box_text = ["[" + ",".join(map(float.__repr__, row)) + "]" for row in rows]
    corners = which.reshape(-1, 2)
    ints = [columns[name] for name in ("image", "subj_id", "obj_id", "subj_label", "obj_label")]
    probs = columns["probs"]
    for start in range(0, len(corners), LINES_PER_WRITE):
        chunk = slice(start, start + LINES_PER_WRITE)
        yield from (
            f'{image_text[i]}{s},"obj_id":{o},"subj_label":{label_text[s_label]},'
            f'"obj_label":{label_text[o_label]},"subj_box":{box_text[s_box]},"obj_box":{box_text[o_box]},'
            f'"subj_score":{s_score!r},"obj_score":{o_score!r},"probs":[{b",".join(row).decode()}]}}\n'
            for i, s, o, s_label, o_label, (s_box, o_box), (s_score, o_score), row in zip(
                *(column[chunk].tolist() for column in ints), corners[chunk].tolist(),
                columns["label_scores"][chunk].tolist(),
                _float_reprs(probs[chunk].ravel()).reshape(probs[chunk].shape).tolist(),
            )
        )


def save_predictions(predictions: PredictionSet, object_space: LabelSpace, path: str | Path) -> None:
    """Serialize pair predictions as JSON lines (labels stored as names, ``probs`` last), plus their companion.

    The lines are formatted from the columns, with the bytes ``json`` would
    write; the binary companion (``ingest.save_with_companion``; read by
    ``load_predictions``) holds the same columns. A label outside
    ``object_space`` or a float that is not finite, which no reader accepts,
    raises ``ValueError`` naming ``path`` and the first such pair before
    anything is written. No pairs give an empty file and no companion.
    """
    p = predictions
    columns = {name: np.asarray(column, dtype=_COLUMNS[name]) for name, column in zip(_COLUMNS, (
        p.image, p.subj_id, p.obj_id, p.subj_label, p.obj_label, np.concatenate([p.subj_box, p.obj_box], axis=1),
        np.stack([p.subj_score, p.obj_score], axis=1), p.probs,
    ))}
    labels = np.stack([p.subj_label, p.obj_label], axis=1)
    for problem, ok in (
        ("a label outside the object labels", ((0 <= labels) & (labels < object_space.size)).all(axis=1)),
        ("a non-finite value", np.isfinite(columns["boxes"]).all(axis=1)
         & np.isfinite(columns["label_scores"]).all(axis=1) & np.isfinite(p.probs).all(axis=1)),
    ):
        bad = np.flatnonzero(~ok)
        if bad.size:
            image_id, pair = p.pair(bad[0])
            raise ValueError(f"{path}: image {image_id}: pair {pair} holds {problem}")
    names = object_space.names
    header = {
        "format": COMPANION_FORMAT, "version": COMPANION_VERSION, "count": len(p),
        "num_predicates": p.probs.shape[1], "object_labels": list(names), "image_ids": list(p.image_ids),
    }
    save_with_companion(path, _column_lines(p.image_ids, columns, names), (header, columns) if len(p) else None)


def _load_companion(path: str | Path, object_space: LabelSpace, num_predicates: int) -> PredictionSet | None:
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
    return PredictionSet(tuple(image_ids), image, subj_id, obj_id, subj_label, obj_label,
                         boxes[:, :4], boxes[:, 4:], label_scores[:, 0], label_scores[:, 1], probs)


def load_predictions(path: str | Path, object_space: LabelSpace, num_predicates: int) -> PredictionSet:
    """Read the JSON lines ``save_predictions`` writes, each value through ``ingest``'s field vocabulary.

    Invalid JSON, a missing key or a refused value (a boolean is not a number;
    probs and label scores are finite and non-negative, ``num_predicates`` of
    them; box coordinates are finite) raise ``ParseError`` naming the line.
    When ``path``'s companion still matches it (format, version, label names,
    shapes, its own digests and that of ``path``'s bytes) and its values pass
    the same checks, the pairs come from the companion's arrays instead: the
    same set, without parsing text. Any doubt falls back to the JSON lines.
    """
    predictions = _load_companion(path, object_space, num_predicates)
    if predictions is not None:
        return predictions
    label = object_space.index_of
    table = (
        ("image_id", string), ("subj_id", integer), ("obj_id", integer),
        ("subj_label", label), ("obj_label", label), ("subj_box", box), ("obj_box", box),
        ("probs", scores(num_predicates)), ("subj_score", number), ("obj_score", number),
    )
    count, records = read_jsonl(path)
    image_index: dict[str, int] = {}  # image id -> index, in order of first appearance
    ints = np.empty((count, 5), dtype=np.int64)  # image, subject id, object id, subject label, object label
    floats = np.empty((count, 10))  # subject box, object box, subject score, object score
    probs = np.empty((count, num_predicates))
    for row, record in enumerate(records):
        try:
            image_id, *ids, subj_box, obj_box, probs[row], subj_score, obj_score = parse_fields(record, table)
        except ValueError as err:
            raise ParseError(path, row + 1, str(err)) from None
        ints[row] = (image_index.setdefault(image_id, len(image_index)), *ids)
        floats[row] = (*subj_box, *obj_box, subj_score, obj_score)
    return PredictionSet(tuple(image_index), *ints.T, floats[:, :4], floats[:, 4:8], floats[:, 8], floats[:, 9], probs)
