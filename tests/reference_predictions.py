"""The list-of-pairs prediction code that ``PredictionSet`` replaced, kept as the differential oracle.

Each definition is the replaced code unchanged: ``PairPrediction``, ``stack_probs``, ``build_ranked``,
``evaluate``, the writer (``_columns``, ``_pair_lines``, ``save_predictions``), the reader
(``_load_companion``, ``load_predictions``), ``predict`` and ``refine_dataset``, with the embedding-based
``distance_vector`` and ``refinement_vector`` that it called once per label triple. ``to_set`` and
``to_pairs`` convert between a list of pairs and a ``PredictionSet``. The annotation model, ``PackedDataset``,
the ``box`` field parser and ``match_triples`` that they used come from ``reference_annotations``; ``predict``
reads its packed dataset's annotations, held as columns, through ``to_objects``.
"""

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from sgrel.alignment import RelationModel, _segments, _softmax_rows, pair_geometry
from sgrel.core import LabelSpace, Signature
from sgrel.ingest import COMPACT_JSON, EmbeddingTable, ParseError, integer, load_companion, number, parse_fields
from sgrel.ingest import read_jsonl, save_with_companion, scores, string
from sgrel.metrics import (
    _COLUMNS, COMPANION_FORMAT, COMPANION_VERSION, DEFAULT_KS, PREDCLS, PROTOCOLS, MetricReport, PredictionSet,
    RankedTriples, _column_lines, _distinct_boxes, mean_recall_at_k, mric_at_k, recall_at_k,
)
from sgrel.refinement import DEFAULT_ALPHA, refine
from sgrel.reweighting import InfoWeights

from reference_annotations import (
    BoundingBox, Dataset, PackedDataset, box, match_triples, to_objects, triple_signature,
)


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


def stack_probs(predictions: list[PairPrediction]) -> np.ndarray:
    """The pairs' predicate score vectors as one ``(P, C)`` float64 matrix (``P > 0``)."""
    return np.array([pair.probs for pair in predictions], dtype=np.float64)


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


def predict(model: RelationModel, data: PackedDataset) -> list[PairPrediction]:
    """Score every ordered object pair of every image (labels taken as given).

    Pairs come in image order, subject-major, object-minor.
    """
    n = np.diff(data.obj_offsets)
    image, k = _segments(n * (n - 1))
    s, j = np.divmod(k, n[image] - 1)
    base = data.obj_offsets[image]
    subj, obj = base + s, base + j + (j >= s)  # object j skips the subject's own slot

    # The classifier is linear: apply its subject and object blocks once per object, then gather.
    d = model.d_roi
    probs = _softmax_rows(
        (data.features @ model.w_cls[:d])[subj]
        + (data.features @ model.w_cls[d : 2 * d])[obj]
        + pair_geometry(data.boxes[subj], data.boxes[obj], data.sizes[image]) @ model.w_cls[2 * d :]
        + model.b_cls
    )

    annotations = to_objects(data.dataset).annotations
    objects = [o for a in annotations for o in a.objects]
    image_ids = [a.image_id for a in annotations]
    predictions: list[PairPrediction] = []
    for i, si, oi, p in zip(image.tolist(), subj.tolist(), obj.tolist(), probs):
        so, oo = objects[si], objects[oi]
        predictions.append(PairPrediction(
            image_ids[i], so.object_id, oo.object_id, so.label, oo.label, so.box, oo.box, p
        ))
    return predictions


def distance_vector(vector: np.ndarray, predicates: EmbeddingTable) -> np.ndarray:
    """Euclidean distance from ``vector`` to every predicate embedding."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (predicates.dim,):
        raise ValueError(
            f"dimension mismatch: vector has shape {vector.shape}, table dim {predicates.dim}"
        )
    return np.linalg.norm(predicates.vectors - vector, axis=1)


def refinement_vector(
    subj_emb: np.ndarray,
    obj_emb: np.ndarray,
    pred_emb: np.ndarray,
    predicates: EmbeddingTable,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Distance profile ``v`` over predicates: object-side and predicate-side profiles blended.

    ``alpha`` weighs how much the subject/object embeddings count against the
    originally predicted predicate's embedding.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * (
        distance_vector(subj_emb, predicates) + distance_vector(obj_emb, predicates)
    ) + (1.0 - alpha) * distance_vector(pred_emb, predicates)


def refine_dataset(
    predictions: list[PairPrediction],
    object_embeddings: EmbeddingTable,
    predicate_embeddings: EmbeddingTable,
    alpha: float = DEFAULT_ALPHA,
) -> list[PairPrediction]:
    """Refine every pair prediction's score vector and top predicate.

    The subject/object embeddings come from each pair's predicted labels, and
    the predicate-side embedding from the pre-refinement argmax predicate. One
    refinement vector serves every pair with the same three labels.
    """
    if not predictions:
        return []
    probs = stack_probs(predictions)
    slots: dict[tuple[int, int, int], int] = {}
    rows = [
        slots.setdefault((pair.subj_label, pair.obj_label, pre_top), len(slots))
        for pair, pre_top in zip(predictions, probs.argmax(axis=1).tolist())
    ]
    affinity = np.array([
        np.exp(-refinement_vector(
            object_embeddings.vectors[subj_label],
            object_embeddings.vectors[obj_label],
            predicate_embeddings.vectors[pre_top],
            predicate_embeddings,
            alpha,
        ))
        for subj_label, obj_label, pre_top in slots
    ])
    _, scores = refine(probs, affinity[rows])
    return [
        PairPrediction(
            pair.image_id, pair.subj_id, pair.obj_id, pair.subj_label, pair.obj_label,
            pair.subj_box, pair.obj_box, refined, pair.subj_score, pair.obj_score,
        )
        for pair, refined in zip(predictions, scores)
    ]


def to_set(pairs: list[PairPrediction], num_predicates: int = 0) -> PredictionSet:
    """The pairs as one ``PredictionSet``: image ids in order of first appearance, int64 and float64 columns.

    ``num_predicates`` is the width of the probs of no pairs.
    """
    image_index: dict[str, int] = {}
    ints = np.array([(image_index.setdefault(p.image_id, len(image_index)), p.subj_id, p.obj_id, p.subj_label,
                      p.obj_label) for p in pairs], dtype=np.int64).reshape(-1, 5)
    floats = np.array([(*p.subj_box.xyxy, *p.obj_box.xyxy, p.subj_score, p.obj_score) for p in pairs],
                      dtype=np.float64).reshape(-1, 10)
    probs = stack_probs(pairs) if pairs else np.zeros((0, num_predicates))
    return PredictionSet(tuple(image_index), *ints.T.copy(), floats[:, :4].copy(), floats[:, 4:8].copy(),
                         floats[:, 8].copy(), floats[:, 9].copy(), probs)


def to_pairs(predictions: PredictionSet) -> list[PairPrediction]:
    """The set's rows as pairs with plain ``int``, ``float`` and ``str`` values; probs are rows of its matrix."""
    p = predictions
    return [
        PairPrediction(p.image_ids[i], s, o, s_label, o_label, BoundingBox(*s_box), BoundingBox(*o_box), row,
                       s_score, o_score)
        for i, s, o, s_label, o_label, s_box, o_box, row, s_score, o_score in zip(
            p.image.tolist(), p.subj_id.tolist(), p.obj_id.tolist(), p.subj_label.tolist(), p.obj_label.tolist(),
            p.subj_box.tolist(), p.obj_box.tolist(), p.probs, p.subj_score.tolist(), p.obj_score.tolist(),
        )
    ]


def assert_same_set(actual: PredictionSet, expected: PredictionSet) -> None:
    """The same image ids, and every column of the same dtype, shape and values (NaN equal to NaN)."""
    assert actual.image_ids == expected.image_ids
    for f in fields(PredictionSet)[1:]:
        np.testing.assert_array_equal(getattr(actual, f.name), getattr(expected, f.name), strict=True, err_msg=f.name)
