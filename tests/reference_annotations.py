"""The per-object annotation model that the columnar ``Dataset`` replaced, kept as the differential oracle.

Each definition is the replaced code unchanged: the model (``BoundingBox``, ``ObjectInstance``, ``Triple``,
``SceneGraphAnnotation`` and the ``Dataset`` of annotations), ``validate_annotation`` and
``triple_signature``; the ``box`` field parser; the annotation reader (``_companion_dataset``,
``load_annotations``) and writer (``_annotation_columns``, ``_annotation_lines``, ``annotations_to_jsonl``,
``save_annotations``); ``dataset_signatures`` and ``build_zero_shot_index``; ``PackedDataset`` and ``pack``;
``count_predicates`` and ``resample``; ``match_triples`` and ``evaluate``; ``oracle_predictions``, except that
``pack`` calls ``alignment._offsets`` by its new name, ``sgrel.core.offsets``. ``to_columns`` and
``to_objects`` convert between a dataset of annotations and the columns.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from sgrel import core
from sgrel.alignment import _segments, pair_geometry
from sgrel.core import AnnotationError, LabelSpace, Signature, offsets
from sgrel.ingest import (
    _ANNOTATION_COLUMNS, _NUMBER_TYPES, COMPACT_JSON, Fields, ParseError, _annotation_header, integer, json_list,
    load_companion, number, numbers, parse_fields, read_jsonl, save_with_companion, string,
)
from sgrel.metrics import (
    DEFAULT_KS, PREDCLS, PROTOCOLS, SGGEN, SGGEN_IOU_THRESHOLD, MetricReport, PredictionSet, RankedTriples,
    build_ranked, iou_matrix, mean_recall_at_k, mric_at_k, recall_at_k,
)
from sgrel.reweighting import InfoWeights
from sgrel.sampling import SamplingPlan
from sgrel.seeding import substream

logger = logging.getLogger("sgrel.ingest")


# --- the model (sgrel.core) ---------------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in xyxy pixel coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def xyxy(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def is_degenerate(self) -> bool:
        return not (self.x1 < self.x2 and self.y1 < self.y2)

    def clamped(self, width: float, height: float) -> "BoundingBox":
        """Box clipped to the image frame; may come out degenerate."""
        if 0.0 <= self.x1 <= width and 0.0 <= self.x2 <= width and (
            0.0 <= self.y1 <= height and 0.0 <= self.y2 <= height
        ):
            return self  # already inside: clipping would give the same coordinates
        return BoundingBox(
            x1=min(max(self.x1, 0.0), width),
            y1=min(max(self.y1, 0.0), height),
            x2=min(max(self.x2, 0.0), width),
            y2=min(max(self.y2, 0.0), height),
        )


@dataclass(frozen=True, eq=False)
class ObjectInstance:
    """One detected/annotated object: label index, box, and region feature."""

    object_id: int
    label: int
    box: BoundingBox
    feature: np.ndarray


@dataclass(frozen=True)
class Triple:
    """Directed relation between two object instances of one image."""

    subj: int
    pred: int
    obj: int


@dataclass(frozen=True, eq=False)
class SceneGraphAnnotation:
    """One image's objects and ground-truth relation triples (pixels never loaded)."""

    image_id: str
    width: float
    height: float
    objects: tuple[ObjectInstance, ...]
    triples: tuple[Triple, ...]
    _by_id: dict[int, ObjectInstance] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[int, ObjectInstance] = {}
        for obj in self.objects:
            by_id.setdefault(obj.object_id, obj)
        object.__setattr__(self, "_by_id", by_id)

    def object_by_id(self, object_id: int) -> ObjectInstance:
        try:
            return self._by_id[object_id]
        except KeyError:
            raise AnnotationError(
                f"image {self.image_id}: dangling object_id {object_id}"
            ) from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """A split's annotations plus the label spaces and feature dimension they obey."""

    split: str
    annotations: tuple[SceneGraphAnnotation, ...]
    object_space: LabelSpace
    predicate_space: LabelSpace
    d_roi: int

    def num_triples(self) -> int:
        return sum(len(a.triples) for a in self.annotations)


def validate_annotation(
    annotation: SceneGraphAnnotation,
    object_space: LabelSpace,
    predicate_space: LabelSpace,
    d_roi: int,
) -> list[str]:
    """Collect every invariant violation in ``annotation``; empty list means valid.

    Violations are data, not failures: this never raises on bad content.
    """
    violations: list[str] = []
    if not (annotation.width > 0 and annotation.height > 0):
        violations.append(
            f"non-positive image size {annotation.width}x{annotation.height}"
        )

    seen_ids: set[int] = set()
    for obj in annotation.objects:
        tag = f"object {obj.object_id}"
        if obj.object_id in seen_ids:
            violations.append(f"duplicate object_id {obj.object_id}")
        seen_ids.add(obj.object_id)
        if not 0 <= obj.label < object_space.size:
            violations.append(
                f"{tag}: label index {obj.label} outside object space of size {object_space.size}"
            )
        feature = np.asarray(obj.feature)
        if feature.ndim != 1 or feature.shape[0] != d_roi:
            violations.append(
                f"{tag}: feature dimension mismatch (got {feature.size}, expected {d_roi})"
            )
        elif not np.isfinite(feature).all():
            violations.append(f"{tag}: non-finite feature values")
        box = obj.box
        if box.is_degenerate():
            violations.append(f"{tag}: degenerate box ({box.x1}, {box.y1}, {box.x2}, {box.y2})")
        elif not (
            0 <= box.x1 <= annotation.width
            and 0 <= box.y1 <= annotation.height
            and box.x2 <= annotation.width
            and box.y2 <= annotation.height
        ):
            violations.append(f"{tag}: box outside image bounds")

    seen_triples: set[Triple] = set()
    for k, triple in enumerate(annotation.triples):
        tag = f"triple {k}"
        if triple.subj == triple.obj:
            violations.append(f"{tag}: subject and object are the same instance")
        for end in (triple.subj, triple.obj):
            if end not in seen_ids:
                violations.append(f"{tag}: dangling object_id {end}")
        if not 0 <= triple.pred < predicate_space.size:
            violations.append(
                f"{tag}: predicate index {triple.pred} outside predicate space of size {predicate_space.size}"
            )
        if triple in seen_triples:
            violations.append(
                f"{tag}: duplicate triple ({triple.subj}, {triple.pred}, {triple.obj})"
            )
        seen_triples.add(triple)

    return violations


def triple_signature(triple: Triple, annotation: SceneGraphAnnotation) -> Signature:
    """Label-level identity of a triple: (subject label, predicate, object label)."""
    subj = annotation.object_by_id(triple.subj)
    obj = annotation.object_by_id(triple.obj)
    return (subj.label, triple.pred, obj.label)


# --- the converter ------------------------------------------------------------------------------------------

def to_columns(dataset: Dataset) -> core.Dataset:
    """The annotations as one columnar ``sgrel.core.Dataset``, in file order."""
    annotations = dataset.annotations
    objects = [o for a in annotations for o in a.objects]
    return core.Dataset(
        split=dataset.split,
        object_space=dataset.object_space,
        predicate_space=dataset.predicate_space,
        d_roi=dataset.d_roi,
        image_ids=tuple(a.image_id for a in annotations),
        sizes=np.array([(a.width, a.height) for a in annotations], dtype=np.float64).reshape(-1, 2),
        object_offsets=offsets([len(a.objects) for a in annotations]),
        triple_offsets=offsets([len(a.triples) for a in annotations]),
        object_ids=np.array([o.object_id for o in objects], dtype=np.int64),
        labels=np.array([o.label for o in objects], dtype=np.int64),
        boxes=np.array([o.box.xyxy for o in objects], dtype=np.float64).reshape(-1, 4),
        features=np.array([o.feature for o in objects], dtype=np.float64).reshape(len(objects), dataset.d_roi),
        triples=np.array([(t.subj, t.pred, t.obj) for a in annotations for t in a.triples],
                         dtype=np.int64).reshape(-1, 3),
    )


def to_objects(dataset: core.Dataset) -> Dataset:
    """The columns as a dataset of annotations with plain ``int``, ``float`` and ``str`` values; each feature
    is a row of the columns' feature matrix."""
    d = dataset
    objects = [ObjectInstance(i, label, BoundingBox(*box), feature) for i, label, box, feature in zip(
        d.object_ids.tolist(), d.labels.tolist(), d.boxes.tolist(), d.features)]
    triples = list(itertools.starmap(Triple, d.triples.tolist()))
    o, t = d.object_offsets.tolist(), d.triple_offsets.tolist()
    annotations = tuple(
        SceneGraphAnnotation(image_id, width, height, tuple(objects[o[i]:o[i + 1]]), tuple(triples[t[i]:t[i + 1]]))
        for i, (image_id, (width, height)) in enumerate(zip(d.image_ids, d.sizes.tolist()))
    )
    return Dataset(d.split, annotations, d.object_space, d.predicate_space, d.d_roi)


# --- the reader and writer (sgrel.ingest) -------------------------------------------------------------------

def box(value: object) -> BoundingBox:
    """Four finite numbers ``[x1, y1, x2, y2]``."""
    if not (type(value) is list and len(value) == 4 and _NUMBER_TYPES.issuperset(map(type, value))):
        raise TypeError(f"expected [x1, y1, x2, y2], got {value!r}")
    if not all(map(math.isfinite, value)):
        raise ValueError(f"coordinates must be finite, got {value!r}")
    return BoundingBox(*map(float, value))


def _companion_dataset(
    path: str | Path, object_space: LabelSpace, predicate_space: LabelSpace, d_roi: int, split: str
) -> Dataset | None:
    """The dataset in ``path``'s companion; None when it is missing or in doubt, or holds a value that the
    parser would refuse, clamp or drop (its checks and ``validate_annotation``'s, vectorised)."""
    loaded = load_companion(path, _annotation_header(object_space, predicate_space, d_roi), _ANNOTATION_COLUMNS)
    if loaded is None:
        return None
    image_ids, columns = loaded[0]["image_ids"], loaded[1]
    sizes, object_counts, triple_counts, object_ids, labels, boxes, features, triples = columns.values()
    n_images, n_objects, n_triples = len(image_ids), int(object_counts.sum()), int(triple_counts.sum())
    shapes = [(n_images, 2), (n_images,), (n_images,), (n_objects,), (n_objects,), (n_objects, 4),
              (n_objects, d_roi), (n_triples, 3)]
    if [array.shape for array in columns.values()] != shapes or (object_counts < 0).any() or (triple_counts < 0).any():
        return None
    image, triple_image = (np.repeat(np.arange(n_images), counts) for counts in (object_counts, triple_counts))
    (width, height), (x1, y1, x2, y2), (subj, pred, obj) = sizes[image].T, boxes.T, triples.T
    # Each (image, object id) as one integer: the image times the number of distinct ids, plus the id's rank.
    ids, rank = np.unique(np.concatenate([object_ids, subj, obj]), return_inverse=True)
    place = np.concatenate([image, triple_image, triple_image]) * len(ids) + rank
    object_at, ends_at = np.sort(place[:n_objects]), place[n_objects:]
    triple_keys = np.stack([ends_at[:n_triples], pred, ends_at[n_triples:]])
    triple_keys = triple_keys[:, np.lexsort(triple_keys)]  # equal triples end up side by side
    if not (
        ((0.0 < sizes) & (sizes < math.inf)).all() and np.isfinite(features).all()
        and ((0 <= labels) & (labels < object_space.size)).all()
        and ((0 <= pred) & (pred < predicate_space.size)).all()
        # inside the frame, so the parser's clamp changes nothing, and not degenerate
        and ((0.0 <= x1) & (x1 < x2) & (x2 <= width) & (0.0 <= y1) & (y1 < y2) & (y2 <= height)).all()
        and (object_at[1:] != object_at[:-1]).all()  # no object id twice in an image
        and np.isin(ends_at, object_at).all() and (subj != obj).all()
        and (triple_keys[:, 1:] != triple_keys[:, :-1]).any(axis=0).all()  # no triple the parser would drop
    ):
        return None
    made = map(ObjectInstance, object_ids.tolist(), labels.tolist(), itertools.starmap(BoundingBox, boxes.tolist()),
               features)  # consumed image by image, in file order
    made_triples = itertools.starmap(Triple, triples.tolist())
    annotations = tuple(
        SceneGraphAnnotation(image_id, w, h, tuple(itertools.islice(made, n)), tuple(itertools.islice(made_triples, t)))
        for image_id, (w, h), n, t in zip(image_ids, sizes.tolist(), object_counts.tolist(), triple_counts.tolist())
    )
    return Dataset(split, annotations, object_space, predicate_space, d_roi)


def load_annotations(
    path: str | Path,
    object_space: LabelSpace,
    predicate_space: LabelSpace,
    d_roi: int,
    split: str = "train",
) -> Dataset:
    """Read a JSON-lines annotation file into a validated ``Dataset``.

    A missing key or a value the field vocabulary refuses aborts the load, naming
    the line, the ``objects[i]``/``relations[i]`` position and the key. Boxes are
    clamped to the image frame; duplicate ground-truth triples are dropped with a
    logged count. An ``image_id`` that an earlier line holds, or any other
    invariant violation, aborts the load with the line number. The same dataset
    comes from ``path``'s companion (``save_annotations``) instead while it
    still matches and its values need no refusal, clamp or drop.
    """
    dataset = _companion_dataset(path, object_space, predicate_space, d_roi, split)
    if dataset is not None:
        return dataset
    image_fields: Fields = (
        ("image_id", string), ("width", number), ("height", number), ("objects", json_list), ("relations", json_list)
    )
    object_fields: Fields = (
        ("id", integer), ("label", object_space.index_of), ("box", box),
        ("feature", lambda value: np.asarray(numbers(value), dtype=np.float64)),
    )
    relation_fields: Fields = (("subj", integer), ("pred", predicate_space.index_of), ("obj", integer))
    annotations: list[SceneGraphAnnotation] = []
    first_line: dict[str, int] = {}  # image id -> line that holds it
    total_duplicates = 0
    _, records = read_jsonl(path)
    for lineno, record in enumerate(records, start=1):
        try:
            image_id, width, height, objects, relations = parse_fields(record, image_fields)
            instances = []
            for i, entry in enumerate(objects):
                object_id, label, bounds, feature = parse_fields(entry, object_fields, f"objects[{i}]")
                instances.append(ObjectInstance(object_id, label, bounds.clamped(width, height), feature))
            triples = dict.fromkeys(  # first occurrence of each triple, in order
                Triple(*parse_fields(entry, relation_fields, f"relations[{i}]"))
                for i, entry in enumerate(relations)
            )
        except ValueError as err:
            raise ParseError(path, lineno, str(err)) from None
        if image_id in first_line:
            raise ParseError(path, lineno, f"image_id {image_id!r} repeats line {first_line[image_id]}")
        first_line[image_id] = lineno
        total_duplicates += len(relations) - len(triples)
        annotation = SceneGraphAnnotation(image_id, width, height, tuple(instances), tuple(triples))
        violations = validate_annotation(annotation, object_space, predicate_space, d_roi)
        if violations:
            raise ParseError(path, lineno, "; ".join(violations))
        annotations.append(annotation)
    if total_duplicates:
        logger.info("%s: dropped %d duplicate triples at ingest", path, total_duplicates)
    return Dataset(split, tuple(annotations), object_space, predicate_space, d_roi)


def _annotation_columns(dataset: Dataset) -> tuple[np.ndarray | None, dict[str, np.ndarray] | None]:
    """The objects' stacked features (None when they do not stack) and the companion's arrays; no arrays
    when the text would read a value otherwise: an id that is not a plain ``int`` or lies outside int64, a size or
    coordinate that is neither an ``int`` nor a ``float`` or overflows one, or a feature not ``d_roi`` long."""
    annotations = dataset.annotations
    objects = [obj for a in annotations for obj in a.objects]
    try:
        features = np.array([obj.feature for obj in objects], dtype=np.float64)
    except ValueError:  # features of different lengths
        return None, None
    sizes, boxes = [(a.width, a.height) for a in annotations], [obj.box.xyxy for obj in objects]
    object_ids = [obj.object_id for obj in objects]
    triples = [(t.subj, t.pred, t.obj) for a in annotations for t in a.triples]
    if not (
        set(map(type, object_ids + [end for subj, _, obj in triples for end in (subj, obj)])) <= {int}
        and all(kind is int or issubclass(kind, float)  # a bool is neither
                for kind in set(map(type, itertools.chain.from_iterable(sizes + boxes))))
        and type(dataset.d_roi) is int and (features.shape == (len(objects), dataset.d_roi) or not objects)
    ):
        return features, None
    try:
        columns = dict(zip(_ANNOTATION_COLUMNS, (
            np.array(sizes, dtype="<f8").reshape(-1, 2), np.array([len(a.objects) for a in annotations], "<i8"),
            np.array([len(a.triples) for a in annotations], "<i8"), np.array(object_ids, "<i8"),
            np.array([obj.label for obj in objects], "<i8"), np.array(boxes, "<f8").reshape(-1, 4),
            features.astype("<f8", copy=False).reshape(len(objects), dataset.d_roi),
            np.array(triples, "<i8").reshape(-1, 3),
        )))
    except (OverflowError, TypeError, ValueError):  # outside int64 or float range, or refused by the text writer
        return features, None
    return features, columns


def _annotation_lines(dataset: Dataset, features: np.ndarray | None) -> Iterator[str]:
    """The JSON line of each image, its objects' features from one ``tolist()`` of their rows of the stacked
    ``features`` (object by object when they do not stack)."""
    object_names, predicate_names = dataset.object_space.names, dataset.predicate_space.names
    end = 0
    for a in dataset.annotations:
        start, end = end, end + len(a.objects)
        rows = iter(features[start:end].tolist() if features is not None else
                    [np.asarray(obj.feature, dtype=np.float64).tolist() for obj in a.objects])
        yield COMPACT_JSON.encode({
            "image_id": a.image_id,
            "width": a.width,
            "height": a.height,
            "objects": [
                {"id": obj.object_id, "label": object_names[obj.label],
                 "box": [obj.box.x1, obj.box.y1, obj.box.x2, obj.box.y2], "feature": next(rows)}
                for obj in a.objects
            ],
            "relations": [{"subj": t.subj, "pred": predicate_names[t.pred], "obj": t.obj} for t in a.triples],
        }) + "\n"


def annotations_to_jsonl(dataset: Dataset) -> str:
    """Serialize a dataset in the format ``load_annotations`` reads (lossless round-trip)."""
    return "".join(_annotation_lines(dataset, _annotation_columns(dataset)[0]))


def save_annotations(dataset: Dataset, path: str | Path) -> None:
    """Write ``annotations_to_jsonl``'s text to ``path`` and its companion: a header with ``image_ids``, both label
    spaces' names and ``d_roi``, then ``_ANNOTATION_COLUMNS`` (none when ``_annotation_columns`` gives none)."""
    features, columns = _annotation_columns(dataset)
    header = {**_annotation_header(dataset.object_space, dataset.predicate_space, dataset.d_roi),
              "image_ids": [a.image_id for a in dataset.annotations]}
    save_with_companion(path, _annotation_lines(dataset, features), None if columns is None else (header, columns))


def dataset_signatures(dataset: Dataset) -> set[Signature]:
    return {triple_signature(t, a) for a in dataset.annotations for t in a.triples}


def build_zero_shot_index(train: Dataset, test: Dataset) -> frozenset[Signature]:
    """Signatures of ``test`` that never occur in ``train`` (novel label combinations)."""
    if not train.object_space.same_labels(test.object_space) or not (
        train.predicate_space.same_labels(test.predicate_space)
    ):
        raise ValueError("mismatched label spaces between train and test")
    novel = dataset_signatures(test) - dataset_signatures(train)
    return frozenset(novel)


# --- pack (sgrel.alignment) ---------------------------------------------------------------------------------

@dataclass(eq=False)
class PackedDataset:
    """A split's columns, as the dataset holds them, plus each triple's classifier input; built once when
    training or prediction starts.

    Image ``i`` owns object rows ``obj_offsets[i]:obj_offsets[i + 1]`` and
    triple rows ``triple_offsets[i]:triple_offsets[i + 1]``.
    """

    dataset: Dataset
    features: np.ndarray        # (sum N, d_roi)
    object_ids: np.ndarray      # (sum N,)
    labels: np.ndarray          # (sum N,)
    boxes: np.ndarray           # (sum N, 4) xyxy
    sizes: np.ndarray           # (images, 2) width, height
    obj_offsets: np.ndarray     # (images + 1,)
    preds: np.ndarray           # (sum T,)
    triple_offsets: np.ndarray  # (images + 1,)
    pair_inputs: np.ndarray     # (sum T, 2*d_roi + GEOMETRY_DIM); model-independent

    @property
    def num_images(self) -> int:
        return len(self.dataset.image_ids)


def pack(dataset: Dataset) -> PackedDataset:
    """Flatten a split into the arrays the batched forward, backward and predict read."""
    annotations = dataset.annotations
    objects = [o for a in annotations for o in a.objects]
    obj_offsets = offsets([len(a.objects) for a in annotations])
    triple_offsets = offsets([len(a.triples) for a in annotations])

    def row(base: int, a: SceneGraphAnnotation, object_id: int) -> int:
        return base + a.objects.index(a.object_by_id(object_id))  # names a dangling id

    pairs = [(row(base, a, t.subj), row(base, a, t.obj))
             for base, a in zip(obj_offsets.tolist(), annotations) for t in a.triples]
    subj, obj = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    features = np.array([o.feature for o in objects], dtype=np.float64).reshape(-1, dataset.d_roi)
    boxes = np.array([(o.box.x1, o.box.y1, o.box.x2, o.box.y2) for o in objects]).reshape(-1, 4)
    sizes = np.array([(a.width, a.height) for a in annotations], dtype=np.float64).reshape(-1, 2)
    image, _ = _segments(np.diff(triple_offsets))
    geometry = pair_geometry(boxes[subj], boxes[obj], sizes[image])
    return PackedDataset(
        dataset=dataset,
        features=features,
        object_ids=np.array([o.object_id for o in objects], dtype=np.int64),
        labels=np.array([o.label for o in objects], dtype=np.int64),
        boxes=boxes,
        sizes=sizes,
        obj_offsets=obj_offsets,
        preds=np.array([t.pred for a in annotations for t in a.triples], dtype=np.int64),
        triple_offsets=triple_offsets,
        pair_inputs=np.concatenate([features[subj], features[obj], geometry], axis=1),
    )


# --- resampling (sgrel.sampling) ----------------------------------------------------------------------------

def count_predicates(dataset: Dataset) -> np.ndarray:
    """Triple count per predicate index over the whole dataset."""
    c = dataset.predicate_space.size
    preds = [t.pred for a in dataset.annotations for t in a.triples]
    return np.bincount(np.asarray(preds, dtype=np.int64), minlength=c)[:c]


def resample(train: Dataset, plan: SamplingPlan) -> Dataset:
    """Keep exactly ``plan.targets[j]`` triples per predicate, drawn without replacement.

    Annotations keep all their objects even when every triple is dropped, and
    within-annotation triple order is preserved. Deterministic given the plan's
    seed.
    """
    c = train.predicate_space.size
    if plan.counts.shape[0] != c:
        raise ValueError("plan does not cover this dataset's predicate space")

    # Global enumeration of triples per predicate, in dataset order.
    positions: list[list[tuple[int, int]]] = [[] for _ in range(c)]
    for a_idx, annotation in enumerate(train.annotations):
        for t_idx, triple in enumerate(annotation.triples):
            positions[triple.pred].append((a_idx, t_idx))

    rng = substream(plan.seed, "sampling.resample")
    kept: set[tuple[int, int]] = set()
    for pred in range(c):
        pool = positions[pred]
        target = int(plan.targets[pred])
        if len(pool) != int(plan.counts[pred]):
            raise ValueError(
                f"plan was built for different data: predicate {pred} has {len(pool)} "
                f"triples, plan recorded {int(plan.counts[pred])}"
            )
        if target >= len(pool):
            kept.update(pool)
            continue
        chosen = rng.choice(len(pool), size=target, replace=False)
        kept.update(pool[i] for i in chosen)

    annotations: list[SceneGraphAnnotation] = []
    for a_idx, annotation in enumerate(train.annotations):
        triples = tuple(
            t for t_idx, t in enumerate(annotation.triples) if (a_idx, t_idx) in kept
        )
        annotations.append(replace(annotation, triples=triples))
    return Dataset(
        split=train.split,
        annotations=tuple(annotations),
        object_space=train.object_space,
        predicate_space=train.predicate_space,
        d_roi=train.d_roi,
    )


# --- matching and the report (sgrel.metrics) ----------------------------------------------------------------

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


# --- the oracle (sgrel.synth) -------------------------------------------------------------------------------

def oracle_predictions(test: Dataset, gen_map) -> PredictionSet:
    """Perfect predictions for every annotated pair, read off the generative map."""
    image_ids: dict[str, int] = {}  # image id -> index, in order of first appearance
    rows = []  # image, subject id, object id, subject label, object label, gold predicate
    boxes = []
    for annotation in test.annotations:
        for ends in dict.fromkeys((t.subj, t.obj) for t in annotation.triples):  # each annotated pair once
            subj, obj = map(annotation.object_by_id, ends)
            gold = gen_map.predicate_for(subj.label, obj.label)
            if gold is None:
                raise ValueError(
                    f"image {annotation.image_id}: pair ({subj.label}, {obj.label}) "
                    "is not covered by the generative map"
                )
            rows.append((image_ids.setdefault(annotation.image_id, len(image_ids)), *ends, subj.label, obj.label, gold))
            boxes.append((subj.box.xyxy, obj.box.xyxy))
    image, subj_id, obj_id, subj_label, obj_label, gold = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    subj_box, obj_box = np.array(boxes, dtype=np.float64).reshape(-1, 2, 4).transpose(1, 0, 2)
    probs = np.zeros((len(rows), test.predicate_space.size))
    probs[np.arange(len(rows)), gold] = 1.0
    return PredictionSet(tuple(image_ids), image, subj_id, obj_id, subj_label, obj_label, subj_box, obj_box,
                         np.ones(len(rows)), np.ones(len(rows)), probs)
