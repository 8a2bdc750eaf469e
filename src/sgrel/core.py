"""Core domain model: label spaces, box geometry, and a split's annotations as columns with their invariants."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Label-level identity of a relation: (subject label, predicate, object label).
Signature = tuple[int, int, int]

OBJECT = "object"
PREDICATE = "predicate"


class AnnotationError(ValueError):
    """An operation received data that breaks its preconditions."""


@dataclass(frozen=True)
class LabelSpace:
    """Ordered, immutable set of label names; index = position in ``names``."""

    kind: str
    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (OBJECT, PREDICATE):
            raise ValueError(f"label space kind must be 'object' or 'predicate', got {self.kind!r}")
        index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if not name:
                raise ValueError(f"empty label name at index {i}")
            if name in index:
                raise ValueError(f"duplicate label {name!r} at index {i}")
            index[name] = i
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown {self.kind} label {name!r}") from None

    def same_labels(self, other: "LabelSpace") -> bool:
        return self.kind == other.kind and self.names == other.names




def box_overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of xyxy boxes ``a`` and ``b`` (``(..., 4)``, broadcast)."""
    ix = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter, area_a + area_b - inter


def offsets(counts: list[int] | np.ndarray) -> np.ndarray:
    """Where each of back-to-back segments of the given lengths starts, then their total."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def owners(bounds: np.ndarray) -> np.ndarray:
    """The segment that owns each element of back-to-back segments with these ``offsets``."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def repeats(*keys: np.ndarray) -> np.ndarray:
    """Which rows hold the same values in every one of ``keys`` (1-D, of one length) as an earlier row."""
    order = np.lexsort(keys)  # a stable sort: equal rows keep their order
    stacked = np.stack(keys)[:, order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:][(stacked[:, 1:] == stacked[:, :-1]).all(axis=0)]] = True
    return repeated


@dataclass(frozen=True, eq=False)
class Dataset:
    """A split's annotations as columns in file order, plus the label spaces and feature dimension they obey.

    Image ``i`` is ``image_ids[i]``, ``sizes[i]`` (width, height) pixels; it owns object rows
    ``object_offsets[i]:object_offsets[i + 1]`` and triple rows ``triple_offsets[i]:triple_offsets[i + 1]``.
    A triple names its subject and object by object id within its image. Each column is converted to its
    dtype; one of another shape, or offsets that do not start at 0 or decrease, raise ``ValueError``.
    """

    split: str
    object_space: LabelSpace
    predicate_space: LabelSpace
    d_roi: int
    image_ids: tuple[str, ...]
    sizes: np.ndarray           # (I, 2) float64
    object_offsets: np.ndarray  # (I + 1,) int64
    triple_offsets: np.ndarray  # (I + 1,) int64
    object_ids: np.ndarray      # (N,) int64
    labels: np.ndarray          # (N,) int64 object label indices
    boxes: np.ndarray           # (N, 4) float64 xyxy
    features: np.ndarray        # (N, d_roi) float64
    triples: np.ndarray         # (T, 3) int64 subject id, predicate index, object id

    def __post_init__(self) -> None:
        object.__setattr__(self, "image_ids", tuple(self.image_ids))

        def column(name: str, dtype: type, *shape: int) -> np.ndarray:
            array = np.asarray(getattr(self, name), dtype=dtype)
            if array.shape != shape:
                raise ValueError(f"{self.split} dataset: {name} has shape {array.shape}, expected {shape}")
            object.__setattr__(self, name, array)
            return array

        for name in ("object_offsets", "triple_offsets"):
            bounds = column(name, np.int64, len(self.image_ids) + 1)
            if bounds[0] != 0 or (bounds[1:] < bounds[:-1]).any():
                raise ValueError(f"{self.split} dataset: {name} must start at 0 and never decrease")
        n_objects = int(self.object_offsets[-1])
        column("sizes", np.float64, len(self.image_ids), 2)
        column("object_ids", np.int64, n_objects)
        column("labels", np.int64, n_objects)
        column("boxes", np.float64, n_objects, 4)
        column("features", np.float64, n_objects, self.d_roi)
        column("triples", np.int64, int(self.triple_offsets[-1]), 3)

    @property
    def annotations(self) -> tuple[str, ...]:
        """One entry per image, its id: the length that callers counting a split's images read."""
        return self.image_ids

    def num_triples(self) -> int:
        return len(self.triples)

    def end_rows(self) -> np.ndarray:
        """``(T, 2)``: the object row of each triple's subject and object, the first of its image with that id.

        An id that no object of the triple's image has raises ``AnnotationError`` naming the image and the id.
        """
        rows = _end_rows(self)
        dangling = np.flatnonzero(rows < 0)
        if dangling.size:
            triple, end = divmod(int(dangling[0]), 2)
            image = int(np.searchsorted(self.triple_offsets, triple, side="right")) - 1
            raise AnnotationError(f"image {self.image_ids[image]}: dangling object_id {self.triples[triple, 2 * end]}")
        return rows

    def signatures(self) -> np.ndarray:
        """``(T, 3)``: each triple's label-level identity (subject label, predicate, object label)."""
        rows = self.end_rows()
        return np.stack([self.labels[rows[:, 0]], self.triples[:, 1], self.labels[rows[:, 1]]], axis=1)


def _end_rows(dataset: Dataset) -> np.ndarray:
    """``Dataset.end_rows``, with -1 for an id that no object of the triple's image has."""
    d = dataset
    if not len(d.object_ids):
        return np.full((len(d.triples), 2), -1)
    # Each (image, object id) as one integer: the image times the number of distinct ids, plus the id's rank.
    ids, rank = np.unique(np.concatenate([d.object_ids, d.triples[:, [0, 2]].ravel()]), return_inverse=True)
    keys = np.concatenate([owners(d.object_offsets), owners(d.triple_offsets).repeat(2)]) * len(ids) + rank
    object_keys, end_keys = keys[: len(d.object_ids)], keys[len(d.object_ids) :]
    order = np.argsort(object_keys, kind="stable")
    rows = order[np.minimum(np.searchsorted(object_keys[order], end_keys), len(order) - 1)]
    return np.where(object_keys[rows] == end_keys, rows, -1).reshape(-1, 2)


def validate_annotation(dataset: Dataset, feature_sizes: np.ndarray | None = None) -> tuple[int, list[str]] | None:
    """The first image of ``dataset`` that breaks an annotation invariant, with its violations (its size, then
    object by object, then triple by triple); None when every image is valid. ``feature_sizes`` holds each
    object's feature length as read (``d_roi`` when not given); an object of another length has no feature row.

    Violations are data, not failures: this never raises on bad content.
    """
    d = dataset
    object_image, triple_image = owners(d.object_offsets), owners(d.triple_offsets)
    bad_size = ~(d.sizes > 0.0).all(axis=1)
    infinite = (d.sizes == math.inf).any(axis=1)
    (width, height), (x1, y1, x2, y2) = d.sizes[object_image].T, d.boxes.T
    duplicate_id = repeats(object_image, d.object_ids)
    bad_label = (d.labels < 0) | (d.labels >= d.object_space.size)
    mismatch = np.zeros(len(d.labels), dtype=bool) if feature_sizes is None else feature_sizes != d.d_roi
    non_finite = ~np.isfinite(d.features).all(axis=1)
    degenerate = ~((x1 < x2) & (y1 < y2))
    outside = ~((0.0 <= x1) & (x1 <= width) & (0.0 <= y1) & (y1 <= height) & (x2 <= width) & (y2 <= height))
    subj, pred, obj = d.triples.T
    dangling = _end_rows(d) < 0
    bad_pred = (pred < 0) | (pred >= d.predicate_space.size)
    duplicate_triple = repeats(triple_image, subj, pred, obj)
    image_bad = bad_size | infinite
    image_bad[object_image[duplicate_id | bad_label | mismatch | non_finite | degenerate | outside]] = True
    image_bad[triple_image[(subj == obj) | dangling.any(axis=1) | bad_pred | duplicate_triple]] = True
    if not image_bad.any():
        return None

    i = int(np.argmax(image_bad))
    violations = []
    width, height = d.sizes[i].tolist()
    if bad_size[i]:
        violations.append(f"non-positive image size {width}x{height}")
    elif infinite[i]:
        violations.append(f"infinite image size {width}x{height}")
    for row in range(d.object_offsets[i], d.object_offsets[i + 1]):
        object_id = int(d.object_ids[row])
        tag = f"object {object_id}"
        if duplicate_id[row]:
            violations.append(f"duplicate object_id {object_id}")
        if bad_label[row]:
            violations.append(f"{tag}: label index {d.labels[row]} outside object space of size {d.object_space.size}")
        if mismatch[row]:
            violations.append(f"{tag}: feature dimension mismatch (got {feature_sizes[row]}, expected {d.d_roi})")
        elif non_finite[row]:
            violations.append(f"{tag}: non-finite feature values")
        if degenerate[row]:
            violations.append(f"{tag}: degenerate box ({', '.join(map(str, d.boxes[row].tolist()))})")
        elif outside[row]:
            violations.append(f"{tag}: box outside image bounds")
    start = d.triple_offsets[i]
    for k, (s, p, o) in enumerate(d.triples[start : d.triple_offsets[i + 1]].tolist()):
        tag = f"triple {k}"
        if s == o:
            violations.append(f"{tag}: subject and object are the same instance")
        for end, missing in zip((s, o), dangling[start + k]):
            if missing:
                violations.append(f"{tag}: dangling object_id {end}")
        if bad_pred[start + k]:
            violations.append(
                f"{tag}: predicate index {p} outside predicate space of size {d.predicate_space.size}"
            )
        if duplicate_triple[start + k]:
            violations.append(f"{tag}: duplicate triple ({s}, {p}, {o})")
    return i, violations
