"""Core domain model: label spaces, boxes, objects, triples, annotated scenes."""

from __future__ import annotations

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


def box_overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of xyxy boxes ``a`` and ``b`` (``(..., 4)``, broadcast)."""
    ix = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter, area_a + area_b - inter


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
