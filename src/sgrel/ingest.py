"""Readers and writers for labels, annotations, embeddings, recall tables, and the zero-shot split."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    BoundingBox,
    Dataset,
    LabelSpace,
    ObjectInstance,
    SceneGraphAnnotation,
    Signature,
    Triple,
    triple_signature,
    validate_annotation,
)

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """A file failed to parse; carries path and 1-based line number."""

    def __init__(self, path: str | Path, line: int, message: str):
        self.path = str(path)
        self.line = line
        self.message = message
        super().__init__(f"{self.path}:{line}: {message}")


def read_json(path: str | Path) -> object:
    """The JSON document in ``path``; invalid JSON raises ``ParseError`` naming the line."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(path, err.lineno, f"invalid JSON: {err.msg}") from None


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """One semantic vector per label index of a space."""

    space: LabelSpace
    vectors: np.ndarray  # (C, dim) float64

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != self.space.size:
            raise ValueError(
                f"expected {self.space.size} vectors, got array of shape {vectors.shape}"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValueError("embedding table contains non-finite entries")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0.0):
            bad = self.space.names[int(np.argmax(norms == 0.0))]
            raise ValueError(f"zero-norm vector for label {bad!r}")
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def vector(self, index: int) -> np.ndarray:
        return self.vectors[index]


@dataclass(frozen=True, eq=False)
class RecallTable:
    """Per-predicate baseline recall in [0, 1], indexed like the predicate space."""

    values: np.ndarray  # (C_pred,)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("recall table must be a flat vector")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("recall values must lie in [0, 1]")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ZeroShotIndex:
    """Label-level signatures present in test but never seen in train."""

    signatures: frozenset[Signature]

    def __contains__(self, signature: Signature) -> bool:
        return signature in self.signatures

    def __len__(self) -> int:
        return len(self.signatures)


def load_labels(path: str | Path, kind: str) -> LabelSpace:
    """Read a one-label-per-line file; the index of a label is its line number."""
    names: list[str] = []
    seen: set[str] = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        name = raw.strip()
        if not name:
            raise ParseError(path, lineno, "empty label line")
        if name in seen:
            raise ParseError(path, lineno, f"duplicate label {name!r}")
        seen.add(name)
        names.append(name)
    return LabelSpace(kind=kind, names=tuple(names))


def _parse_annotation_record(
    record: dict,
    object_space: LabelSpace,
    predicate_space: LabelSpace,
) -> tuple[SceneGraphAnnotation, int]:
    width = float(record["width"])
    height = float(record["height"])
    objects = []
    for entry in record["objects"]:
        box = BoundingBox(*[float(v) for v in entry["box"]]).clamped(width, height)
        objects.append(
            ObjectInstance(
                object_id=int(entry["id"]),
                label=object_space.index_of(entry["label"]),
                box=box,
                feature=np.asarray(entry["feature"], dtype=np.float64),
            )
        )
    triples: list[Triple] = []
    seen: set[Triple] = set()
    duplicates = 0
    for entry in record["relations"]:
        triple = Triple(
            subj=int(entry["subj"]),
            pred=predicate_space.index_of(entry["pred"]),
            obj=int(entry["obj"]),
        )
        if triple in seen:
            duplicates += 1
            continue
        seen.add(triple)
        triples.append(triple)
    annotation = SceneGraphAnnotation(
        image_id=str(record["image_id"]),
        width=width,
        height=height,
        objects=tuple(objects),
        triples=tuple(triples),
    )
    return annotation, duplicates


def load_annotations(
    path: str | Path,
    object_space: LabelSpace,
    predicate_space: LabelSpace,
    d_roi: int,
    split: str = "train",
) -> Dataset:
    """Read a JSON-lines annotation file into a validated ``Dataset``.

    Boxes are clamped to the image frame; duplicate ground-truth triples are
    dropped with a logged count. Any remaining invariant violation aborts the
    load with the offending line number.
    """
    annotations: list[SceneGraphAnnotation] = []
    total_duplicates = 0
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            raise ParseError(path, lineno, "empty annotation line")
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ParseError(path, lineno, f"invalid JSON: {err.msg}") from err
        try:
            annotation, duplicates = _parse_annotation_record(
                record, object_space, predicate_space
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(path, lineno, f"malformed annotation record: {err}") from err
        total_duplicates += duplicates
        violations = validate_annotation(annotation, object_space, predicate_space, d_roi)
        if violations:
            raise ParseError(path, lineno, "; ".join(violations))
        annotations.append(annotation)
    if total_duplicates:
        logger.info("%s: dropped %d duplicate triples at ingest", path, total_duplicates)
    return Dataset(
        split=split,
        annotations=tuple(annotations),
        object_space=object_space,
        predicate_space=predicate_space,
        d_roi=d_roi,
    )


def annotation_to_record(annotation: SceneGraphAnnotation, dataset: Dataset) -> dict:
    return {
        "image_id": annotation.image_id,
        "width": annotation.width,
        "height": annotation.height,
        "objects": [
            {
                "id": obj.object_id,
                "label": dataset.object_space.names[obj.label],
                "box": [obj.box.x1, obj.box.y1, obj.box.x2, obj.box.y2],
                "feature": [float(v) for v in obj.feature],
            }
            for obj in annotation.objects
        ],
        "relations": [
            {
                "subj": t.subj,
                "pred": dataset.predicate_space.names[t.pred],
                "obj": t.obj,
            }
            for t in annotation.triples
        ],
    }


def annotations_to_jsonl(dataset: Dataset) -> str:
    """Serialize a dataset in the format ``load_annotations`` reads (lossless round-trip)."""
    lines = [
        json.dumps(annotation_to_record(a, dataset), separators=(",", ":"))
        for a in dataset.annotations
    ]
    return "".join(line + "\n" for line in lines)


def save_annotations(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(annotations_to_jsonl(dataset), encoding="utf-8")


def _pool_label_vector(
    label: str, token_vectors: dict[str, np.ndarray], path: str | Path
) -> np.ndarray:
    """Mean of the per-token vectors; multi-word labels average their tokens."""
    parts = label.split()
    vectors = []
    for token in parts:
        if token not in token_vectors:
            raise ValueError(f"{path}: no embedding for token {token!r} (label {label!r})")
        vectors.append(token_vectors[token])
    return np.mean(vectors, axis=0)


def load_embeddings(path: str | Path, space: LabelSpace) -> EmbeddingTable:
    """Read a token-per-line vector file and pool one vector per label of ``space``."""
    token_vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split(" ")
        if len(parts) < 2:
            raise ParseError(path, lineno, "expected 'token v1 v2 ... vD'")
        token = parts[0]
        if token in token_vectors:
            raise ParseError(path, lineno, f"duplicate token {token!r}")
        try:
            vector = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as err:
            raise ParseError(path, lineno, f"bad float: {err}") from err
        if dim is None:
            dim = vector.shape[0]
        elif vector.shape[0] != dim:
            raise ParseError(
                path, lineno, f"inconsistent dimension (got {vector.shape[0]}, expected {dim})"
            )
        token_vectors[token] = vector
    vectors = np.stack(
        [_pool_label_vector(label, token_vectors, path) for label in space.names]
    ) if space.size else np.zeros((0, dim or 0))
    return EmbeddingTable(space=space, vectors=vectors)


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write one 'token v1 ... vD' line per label; labels must be single tokens."""
    lines = []
    for name, vector in zip(table.space.names, table.vectors):
        if " " in name:
            raise ValueError(f"cannot serialize multi-word label {name!r} as one token")
        lines.append(name + " " + " ".join(repr(float(v)) for v in vector))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_recalls(path: str | Path, space: LabelSpace) -> RecallTable:
    """Read a {predicate-name: recall} JSON map covering every predicate, each recall in [0, 1]."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: recalls file must be a JSON object")
    values = np.zeros(space.size)
    missing = [name for name in space.names if name not in raw]
    if missing:
        raise ValueError(f"{path}: missing recall for predicates {missing}")
    unknown = [name for name in raw if name not in space.names]
    if unknown:
        raise ValueError(f"{path}: unknown predicates {unknown}")
    for name, value in raw.items():
        if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
            raise ValueError(f"{path}: recall of {name!r} must be a number in [0, 1], got {value!r}")
        values[space.index_of(name)] = value
    return RecallTable(values=values)


def dataset_signatures(dataset: Dataset) -> set[Signature]:
    signatures: set[Signature] = set()
    for annotation in dataset.annotations:
        for triple in annotation.triples:
            signatures.add(triple_signature(triple, annotation))
    return signatures


def build_zero_shot_index(train: Dataset, test: Dataset) -> ZeroShotIndex:
    """Signatures of ``test`` that never occur in ``train`` (novel label combinations)."""
    if not train.object_space.same_labels(test.object_space) or not (
        train.predicate_space.same_labels(test.predicate_space)
    ):
        raise ValueError("mismatched label spaces between train and test")
    novel = dataset_signatures(test) - dataset_signatures(train)
    return ZeroShotIndex(signatures=frozenset(novel))


def save_zero_shot_index(
    index: ZeroShotIndex, object_space: LabelSpace, predicate_space: LabelSpace, path: str | Path
) -> None:
    rows = sorted(
        [object_space.names[s], predicate_space.names[p], object_space.names[o]]
        for (s, p, o) in index.signatures
    )
    Path(path).write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")


def load_zero_shot_index(path: str | Path, object_space: LabelSpace, predicate_space: LabelSpace) -> ZeroShotIndex:
    """Read a JSON list of [subject, predicate, object] label rows; a bad row names the path and row."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of [subject, predicate, object] rows")
    signatures = set()
    for number, row in enumerate(rows, start=1):
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(name, str) for name in row)):
            raise ValueError(f"{path}: row {number}: expected [subject, predicate, object] labels, got {row!r}")
        try:
            signatures.add((object_space.index_of(row[0]), predicate_space.index_of(row[1]), object_space.index_of(row[2])))
        except KeyError as err:
            raise ValueError(f"{path}: row {number}: {err.args[0]}") from None
    return ZeroShotIndex(signatures=frozenset(signatures))
