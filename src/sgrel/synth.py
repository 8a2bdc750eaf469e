"""Deterministic synthetic scene-graph data for desk-scale experiments.

Object labels live in embedding-space clusters, each predicate is owned by one
ordered cluster pair, and the gold predicate of a relation is a pure function
of the two object labels. Region features are noisy linear images of the label
embeddings, so a semantics-aware model can in principle generalize to label
pairs it never saw together (the zero-shot split withholds exactly a configured
fraction of test signatures from train). Predicate frequencies follow a Zipf
law to reproduce a long tail.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import OBJECT, PREDICATE, Dataset, LabelSpace, Signature, offsets, owners, repeats
from .ingest import EmbeddingTable, integer, json_list, parse_fields, read_json
from .metrics import PredictionSet
from .seeding import substream

IMAGE_SIZE = 1000.0  # width and height of every generated image
TEST_FRACTION = 0.3  # shares of `images` drawn for the test and val splits; train takes the rest
VAL_FRACTION = 0.1
# Each object's box is four uniform draws, x1, y1, width and height, each in [low, high).
_BOX_LOW = np.array([0.0, 0.0, 0.05, 0.05]) * IMAGE_SIZE
_BOX_HIGH = np.array([0.75, 0.75, 0.25, 0.25]) * IMAGE_SIZE


@dataclass(frozen=True)
class SynthConfig:
    """Sizes, skew, and noise of the generated corpus; everything hangs off one seed."""

    c_obj: int = 30
    c_pred: int = 20
    d_roi: int = 32
    d_emb: int = 16
    images: int = 300
    zipf_s: float = 1.5
    zero_shot_fraction: float = 0.1
    noise_sigma: float = 0.5
    seed: int = 0
    # Generator shape knobs.
    min_triples: int = 1
    max_triples: int = 4
    max_distractors: int = 2
    embedding_scale: float = 160.0
    intra_cluster_sigma: float = 1.0

    def validate(self) -> None:
        for key in ("c_obj", "c_pred", "d_roi", "d_emb", "images"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if not 0.0 <= self.zero_shot_fraction < 1.0:
            raise ValueError("zero_shot_fraction must lie in [0, 1)")
        for key in ("zipf_s", "noise_sigma", "intra_cluster_sigma", "max_distractors"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if not 0.0 < self.embedding_scale < math.inf:
            raise ValueError(f"embedding_scale must be finite and > 0, got {self.embedding_scale!r}")
        if self.min_triples < 1 or self.max_triples < self.min_triples:
            raise ValueError("need 1 <= min_triples <= max_triples")
        n_clusters = _num_clusters(self.c_pred)
        if self.c_obj < n_clusters:
            raise ValueError(
                f"infeasible config: c_obj must be at least {n_clusters} "
                f"for c_pred={self.c_pred}"
            )


@dataclass(frozen=True, eq=False)
class GenerativeMap:
    """Ground truth of the generator: which predicate a label pair produces."""

    label_cluster: tuple[int, ...]
    pair_predicate: dict[tuple[int, int], int]

    def predicate_for(self, subj_label: int, obj_label: int) -> int | None:
        key = (self.label_cluster[subj_label], self.label_cluster[obj_label])
        return self.pair_predicate.get(key)

    def to_json_dict(self) -> dict:
        return {
            "label_cluster": list(self.label_cluster),
            "pairs": sorted([i, j, p] for (i, j), p in self.pair_predicate.items()),
        }


@dataclass(eq=False)
class SynthData:
    train: Dataset
    val: Dataset
    test: Dataset
    object_embeddings: EmbeddingTable
    predicate_embeddings: EmbeddingTable
    map: GenerativeMap
    withheld: frozenset[Signature]


def _num_clusters(c_pred: int) -> int:
    return int(math.ceil(math.sqrt(c_pred)))


def zipf_probabilities(c: int, s: float) -> np.ndarray:
    """Rank-frequency law over predicate indices; s=0 degenerates to uniform."""
    weights = 1.0 / np.power(np.arange(1, c + 1, dtype=np.float64), s)
    return weights / weights.sum()


def _label_names(prefix: str, count: int) -> tuple[str, ...]:
    width = len(str(count - 1))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


@dataclass(eq=False)
class _Images:
    """Generated images as growing columns, in the order they are drawn."""

    image_ids: list[str] = field(default_factory=list)
    object_counts: list[int] = field(default_factory=list)
    triple_counts: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    uniforms: list[np.ndarray] = field(default_factory=list)  # (4,) per object, in [0, 1)
    noise: list[np.ndarray] = field(default_factory=list)  # (d_roi,) per object
    triples: list[tuple[int, int, int]] = field(default_factory=list)
    signatures: set[Signature] = field(default_factory=set)

    def add(self, image_id: str, labels: list[int], preds: list[int], rng: np.random.Generator,
            cfg: SynthConfig) -> None:
        """One image of objects with ``labels`` (ids in order) and triple ``t`` from object ``2t`` to object
        ``2t + 1`` with predicate ``preds[t]``. For each object in turn ``rng`` draws four uniforms for its box
        (x1, y1, width, height), then its ``d_roi`` feature-noise values."""
        self.image_ids.append(image_id)
        self.object_counts.append(len(labels))
        self.triple_counts.append(len(preds))
        self.labels += labels
        for _ in labels:
            self.uniforms.append(rng.random(4))
            self.noise.append(rng.normal(0.0, cfg.noise_sigma, cfg.d_roi))
        self.triples += [(2 * t, pred, 2 * t + 1) for t, pred in enumerate(preds)]
        self.signatures.update(zip(labels[::2], preds, labels[1::2]))

    def dataset(self, split: str, object_space: LabelSpace, predicate_space: LabelSpace, cfg: SynthConfig,
                anchors: np.ndarray) -> Dataset:
        """The images as a split; each image's object ids count from 0, and each feature is its label's
        anchor plus its noise. Boxes scale the uniforms as ``Generator.uniform`` does and clip to the image."""
        bounds = offsets(self.object_counts)
        x1, y1, w, h = (_BOX_LOW + (_BOX_HIGH - _BOX_LOW) * np.array(self.uniforms).reshape(-1, 4)).T
        labels = np.array(self.labels, dtype=np.int64)
        return Dataset(
            split, object_space, predicate_space, cfg.d_roi, self.image_ids,
            np.full((len(self.image_ids), 2), IMAGE_SIZE), bounds, offsets(self.triple_counts),
            np.arange(bounds[-1]) - bounds[owners(bounds)], labels,
            np.stack([x1, y1, np.minimum(x1 + w, IMAGE_SIZE), np.minimum(y1 + h, IMAGE_SIZE)], axis=1),
            anchors[labels] + np.array(self.noise).reshape(-1, cfg.d_roi),
            np.array(self.triples, dtype=np.int64).reshape(-1, 3),
        )


def _generate_images(
    rng: np.random.Generator,
    count: int,
    prefix: str,
    cfg: SynthConfig,
    zipf_p: np.ndarray,
    allowed_pairs: list[list[tuple[int, int]]],
) -> _Images:
    images = _Images()
    cdf = np.cumsum(zipf_p)  # as Generator.choice builds it; each predicate then takes one uniform
    cdf = (cdf / cdf[-1]).tolist()
    for n in range(count):
        n_triples = int(rng.integers(cfg.min_triples, cfg.max_triples + 1))
        labels: list[int] = []
        preds: list[int] = []
        for _ in range(n_triples):
            k = bisect_right(cdf, rng.random())
            pool = allowed_pairs[k]
            s_label, o_label = pool[int(rng.integers(len(pool)))]
            labels.extend([s_label, o_label])
            preds.append(k)
        for _ in range(int(rng.integers(0, cfg.max_distractors + 1))):
            labels.append(int(rng.integers(cfg.c_obj)))
        images.add(f"{prefix}-{n:05d}", labels, preds, rng, cfg)
    return images


def _add_coverage_images(
    images: _Images,
    rng: np.random.Generator,
    signatures: list[Signature],
    cfg: SynthConfig,
) -> None:
    """Minimal extra train images guaranteeing every given signature occurs."""
    for n, chunk_start in enumerate(range(0, len(signatures), cfg.max_triples)):
        chunk = signatures[chunk_start : chunk_start + cfg.max_triples]
        labels = [label for s_label, _, o_label in chunk for label in (s_label, o_label)]
        images.add(f"train-cover-{n:05d}", labels, [pred for _, pred, _ in chunk], rng, cfg)


def generate(cfg: SynthConfig) -> SynthData:
    """Produce train/val/test splits, both embedding tables, and the generative map.

    The test split is drawn first; a fraction of its distinct signatures is then
    withheld from train (and val) exactly, while every non-withheld test
    signature is forced to occur in train. Byte-identical output per seed.
    """
    cfg.validate()
    n_clusters = _num_clusters(cfg.c_pred)

    # Semantic layout: unit cluster directions, labels jittered around them.
    # Embedding tables are scaled up so refinement distances have contrast,
    # while region features are built from the unit-scale geometry.
    rng_emb = substream(cfg.seed, "synth.embeddings")
    unit_centers = rng_emb.normal(size=(n_clusters, cfg.d_emb))
    unit_centers = unit_centers / np.linalg.norm(unit_centers, axis=1)[:, None]
    centers = unit_centers * cfg.embedding_scale
    label_cluster = tuple(i % n_clusters for i in range(cfg.c_obj))
    label_jitter = rng_emb.normal(0.0, cfg.intra_cluster_sigma, (cfg.c_obj, cfg.d_emb))
    object_vectors = centers[list(label_cluster)] + label_jitter

    # One ordered cluster pair per predicate. Same-cluster pairs are assigned
    # first (they anchor a predicate right at its cluster), then cross-cluster
    # pairs; which predicate index a pair lands on is a seeded shuffle.
    rng_map = substream(cfg.seed, "synth.map")
    diagonal = [(i, i) for i in range(n_clusters)]
    off_diagonal = [(i, j) for i in range(n_clusters) for j in range(n_clusters) if i != j]
    pool = [diagonal[int(i)] for i in rng_map.permutation(len(diagonal))]
    pool += [off_diagonal[int(i)] for i in rng_map.permutation(len(off_diagonal))]
    chosen = pool[: cfg.c_pred]
    assignment = rng_map.permutation(cfg.c_pred)
    pair_predicate = {pair: int(assignment[i]) for i, pair in enumerate(chosen)}
    gen_map = GenerativeMap(label_cluster=label_cluster, pair_predicate=pair_predicate)

    # Predicate embeddings sit between the two clusters they connect (on the
    # cluster itself for same-cluster pairs), with small absolute jitter.
    home = {k: pair for pair, k in pair_predicate.items()}
    predicate_vectors = np.stack(
        [
            0.5 * (centers[home[k][0]] + centers[home[k][1]])
            + rng_emb.normal(0.0, 0.5 * cfg.intra_cluster_sigma, cfg.d_emb)
            for k in range(cfg.c_pred)
        ]
    )

    # Region-feature anchors: fixed linear image of the unit-scale label
    # geometry, renormalized so noise_sigma directly controls the SNR.
    unit_labels = unit_centers[list(label_cluster)] + label_jitter / cfg.embedding_scale
    projection = rng_emb.normal(size=(cfg.d_emb, cfg.d_roi)) / np.sqrt(cfg.d_emb)
    anchors = unit_labels @ projection
    anchors = anchors / np.linalg.norm(anchors, axis=1)[:, None]

    cluster_labels = [
        [i for i in range(cfg.c_obj) if label_cluster[i] == c] for c in range(n_clusters)
    ]
    full_pairs: list[list[tuple[int, int]]] = []
    for k in range(cfg.c_pred):
        ci, cj = home[k]
        full_pairs.append([(s, o) for s in cluster_labels[ci] for o in cluster_labels[cj]])

    zipf_p = zipf_probabilities(cfg.c_pred, cfg.zipf_s)
    n_test = int(round(cfg.images * TEST_FRACTION))
    n_val = int(round(cfg.images * VAL_FRACTION))
    n_train = max(cfg.images - n_test - n_val, 1)

    object_space = LabelSpace(kind=OBJECT, names=_label_names("obj", cfg.c_obj))
    predicate_space = LabelSpace(kind=PREDICATE, names=_label_names("pred", cfg.c_pred))
    test = _generate_images(substream(cfg.seed, "synth.test"), n_test, "test", cfg, zipf_p, full_pairs)

    # Withhold an exact fraction of distinct test signatures from train.
    test_signatures = sorted(test.signatures)
    n_withheld = int(round(cfg.zero_shot_fraction * len(test_signatures)))
    rng_withhold = substream(cfg.seed, "synth.withhold")
    withheld_idx = rng_withhold.choice(len(test_signatures), size=n_withheld, replace=False)
    withheld = {test_signatures[int(i)] for i in withheld_idx}

    train_pairs: list[list[tuple[int, int]]] = []
    for k in range(cfg.c_pred):
        kept = [(s, o) for s, o in full_pairs[k] if (s, k, o) not in withheld]
        if not kept:
            raise ValueError(
                f"infeasible config: withholding removed every label pair of predicate {k}; "
                "lower zero_shot_fraction"
            )
        train_pairs.append(kept)

    train = _generate_images(substream(cfg.seed, "synth.train"), n_train, "train", cfg, zipf_p, train_pairs)
    missing = sorted((set(test_signatures) - withheld) - train.signatures)
    _add_coverage_images(train, substream(cfg.seed, "synth.coverage"), missing, cfg)
    val = _generate_images(substream(cfg.seed, "synth.val"), n_val, "val", cfg, zipf_p, train_pairs)
    return SynthData(
        train=train.dataset("train", object_space, predicate_space, cfg, anchors),
        val=val.dataset("val", object_space, predicate_space, cfg, anchors),
        test=test.dataset("test", object_space, predicate_space, cfg, anchors),
        object_embeddings=EmbeddingTable(space=object_space, vectors=object_vectors),
        predicate_embeddings=EmbeddingTable(space=predicate_space, vectors=predicate_vectors),
        map=gen_map,
        withheld=frozenset(withheld),
    )


def oracle_predictions(test: Dataset, gen_map: GenerativeMap) -> PredictionSet:
    """Perfect predictions for every annotated pair, read off the generative map."""
    image = owners(test.triple_offsets)
    subj_id, _, obj_id = test.triples.T
    pair = ~repeats(image, subj_id, obj_id)  # each annotated pair once, where it first occurs
    image, (subj, obj) = image[pair], test.end_rows()[pair].T
    subj_label, obj_label = test.labels[subj], test.labels[obj]
    gold = [gen_map.predicate_for(s, o) for s, o in zip(subj_label.tolist(), obj_label.tolist())]
    if None in gold:
        at = gold.index(None)
        raise ValueError(
            f"image {test.image_ids[image[at]]}: pair ({subj_label[at]}, {obj_label[at]}) "
            "is not covered by the generative map"
        )
    probs = np.zeros((len(gold), test.predicate_space.size))
    probs[np.arange(len(gold)), gold] = 1.0
    return PredictionSet.of_objects(test, image, subj, obj, probs)


def save_map(gen_map: GenerativeMap, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(gen_map.to_json_dict(), sort_keys=True) + "\n", encoding="utf-8"
    )


def _integers(value: object) -> list[int]:
    return [integer(item) for item in json_list(value)]


def load_map(path: str | Path) -> GenerativeMap:
    """The map ``save_map`` wrote. A value outside ``ingest``'s field vocabulary raises ``ValueError`` naming
    ``path`` and the key or the ``pairs[i]`` row: clusters are integers, each pair row three of them."""
    clusters, rows = parse_fields(read_json(path), (("label_cluster", _integers), ("pairs", json_list)), str(path))
    pairs = {}
    for i, row in enumerate(rows):
        try:
            subj, obj, predicate = _integers(row)
        except (TypeError, ValueError) as err:  # a row that is not three long fails to unpack
            raise ValueError(f"{path}: pairs[{i}]: {err}") from None
        pairs[subj, obj] = predicate
    return GenerativeMap(tuple(clusters), pairs)
