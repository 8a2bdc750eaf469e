"""The synthetic corpus drawing that made scalar generator calls per box and per predicate, kept as the differential oracle.

Each definition is the replaced code unchanged: ``_random_box`` (four scalar ``uniform`` draws), ``_Images``, which
stores each box and feature as it is drawn, ``_generate_images``, which draws each predicate with
``Generator.choice``, ``_add_coverage_images`` and ``generate``, which builds the train split twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sgrel.core import OBJECT, PREDICATE, Dataset, LabelSpace, Signature, offsets, owners
from sgrel.ingest import EmbeddingTable, dataset_signatures
from sgrel.seeding import substream
from sgrel.synth import (
    IMAGE_SIZE, TEST_FRACTION, VAL_FRACTION, GenerativeMap, SynthConfig, SynthData, _label_names, _num_clusters,
    zipf_probabilities,
)


def _random_box(rng: np.random.Generator, size: float) -> tuple[float, float, float, float]:
    x1 = rng.uniform(0.0, 0.75 * size)
    y1 = rng.uniform(0.0, 0.75 * size)
    w = rng.uniform(0.05 * size, 0.25 * size)
    h = rng.uniform(0.05 * size, 0.25 * size)
    return (x1, y1, min(x1 + w, size), min(y1 + h, size))


@dataclass(eq=False)
class _Images:
    """Generated images as growing columns, in the order they are drawn."""

    image_ids: list[str] = field(default_factory=list)
    object_counts: list[int] = field(default_factory=list)
    triple_counts: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    boxes: list[tuple[float, float, float, float]] = field(default_factory=list)
    features: list[np.ndarray] = field(default_factory=list)
    triples: list[tuple[int, int, int]] = field(default_factory=list)

    def add(self, image_id: str, labels: list[int], preds: list[int], rng: np.random.Generator, cfg: SynthConfig,
            anchors: np.ndarray) -> None:
        """One image of objects with ``labels`` (ids in order; a box, then a feature, drawn for each in turn)
        and triple ``t`` from object ``2t`` to object ``2t + 1`` with predicate ``preds[t]``."""
        self.image_ids.append(image_id)
        self.object_counts.append(len(labels))
        self.triple_counts.append(len(preds))
        self.labels += labels
        for label in labels:
            self.boxes.append(_random_box(rng, IMAGE_SIZE))
            self.features.append(anchors[label] + rng.normal(0.0, cfg.noise_sigma, anchors.shape[1]))
        self.triples += [(2 * t, pred, 2 * t + 1) for t, pred in enumerate(preds)]

    def dataset(self, split: str, object_space: LabelSpace, predicate_space: LabelSpace, cfg: SynthConfig) -> Dataset:
        """The images as a split; each image's object ids count from 0."""
        bounds = offsets(self.object_counts)
        return Dataset(
            split, object_space, predicate_space, cfg.d_roi, self.image_ids,
            np.full((len(self.image_ids), 2), IMAGE_SIZE), bounds, offsets(self.triple_counts),
            np.arange(bounds[-1]) - bounds[owners(bounds)], self.labels, np.array(self.boxes).reshape(-1, 4),
            np.array(self.features).reshape(-1, cfg.d_roi), np.array(self.triples, dtype=np.int64).reshape(-1, 3),
        )


def _generate_images(
    rng: np.random.Generator,
    count: int,
    prefix: str,
    cfg: SynthConfig,
    zipf_p: np.ndarray,
    allowed_pairs: list[list[tuple[int, int]]],
    anchors: np.ndarray,
) -> _Images:
    images = _Images()
    for n in range(count):
        n_triples = int(rng.integers(cfg.min_triples, cfg.max_triples + 1))
        labels: list[int] = []
        preds: list[int] = []
        for _ in range(n_triples):
            k = int(rng.choice(cfg.c_pred, p=zipf_p))
            pool = allowed_pairs[k]
            s_label, o_label = pool[int(rng.integers(len(pool)))]
            labels.extend([s_label, o_label])
            preds.append(k)
        for _ in range(int(rng.integers(0, cfg.max_distractors + 1))):
            labels.append(int(rng.integers(cfg.c_obj)))
        images.add(f"{prefix}-{n:05d}", labels, preds, rng, cfg, anchors)
    return images


def _add_coverage_images(
    images: _Images,
    rng: np.random.Generator,
    signatures: list[Signature],
    cfg: SynthConfig,
    anchors: np.ndarray,
) -> None:
    """Minimal extra train images guaranteeing every given signature occurs."""
    for n, chunk_start in enumerate(range(0, len(signatures), cfg.max_triples)):
        chunk = signatures[chunk_start : chunk_start + cfg.max_triples]
        labels = [label for s_label, _, o_label in chunk for label in (s_label, o_label)]
        images.add(f"train-cover-{n:05d}", labels, [pred for _, pred, _ in chunk], rng, cfg, anchors)


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
    test = _generate_images(
        substream(cfg.seed, "synth.test"), n_test, "test", cfg, zipf_p, full_pairs, anchors
    ).dataset("test", object_space, predicate_space, cfg)

    # Withhold an exact fraction of distinct test signatures from train.
    test_signatures = sorted(dataset_signatures(test))
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

    train = _generate_images(
        substream(cfg.seed, "synth.train"), n_train, "train", cfg, zipf_p, train_pairs, anchors
    )
    train_signatures = dataset_signatures(train.dataset("train", object_space, predicate_space, cfg))
    missing = sorted((set(test_signatures) - withheld) - train_signatures)
    _add_coverage_images(train, substream(cfg.seed, "synth.coverage"), missing, cfg, anchors)
    val = _generate_images(
        substream(cfg.seed, "synth.val"), n_val, "val", cfg, zipf_p, train_pairs, anchors
    )
    return SynthData(
        train=train.dataset("train", object_space, predicate_space, cfg),
        val=val.dataset("val", object_space, predicate_space, cfg),
        test=test,
        object_embeddings=EmbeddingTable(space=object_space, vectors=object_vectors),
        predicate_embeddings=EmbeddingTable(space=predicate_space, vectors=predicate_vectors),
        map=gen_map,
        withheld=frozenset(withheld),
    )
