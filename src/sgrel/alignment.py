"""Contrastive region-text alignment and the minimal trainable relation model.

The model has two decoupled heads sharing the region features:

* a projection into the label-embedding space, trained with a symmetric
  contrastive loss over each image's objects (the matching label embedding is
  the positive, the image's other objects are the negatives, no temperature);
* a linear predicate classifier over [subject feature; object feature;
  8-dim pair geometry], trained with (optionally information-weighted)
  cross-entropy.

All gradients are analytic and checked against finite differences in the test
suite, so everything here sticks to plain float64 numpy.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import BoundingBox, Dataset, SceneGraphAnnotation
from .ingest import EmbeddingTable
from .metrics import PREDCLS, PairPrediction, build_ranked, match_triples, mean_recall_at_k
from .reweighting import DEFAULT_MU, InfoWeights, LossBundle, total_loss, uniform_weights, weighted_pred_loss
from .seeding import substream

logger = logging.getLogger(__name__)

GEOMETRY_DIM = 8
NORM_EPS = 1e-12


@dataclass(eq=False)
class RelationModel:
    """Learnable parameters: feature projection plus linear predicate classifier."""

    w_proj: np.ndarray  # (d_roi, d_emb)
    w_cls: np.ndarray   # (2*d_roi + GEOMETRY_DIM, c_pred)
    b_cls: np.ndarray   # (c_pred,)

    @classmethod
    def init(cls, d_roi: int, d_emb: int, c_pred: int, rng: np.random.Generator) -> "RelationModel":
        cls_in = 2 * d_roi + GEOMETRY_DIM
        return cls(
            w_proj=rng.normal(size=(d_roi, d_emb)) / np.sqrt(d_roi),
            w_cls=rng.normal(size=(cls_in, c_pred)) / np.sqrt(cls_in),
            b_cls=np.zeros(c_pred),
        )

    @property
    def d_roi(self) -> int:
        return self.w_proj.shape[0]

    @property
    def d_emb(self) -> int:
        return self.w_proj.shape[1]

    @property
    def c_pred(self) -> int:
        return self.w_cls.shape[1]

    def copy(self) -> "RelationModel":
        return RelationModel(self.w_proj.copy(), self.w_cls.copy(), self.b_cls.copy())


@dataclass(eq=False)
class Gradients:
    w_proj: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray


@dataclass(eq=False)
class ImageCache:
    """Everything the backward pass needs for one image."""

    features: np.ndarray | None       # (N, d_roi) when the image has >= 2 objects
    unit_proj: np.ndarray | None      # projections scaled to unit norm (guarded)
    unit_emb: np.ndarray | None       # label embeddings scaled to unit norm
    proj_norms: np.ndarray | None     # guarded projection norms
    clamped: np.ndarray | None        # rows whose projection norm hit the guard
    sims: np.ndarray | None           # (N, N) cosine similarities
    pair_inputs: np.ndarray           # (M, 2*d_roi + GEOMETRY_DIM)
    gold: np.ndarray                  # (M,)
    probs: np.ndarray                 # (M, c_pred)
    contrastive: float


@dataclass(eq=False)
class PairBatch:
    """Forward caches for a batch of images plus their aggregate losses."""

    images: list[ImageCache]
    num_images: int

    def contrastive(self) -> float:
        if self.num_images == 0:
            return 0.0
        return float(sum(c.contrastive for c in self.images) / self.num_images)

    def all_probs(self) -> np.ndarray:
        parts = [c.probs for c in self.images if c.probs.shape[0]]
        if not parts:
            return np.zeros((0, 0))
        return np.concatenate(parts, axis=0)

    def all_gold(self) -> np.ndarray:
        parts = [c.gold for c in self.images if c.gold.shape[0]]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts, axis=0)


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; rejects zero-norm inputs."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity of a zero-norm vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def _diag_nll(sims: np.ndarray) -> float:
    """Mean negative log row-softmax probability of the diagonal."""
    mx = sims.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(sims - mx).sum(axis=1))
    return float(np.mean(log_z + (mx[:, 0] - np.diag(sims))))


def contrastive_loss(sims: np.ndarray) -> tuple[float, float, float]:
    """Symmetric contrastive loss over a similarity matrix with positives on the diagonal.

    Returns (image-to-text, text-to-image, combined); the combined loss is the
    mean of the two directions. There is no temperature.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {sims.shape}")
    if sims.shape[0] == 0:
        raise ValueError("similarity matrix must have at least one row")
    loss_i2t = _diag_nll(sims)
    loss_t2i = _diag_nll(sims.T)
    return loss_i2t, loss_t2i, 0.5 * (loss_i2t + loss_t2i)


def pair_geometry(
    subj: BoundingBox, obj: BoundingBox, width: float, height: float
) -> np.ndarray:
    """8 geometry features for an ordered box pair (offsets, log ratios, overlap)."""
    cxs, cys = subj.center
    cxo, cyo = obj.center
    dx = (cxo - cxs) / width
    dy = (cyo - cys) / height
    inter, union = subj.overlap(obj)
    return np.array(
        [
            dx,
            dy,
            np.log(obj.width / subj.width),
            np.log(obj.height / subj.height),
            np.log(obj.area / subj.area),
            inter / union,  # IoU; union > 0 for the non-degenerate boxes ingest admits
            union / (width * height),
            float(np.hypot(dx, dy)),
        ]
    )


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _image_cache(
    model: RelationModel,
    annotation: SceneGraphAnnotation,
    embeddings: EmbeddingTable,
    compute_contrastive: bool,
) -> ImageCache:
    objs = annotation.objects
    n = len(objs)

    # Contrastive side: needs at least two objects to have any negatives.
    features = unit_proj = unit_emb = proj_norms = clamped = sims = None
    l_c = 0.0
    if compute_contrastive and n >= 2:
        features = np.stack([o.feature for o in objs])
        emb = np.stack([embeddings.vector(o.label) for o in objs])
        proj = features @ model.w_proj
        raw_norms = np.linalg.norm(proj, axis=1)
        clamped = raw_norms < NORM_EPS
        proj_norms = np.maximum(raw_norms, NORM_EPS)
        unit_proj = proj / proj_norms[:, None]
        unit_emb = emb / np.linalg.norm(emb, axis=1)[:, None]
        sims = unit_proj @ unit_emb.T
        _, _, l_c = contrastive_loss(sims)

    # Classifier side: one input row per annotated triple.
    cls_in = 2 * model.d_roi + GEOMETRY_DIM
    rows = []
    gold = []
    for triple in annotation.triples:
        subj = annotation.object_by_id(triple.subj)
        obj = annotation.object_by_id(triple.obj)
        rows.append(
            np.concatenate(
                [
                    subj.feature,
                    obj.feature,
                    pair_geometry(subj.box, obj.box, annotation.width, annotation.height),
                ]
            )
        )
        gold.append(triple.pred)
    if rows:
        pair_inputs = np.stack(rows)
        probs = _softmax_rows(pair_inputs @ model.w_cls + model.b_cls)
    else:
        pair_inputs = np.zeros((0, cls_in))
        probs = np.zeros((0, model.c_pred))

    return ImageCache(
        features=features,
        unit_proj=unit_proj,
        unit_emb=unit_emb,
        proj_norms=proj_norms,
        clamped=clamped,
        sims=sims,
        pair_inputs=pair_inputs,
        gold=np.asarray(gold, dtype=np.int64),
        probs=probs,
        contrastive=l_c,
    )


def forward_batch(
    model: RelationModel,
    annotations: list[SceneGraphAnnotation],
    embeddings: EmbeddingTable,
    compute_contrastive: bool = True,
) -> PairBatch:
    images = [
        _image_cache(model, a, embeddings, compute_contrastive) for a in annotations
    ]
    return PairBatch(images=images, num_images=len(annotations))


def forward(
    model: RelationModel,
    annotation: SceneGraphAnnotation,
    embeddings: EmbeddingTable,
    compute_contrastive: bool = True,
) -> tuple[PairBatch, np.ndarray, float]:
    """Single-image forward pass: caches, per-pair predicate distributions, contrastive loss."""
    batch = forward_batch(model, [annotation], embeddings, compute_contrastive)
    return batch, batch.all_probs(), batch.contrastive()


def backward(
    model: RelationModel,
    batch: PairBatch,
    weights: InfoWeights | None = None,
    mu: float = DEFAULT_MU,
) -> Gradients:
    """Analytic gradients of (mean contrastive loss + mu * weighted predicate loss)."""
    if weights is None:
        weights = uniform_weights(model.c_pred)
    g_proj = np.zeros_like(model.w_proj)
    g_cls = np.zeros_like(model.w_cls)
    g_b = np.zeros_like(model.b_cls)

    total_pairs = int(sum(c.gold.shape[0] for c in batch.images))

    for cache in batch.images:
        if cache.sims is not None:
            n = cache.sims.shape[0]
            row_soft = _softmax_rows(cache.sims)
            col_soft = _softmax_rows(cache.sims.T).T
            eye = np.eye(n)
            # d(loss)/d(sims), including the 1/num_images batch averaging.
            g_s = (row_soft + col_soft - 2.0 * eye) / (2.0 * n * batch.num_images)
            gv = g_s @ cache.unit_emb
            row_dot = (g_s * cache.sims).sum(axis=1)
            d_proj = gv - row_dot[:, None] * cache.unit_proj
            d_proj[cache.clamped] = gv[cache.clamped]
            d_proj = d_proj / cache.proj_norms[:, None]
            g_proj += cache.features.T @ d_proj

        m = cache.gold.shape[0]
        if m and mu != 0.0 and total_pairs:
            d_z = cache.probs.copy()
            d_z[np.arange(m), cache.gold] -= 1.0
            d_z *= (mu / total_pairs) * weights.weights[cache.gold][:, None]
            g_cls += cache.pair_inputs.T @ d_z
            g_b += d_z.sum(axis=0)

    return Gradients(w_proj=g_proj, w_cls=g_cls, b_cls=g_b)


@dataclass
class TrainConfig:
    """Optimizer and schedule knobs; defaults follow the reference setup."""

    lr: float = 0.001
    iterations: int = 500
    batch_size: int = 16
    seed: int = 0
    mu: float = DEFAULT_MU
    patience: int = 3
    eval_every: int = 100
    use_alignment: bool = True
    box_loss: float = 0.0
    object_loss: float = 0.0


@dataclass(eq=False)
class TrainResult:
    model: RelationModel
    history: list[LossBundle] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    val_mean_recall: list[float] = field(default_factory=list)


def _validation_mean_recall(
    model: RelationModel, val: Dataset, k: int = 50
) -> float:
    predictions = predict(model, val)
    ranked = build_ranked(predictions)
    c_pred = val.predicate_space.size
    gt = np.zeros(c_pred, dtype=np.int64)
    matched = np.zeros(c_pred, dtype=np.int64)
    for annotation in val.annotations:
        for triple in annotation.triples:
            gt[triple.pred] += 1
        prediction = ranked.get(annotation.image_id)
        if prediction is None:
            continue
        for idx in match_triples(prediction, annotation, k, PREDCLS):
            matched[annotation.triples[idx].pred] += 1
    mr, _ = mean_recall_at_k(matched, gt)
    return 0.0 if mr is None else mr


def train(
    model: RelationModel,
    train_set: Dataset,
    embeddings: EmbeddingTable,
    config: TrainConfig,
    val_set: Dataset | None = None,
    weights: InfoWeights | None = None,
) -> TrainResult:
    """Plain SGD over image mini-batches; deterministic given the config seed.

    The learning rate decays by 10x whenever validation mean recall@50 fails to
    improve for ``patience`` consecutive evaluations.
    """
    if not train_set.annotations:
        raise ValueError("cannot train on an empty dataset")
    if weights is None:
        weights = uniform_weights(model.c_pred)

    model = model.copy()
    rng = substream(config.seed, "alignment.batches")
    n = len(train_set.annotations)
    order = rng.permutation(n)
    cursor = 0
    lr = config.lr
    best_mr: float | None = None
    stale_evals = 0
    result = TrainResult(model=model)

    for iteration in range(config.iterations):
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + config.batch_size]
        cursor += config.batch_size
        annotations = [train_set.annotations[i] for i in idx]

        batch = forward_batch(
            model, annotations, embeddings, compute_contrastive=config.use_alignment
        )
        l_c = batch.contrastive()
        l_iw = weighted_pred_loss(batch.all_probs(), batch.all_gold(), weights)
        result.history.append(
            total_loss(config.box_loss, config.object_loss, l_c, l_iw, config.mu)
        )
        result.learning_rates.append(lr)

        if lr != 0.0:
            grads = backward(model, batch, weights, config.mu)
            model.w_proj -= lr * grads.w_proj
            model.w_cls -= lr * grads.w_cls
            model.b_cls -= lr * grads.b_cls

        if (
            val_set is not None
            and config.eval_every > 0
            and (iteration + 1) % config.eval_every == 0
        ):
            mr = _validation_mean_recall(model, val_set)
            result.val_mean_recall.append(mr)
            if best_mr is None or mr > best_mr:
                best_mr = mr
                stale_evals = 0
            else:
                stale_evals += 1
                if stale_evals >= config.patience:
                    lr *= 0.1
                    stale_evals = 0
                    logger.info(
                        "validation mR@50 plateaued at %.4f; lr decayed to %g", mr, lr
                    )
    return result


def predict(model: RelationModel, dataset: Dataset) -> list[PairPrediction]:
    """Score every ordered object pair of every image (labels taken as given)."""
    predictions: list[PairPrediction] = []
    for annotation in dataset.annotations:
        objs = annotation.objects
        if len(objs) < 2:
            continue
        rows = []
        pairs = []
        for subj in objs:
            for obj in objs:
                if subj.object_id == obj.object_id:
                    continue
                rows.append(
                    np.concatenate(
                        [
                            subj.feature,
                            obj.feature,
                            pair_geometry(
                                subj.box, obj.box, annotation.width, annotation.height
                            ),
                        ]
                    )
                )
                pairs.append((subj, obj))
        probs = _softmax_rows(np.stack(rows) @ model.w_cls + model.b_cls)
        for (subj, obj), p in zip(pairs, probs):
            predictions.append(
                PairPrediction(
                    image_id=annotation.image_id,
                    subj_id=subj.object_id,
                    obj_id=obj.object_id,
                    subj_label=subj.label,
                    obj_label=obj.label,
                    subj_box=subj.box,
                    obj_box=obj.box,
                    probs=p,
                )
            )
    return predictions


def save_history(history: list[LossBundle], path: str | Path) -> None:
    """Loss history CSV: iteration, contrastive, weighted_predicate, total."""
    lines = ["iteration,contrastive,weighted_predicate,total"]
    for i, bundle in enumerate(history):
        lines.append(
            f"{i},{bundle.contrastive_loss!r},{bundle.predicate_loss!r},{bundle.total!r}"
        )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


CHECKPOINT_FORMAT = "sgrel-model"
CHECKPOINT_VERSION = 1
_ARRAY_ORDER = ("w_proj", "w_cls", "b_cls")


def save_model(model: RelationModel, path: str | Path) -> None:
    """Binary checkpoint: one JSON header line, then row-major float64 params."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": "<f8",
        "arrays": {name: list(getattr(model, name).shape) for name in _ARRAY_ORDER},
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in _ARRAY_ORDER:
            handle.write(np.ascontiguousarray(getattr(model, name), dtype="<f8").tobytes())


def load_model(path: str | Path) -> RelationModel:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode("utf-8"))
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a model checkpoint")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        arrays = {}
        for name in _ARRAY_ORDER:
            shape = tuple(header["arrays"][name])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(handle.read(count * 8), dtype="<f8", count=count)
            arrays[name] = data.reshape(shape).astype(np.float64)
    return RelationModel(**arrays)
