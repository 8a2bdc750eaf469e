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

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Dataset, box_overlap, offsets, owners
from .ingest import EmbeddingTable, framed_arrays, load_framed, save_framed
from .metrics import PredictionSet, evaluate
from .metrics import build_ranked, match_triples  # unused here; perfbench/tracing.py patches these names
from .reweighting import DEFAULT_MU, InfoWeights, total_loss, uniform_weights, weighted_pred_loss
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
class Batch:
    """Forward state of one image mini-batch; the contrastive side is padded to (B, Nmax, .).

    Padded slots, and every slot of an image with fewer than two objects (no
    negatives), are masked out: such an image adds 0 to the contrastive loss
    and still counts in its 1/B average. Contrastive fields are None when off.
    """

    contrastive: float
    pair_inputs: np.ndarray  # (M, 2*d_roi + GEOMETRY_DIM), one row per annotated triple
    gold: np.ndarray         # (M,)
    probs: np.ndarray        # (M, c_pred)
    features: np.ndarray | None = None  # (B, N, d_roi)
    d_proj: np.ndarray | None = None    # (B, N, d_emb) d(batch contrastive loss)/d(projections), zero when masked


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


def pair_geometry(subj: np.ndarray, obj: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """8 geometry features per ordered box pair (offsets, log ratios, overlap).

    ``subj`` and ``obj`` are (M, 4) xyxy boxes and ``sizes`` the (M, 2) width
    and height of each pair's image; returns (M, 8).
    """
    width, height = sizes[:, 0], sizes[:, 1]
    ws, hs = subj[:, 2] - subj[:, 0], subj[:, 3] - subj[:, 1]
    wo, ho = obj[:, 2] - obj[:, 0], obj[:, 3] - obj[:, 1]
    dx = (0.5 * (obj[:, 0] + obj[:, 2]) - 0.5 * (subj[:, 0] + subj[:, 2])) / width
    dy = (0.5 * (obj[:, 1] + obj[:, 3]) - 0.5 * (subj[:, 1] + subj[:, 3])) / height
    inter, union = box_overlap(subj, obj)
    return np.stack(
        [
            dx,
            dy,
            np.log(wo / ws),
            np.log(ho / hs),
            np.log((wo * ho) / (ws * hs)),
            inter / union,  # IoU; union > 0 for the non-degenerate boxes ingest admits
            union / (width * height),
            np.hypot(dx, dy),
        ],
        axis=1,
    )


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For back-to-back segments of the given lengths: each element's segment and its index in it."""
    bounds = offsets(counts)
    owner = owners(bounds)
    return owner, np.arange(len(owner)) - bounds[owner]


def pair_inputs(dataset: Dataset) -> np.ndarray:
    """``(T, 2*d_roi + GEOMETRY_DIM)``: each triple's classifier input, [subject feature; object feature; pair
    geometry], which the batched forward and backward read; a dangling object id raises ``AnnotationError``."""
    subj, obj = dataset.end_rows().T
    features, boxes = dataset.features, dataset.boxes
    geometry = pair_geometry(boxes[subj], boxes[obj], dataset.sizes[owners(dataset.triple_offsets)])
    return np.concatenate([features[subj], features[obj], geometry], axis=1)


@dataclass(frozen=True, eq=False)
class BatchTables:
    """What the batched forward reads of a split and no step changes (``batch_tables``): row ``i`` holds image ``i``'s
    triple rows and, if it has the two objects a contrast needs, its object rows, each padded with row 0 to the
    widest image and masked. They take images x (max objects + max triples) x 9 bytes."""

    dataset: Dataset
    unit: np.ndarray         # EmbeddingTable.unit
    inputs: np.ndarray       # pair_inputs(dataset)
    triple_rows: np.ndarray  # (I, max triples)
    triple_mask: np.ndarray
    counts: np.ndarray       # (I,) objects, 0 below two
    object_rows: np.ndarray  # (I, counts.max())
    object_mask: np.ndarray


def batch_tables(dataset: Dataset, embeddings: EmbeddingTable) -> BatchTables:
    """The split's ``BatchTables``; a dangling object id raises ``AnnotationError`` (``pair_inputs``)."""
    counts = np.diff(dataset.object_offsets)
    counts[counts < 2] = 0
    padded = []  # rows bounds[i] + j for j < n[i], padded with row 0, then their mask
    for bounds, n in ((dataset.triple_offsets, np.diff(dataset.triple_offsets)), (dataset.object_offsets, counts)):
        mask = np.arange(n.max(initial=0)) < n[:, None]
        padded += [np.where(mask, bounds[:-1, None] + np.arange(mask.shape[1]), 0), mask]
    return BatchTables(dataset, embeddings.unit, pair_inputs(dataset), *padded[:2], counts, *padded[2:])


def forward_batch(
    model: RelationModel,
    tables: BatchTables,
    images: np.ndarray | None = None,
    compute_contrastive: bool = True,
) -> Batch:
    """Losses, and the contrastive loss's gradient with respect to the projections, for the given images of
    ``tables.dataset`` (all of them by default)."""
    dataset = tables.dataset
    images = np.arange(len(dataset.image_ids)) if images is None else np.asarray(images, dtype=np.int64)

    # Classifier side: one input row per annotated triple.
    rows = tables.triple_rows[images][tables.triple_mask[images]]
    batch_inputs = tables.inputs[rows]
    batch = Batch(
        contrastive=0.0,
        pair_inputs=batch_inputs,
        gold=dataset.triples[rows, 1],
        probs=_softmax_rows(batch_inputs @ model.w_cls + model.b_cls),
    )
    if not compute_contrastive:
        return batch

    # Contrastive side: the tables cut to this batch's largest image.
    counts = tables.counts[images]
    n = counts.max(initial=0)
    mask = tables.object_mask[images, :n]
    rows = tables.object_rows[images, :n]  # padded slots read row 0, masked out
    batch.features = dataset.features[rows]
    unit_emb = tables.unit[dataset.labels[rows]]
    proj = batch.features @ model.w_proj
    raw_norms = np.sqrt(np.add.reduce(proj * proj, axis=2))  # np.linalg.norm's own sum for real input
    clamped = raw_norms < NORM_EPS
    proj_norms = np.maximum(raw_norms, NORM_EPS)
    unit_proj = proj / proj_norms[..., None]
    sims = unit_proj @ unit_emb.transpose(0, 2, 1)
    # Cosine similarities lie in [-1, 1], so exp needs no max shift.
    e = np.exp(sims) * (mask[:, :, None] & mask[:, None, :])
    row_sum = np.where(mask, e.sum(axis=2), 1.0)
    col_sum = np.where(mask, e.sum(axis=1), 1.0)
    diag = np.diagonal(sims, axis1=1, axis2=2)
    # Per image: half the sum of both directions' -log p(diagonal) over N objects.
    scale = 1.0 / (2.0 * np.maximum(counts, 1) * max(len(images), 1))
    nll = ((np.log(row_sum) + np.log(col_sum) - 2.0 * diag) * mask).sum(axis=1)
    batch.contrastive = float(nll @ scale)
    d_sims = e / row_sum[:, :, None] + e / col_sum[:, None, :]
    d_sims.reshape(len(images), n * n)[:, :: n + 1] -= 2.0 * mask  # the diagonal of each real slot
    d_sims *= scale[:, None, None]
    # Back through the unit scaling; a clamped projection was divided by the constant guard.
    gv = d_sims @ unit_emb
    row_dot = (d_sims * sims).sum(axis=2)
    batch.d_proj = np.where(clamped[..., None], gv, gv - row_dot[..., None] * unit_proj) / proj_norms[..., None]
    return batch


def backward(
    model: RelationModel,
    batch: Batch,
    weights: InfoWeights | None = None,
    mu: float = DEFAULT_MU,
) -> RelationModel:
    """Analytic gradients of (mean contrastive loss + mu * weighted predicate loss), one per parameter."""
    if weights is None:
        weights = uniform_weights(model.c_pred)
    g_proj = np.zeros_like(model.w_proj)
    g_cls = np.zeros_like(model.w_cls)
    g_b = np.zeros_like(model.b_cls)

    if batch.d_proj is not None:
        g_proj += batch.features.reshape(-1, model.d_roi).T @ batch.d_proj.reshape(-1, model.d_emb)

    m = batch.gold.shape[0]
    if m and mu != 0.0:
        d_z = batch.probs.copy()
        d_z[np.arange(m), batch.gold] -= 1.0
        d_z *= (mu / m) * weights.weights[batch.gold][:, None]
        g_cls += batch.pair_inputs.T @ d_z
        g_b += d_z.sum(axis=0)

    return RelationModel(g_proj, g_cls, g_b)


@dataclass(frozen=True)
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

    def check_training(self) -> None:
        """Refuse a value that training cannot use: ``ValueError`` naming the first key below its least value."""
        for key, least in {"mu": 0, "lr": 0, "iterations": 0, "eval_every": 0, "batch_size": 1, "patience": 1}.items():
            if not getattr(self, key) >= least:  # NaN too
                raise ValueError(f"invalid {key} {getattr(self, key)!r}: must be >= {least}")


@dataclass(eq=False)
class TrainResult:
    """The trained model and plain rows: per iteration (contrastive, weighted predicate, total) loss, and per
    validation evaluation (iteration, the lr that iteration trained with, mR@50)."""

    model: RelationModel
    history: list[tuple[float, float, float]] = field(default_factory=list)
    validation: list[tuple[int, float, float]] = field(default_factory=list)


def _validation_mean_recall(model: RelationModel, val: Dataset) -> float:
    """Validation mR@50 under predcls; 0.0 when the split has no GT triples."""
    return evaluate(predict(model, val), val, ks=(50,)).mean_recall[50] or 0.0


def train(
    model: RelationModel,
    train_set: Dataset,
    embeddings: EmbeddingTable,
    config: TrainConfig,
    val: Dataset | None = None,
    weights: InfoWeights | None = None,
) -> TrainResult:
    """Plain SGD over image mini-batches; deterministic given the config seed.

    The learning rate decays by 10x whenever mean recall@50 on the
    validation split ``val`` fails to improve for ``patience`` consecutive
    evaluations. An update that leaves a parameter that is not finite raises
    ``ValueError`` naming the iteration, and so does a total loss that is not finite.
    """
    config.check_training()
    if not train_set.image_ids:
        raise ValueError("cannot train on an empty dataset")
    if weights is None:
        weights = uniform_weights(model.c_pred)

    model = model.copy()
    tables = batch_tables(train_set, embeddings)
    rng = substream(config.seed, "alignment.batches")
    n = len(train_set.image_ids)
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

        batch = forward_batch(model, tables, idx, compute_contrastive=config.use_alignment)
        with np.errstate(over="ignore", invalid="ignore"):  # a loss or a step that overflows is refused below
            predicate = weighted_pred_loss(batch.probs, batch.gold, weights)
            total = total_loss(config.box_loss, config.object_loss, batch.contrastive, predicate, config.mu)
            if lr != 0.0:
                grads = backward(model, batch, weights, config.mu)
                model.w_proj -= lr * grads.w_proj
                model.w_cls -= lr * grads.w_cls
                model.b_cls -= lr * grads.b_cls
        result.history.append((batch.contrastive, predicate, total))
        if lr != 0.0 and not all(np.isfinite(w).all() for w in (model.w_proj, model.w_cls, model.b_cls)):
            raise ValueError(f"training diverged: parameters not finite after iteration {iteration}")
        if not np.isfinite(total):
            raise ValueError(f"training diverged: loss not finite at iteration {iteration}")

        if (
            val is not None
            and config.eval_every > 0
            and (iteration + 1) % config.eval_every == 0
        ):
            mr = _validation_mean_recall(model, val)
            result.validation.append((iteration, lr, mr))
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


def predict(model: RelationModel, dataset: Dataset) -> PredictionSet:
    """Score every ordered object pair of every image (labels taken as given, confidences 1).

    Pairs come in image order, subject-major, object-minor; an image with
    fewer than two objects has none.
    """
    n = np.diff(dataset.object_offsets)
    image, k = _segments(n * (n - 1))
    s, j = np.divmod(k, n[image] - 1)
    base = dataset.object_offsets[image]
    subj, obj = base + s, base + j + (j >= s)  # object j skips the subject's own slot

    # The classifier is linear: apply its subject and object blocks once per object, then gather.
    d, features, boxes = model.d_roi, dataset.features, dataset.boxes
    probs = _softmax_rows(
        (features @ model.w_cls[:d])[subj]
        + (features @ model.w_cls[d : 2 * d])[obj]
        + pair_geometry(boxes[subj], boxes[obj], dataset.sizes[image]) @ model.w_cls[2 * d :]
        + model.b_cls
    )
    return PredictionSet.of_objects(dataset, image, subj, obj, probs)


def save_history(history: list[tuple[float, float, float]], path: str | Path) -> None:
    """Loss history CSV: iteration, contrastive, weighted_predicate, total; ``repr`` writes each float exactly."""
    rows = (f"{i},{','.join(map(repr, row))}\n" for i, row in enumerate(history))
    Path(path).write_text("iteration,contrastive,weighted_predicate,total\n" + "".join(rows), encoding="utf-8")


def save_validation(result: TrainResult, path: str | Path) -> None:
    """Validation CSV: iteration, lr, val_mean_recall_50; one row per validation evaluation."""
    rows = (f"{iteration},{lr!r},{mr!r}\n" for iteration, lr, mr in result.validation)
    Path(path).write_text("iteration,lr,val_mean_recall_50\n" + "".join(rows), encoding="utf-8")


CHECKPOINT_FORMAT = "sgrel-model"
CHECKPOINT_VERSION = 1
_ARRAY_ORDER = ("w_proj", "w_cls", "b_cls")


def save_model(model: RelationModel, path: str | Path) -> None:
    """Binary checkpoint: one JSON header line, then row-major float64 params."""
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, "dtype": "<f8"}
    arrays = {name: np.asarray(getattr(model, name), dtype="<f8") for name in _ARRAY_ORDER}
    save_framed(path, header, arrays)


def load_model(path: str | Path) -> RelationModel:
    """The model ``save_model`` wrote; any other file raises ``ValueError`` naming ``path`` (``load_framed``)."""
    header, payload = load_framed(path)
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    dtypes = dict.fromkeys(_ARRAY_ORDER, "<f8")
    return RelationModel(**framed_arrays(path, header, payload, dtypes, "checkpoint", "parameter"))
