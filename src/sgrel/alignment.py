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

from .core import Dataset, SceneGraphAnnotation, box_overlap
from .ingest import EmbeddingTable
from .metrics import PairPrediction, evaluate
from .metrics import build_ranked, match_triples  # unused here; perfbench/tracing.py patches these names
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
class PackedDataset:
    """A split as flat arrays, built once when training or prediction starts.

    Image ``i`` owns object rows ``obj_offsets[i]:obj_offsets[i + 1]`` and
    triple rows ``triple_offsets[i]:triple_offsets[i + 1]``.
    """

    annotations: tuple[SceneGraphAnnotation, ...]
    features: np.ndarray        # (sum N, d_roi)
    labels: np.ndarray          # (sum N,)
    boxes: np.ndarray           # (sum N, 4) xyxy
    sizes: np.ndarray           # (images, 2) width, height
    obj_offsets: np.ndarray     # (images + 1,)
    preds: np.ndarray           # (sum T,)
    triple_offsets: np.ndarray  # (images + 1,)
    pair_inputs: np.ndarray     # (sum T, 2*d_roi + GEOMETRY_DIM); model-independent

    @property
    def num_images(self) -> int:
        return len(self.annotations)


@dataclass(eq=False)
class Batch:
    """Forward state of one image mini-batch; the contrastive side is padded to (B, Nmax, .).

    Padded slots, and every slot of an image with fewer than two objects (no
    negatives), are masked out: such an image adds 0 to the contrastive loss
    and still counts in its 1/B average. Contrastive fields are None when off.
    """

    num_images: int
    contrastive: float
    pair_inputs: np.ndarray  # (M, 2*d_roi + GEOMETRY_DIM), one row per annotated triple
    gold: np.ndarray         # (M,)
    probs: np.ndarray        # (M, c_pred)
    features: np.ndarray | None = None   # (B, N, d_roi)
    unit_proj: np.ndarray | None = None  # projections scaled to unit norm (guarded)
    unit_emb: np.ndarray | None = None   # label embeddings scaled to unit norm
    proj_norms: np.ndarray | None = None  # guarded projection norms
    clamped: np.ndarray | None = None    # slots whose projection norm hit the guard
    sims: np.ndarray | None = None       # (B, N, N) cosine similarities
    d_sims: np.ndarray | None = None     # d(batch contrastive loss)/d(sims), zero when masked


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


def _offsets(counts: list[int] | np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For back-to-back segments of the given lengths: each element's segment and its index in it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - _offsets(counts)[owner]


def pack(dataset: Dataset) -> PackedDataset:
    """Flatten a split into the arrays the batched forward, backward and predict read."""
    annotations = dataset.annotations
    objects = [o for a in annotations for o in a.objects]
    obj_offsets = _offsets([len(a.objects) for a in annotations])
    triple_offsets = _offsets([len(a.triples) for a in annotations])

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
        annotations=annotations,
        features=features,
        labels=np.array([o.label for o in objects], dtype=np.int64),
        boxes=boxes,
        sizes=sizes,
        obj_offsets=obj_offsets,
        preds=np.array([t.pred for a in annotations for t in a.triples], dtype=np.int64),
        triple_offsets=triple_offsets,
        pair_inputs=np.concatenate([features[subj], features[obj], geometry], axis=1),
    )


def forward_batch(
    model: RelationModel,
    data: PackedDataset,
    embeddings: EmbeddingTable,
    images: np.ndarray | None = None,
    compute_contrastive: bool = True,
) -> Batch:
    """Losses and caches for the given images of ``data`` (all of them by default)."""
    images = np.arange(data.num_images) if images is None else np.asarray(images, dtype=np.int64)

    # Classifier side: one input row per annotated triple.
    starts = data.triple_offsets[images]
    owner, local = _segments(data.triple_offsets[images + 1] - starts)
    rows = starts[owner] + local
    pair_inputs = data.pair_inputs[rows]
    batch = Batch(
        num_images=len(images),
        contrastive=0.0,
        pair_inputs=pair_inputs,
        gold=data.preds[rows],
        probs=_softmax_rows(pair_inputs @ model.w_cls + model.b_cls),
    )
    if not compute_contrastive:
        return batch

    # Contrastive side: needs at least two objects to have any negatives.
    starts = data.obj_offsets[images]
    counts = data.obj_offsets[images + 1] - starts
    counts[counts < 2] = 0
    slots = np.arange(counts.max(initial=0))
    mask = slots < counts[:, None]
    rows = np.where(mask, starts[:, None] + slots, 0)  # padded slots read row 0, masked out
    batch.features = data.features[rows]
    emb = embeddings.vectors[data.labels[rows]]
    proj = batch.features @ model.w_proj
    raw_norms = np.linalg.norm(proj, axis=2)
    batch.clamped = raw_norms < NORM_EPS
    batch.proj_norms = np.maximum(raw_norms, NORM_EPS)
    batch.unit_proj = proj / batch.proj_norms[..., None]
    batch.unit_emb = emb / np.linalg.norm(emb, axis=2)[..., None]
    batch.sims = batch.unit_proj @ batch.unit_emb.transpose(0, 2, 1)
    # Cosine similarities lie in [-1, 1], so exp needs no max shift.
    e = np.exp(batch.sims) * (mask[:, :, None] & mask[:, None, :])
    row_sum = np.where(mask, e.sum(axis=2), 1.0)
    col_sum = np.where(mask, e.sum(axis=1), 1.0)
    diag = np.diagonal(batch.sims, axis1=1, axis2=2)
    # Per image: half the sum of both directions' -log p(diagonal) over N objects.
    scale = 1.0 / (2.0 * np.maximum(counts, 1) * max(len(images), 1))
    nll = ((np.log(row_sum) + np.log(col_sum) - 2.0 * diag) * mask).sum(axis=1)
    batch.contrastive = float(nll @ scale)
    eye = np.eye(len(slots)) * mask[:, :, None]
    d_sims = e / row_sum[:, :, None] + e / col_sum[:, None, :] - 2.0 * eye
    batch.d_sims = d_sims * scale[:, None, None]
    return batch


def backward(
    model: RelationModel,
    batch: Batch,
    weights: InfoWeights | None = None,
    mu: float = DEFAULT_MU,
) -> Gradients:
    """Analytic gradients of (mean contrastive loss + mu * weighted predicate loss)."""
    if weights is None:
        weights = uniform_weights(model.c_pred)
    g_proj = np.zeros_like(model.w_proj)
    g_cls = np.zeros_like(model.w_cls)
    g_b = np.zeros_like(model.b_cls)

    if batch.sims is not None:
        gv = batch.d_sims @ batch.unit_emb
        row_dot = (batch.d_sims * batch.sims).sum(axis=2)
        d_proj = np.where(batch.clamped[..., None], gv, gv - row_dot[..., None] * batch.unit_proj)
        d_proj = d_proj / batch.proj_norms[..., None]
        g_proj += batch.features.reshape(-1, model.d_roi).T @ d_proj.reshape(-1, model.d_emb)

    m = batch.gold.shape[0]
    if m and mu != 0.0:
        d_z = batch.probs.copy()
        d_z[np.arange(m), batch.gold] -= 1.0
        d_z *= (mu / m) * weights.weights[batch.gold][:, None]
        g_cls += batch.pair_inputs.T @ d_z
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


def _validation_mean_recall(model: RelationModel, val: PackedDataset, val_set: Dataset) -> float:
    """Validation mR@50 under predcls; 0.0 when the split has no GT triples."""
    return evaluate(predict(model, val), val_set, ks=(50,)).mean_recall[50] or 0.0


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
    data = pack(train_set)
    val = pack(val_set) if val_set is not None else None
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

        batch = forward_batch(
            model, data, embeddings, idx, compute_contrastive=config.use_alignment
        )
        l_iw = weighted_pred_loss(batch.probs, batch.gold, weights)
        result.history.append(
            total_loss(config.box_loss, config.object_loss, batch.contrastive, l_iw, config.mu)
        )
        result.learning_rates.append(lr)

        if lr != 0.0:
            grads = backward(model, batch, weights, config.mu)
            model.w_proj -= lr * grads.w_proj
            model.w_cls -= lr * grads.w_cls
            model.b_cls -= lr * grads.b_cls

        if (
            val is not None
            and config.eval_every > 0
            and (iteration + 1) % config.eval_every == 0
        ):
            mr = _validation_mean_recall(model, val, val_set)
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

    objects = [o for a in data.annotations for o in a.objects]
    image_ids = [a.image_id for a in data.annotations]
    predictions: list[PairPrediction] = []
    for i, si, oi, p in zip(image.tolist(), subj.tolist(), obj.tolist(), probs):
        so, oo = objects[si], objects[oi]
        predictions.append(PairPrediction(
            image_ids[i], so.object_id, oo.object_id, so.label, oo.label, so.box, oo.box, p
        ))
    return predictions


def save_history(history: list[LossBundle], path: str | Path) -> None:
    """Loss history CSV: iteration, contrastive, weighted_predicate, total."""
    lines = ["iteration,contrastive,weighted_predicate,total"]
    for i, bundle in enumerate(history):
        lines.append(
            f"{i},{bundle.contrastive_loss!r},{bundle.predicate_loss!r},{bundle.total!r}"
        )
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def save_validation(result: TrainResult, eval_every: int, path: str | Path) -> None:
    """Validation CSV: iteration, lr, val_mean_recall_50; one row per validation evaluation.

    Evaluation ``j`` runs after iteration ``(j + 1) * eval_every - 1``; ``lr`` is
    the rate that iteration trained with (a decay the evaluation triggers applies
    from the next iteration).
    """
    lines = ["iteration,lr,val_mean_recall_50"]
    for j, mr in enumerate(result.val_mean_recall):
        i = (j + 1) * eval_every - 1
        lines.append(f"{i},{result.learning_rates[i]!r},{mr!r}")
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
        line = handle.readline()
        payload = handle.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as err:  # invalid UTF-8 or JSON
        raise ValueError(f"{path}: not a model checkpoint: {err}") from err
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
    shapes = header.get("arrays")
    for name in _ARRAY_ORDER:
        if not isinstance(shapes, dict) or name not in shapes:
            raise ValueError(f"{path}: checkpoint header has no arrays.{name} shape")
        if not isinstance(shapes[name], list) or not all(type(n) is int and n >= 0 for n in shapes[name]):
            raise ValueError(f"{path}: checkpoint header arrays.{name} is not a list of non-negative integers")
    counts = [int(np.prod(shapes[name])) for name in _ARRAY_ORDER]
    if len(payload) != 8 * sum(counts):
        raise ValueError(
            f"{path}: expected {8 * sum(counts)} parameter bytes after the header, found {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    bounds = _offsets(counts)
    return RelationModel(**{
        name: values[lo:hi].reshape(shapes[name])
        for name, lo, hi in zip(_ARRAY_ORDER, bounds[:-1], bounds[1:])
    })
