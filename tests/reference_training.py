"""The training step that handed ``backward`` six cached arrays, kept as the differential oracle.

Each definition is the replaced code unchanged: ``Gradients``, ``Batch`` with its contrastive caches,
``forward_batch``, which normalises each batch's gathered label embeddings, and ``backward``, which turns
the caches into the projection gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sgrel.alignment import NORM_EPS, RelationModel, _segments, _softmax_rows
from sgrel.core import Dataset
from sgrel.ingest import EmbeddingTable
from sgrel.reweighting import DEFAULT_MU, InfoWeights, uniform_weights


@dataclass(eq=False)
class Gradients:
    w_proj: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray


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
    features: np.ndarray | None = None   # (B, N, d_roi)
    unit_proj: np.ndarray | None = None  # projections scaled to unit norm (guarded)
    unit_emb: np.ndarray | None = None   # label embeddings scaled to unit norm
    proj_norms: np.ndarray | None = None  # guarded projection norms
    clamped: np.ndarray | None = None    # slots whose projection norm hit the guard
    sims: np.ndarray | None = None       # (B, N, N) cosine similarities
    d_sims: np.ndarray | None = None     # d(batch contrastive loss)/d(sims), zero when masked


def forward_batch(
    model: RelationModel,
    dataset: Dataset,
    inputs: np.ndarray,
    embeddings: EmbeddingTable,
    images: np.ndarray | None = None,
    compute_contrastive: bool = True,
) -> Batch:
    """Losses and caches for the given images of ``dataset`` (all of them by default); ``inputs`` is its
    ``pair_inputs``."""
    images = np.arange(len(dataset.image_ids)) if images is None else np.asarray(images, dtype=np.int64)

    # Classifier side: one input row per annotated triple.
    starts = dataset.triple_offsets[images]
    owner, local = _segments(dataset.triple_offsets[images + 1] - starts)
    rows = starts[owner] + local
    batch_inputs = inputs[rows]
    batch = Batch(
        contrastive=0.0,
        pair_inputs=batch_inputs,
        gold=dataset.triples[rows, 1],
        probs=_softmax_rows(batch_inputs @ model.w_cls + model.b_cls),
    )
    if not compute_contrastive:
        return batch

    # Contrastive side: needs at least two objects to have any negatives.
    starts = dataset.object_offsets[images]
    counts = dataset.object_offsets[images + 1] - starts
    counts[counts < 2] = 0
    slots = np.arange(counts.max(initial=0))
    mask = slots < counts[:, None]
    rows = np.where(mask, starts[:, None] + slots, 0)  # padded slots read row 0, masked out
    batch.features = dataset.features[rows]
    emb = embeddings.vectors[dataset.labels[rows]]
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
