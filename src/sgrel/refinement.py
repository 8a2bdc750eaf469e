"""Predicate refinement from label-embedding geometry.

A predicted predicate distribution is re-ranked by a per-predicate affinity
derived from Euclidean distances between the pair's label embeddings (and the
originally predicted predicate's embedding) and every predicate embedding.
Distances are mapped through exp(-d) so that semantically close predicates are
boosted rather than penalized.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .ingest import EmbeddingTable
from .metrics import PredictionSet

DEFAULT_ALPHA = 0.35


def distance_vector(vectors: np.ndarray, predicates: EmbeddingTable) -> np.ndarray:
    """Euclidean distance from each of ``vectors``, a ``(..., d)`` stack, to every predicate embedding:
    ``(..., C_pred)``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1:] != (predicates.dim,):
        raise ValueError(
            f"dimension mismatch: vector has shape {vectors.shape}, table dim {predicates.dim}"
        )
    return np.linalg.norm(predicates.vectors - vectors[..., None, :], axis=-1)


def refinement_vector(
    subj_distances: np.ndarray,
    obj_distances: np.ndarray,
    pred_distances: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Distance profile ``v`` over predicates: object-side and predicate-side distance rows blended.

    Each row is a ``distance_vector`` of the subject, the object or the
    originally predicted predicate; ``alpha`` weighs how much the subject/object
    rows count against the predicate's.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * (subj_distances + obj_distances) + (1.0 - alpha) * pred_distances


def refine(probs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-rank predicate distributions by elementwise affinity.

    ``probs`` is one distribution ``(C,)`` or a stack of them ``(P, C)``, and
    ``w`` the affinity ``exp(-v)`` of each (``v`` a ``refinement_vector``
    profile), of the same shape.
    Returns each refined top predicate (ties broken by lowest index) and the
    renormalized score vectors used for ranking.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != w.shape:
        raise ValueError(
            f"length mismatch: distribution {probs.shape} vs refinement {w.shape}"
        )
    scores = probs * w
    total = scores.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("degenerate refinement: all refined scores are zero")
    scores /= total
    return scores.argmax(axis=-1), scores


def refine_dataset(
    predictions: PredictionSet,
    object_embeddings: EmbeddingTable,
    predicate_embeddings: EmbeddingTable,
    alpha: float = DEFAULT_ALPHA,
) -> PredictionSet:
    """Refine every pair prediction's score vector and top predicate.

    The subject/object distances come from each pair's predicted labels, and
    the predicate-side distances from the pre-refinement argmax predicate; each
    is computed once per label. One refinement vector serves every pair with
    the same three labels. A pair whose refined scores are all zero takes the
    affinity of its profile shifted by its minimum, the same distribution in
    exact arithmetic; if they are still all zero, ``refine`` raises. A label
    outside its space raises ``ValueError``. The result holds the refined
    ``probs`` and shares every other column with the input.
    """
    if not len(predictions):
        return predictions
    # Each (subject label, object label, top) as its index in the label-space grid: keys order as rows.
    grid = (object_embeddings.space.size, object_embeddings.space.size, predicate_embeddings.space.size)
    keys, rows = np.unique(np.ravel_multi_index((predictions.subj_label, predictions.obj_label,
                                                 predictions.probs.argmax(axis=1)), grid), return_inverse=True)
    keys = np.stack(np.unravel_index(keys, grid), axis=1)
    objects = distance_vector(object_embeddings.vectors, predicate_embeddings)
    predicates = distance_vector(predicate_embeddings.vectors, predicate_embeddings)
    v = np.array([refinement_vector(objects[s], objects[o], predicates[p], alpha) for s, o, p in keys.tolist()])
    affinity = np.exp(-v)[rows]
    underflowed = np.einsum("pc,pc->p", predictions.probs, affinity) == 0.0
    affinity[underflowed] = np.exp(v.min(axis=1, keepdims=True) - v)[rows[underflowed]]
    _, scores = refine(predictions.probs, affinity)
    return dataclasses.replace(predictions, probs=scores)
