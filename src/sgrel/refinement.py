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


def distance_vector(vector: np.ndarray, predicates: EmbeddingTable) -> np.ndarray:
    """Euclidean distance from ``vector`` to every predicate embedding."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (predicates.dim,):
        raise ValueError(
            f"dimension mismatch: vector has shape {vector.shape}, table dim {predicates.dim}"
        )
    return np.linalg.norm(predicates.vectors - vector, axis=1)


def refinement_vector(
    subj_emb: np.ndarray,
    obj_emb: np.ndarray,
    pred_emb: np.ndarray,
    predicates: EmbeddingTable,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Distance profile ``v`` over predicates: object-side and predicate-side profiles blended.

    ``alpha`` weighs how much the subject/object embeddings count against the
    originally predicted predicate's embedding.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * (
        distance_vector(subj_emb, predicates) + distance_vector(obj_emb, predicates)
    ) + (1.0 - alpha) * distance_vector(pred_emb, predicates)


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

    The subject/object embeddings come from each pair's predicted labels, and
    the predicate-side embedding from the pre-refinement argmax predicate. One
    refinement vector serves every pair with the same three labels. The result
    holds the refined ``probs`` and shares every other column with the input.
    """
    if not len(predictions):
        return predictions
    keys, rows = np.unique(
        np.stack([predictions.subj_label, predictions.obj_label, predictions.probs.argmax(axis=1)], axis=1),
        axis=0, return_inverse=True,
    )
    affinity = np.array([
        np.exp(-refinement_vector(
            object_embeddings.vectors[subj_label],
            object_embeddings.vectors[obj_label],
            predicate_embeddings.vectors[pre_top],
            predicate_embeddings,
            alpha,
        ))
        for subj_label, obj_label, pre_top in keys.tolist()
    ])
    _, scores = refine(predictions.probs, affinity[rows])
    return dataclasses.replace(predictions, probs=scores)
