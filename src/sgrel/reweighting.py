"""Information-content loss weights and total-loss assembly.

Rare predicates carry more information; weighting the predicate classification
loss by normalized information content keeps the classifier from collapsing
onto frequent-but-uninformative categories.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_MU = 1.2
PROB_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class InfoWeights:
    """Per-predicate training frequency, information content (bits), and loss weight."""

    frequencies: np.ndarray  # f_j, zero where the predicate never occurs
    bits: np.ndarray         # -log2 f_j; unseen predicates inherit the max observed
    weights: np.ndarray      # bits normalized to mean 1 over observed predicates


def info_weights(counts: np.ndarray) -> InfoWeights:
    """Build loss weights from training triple counts.

    Weights are information content divided by its mean over observed
    predicates, so the average weight is 1 and the overall loss scale matches
    the unweighted baseline. Predicates with zero count are treated as most
    informative: they get the maximum observed weight (and bits).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty vector")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("at least one predicate count must be positive")

    observed = counts > 0
    frequencies = np.zeros_like(counts)
    frequencies[observed] = counts[observed] / total
    bits = np.zeros_like(counts)
    bits[observed] = -np.log2(frequencies[observed])

    mean_bits = bits[observed].mean()
    weights = np.zeros_like(counts)
    if mean_bits > 0:
        weights[observed] = bits[observed] / mean_bits
    else:
        # Single predicate carrying all mass: zero bits, weight pinned to 1.
        weights[observed] = 1.0
    weights[~observed] = weights[observed].max()
    bits[~observed] = bits[observed].max()
    return InfoWeights(frequencies=frequencies, bits=bits, weights=weights)


def uniform_weights(num_predicates: int) -> InfoWeights:
    """Unit weights: the weighted loss degenerates to plain cross-entropy."""
    return info_weights(np.ones(num_predicates))


def weighted_pred_loss(
    probs: np.ndarray, gold: np.ndarray, weights: InfoWeights
) -> float:
    """Mean information-weighted cross-entropy over pairs.

    ``probs`` is (M, C) predicted distributions, ``gold`` the (M,) true
    predicate indices. Gold probabilities of zero are clamped to a tiny floor
    with a logged warning rather than producing infinities.
    """
    probs = np.asarray(probs, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.int64)
    if probs.ndim != 2 or gold.ndim != 1 or probs.shape[0] != gold.shape[0]:
        raise ValueError("probs must be (M, C) and gold (M,)")
    if probs.shape[0] == 0:
        return 0.0
    if np.any(gold < 0) or np.any(gold >= probs.shape[1]):
        raise ValueError("gold predicate index out of range")
    p = probs[np.arange(probs.shape[0]), gold]
    clamped = int(np.sum(p < PROB_FLOOR))
    if clamped:
        logger.warning("clamped %d zero gold probabilities to %g", clamped, PROB_FLOOR)
        p = np.maximum(p, PROB_FLOOR)
    return float(np.mean(weights.weights[gold] * (-np.log(p))))


def total_loss(box_loss: float, object_loss: float, contrastive_loss: float, predicate_loss: float,
               mu: float = DEFAULT_MU) -> float:
    """The training objective: detector terms enter as supplied scalars, summed left to right."""
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    return float(box_loss + object_loss + contrastive_loss + mu * predicate_loss)
