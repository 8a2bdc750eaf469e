"""Recall-guided down-sampling of the training set.

Head predicates (count above a threshold) are thinned in inverse proportion to
how well a baseline already recalls them, so abundant-but-hard predicates keep
their data while abundant-and-easy ones shrink. Up-sampling is never applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, offsets
from .seeding import substream

DEFAULT_TAU = 1100.0
DEFAULT_BETA = 0.3


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """Per-predicate keep rates and target counts; seed pins the draw."""

    counts: np.ndarray   # (C_pred,) original triple counts
    rates: np.ndarray    # (C_pred,) in (0, 1]
    targets: np.ndarray  # (C_pred,) post-sampling counts
    seed: int
    tau: float
    beta: float


def count_predicates(dataset: Dataset) -> np.ndarray:
    """Triple count per predicate index over the whole dataset."""
    c = dataset.predicate_space.size
    return np.bincount(dataset.triples[:, 1], minlength=c)[:c]


def sampling_rate(
    count: float,
    recall: float,
    tau: float = DEFAULT_TAU,
    beta: float = DEFAULT_BETA,
) -> float:
    """Keep rate for one predicate given its training count and baseline recall.

    Below the head threshold ``tau`` everything is kept. A never-recalled
    predicate (recall 0) is also kept whole: it is exactly the case the
    strategy protects.
    """
    if tau <= 0 or beta <= 0:
        raise ValueError(f"tau and beta must be positive, got tau={tau}, beta={beta}")
    if count < tau:
        return 1.0
    if recall <= 0.0:
        return 1.0
    return float(min(tau / (count * beta * recall), 1.0))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_sampling_plan(
    counts: np.ndarray,
    recalls: np.ndarray,
    tau: float = DEFAULT_TAU,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
) -> SamplingPlan:
    """Keep rate and target count per predicate from its training count and baseline recall."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != np.shape(recalls):
        raise ValueError("counts and recalls must cover the same predicate space")
    rates = np.array(
        [sampling_rate(int(n), float(c), tau, beta) for n, c in zip(counts, recalls)]
    )
    targets = np.array(
        [_round_half_up(int(n) * r) for n, r in zip(counts, rates)], dtype=np.int64
    )
    return SamplingPlan(
        counts=counts, rates=rates, targets=targets, seed=seed, tau=tau, beta=beta
    )


def resample(train: Dataset, plan: SamplingPlan) -> Dataset:
    """Keep exactly ``plan.targets[j]`` triples per predicate, drawn without replacement.

    Images keep all their objects even when every triple is dropped, and the
    kept triples stay in order. Deterministic given the plan's
    seed.
    """
    c = train.predicate_space.size
    if plan.counts.shape[0] != c:
        raise ValueError("plan does not cover this dataset's predicate space")

    preds = train.triples[:, 1]
    rng = substream(plan.seed, "sampling.resample")
    kept = np.zeros(len(preds), dtype=bool)
    for pred in range(c):
        pool = np.flatnonzero(preds == pred)  # the predicate's triples, in dataset order
        target = int(plan.targets[pred])
        if len(pool) != int(plan.counts[pred]):
            raise ValueError(
                f"plan was built for different data: predicate {pred} has {len(pool)} "
                f"triples, plan recorded {int(plan.counts[pred])}"
            )
        if target >= len(pool):
            kept[pool] = True
            continue
        kept[pool[rng.choice(len(pool), size=target, replace=False)]] = True
    return replace(train, triples=train.triples[kept], triple_offsets=offsets(kept)[train.triple_offsets])
