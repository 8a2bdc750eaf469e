"""The benchmark's workloads: corpus shape, stage settings and why each exists.

Every workload runs the same six CLI stages after set-up (zsplit, weights,
resample, train, refine, eval); they differ in corpus shape, which mechanisms
are switched on and the evaluation protocol, so that each one loads a
different layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Label space and corpus of the acceptance ablation (tests/test_acceptance.py,
# ABLATION_SYNTH without its seed): the ROADMAP's north-star corpus.
ABLATION_SYNTH = {
    "images": 2000,
    "c_obj": 30,
    "c_pred": 20,
    "d_roi": 32,
    "d_emb": 16,
    "zipf_s": 1.5,
    "zero_shot_fraction": 0.15,
    "noise_sigma": 0.5,
    "embedding_scale": 160.0,
    "intra_cluster_sigma": 1.0,
}

# Training and sampling choices of the acceptance ablation (ABLATION_TRAIN).
ABLATION_TRAIN = {
    "iterations": 3000,
    "lr": 0.05,
    "batch_size": 16,
    "eval_every": 300,
    "patience": 3,
    "mu": 1.2,
    "alpha": 0.35,
    "tau": 150.0,
    "beta": 0.3,
}

MECHANISMS = ("use_alignment", "use_refinement", "use_resampling", "use_reweighting")
DEFAULT_SEED = 7
CORPORA = 4


def corpus_seeds(seed: int) -> list[int]:
    """The synth seeds of a run's corpora; the first is the run seed itself.

    Quality differs from corpus to corpus (which rare predicates land in the
    test split), so a run averages it over several corpora drawn from its seed.
    """
    return [seed + 1_000_000 * i for i in range(CORPORA)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    train: dict
    enabled: frozenset = field(default_factory=frozenset)
    subtask: str = "predcls"

    @property
    def d_roi(self) -> int:
        return int(self.synth["d_roi"])

    def resolved(self, seed: int) -> dict:
        """The synth config and the key=value config every pipeline stage reads."""
        toggles = {key: key in self.enabled for key in MECHANISMS}
        return {
            "synth": {**self.synth, "seed": seed},
            "stages": {**self.train, **toggles, "subtask": self.subtask, "seed": seed},
        }

    def scaled(self, images: int, iterations: int, eval_every: int) -> "Workload":
        """The same workload on a smaller corpus and schedule (for smoke tests)."""
        return replace(
            self,
            synth={**self.synth, "images": images},
            train={**self.train, "iterations": iterations, "eval_every": eval_every},
        )


# Sizes are scaled down from the north-star settings (ablation: 2000 images,
# 3000 iterations, eval every 300; dense_sggen: 1500 images, 600 iterations,
# eval every 200; vg_shape: 1500 images, 1000 iterations, eval every 250) so
# that one pipeline takes 5-10 s on a 2-core box and a 55 s run times several.
# Each keeps its number of validation evaluations and the share of time that
# makes it what it is; the head threshold tau shrinks with the corpus, so that
# resampling thins head predicates at the same rates as at full size.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ablation",
            why="north-star corpus, all four mechanisms on: training forward/backward dominates",
            synth={**ABLATION_SYNTH, "images": 600},
            train={**ABLATION_TRAIN, "iterations": 600, "eval_every": 60, "tau": 45.0},
            enabled=frozenset(MECHANISMS),
        ),
        Workload(
            name="dense_sggen",
            why="about 11 objects per image under sggen: prediction file I/O, refinement and IoU matching dominate",
            synth={**ABLATION_SYNTH, "images": 750, "max_triples": 6, "max_distractors": 6},
            train={**ABLATION_TRAIN, "iterations": 300, "eval_every": 100, "tau": 75.0},
            enabled=frozenset({"use_refinement", "use_resampling"}),
            subtask="sggen",
        ),
        Workload(
            name="vg_shape",
            why="Visual-Genome-like widths (100 objects, 50 predicates, 256-d features): ingest parsing and wide matmuls",
            synth={**ABLATION_SYNTH, "images": 750, "c_obj": 100, "c_pred": 50,
                   "d_roi": 256, "d_emb": 64},
            train={**ABLATION_TRAIN, "iterations": 400, "eval_every": 100},
            enabled=frozenset({"use_alignment", "use_reweighting"}),
        ),
    )
}
