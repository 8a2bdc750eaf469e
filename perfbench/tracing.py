"""In-memory spans around calls into the program's modules, and the per-layer metrics read from them.

A traced pipeline replaces each public function of interest with a wrapper,
installed at the name its caller looks up (``cli`` imports ``load_annotations``
and ``resample`` by name, ``alignment`` imports ``weighted_pred_loss``,
``build_ranked`` and ``match_triples`` by name). The wrapper records one span:
name, start, end, parent span and, for some targets, counts of the work done.
Spans stay in memory until the traced process ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list, -1 for a root span
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in call order; one tracer per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(name=name, start=0.0, parent=self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span around every call; ``counter(args, result)`` gives the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals (clipped to it)."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo = max(kid.start, reach)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.seconds - covered)
    return result


def stage_residual(spans: list[Span]) -> float:
    """Largest gap, over ``cli.*`` stage spans, between a stage's duration and its self time
    plus its children's durations; zero when the children nest without overlap."""
    selfs = self_times(spans)
    kids = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            kids[span.parent] += span.seconds
    return max(
        (abs(span.seconds - selfs[i] - kids[i]) for i, span in enumerate(spans)
         if span.name.startswith("cli.")),
        default=0.0,
    )


def _refined(args, result) -> dict:
    flipped = 0
    if result:
        before = np.stack([p.probs for p in args[0]]).argmax(axis=1)
        after = np.stack([p.probs for p in result]).argmax(axis=1)
        flipped = int(np.count_nonzero(before != after))
    return {"pairs": len(result), "flipped": flipped}


# (module, attribute, span name, counter). A function reached under two names
# gets one wrapper installed at both.
TARGETS = (
    ("sgrel.synth", "generate", "synth.generate", None),
    ("sgrel.cli", "load_annotations", "ingest.load_annotations", lambda a, r: {"images": len(r.annotations)}),
    ("sgrel.ingest", "save_annotations", "ingest.save_annotations", None),
    ("sgrel.ingest", "validate_annotation", "ingest.validate_annotation", None),
    ("sgrel.cli", "resample", "sampling.resample",
     lambda a, r: {"triples_in": a[0].num_triples(), "triples_kept": r.num_triples()}),
    ("sgrel.alignment", "train", "alignment.train", None),
    ("sgrel.alignment", "forward_batch", "alignment.forward_batch", None),
    ("sgrel.alignment", "backward", "alignment.backward", None),
    ("sgrel.alignment", "_validation_mean_recall", "alignment.validation", None),
    ("sgrel.alignment", "predict", "alignment.predict", lambda a, r: {"pairs": len(r)}),
    ("sgrel.alignment", "save_model", "alignment.save_model", None),
    ("sgrel.alignment", "weighted_pred_loss", "reweighting.weighted_pred_loss", None),
    ("sgrel.refinement", "refine_dataset", "refinement.refine_dataset", _refined),
    ("sgrel.refinement", "refinement_vector", "refinement.refinement_vector", None),
    ("sgrel.metrics", "save_predictions", "metrics.save_predictions",
     lambda a, r: {"bytes": os.path.getsize(a[2])}),
    ("sgrel.metrics", "load_predictions", "metrics.load_predictions", None),
    ("sgrel.metrics", "evaluate", "metrics.evaluate", None),
    ("sgrel.metrics", "build_ranked", "metrics.build_ranked", None),
    ("sgrel.alignment", "build_ranked", "metrics.build_ranked", None),
    ("sgrel.metrics", "match_triples", "metrics.match_triples", None),
    ("sgrel.alignment", "match_triples", "metrics.match_triples", None),
)


def install(tracer: Tracer):
    """Patch every target; returns a function that restores the originals."""
    wrapped: dict[int, object] = {}
    saved = []
    for module_name, attr, name, counter in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        if id(original) not in wrapped:
            wrapped[id(original)] = tracer.wrap(name, original, counter)
        saved.append((module, attr, original))
        setattr(module, attr, wrapped[id(original)])

    def restore() -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    return restore


def _seconds(spans, name) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _count(spans, name, key) -> int:
    return sum(s.counts[key] for s in spans if s.name == name and s.counts)


def _self(spans, selfs, name) -> float:
    return sum(t for s, t in zip(spans, selfs) if s.name == name)


STAGES = ("zsplit", "weights", "resample", "train", "refine", "eval")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (or one traced set-up)."""
    selfs = self_times(spans)
    out: dict[str, float] = {f"cli.{stage}_s": _seconds(spans, f"cli.{stage}") for stage in STAGES}
    out["cli.refine_self_s"] = _self(spans, selfs, "cli.refine")

    out["alignment.train_self_s"] = _self(spans, selfs, "alignment.train")
    for name in ("forward_batch", "backward", "predict"):
        out[f"alignment.{name}_s"] = _seconds(spans, f"alignment.{name}")
        out[f"alignment.{name}_calls"] = _calls(spans, f"alignment.{name}")
    out["alignment.validation_s"] = _seconds(spans, "alignment.validation")
    out["alignment.pairs_predicted"] = _count(spans, "alignment.predict", "pairs")
    out["alignment.save_model_s"] = _seconds(spans, "alignment.save_model")

    out["reweighting.weighted_pred_loss_s"] = _seconds(spans, "reweighting.weighted_pred_loss")

    out["ingest.load_annotations_s"] = _seconds(spans, "ingest.load_annotations")
    out["ingest.load_annotations_calls"] = _calls(spans, "ingest.load_annotations")
    out["ingest.images_loaded"] = _count(spans, "ingest.load_annotations", "images")
    out["ingest.save_annotations_s"] = _seconds(spans, "ingest.save_annotations")
    out["ingest.validate_annotation_s"] = _seconds(spans, "ingest.validate_annotation")

    out["sampling.resample_s"] = _seconds(spans, "sampling.resample")
    out["sampling.triples_in"] = _count(spans, "sampling.resample", "triples_in")
    out["sampling.triples_kept"] = _count(spans, "sampling.resample", "triples_kept")

    pairs = _count(spans, "refinement.refine_dataset", "pairs")
    vectors = _calls(spans, "refinement.refinement_vector")
    out["refinement.refine_dataset_s"] = _seconds(spans, "refinement.refine_dataset")
    out["refinement.pairs_refined"] = pairs
    out["refinement.pairs_flipped"] = _count(spans, "refinement.refine_dataset", "flipped")
    # 1 - vectors computed / pairs refined; 0 when refinement is bypassed.
    out["refinement.vector_cache_hit_ratio"] = 1.0 - vectors / pairs if pairs else 0.0

    out["metrics.save_predictions_s"] = _seconds(spans, "metrics.save_predictions")
    out["metrics.save_predictions_calls"] = _calls(spans, "metrics.save_predictions")
    out["metrics.load_predictions_s"] = _seconds(spans, "metrics.load_predictions")
    out["metrics.prediction_mb"] = _count(spans, "metrics.save_predictions", "bytes") / 2**20
    out["metrics.build_ranked_s"] = _seconds(spans, "metrics.build_ranked")
    out["metrics.match_triples_s"] = _seconds(spans, "metrics.match_triples")
    out["metrics.match_triples_calls"] = _calls(spans, "metrics.match_triples")
    out["metrics.evaluate_self_s"] = _self(spans, selfs, "metrics.evaluate")

    out["synth.generate_s"] = _seconds(spans, "synth.generate")
    return out
