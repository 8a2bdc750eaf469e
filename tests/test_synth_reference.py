"""Differential tests: the corpus drawn with one generator call per box and per predicate against the replaced code.

``reference_synth`` keeps the drawing that made four scalar ``uniform`` calls per box and one ``Generator.choice``
per predicate. Each substream must consume the same generator stream, so every column, both embedding tables,
the map and the withheld set are equal bit for bit, and ``synth`` writes the same bytes.
"""

import importlib.util
import itertools
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_synth as reference
from sgrel import synth
from sgrel.cli import main
from sgrel.core import OBJECT, PREDICATE, Dataset, LabelSpace
from sgrel.synth import SynthConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def column_bytes(dataset):
    """Every field of the split, each array as its dtype, shape and bytes."""
    values = {f.name: getattr(dataset, f.name) for f in fields(Dataset)}
    return {name: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for name, v in values.items()}


def assert_same_corpus(cfg):
    expected, actual = reference.generate(cfg), synth.generate(cfg)
    for split in ("train", "val", "test"):
        assert column_bytes(getattr(actual, split)) == column_bytes(getattr(expected, split)), split
    for table in ("object_embeddings", "predicate_embeddings"):
        assert getattr(actual, table).space == getattr(expected, table).space
        assert getattr(actual, table).vectors.tobytes() == getattr(expected, table).vectors.tobytes()
    assert actual.map.to_json_dict() == expected.map.to_json_dict()
    assert actual.withheld == expected.withheld
    return actual


@pytest.mark.parametrize(
    "overrides",
    [
        # The benchmark's three workload shapes at small sizes.
        {"images": 60, "zero_shot_fraction": 0.15},
        {"images": 60, "zero_shot_fraction": 0.15, "max_triples": 6, "max_distractors": 6},
        {"images": 40, "zero_shot_fraction": 0.15, "c_obj": 100, "c_pred": 50, "d_roi": 256, "d_emb": 64},
        {"images": 1},
        {"images": 30, "c_pred": 1, "c_obj": 2},
        {"images": 50, "zipf_s": 0.0},
        {"images": 50, "zipf_s": 50.0},  # the first predicate takes all the mass
        {"images": 40, "max_distractors": 0},
        {"images": 40, "min_triples": 3, "max_triples": 3},
        {"images": 30, "noise_sigma": 0.0},
        {"images": 30, "d_roi": 1},
    ],
    ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
)
@pytest.mark.parametrize("seed", [0, 7])
def test_corpus_is_bit_identical_to_the_reference(overrides, seed):
    assert_same_corpus(SynthConfig(**overrides, seed=seed))


def test_coverage_images_are_bit_identical_to_the_reference():
    data = assert_same_corpus(SynthConfig(images=40, seed=2, zero_shot_fraction=0.0))
    assert sum(image_id.startswith("train-cover-") for image_id in data.train.image_ids) == 6


def test_one_predicate_takes_every_triple_under_extreme_skew():
    data = assert_same_corpus(SynthConfig(images=50, zipf_s=50.0, zero_shot_fraction=0.0))
    assert set(data.test.triples[:, 1].tolist()) == {0}


class EdgeUniforms(np.random.Generator):
    """A generator whose single uniforms, one per predicate draw, cycle through ``values``; it draws the rest itself."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(5))
        self.values = itertools.cycle(values)

    def random(self, size=None, dtype=np.float64, out=None):
        if size not in (None, ()):
            return super().random(size, dtype, out)
        value = next(self.values)
        return value if size is None else np.array(value)


@pytest.mark.parametrize("c_pred, zipf_s", [(4, 0.0), (6, 1.5), (7, 0.0)])
def test_uniforms_on_the_edges_of_the_cdf_draw_the_reference_predicates(c_pred, zipf_s):
    cfg = SynthConfig(c_obj=3, c_pred=c_pred, d_roi=2, zipf_s=zipf_s, max_triples=6)
    p = synth.zipf_probabilities(c_pred, zipf_s)
    cdf = np.cumsum(p) / np.cumsum(p)[-1]  # 7 predicates at zipf_s=0 sum to 1 - 2**-52, 6 at 1.5 to 1 + 2**-52
    values = [0.0, *cdf[:-1], *np.cumsum(p)[:-1], *np.nextafter(cdf, 0.0)]
    pairs = [[(k % 3, (k + 1) % 3)] for k in range(c_pred)]
    anchors = np.random.default_rng(0).normal(size=(3, 2))
    objects = LabelSpace(kind=OBJECT, names=("a", "b", "c"))
    predicates = LabelSpace(kind=PREDICATE, names=tuple(f"p{k}" for k in range(c_pred)))
    expected = reference._generate_images(EdgeUniforms(values), 60, "edge", cfg, p, pairs, anchors)
    actual = synth._generate_images(EdgeUniforms(values), 60, "edge", cfg, p, pairs)
    drawn = actual.dataset("test", objects, predicates, cfg, anchors)
    assert column_bytes(drawn) == column_bytes(expected.dataset("test", objects, predicates, cfg))
    assert sorted(set(drawn.triples[:, 1].tolist())) == list(range(c_pred))


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**63 - 1),
    images=st.integers(1, 30),
    c_pred=st.integers(1, 12),
    extra_objects=st.integers(0, 6),
    d_roi=st.integers(1, 6),
    triples=st.tuples(st.integers(1, 4), st.integers(0, 3)),
    max_distractors=st.integers(0, 4),
    zipf_s=st.sampled_from([0.0, 0.7, 1.5, 8.0]),
    zero_shot_fraction=st.sampled_from([0.0, 0.15, 0.5]),
)
def test_random_corpora_are_bit_identical_to_the_reference(
    seed, images, c_pred, extra_objects, d_roi, triples, max_distractors, zipf_s, zero_shot_fraction
):
    cfg = SynthConfig(
        c_obj=synth._num_clusters(c_pred) + extra_objects, c_pred=c_pred, d_roi=d_roi, d_emb=3, images=images,
        zipf_s=zipf_s, zero_shot_fraction=zero_shot_fraction, seed=seed, min_triples=triples[0],
        max_triples=sum(triples), max_distractors=max_distractors,
    )
    try:
        reference.generate(cfg)
    except ValueError as err:  # withholding can leave a predicate without a label pair
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            synth.generate(cfg)
        return
    assert_same_corpus(cfg)


def workload_synth(name, monkeypatch):
    """The synth keys of the benchmark's workload ``name``, or of the north-star corpus for ``north_star``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    return workloads.ABLATION_SYNTH if name == "north_star" else workloads.WORKLOADS[name].synth


def synth_tree(root, keys):
    """Run ``synth`` on a config file of ``keys``; every file it wrote, by name."""
    config = root / "synth.cfg"
    config.write_text("".join(f"{key}={value}\n" for key, value in keys.items()), encoding="utf-8")
    out = root / "corpus"
    assert main(["synth", "--out", str(out), "--config", str(config)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("ablation", "dense_sggen", "vg_shape") for seed in (7, 11, 1000007)]
    + [("north_star", 7)],
)
def test_synth_writes_the_reference_bytes(name, seed, tmp_path, monkeypatch):
    keys = {**workload_synth(name, monkeypatch), "seed": seed}
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    written = synth_tree(tmp_path / "new", keys)
    monkeypatch.setattr(synth, "generate", reference.generate)
    expected = synth_tree(tmp_path / "old", keys)
    assert list(written) == list(expected)
    assert len(written) == 12  # labels and embeddings for both kinds, three splits with companions, map, manifest
    for file_name, content in expected.items():
        assert written[file_name] == content, file_name
