"""Differential tests: the columnar ``Dataset`` against the per-object annotation code that it replaced.

``reference_annotations`` keeps the replaced code. Both read the same annotation text, and every stage that the
columns now feed must give exactly what the replaced code gives: the same columns or the same refusal, the same
``.jsonl`` and ``.cols`` bytes, the same packed arrays, the same kept triples, the same zero-shot index, the same
oracle predictions and the same metric reports.
"""

import dataclasses
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgrel import ingest, synth
from sgrel.alignment import pair_inputs
from sgrel.ingest import build_zero_shot_index, companion_path, load_annotations, save_annotations
from sgrel.metrics import PROTOCOLS, PredictionSet, build_ranked, evaluate, ground_truth, match_triples
from sgrel.sampling import build_sampling_plan, count_predicates, resample

import reference_annotations as reference
from conftest import make_spaces
from reference_annotations import to_columns
from reference_predictions import assert_same_set
from test_ingest import workload_corpus
from test_metrics import assert_same_reports

COLUMNS = ("sizes", "object_offsets", "triple_offsets", "object_ids", "labels", "boxes", "features", "triples")
D_ROI = 2


def assert_same_columns(actual, expected):
    """The same split, spaces, feature dimension and image ids, and every column of the same dtype, shape and bits."""
    assert (actual.split, actual.object_space, actual.predicate_space, actual.d_roi) == (
        expected.split, expected.object_space, expected.predicate_space, expected.d_roi)
    assert [(type(i), i) for i in actual.image_ids] == [(type(i), i) for i in expected.image_ids]
    for name in COLUMNS:
        got, wanted = getattr(actual, name), getattr(expected, name)
        assert (got.dtype, got.shape, got.tobytes()) == (wanted.dtype, wanted.shape, wanted.tobytes()), name


def assert_same_pack(dataset, expected):
    """``pair_inputs(dataset)`` and the dataset's own columns are exactly the replaced ``pack``'s fields."""
    columns = {
        "features": dataset.features, "object_ids": dataset.object_ids, "labels": dataset.labels,
        "boxes": dataset.boxes, "sizes": dataset.sizes, "obj_offsets": dataset.object_offsets,
        "preds": dataset.triples[:, 1], "triple_offsets": dataset.triple_offsets, "pair_inputs": pair_inputs(dataset),
    }
    assert list(columns) == [field.name for field in dataclasses.fields(reference.PackedDataset)[1:]]
    for name, got in columns.items():
        wanted = getattr(expected, name)
        np.testing.assert_array_equal(got, wanted, strict=True, err_msg=name)
        assert got.tobytes() == wanted.tobytes(), name


def outcome(load, *args):
    """What ``load(*args)`` gives: the dataset as columns, or its error's type and text."""
    try:
        dataset = load(*args)
    except ValueError as err:
        return type(err), str(err)
    return dataset if isinstance(dataset, ingest.Dataset) else to_columns(dataset)


@st.composite
def annotation_texts(draw, c_obj=3, c_pred=3):
    """JSON-lines annotation text: boxes that the parser clamps, duplicate triples, objects of overlapping boxes
    and, now and then, a repeated object or image id, a self relation or a box that clamps to nothing."""
    object_names, predicate_names = (tuple(f"{kind}{i}" for i in range(count))
                                     for kind, count in (("thing", c_obj), ("rel", c_pred)))
    records = []
    for image in range(draw(st.integers(0, 5))):
        width, height = draw(st.sampled_from([60.0, 100.0, 100])), draw(st.sampled_from([50.0, 100.0]))
        ids = draw(st.permutations(range(6)))[: draw(st.integers(0, 5))]
        if ids and draw(st.integers(0, 39)) == 0:
            ids[-1] = ids[0]
        objects = []
        for object_id in ids:
            x = draw(st.sampled_from([-6.0, 0.0, 3.0, 4.0, 30.0, 45.0]))
            y = draw(st.sampled_from([-2.0, 0.0, 1.5, 20.0]))
            w, h = draw(st.sampled_from([10.0, 11.0, 25.0, 40.0, 80.0])), draw(st.sampled_from([10.0, 12.0, 60.0]))
            if draw(st.integers(0, 59)) == 0:
                x = 120.0  # beyond every frame: the clamp leaves nothing
            objects.append({"id": object_id, "label": draw(st.sampled_from(object_names)), "box": [x, y, x + w, y + h],
                            "feature": draw(st.lists(st.floats(-3.0, 3.0), min_size=D_ROI, max_size=D_ROI))})
        pairs = list(itertools.permutations(ids, 2))
        relations = []
        for _ in range(draw(st.integers(0, 5)) if pairs else 0):
            subj, obj = draw(st.sampled_from(pairs))
            if draw(st.integers(0, 59)) == 0:
                obj = subj
            relations.append({"subj": subj, "pred": draw(st.sampled_from(predicate_names)), "obj": obj})
        relations += relations[: draw(st.integers(0, 2))]  # duplicates, which the parser drops
        image_id = f"im{image}" if draw(st.integers(0, 39)) else "im0"
        records.append({"image_id": image_id, "width": width, "height": height, "objects": objects,
                        "relations": relations})
    return "".join(json.dumps(record) + "\n" for record in records)


def oracle_map(c_obj, c_pred):
    """A generative map that covers every label pair: each label its own cluster."""
    return synth.GenerativeMap(tuple(range(c_obj)), {(i, j): (i + 2 * j) % c_pred
                                                     for i in range(c_obj) for j in range(c_obj)})


def pair_predictions(dataset, seed):
    """Some ordered object pairs of each image, with labels mostly right and boxes moved by up to 3."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, (start, end) in enumerate(itertools.pairwise(dataset.object_offsets.tolist())):
        for subj, obj in itertools.permutations(range(start, end), 2):
            if rng.uniform() < 0.6:
                rows.append((i, subj, obj))
    image, subj, obj = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    has = np.bincount(image, minlength=len(dataset.image_ids)) > 0
    labels = np.where(rng.uniform(size=(2, len(image))) < 0.8, dataset.labels[[subj, obj]],
                      rng.integers(0, dataset.object_space.size, size=(2, len(image))))
    moved = dataset.boxes[[subj, obj]] + rng.integers(-3, 4, size=(2, len(image), 1))
    return PredictionSet(
        tuple(image_id for image_id, kept in zip(dataset.image_ids, has.tolist()) if kept), (np.cumsum(has) - 1)[image],
        dataset.object_ids[subj], dataset.object_ids[obj], *labels, *moved, rng.uniform(0.5, 1.0, len(image)),
        np.ones(len(image)), rng.dirichlet(np.ones(dataset.predicate_space.size), size=len(image)),
    )


def assert_stages_agree(dataset, objects, directory, seed=0):
    """Every stage downstream of loading gives what the replaced code gives on the same annotations."""
    new, old = Path(directory) / "new.jsonl", Path(directory) / "old.jsonl"
    save_annotations(dataset, new)
    reference.save_annotations(objects, old)
    assert new.read_bytes() == old.read_bytes()
    assert companion_path(new).read_bytes() == companion_path(old).read_bytes()
    args = (dataset.object_space, dataset.predicate_space, dataset.d_roi, dataset.split)
    loaded, replaced = ingest._companion_dataset(new, *args), reference._companion_dataset(old, *args)
    assert (loaded is None) == (replaced is None) == (ingest.validate_annotation(dataset) is not None)
    if loaded is not None:
        assert_same_columns(loaded, to_columns(replaced))
        assert_same_columns(loaded, dataset)

    assert_same_pack(dataset, reference.pack(objects))
    counts = count_predicates(dataset)
    np.testing.assert_array_equal(counts, reference.count_predicates(objects), strict=True)
    recalls = np.random.default_rng(seed).uniform(0.0, 1.0, dataset.predicate_space.size)
    for plan_seed in range(3):
        plan = build_sampling_plan(counts, recalls, tau=1.0, beta=1.0, seed=seed + plan_seed)
        kept = resample(dataset, plan)
        assert_same_columns(kept, to_columns(reference.resample(objects, plan)))
        assert build_zero_shot_index(kept, dataset) == reference.build_zero_shot_index(
            reference.resample(objects, plan), objects)

    gen_map = oracle_map(dataset.object_space.size, dataset.predicate_space.size)
    oracle = synth.oracle_predictions(dataset, gen_map)
    assert_same_set(oracle, reference.oracle_predictions(objects, gen_map))
    zero_shot = frozenset(sorted(set(map(tuple, dataset.signatures().tolist())))[::2])
    for predictions in (oracle, pair_predictions(dataset, seed)):
        for protocol in PROTOCOLS:
            report = evaluate(predictions, dataset, zero_shot, None, (1, 2, 5, 50), protocol)
            assert_same_reports(report, reference.evaluate(predictions, objects, zero_shot, None, (1, 2, 5, 50),
                                                           protocol))
        ranked, gt, bounds = build_ranked(predictions, dataset.predicate_space.size), ground_truth(dataset), (
            dataset.triple_offsets)
        for i, annotation in enumerate(objects.annotations):
            for protocol in PROTOCOLS:
                top = ranked.get(annotation.image_id, ())
                assert match_triples(top, gt[bounds[i] : bounds[i + 1]], 50, protocol) == reference.match_triples(
                    top, annotation, 50, protocol)


class TestAgainstTheReplacedCode:
    @settings(max_examples=150)
    @given(text=annotation_texts(), seed=st.integers(0, 2**16))
    def test_random_annotation_text(self, text, seed):
        spaces = make_spaces(c_obj=3, c_pred=3)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "val.jsonl"
            path.write_text(text)
            loaded = outcome(load_annotations, path, *spaces, D_ROI, "val")
            expected = outcome(reference.load_annotations, path, *spaces, D_ROI, "val")
            if isinstance(expected, tuple):
                assert loaded == expected
                return
            assert_same_columns(loaded, expected)
            assert_stages_agree(loaded, reference.load_annotations(path, *spaces, D_ROI, "val"), directory, seed)

    @pytest.mark.parametrize("workload", ["ablation", "dense_sggen"])
    def test_workload_corpora(self, tmp_path, monkeypatch, workload):
        train, _, test = workload_corpus(workload, monkeypatch)
        for split, directory in ((test, tmp_path / "test"), (train, tmp_path / "train")):
            directory.mkdir()
            save_annotations(split, directory / "split.jsonl")
            args = (split.object_space, split.predicate_space, split.d_roi, split.split)
            objects = reference.load_annotations(directory / "split.jsonl", *args)
            assert_same_columns(load_annotations(directory / "split.jsonl", *args), to_columns(objects))
            if split is test:
                assert_stages_agree(split, objects, directory)
        assert build_zero_shot_index(train, test) == reference.build_zero_shot_index(
            reference.to_objects(train), reference.to_objects(test))

    def test_converters_are_inverse(self, monkeypatch):
        _, val, _ = workload_corpus("ablation", monkeypatch)
        assert_same_columns(to_columns(reference.to_objects(val)), val)
