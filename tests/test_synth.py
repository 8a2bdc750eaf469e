import math

import numpy as np
import pytest

from sgrel.core import validate_annotation
from sgrel.ingest import annotations_to_jsonl, build_zero_shot_index, dataset_signatures
from sgrel.metrics import evaluate
from sgrel.sampling import count_predicates
from sgrel.synth import (
    SynthConfig,
    generate,
    oracle_predictions,
    zipf_probabilities,
)


def resample_nothing(dataset):
    """``dataset`` with every triple dropped."""
    from dataclasses import replace

    return replace(dataset, triples=dataset.triples[:0], triple_offsets=np.zeros_like(dataset.triple_offsets))


class TestConfigValidation:
    def test_zero_shot_fraction_bounds(self):
        with pytest.raises(ValueError, match="zero_shot_fraction"):
            SynthConfig(zero_shot_fraction=1.0).validate()

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError, match="zipf_s"):
            SynthConfig(zipf_s=-0.5).validate()

    @pytest.mark.parametrize("key", ["zipf_s", "noise_sigma", "intra_cluster_sigma", "max_distractors"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
            SynthConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key", ["zipf_s", "noise_sigma"])
    def test_generate_refuses_nan_before_drawing(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got nan$"):
            generate(SynthConfig(images=10, **{key: math.nan}))

    def test_too_few_object_labels(self):
        with pytest.raises(ValueError, match="infeasible"):
            SynthConfig(c_obj=2, c_pred=20).validate()


class TestZipf:
    def test_uniform_when_unskewed(self):
        np.testing.assert_allclose(zipf_probabilities(10, 0.0), 0.1)

    def test_normalized_and_decreasing(self):
        p = zipf_probabilities(20, 1.5)
        assert p.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(p, p[1:]))


class TestGenerate:
    def test_all_annotations_validate(self):
        data = generate(SynthConfig(images=80, seed=3))
        for dataset in (data.train, data.val, data.test):
            assert validate_annotation(dataset) is None

    def test_same_seed_byte_identical(self):
        a = generate(SynthConfig(images=60, seed=9))
        b = generate(SynthConfig(images=60, seed=9))
        for split in ("train", "val", "test"):
            assert annotations_to_jsonl(getattr(a, split)) == annotations_to_jsonl(getattr(b, split))
        np.testing.assert_array_equal(a.object_embeddings.vectors, b.object_embeddings.vectors)
        np.testing.assert_array_equal(a.predicate_embeddings.vectors, b.predicate_embeddings.vectors)

    def test_different_seed_differs(self):
        a = generate(SynthConfig(images=60, seed=9))
        b = generate(SynthConfig(images=60, seed=10))
        assert annotations_to_jsonl(a.train) != annotations_to_jsonl(b.train)

    def test_exact_withholding(self):
        data = generate(SynthConfig(images=200, zero_shot_fraction=0.2, seed=11))
        test_signatures = dataset_signatures(data.test)
        index = build_zero_shot_index(data.train, data.test)
        assert len(index) == round(0.2 * len(test_signatures))
        assert index == data.withheld

    def test_withheld_absent_from_val_too(self):
        data = generate(SynthConfig(images=200, zero_shot_fraction=0.2, seed=11))
        index = build_zero_shot_index(data.train, data.test)
        assert not (index & dataset_signatures(data.val))

    def test_zero_fraction_gives_empty_index(self):
        data = generate(SynthConfig(images=100, zero_shot_fraction=0.0, seed=2))
        assert len(build_zero_shot_index(data.train, data.test)) == 0

    def test_gold_predicate_is_function_of_labels(self):
        data = generate(SynthConfig(images=120, seed=4))
        for dataset in (data.train, data.val, data.test):
            for subj_label, pred, obj_label in dataset.signatures().tolist():
                assert data.map.predicate_for(subj_label, obj_label) == pred

    def test_unskewed_counts_uniform_within_multinomial_tolerance(self):
        data = generate(SynthConfig(images=400, zipf_s=0.0, seed=6, zero_shot_fraction=0.0))
        counts = count_predicates(data.train)
        n = counts.sum()
        c = counts.shape[0]
        expected = n / c
        sigma = np.sqrt(n * (1.0 / c) * (1.0 - 1.0 / c))
        assert np.all(np.abs(counts - expected) <= 3.0 * sigma)

    def test_skewed_counts_follow_zipf_law(self):
        # Chi-square sanity against the configured law; generous bound, not a
        # sharp statistical gate (coverage images perturb train counts).
        cfg = SynthConfig(images=400, zipf_s=1.5, seed=6, zero_shot_fraction=0.0)
        data = generate(cfg)
        counts = count_predicates(data.train)
        expected = zipf_probabilities(cfg.c_pred, cfg.zipf_s) * counts.sum()
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 3.0 * cfg.c_pred
        assert counts[0] > 5 * counts[-5:].mean()

    def test_embeddings_cluster_structured(self):
        cfg = SynthConfig(images=20, seed=8)
        data = generate(cfg)
        vectors = data.object_embeddings.vectors
        clusters = np.asarray(data.map.label_cluster)
        same = []
        different = []
        for i in range(cfg.c_obj):
            for j in range(i + 1, cfg.c_obj):
                d = np.linalg.norm(vectors[i] - vectors[j])
                (same if clusters[i] == clusters[j] else different).append(d)
        assert max(same) < min(different)


class TestOraclePredictions:
    def test_oracle_scores_perfectly(self):
        data = generate(SynthConfig(images=150, zero_shot_fraction=0.15, seed=13))
        index = build_zero_shot_index(data.train, data.test)
        assert len(index) > 0
        report = evaluate(oracle_predictions(data.test, data.map), data.test, index)
        for k in report.ks:
            assert report.recall[k] == 1.0
            assert report.zero_shot_recall[k] == 1.0

    def test_oracle_of_no_triples(self):
        data = generate(SynthConfig(images=20, seed=1))
        predictions = oracle_predictions(resample_nothing(data.test), data.map)
        assert len(predictions) == 0 and predictions.image_ids == ()
        assert predictions.probs.shape == (0, data.test.predicate_space.size)

    def test_pair_outside_the_map_names_the_image(self):
        data = generate(SynthConfig(images=20, seed=1))
        first_pair = data.test.signatures()[0]
        gen_map = type(data.map)(data.map.label_cluster, {
            pair: pred for pair, pred in data.map.pair_predicate.items()
            if pair != (data.map.label_cluster[first_pair[0]], data.map.label_cluster[first_pair[2]])})
        with pytest.raises(ValueError, match=rf"^image {data.test.image_ids[0]}: pair \({first_pair[0]}, "
                                             rf"{first_pair[2]}\) is not covered by the generative map$"):
            oracle_predictions(data.test, gen_map)

    def test_corrupting_half_the_pairs_halves_recall(self):
        # Two triples per image, one corrupted each: recall at unbounded K
        # must be exactly one half.
        data = generate(SynthConfig(images=150, seed=13, min_triples=2, max_triples=2))
        predictions = oracle_predictions(data.test, data.map)
        c = data.test.predicate_space.size
        _, first = np.unique(predictions.image, return_index=True)  # each image's first pair
        wrong = (predictions.probs[first].argmax(axis=1) + 1) % c
        predictions.probs[first] = 0.0
        predictions.probs[first, wrong] = 1.0
        report = evaluate(predictions, data.test, ks=(1000,))
        assert report.recall[1000] == 0.5

    def test_map_round_trip(self, tmp_path):
        data = generate(SynthConfig(images=20, seed=1))
        from sgrel.synth import load_map, save_map

        path = tmp_path / "map.json"
        save_map(data.map, path)
        loaded = load_map(path)
        assert loaded.label_cluster == data.map.label_cluster
        assert loaded.pair_predicate == data.map.pair_predicate
