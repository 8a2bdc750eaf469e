import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_annotations import Triple, to_objects
from sgrel.ingest import annotations_to_jsonl
from sgrel.sampling import (
    build_sampling_plan,
    count_predicates,
    resample,
    sampling_rate,
)

from conftest import make_annotation, make_dataset, make_object


class TestCountPredicates:
    def test_empty_dataset(self, spaces):
        dataset = make_dataset([], spaces)
        np.testing.assert_array_equal(count_predicates(dataset), np.zeros(3, dtype=int))

    def test_direct_count(self, spaces):
        objects = tuple(make_object(i) for i in range(4))
        a = make_annotation(
            objects=objects,
            triples=(Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 3)),
        )
        np.testing.assert_array_equal(count_predicates(make_dataset([a], spaces)), [3, 0, 0])

    def test_counts_partition_total(self, rng, spaces):
        annotations = []
        for i in range(10):
            objects = tuple(make_object(j) for j in range(4))
            n = int(rng.integers(1, 4))
            triples = tuple(
                Triple(0, int(rng.integers(3)), j + 1) for j in range(n)
            )
            annotations.append(make_annotation(f"im{i}", objects=objects, triples=triples))
        dataset = make_dataset(annotations, spaces)
        assert count_predicates(dataset).sum() == dataset.num_triples()


class TestSamplingRate:
    def test_head_predicate_hand_value(self):
        # Count like the dominant head class of a real long-tailed corpus.
        rate = sampling_rate(110000, 0.8, tau=1100.0, beta=0.3)
        assert rate == pytest.approx(1100.0 / 26400.0, abs=1e-5)
        assert rate == pytest.approx(0.04167, abs=1e-5)

    def test_below_threshold_branch(self):
        assert sampling_rate(500, 0.9, tau=1100.0, beta=0.3) == 1.0

    def test_cap_branch(self):
        assert sampling_rate(2000, 0.5, tau=1100.0, beta=0.3) == 1.0

    def test_zero_recall_keeps_everything(self):
        assert sampling_rate(50000, 0.0, tau=1100.0, beta=0.3) == 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            sampling_rate(10, 0.5, tau=0.0, beta=0.3)
        with pytest.raises(ValueError):
            sampling_rate(10, 0.5, tau=1100.0, beta=-1.0)

    def test_monotone_in_count(self):
        rates = [sampling_rate(n, 0.8, tau=1000.0, beta=0.5) for n in range(100, 20000, 250)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_monotone_in_recall(self):
        rates = [sampling_rate(9000, c, tau=1000.0, beta=0.5) for c in np.linspace(0.01, 1.0, 50)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_low_recall_heads_keep_more(self, rng):
        for _ in range(100):
            n = int(rng.integers(1100, 100000))
            c_a, c_b = sorted(rng.uniform(0.0, 1.0, size=2))
            assert sampling_rate(n, c_a) >= sampling_rate(n, c_b)


def long_tailed_dataset(counts, spaces):
    annotations = []
    image = 0
    for pred, count in enumerate(counts):
        for _ in range(count):
            annotations.append(
                make_annotation(
                    f"im{image}",
                    objects=(make_object(0, 0), make_object(1, 1)),
                    triples=(Triple(0, pred, 1),),
                )
            )
            image += 1
    return make_dataset(annotations, spaces)


class TestResample:
    def test_identity_plan_preserves_dataset(self, spaces):
        dataset = long_tailed_dataset([4, 3, 2], spaces)
        plan = build_sampling_plan(count_predicates(dataset), np.full(3, 0.5), tau=1100.0, beta=0.3, seed=9)
        assert (plan.rates == 1.0).all()
        out = resample(dataset, plan)
        assert annotations_to_jsonl(out) == annotations_to_jsonl(dataset)

    def test_exact_half_retained(self, spaces):
        dataset = long_tailed_dataset([100, 10, 10], spaces)
        # tau=20, beta=1.5: rate = 20 / (100 * 1.5 * 2/3) = 0.2 on the head.
        plan = build_sampling_plan(
            count_predicates(dataset), np.array([2.0 / 3.0, 0.5, 0.5]), tau=20.0, beta=1.5, seed=9
        )
        assert plan.targets[0] == 20
        out = resample(dataset, plan)
        np.testing.assert_array_equal(count_predicates(out), [20, 10, 10])

    def test_round_half_up_targets(self):
        plan = build_sampling_plan(np.array([7]), np.array([1.0]), tau=2.0, beta=1.0, seed=0)
        # rate = 2/7 -> 7 * 2/7 = 2.0 exactly; and 2.5-style cases round up.
        assert plan.targets[0] == 2
        plan = build_sampling_plan(np.array([5]), np.array([1.0]), tau=2.5, beta=1.0, seed=0)
        # rate = 2.5 / 5 = 0.5 -> 2.5 rounds half-up to 3.
        assert plan.targets[0] == 3

    def test_never_up_samples(self, rng, spaces):
        counts = [int(rng.integers(1, 60)) for _ in range(3)]
        dataset = long_tailed_dataset(counts, spaces)
        for _ in range(20):
            recalls = rng.uniform(0.0, 1.0, size=3)
            plan = build_sampling_plan(
                count_predicates(dataset), recalls, tau=float(rng.integers(1, 80)), beta=float(rng.uniform(0.1, 2.0)),
                seed=1,
            )
            assert (plan.targets <= plan.counts).all()
            out = resample(dataset, plan)
            np.testing.assert_array_equal(count_predicates(out), plan.targets)

    def test_deterministic_given_seed(self, spaces):
        dataset = long_tailed_dataset([40, 5, 5], spaces)
        plan = build_sampling_plan(count_predicates(dataset), np.array([1.0, 1.0, 1.0]), tau=10.0, beta=1.0, seed=77)
        first = annotations_to_jsonl(resample(dataset, plan))
        second = annotations_to_jsonl(resample(dataset, plan))
        assert first == second

    def test_objects_and_empty_annotations_kept(self, spaces):
        dataset = long_tailed_dataset([30], (spaces[0], spaces[1]))
        plan = build_sampling_plan(count_predicates(dataset), np.array([1.0, 0.0, 0.0]), tau=3.0, beta=1.0, seed=5)
        out = resample(dataset, plan)
        assert len(out.annotations) == len(dataset.annotations)
        assert (np.diff(out.object_offsets) == 2).all()
        assert (np.diff(out.triple_offsets) == 0).any()

    def test_max_share_never_grows_under_uniform_recalls(self, rng):
        # Holds when recalls do not decrease with count and beta*c <= 1 (the
        # default regime: beta = 0.3). Adversarial profiles (a huge head with
        # recall 0 protected while a smaller head shrinks) can raise the max
        # share, so the law is checked on its continuous targets.
        for trial in range(200):
            counts = rng.integers(5, 5000, size=int(rng.integers(2, 12)))
            recall = float(rng.uniform(0.05, 1.0))
            tau = float(rng.integers(5, 3000))
            rates = np.array([sampling_rate(int(n), recall, tau=tau, beta=0.3) for n in counts])
            targets = counts * rates
            if (rates < 1.0).any():
                before = counts.max() / counts.sum()
                after = targets.max() / targets.sum()
                assert after <= before + 1e-12


def scene_dataset(images):
    """One image per entry of ``images``, holding one triple per listed predicate, all on distinct objects."""
    return make_dataset([
        make_annotation(
            f"im{i}",
            objects=tuple(make_object(j) for j in range(len(preds) + 1)),
            triples=tuple(Triple(0, pred, j + 1) for j, pred in enumerate(preds)),
        )
        for i, preds in enumerate(images)
    ])


def assert_resampled_to_targets(dataset, plan):
    """Exactly ``plan.targets[j]`` triples of predicate ``j`` survive.

    Every image keeps its objects, and its kept triples are an in-order
    subsequence of its own.
    """
    out = resample(dataset, plan)
    np.testing.assert_array_equal(count_predicates(out), plan.targets)
    assert out.image_ids == dataset.image_ids
    for name in ("sizes", "object_offsets", "object_ids", "labels", "boxes", "features"):
        np.testing.assert_array_equal(getattr(out, name), getattr(dataset, name), strict=True)
    for before, after in zip(to_objects(dataset).annotations, to_objects(out).annotations):
        remaining = iter(before.triples)
        assert all(triple in remaining for triple in after.triples)


IMAGES = st.lists(st.lists(st.integers(0, 2), max_size=5), max_size=25)


@given(
    images=IMAGES,
    recalls=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    tau=st.floats(1.0, 40.0),
    beta=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_resample_keeps_exactly_the_targets_and_never_up_samples(images, recalls, tau, beta, seed):
    dataset = scene_dataset(images)
    counts = count_predicates(dataset)
    plan = build_sampling_plan(counts, np.array(recalls), tau=tau, beta=beta, seed=seed)
    assert (plan.targets <= counts).all()
    assert_resampled_to_targets(dataset, plan)


@given(images=IMAGES, data=st.data())
def test_resample_keeps_any_target_up_to_the_count(images, data):
    """Every target from 0 to the whole count, boundaries included, is met exactly."""
    dataset = scene_dataset(images)
    counts = count_predicates(dataset)
    targets = [data.draw(st.integers(0, int(n))) for n in counts]
    plan = build_sampling_plan(counts, np.ones(3), seed=5)
    assert_resampled_to_targets(dataset, dataclasses.replace(plan, targets=np.array(targets, dtype=np.int64)))
