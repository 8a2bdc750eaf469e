"""Differential tests: the forward that hands ``backward`` the projection gradient against the replaced one.

``reference_training`` keeps the forward that cached six contrastive arrays
and the ``backward`` that turned them into the projection gradient. The same
operations run in the same order, so losses, probabilities and all three
gradients must agree bit for bit, signs of zero included.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_training
from sgrel import alignment, synth
from sgrel.alignment import RelationModel, TrainConfig, backward, batch_tables, forward_batch, pair_inputs
from sgrel.ingest import EmbeddingTable
from sgrel.reweighting import info_weights, uniform_weights

from test_packed import D_EMB, random_case


def assert_identical(got, want):
    """Equal values, shapes and dtypes, with -0.0 told apart from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def check_identical(model, dataset, table, weights, images=None, mu=1.2, compute_contrastive=True, tables=None):
    """Both forwards and backwards on one batch; returns the replaced forward's state for the caller's checks.

    The forward reads ``tables``, by default ``batch_tables(dataset, table)``; the replaced one, the dataset.
    """
    inputs = pair_inputs(dataset)
    batch = forward_batch(model, tables or batch_tables(dataset, table), images, compute_contrastive)
    ref = reference_training.forward_batch(model, dataset, inputs, table, images, compute_contrastive)
    assert isinstance(batch.contrastive, float)
    assert batch.contrastive == ref.contrastive
    assert math.copysign(1.0, batch.contrastive) == math.copysign(1.0, ref.contrastive)
    for name in ("probs", "gold", "pair_inputs"):
        assert_identical(getattr(batch, name), getattr(ref, name))
    assert (batch.d_proj is None) == (ref.sims is None) == (not compute_contrastive)

    grads = backward(model, batch, weights, mu)
    want = reference_training.backward(model, ref, weights, mu)
    assert isinstance(grads, RelationModel)
    for name in ("w_proj", "w_cls", "b_cls"):
        assert_identical(getattr(grads, name), getattr(want, name))
    return ref


def random_batch(seed, counts, zero_projection=False):
    """``test_packed.random_case`` with a random subset of its images, in random order."""
    model, dataset, table, weights = random_case(seed, counts, zero_projection)
    rng = np.random.default_rng(seed + 1)
    images = rng.permutation(len(counts))[: int(rng.integers(1, len(counts) + 1))]
    return model, dataset, table, weights, images


def synth_case(seed, d_roi=11, d_emb=19, order="C"):
    """A synthetic corpus's train split with embeddings wide enough for numpy's pairwise sums."""
    data = synth.generate(synth.SynthConfig(images=40, c_obj=12, c_pred=5, d_roi=d_roi, d_emb=d_emb, seed=seed))
    vectors = np.asarray(data.object_embeddings.vectors, order=order)
    table = EmbeddingTable(space=data.object_embeddings.space, vectors=vectors)
    rng = np.random.default_rng(seed)
    model = RelationModel.init(d_roi, d_emb, 5, rng)
    return model, data.train, table, info_weights(rng.integers(1, 50, size=5))


class TestMatchesReplacedStep:
    def test_random_batches(self):
        rng = np.random.default_rng(2023)
        for seed in range(200):
            counts = [int(c) for c in rng.integers(0, 7, size=int(rng.integers(1, 9)))]
            model, dataset, table, weights, images = random_batch(seed, counts)
            check_identical(model, dataset, table, weights, images, mu=float(rng.choice([0.0, 0.5, 1.2])))

    def test_contrastive_off(self):
        for seed, counts in enumerate([[4, 2, 1], [0], [3, 3, 5]]):
            model, dataset, table, weights, images = random_batch(seed, counts)
            check_identical(model, dataset, table, weights, images, compute_contrastive=False)
            check_identical(model, dataset, table, weights, compute_contrastive=False)

    def test_images_with_zero_or_one_object(self):
        for seed, counts in enumerate([[0], [1], [0, 1], [1, 0, 1], [0, 3], [1, 4, 0, 2]]):
            model, dataset, table, weights = random_case(seed, counts)
            ref = check_identical(model, dataset, table, weights)
            assert ref.sims is not None and ref.sims.shape[1] == max(c if c >= 2 else 0 for c in counts)

    def test_zero_and_tiny_projections_take_the_clamped_branch(self):
        """Projections of norm 0 and of norm under the guard; only the second tells the branch from its
        alternative, as the unit projection of a zero one is zero."""
        for seed, counts in enumerate([[2], [3, 1], [2, 0, 5], [4, 4]]):
            for factor in (0.0, 1e-14):
                model, dataset, table, weights = random_case(seed, counts)
                model.w_proj *= factor
                ref = check_identical(model, dataset, table, weights)
                assert ref.clamped.size and ref.clamped.all()

    def test_mu_zero(self):
        for seed in range(10):
            model, dataset, table, weights, images = random_batch(seed, [3, 2, 4, 1])
            check_identical(model, dataset, table, weights, images, mu=0.0)

    def test_uniform_and_information_weights(self):
        for seed in range(10):
            model, dataset, table, weights, images = random_batch(seed, [3, 2, 4, 1])
            assert len(set(weights.weights.tolist())) > 1
            check_identical(model, dataset, table, weights, images)
            check_identical(model, dataset, table, uniform_weights(model.c_pred), images)
            check_identical(model, dataset, table, None, images)

    def test_all_images(self):
        for seed in range(10):
            model, dataset, table, weights = random_case(seed, [3, 0, 5, 2, 1])
            check_identical(model, dataset, table, weights, images=None)

    def test_synthetic_corpus_with_wide_embeddings(self):
        """Label-embedding norms summed over 19 entries, from a C- and a Fortran-ordered table alike."""
        for seed in range(3):
            for order in ("C", "F"):
                model, dataset, table, weights = synth_case(seed, order=order)
                shuffled = np.random.default_rng(seed).permutation(len(dataset.image_ids))
                for start in range(0, 20, 4):
                    check_identical(model, dataset, table, weights, shuffled[start : start + 4])
                check_identical(model, dataset, table, weights)


@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    zero_projection=st.booleans(),
    mu=st.sampled_from([0.0, 0.5, 1.2]),
    compute_contrastive=st.booleans(),
    all_images=st.booleans(),
)
def test_property_identical_to_the_replaced_step(seed, counts, zero_projection, mu, compute_contrastive, all_images):
    model, dataset, table, weights, images = random_batch(seed, counts, zero_projection)
    check_identical(model, dataset, table, weights, None if all_images else images, mu, compute_contrastive)


def keep_triples(dataset, images):
    """``dataset`` with the triples of ``images`` only."""
    kept = [row for i in images for row in range(dataset.triple_offsets[i], dataset.triple_offsets[i + 1])]
    counts = np.zeros(len(dataset.image_ids), dtype=np.int64)
    counts[list(images)] = np.diff(dataset.triple_offsets)[list(images)]
    return dataclasses.replace(dataset, triples=dataset.triples[kept],
                               triple_offsets=np.concatenate([[0], np.cumsum(counts)]))


class TestBatchTables:
    """``forward_batch`` reads the split through the index tables ``batch_tables`` builds once."""

    @pytest.mark.parametrize("use_alignment", [True, False])
    def test_every_batch_of_a_training_run(self, monkeypatch, use_alignment):
        """Each of the 600 batches ``train`` draws, on the model as it stands at that step, against the replaced
        forward and backward; one table object serves the whole run."""
        model, dataset, table, weights = synth_case(4)
        seen = []

        def checked(model, tables, images=None, compute_contrastive=True):
            assert tables.dataset is dataset and compute_contrastive is use_alignment
            check_identical(model, dataset, table, weights, images, 1.2, compute_contrastive, tables)
            seen.append(tables)
            return forward_batch(model, tables, images, compute_contrastive)

        monkeypatch.setattr(alignment, "forward_batch", checked)
        config = TrainConfig(lr=0.05, iterations=600, batch_size=4, seed=4, mu=1.2, use_alignment=use_alignment)
        result = alignment.train(model, dataset, table, config, weights=weights)
        assert len(seen) == 600 and all(tables is seen[0] for tables in seen)
        assert not np.array_equal(result.model.w_cls, model.w_cls)

    def test_a_batch_without_two_objects_in_any_image(self):
        model, dataset, table, weights = random_case(5, [0, 1, 4, 1, 0, 3])
        tables = batch_tables(dataset, table)
        assert tables.object_rows.shape == (6, 4)
        for images in ([0, 1], [3, 1, 4], [1]):
            ref = check_identical(model, dataset, table, weights, images, tables=tables)
            assert ref.sims.shape == (len(images), 0, 0)
            assert forward_batch(model, tables, images).d_proj.shape == (len(images), 0, D_EMB)

    def test_images_without_triples(self):
        for seed, counts in enumerate([[3, 4, 2, 5], [2, 0, 6], [4]]):
            model, dataset, table, weights = random_case(seed, counts)
            for kept in ([], [0], list(range(1, len(counts)))):
                without = keep_triples(dataset, kept)
                check_identical(model, without, table, weights)
                check_identical(model, without, table, weights, [len(counts) - 1, 0])
                assert len(forward_batch(model, batch_tables(without, table), []).gold) == 0

    def test_one_large_image_among_small_ones(self):
        """The tables pad every image to the 1,100 objects of the largest; a batch without it is cut to its own."""
        model, dataset, table, weights = random_case(7, [3, 2, 1100, 5, 0, 4])
        tables = batch_tables(dataset, table)
        assert tables.object_rows.shape == tables.object_mask.shape == (6, 1100)
        assert tables.object_rows.nbytes + tables.object_mask.nbytes == 6 * 1100 * 9
        for images in ([0, 1, 3, 5], [2], [5, 2, 4, 0], None):
            check_identical(model, dataset, table, weights, images, tables=tables)
        assert forward_batch(model, tables, [0, 1, 3, 5]).features.shape == (4, 5, model.d_roi)
