"""Differential tests: the forward that hands ``backward`` the projection gradient against the replaced one.

``reference_training`` keeps the forward that cached six contrastive arrays
and the ``backward`` that turned them into the projection gradient. The same
operations run in the same order, so losses, probabilities and all three
gradients must agree bit for bit, signs of zero included.
"""

import math

import numpy as np
from hypothesis import given, strategies as st

import reference_training
from sgrel import synth
from sgrel.alignment import RelationModel, backward, forward_batch, pair_inputs
from sgrel.ingest import EmbeddingTable
from sgrel.reweighting import info_weights, uniform_weights

from test_packed import random_case


def assert_identical(got, want):
    """Equal values, shapes and dtypes, with -0.0 told apart from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def check_identical(model, dataset, table, weights, images=None, mu=1.2, compute_contrastive=True):
    """Both forwards and backwards on one batch; returns the replaced forward's state for the caller's checks."""
    inputs = pair_inputs(dataset)
    batch = forward_batch(model, dataset, inputs, table, images, compute_contrastive)
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
