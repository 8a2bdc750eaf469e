import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgrel import refinement
from sgrel.core import LabelSpace, OBJECT, PREDICATE
from sgrel.ingest import EmbeddingTable
from sgrel.refinement import (
    distance_vector,
    refine,
    refine_dataset,
    refinement_vector,
)

import reference_predictions
from conftest import awkward_pairs, make_box
from reference_predictions import PairPrediction, assert_same_set, to_pairs, to_set


def table(vectors, kind=PREDICATE, prefix="rel"):
    vectors = np.asarray(vectors, dtype=np.float64)
    space = LabelSpace(kind=kind, names=tuple(f"{prefix}{i}" for i in range(len(vectors))))
    return EmbeddingTable(space=space, vectors=vectors)


class TestDistanceVector:
    def test_self_distance_is_zero(self):
        predicates = table([[1.0, 2.0], [0.5, 0.5]])
        assert distance_vector(np.array([1.0, 2.0]), predicates)[0] == 0.0

    def test_hand_values(self):
        predicates = table([[1e-9, 0.0], [1.0, 0.0]])
        d = distance_vector(np.array([1.0, 0.0]), predicates)
        np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-8)

    def test_identical_embeddings_give_constant_vector(self):
        predicates = table([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
        d = distance_vector(np.array([0.0, 0.0]), predicates)
        assert np.ptp(d) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance_vector(np.array([1.0, 0.0, 0.0]), table([[1.0, 0.0]]))

    def test_stack_mismatch_names_its_shape(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: vector has shape \(2, 3\), table dim 2$"):
            distance_vector(np.ones((2, 3)), table([[1.0, 0.0]]))

    @pytest.mark.parametrize("dim", [1, 3, 8, 9, 40])
    def test_stack_rows_equal_each_vector_alone(self, rng, dim):
        predicates = table(rng.normal(size=(7, dim)) * 100.0)
        vectors = rng.normal(size=(2, 5, dim)) * 100.0
        stacked = distance_vector(vectors, predicates)
        assert stacked.shape == (2, 5, 7)
        for index in np.ndindex(2, 5):
            np.testing.assert_array_equal(
                stacked[index], reference_predictions.distance_vector(vectors[index], predicates), strict=True
            )


class TestRefinementVector:
    def test_hand_arithmetic(self):
        # alpha=0.5, subj=obj=(1,0), original predicate at (0,0),
        # predicates at {(0,0), (1,0)} -> v = (1, 0.5).
        predicates = table([[1e-12, 0.0], [1.0, 0.0]])
        subj, obj, pred = distance_vector(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), predicates)
        v = refinement_vector(subj, obj, pred, alpha=0.5)
        np.testing.assert_allclose(v, [1.0, 0.5], atol=1e-9)

    def test_alpha_zero_peaks_at_original_predicate(self):
        predicates = table([[0.0, 1.0], [3.0, 0.0], [0.0, -2.0]])
        subj, obj = distance_vector(np.array([[9.0, 9.0], [-9.0, 0.0]]), predicates)
        v = refinement_vector(subj, obj, distance_vector(predicates.vectors, predicates)[1], alpha=0.0)
        assert v[1] == 0.0
        assert np.argmax(np.exp(-v)) == 1

    def test_alpha_one_ignores_predicate_embedding(self, rng):
        predicates = table(rng.normal(size=(4, 3)))
        subj, obj = distance_vector(rng.normal(size=(2, 3)), predicates)
        table_rows = distance_vector(predicates.vectors, predicates)
        a = refinement_vector(subj, obj, table_rows[0], alpha=1.0)
        b = refinement_vector(subj, obj, table_rows[3], alpha=1.0)
        np.testing.assert_array_equal(a, b)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            refinement_vector(np.ones(1), np.ones(1), np.ones(1), 1.5)

    def test_monotone_coupling_of_v_and_w(self, rng):
        predicates = table(rng.normal(size=(5, 4)))
        v = refinement_vector(*distance_vector(rng.normal(size=(3, 4)), predicates))
        order_v = np.argsort(v)
        order_w = np.argsort(-np.exp(-v))
        np.testing.assert_array_equal(order_v, order_w)


class TestRefine:
    def test_constant_affinity_is_identity_on_argmax(self):
        w = np.exp(-np.full(3, 2.0))
        probs = np.array([0.2, 0.5, 0.3])
        idx, scores = refine(probs, w)
        assert idx == 1
        np.testing.assert_allclose(scores, probs, atol=1e-12)

    def test_semantics_can_override_distribution(self):
        # D=(0.6, 0.4), v=(1, 0.5): scores renormalize to favor index 1.
        idx, scores = refine(np.array([0.6, 0.4]), np.exp(-np.array([1.0, 0.5])))
        assert idx == 1
        raw = np.array([0.6 * np.exp(-1.0), 0.4 * np.exp(-0.5)])
        np.testing.assert_allclose(raw, [0.22073, 0.24261], atol=1e-5)
        np.testing.assert_allclose(scores, raw / raw.sum())

    def test_one_hot_dominance(self):
        idx, _ = refine(np.array([1.0, 0.0, 0.0]), np.exp(-np.array([5.0, 0.0, 1.0])))
        assert idx == 0

    def test_degenerate_refinement_rejected(self):
        with pytest.raises(ValueError, match="degenerate refinement"):
            refine(np.zeros(2), np.exp(-np.zeros(2)))

    def test_tie_breaks_to_lowest_index(self):
        idx, _ = refine(np.array([0.5, 0.5]), np.ones(2))
        assert idx == 0

    def test_shifting_v_by_constant_preserves_argmax(self, rng):
        for _ in range(200):
            v = rng.uniform(0.0, 4.0, size=5)
            probs = rng.dirichlet(np.ones(5))
            base, _ = refine(probs, np.exp(-v))
            shifted, _ = refine(probs, np.exp(-(v + 3.7)))
            assert base == shifted

    def test_scale_invariance_in_distribution(self, rng):
        for _ in range(100):
            v = rng.uniform(0.0, 4.0, size=4)
            w = np.exp(-v)
            probs = rng.dirichlet(np.ones(4))
            idx_a, scores_a = refine(probs, w)
            idx_b, scores_b = refine(37.0 * probs, w)
            assert idx_a == idx_b
            np.testing.assert_allclose(scores_a, scores_b, atol=1e-12)

    def test_brute_force_oracle_agreement(self, rng):
        # Exhaustive argmax over D_j * exp(-v_j) for small C.
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            v = rng.uniform(0.0, 5.0, size=c)
            probs = rng.dirichlet(np.ones(c))
            idx, _ = refine(probs, np.exp(-v))
            best, best_score = 0, -1.0
            for j in range(c):
                score = probs[j] * np.exp(-v[j])
                if score > best_score:
                    best, best_score = j, score
            assert idx == best


class TestRefineDataset:
    def pair(self, probs, subj_label=0, obj_label=1, image_id="im0", subj_id=0, obj_id=1):
        return PairPrediction(
            image_id=image_id,
            subj_id=subj_id,
            obj_id=obj_id,
            subj_label=subj_label,
            obj_label=obj_label,
            subj_box=make_box(),
            obj_box=make_box(20.0, 0.0, 30.0, 10.0),
            probs=np.asarray(probs, dtype=np.float64),
        )

    def test_identical_predicate_embeddings_change_nothing(self, rng):
        objects = table(rng.normal(size=(3, 2)), kind=OBJECT, prefix="thing")
        predicates = table([[1.0, 1.0], [1.0, 1.0]])
        pairs = [self.pair(rng.dirichlet(np.ones(2)), subj_id=i, obj_id=i + 1) for i in range(4)]
        refined = to_pairs(refine_dataset(to_set(pairs), objects, predicates))
        for before, after in zip(pairs, refined):
            assert np.argmax(before.probs) == np.argmax(after.probs)
            np.testing.assert_allclose(before.probs, after.probs, atol=1e-12)

    def test_refinement_flips_biased_pair(self):
        # Object pair semantically at predicate 1, distribution mildly at 0.
        objects = table([[1.0, 0.0], [1.0, 0.0]], kind=OBJECT, prefix="thing")
        predicates = table([[-3.0, 0.0], [1.0, 0.0]])
        refined = refine_dataset(to_set([self.pair([0.6, 0.4])]), objects, predicates, alpha=0.9)
        assert int(np.argmax(refined.probs[0])) == 1

    @pytest.mark.parametrize("probs, refined", [([0.5, 0.5], [1.0, 0.0]), ([0.0, 1.0], None)],
                             ids=["refines", "raises"])
    def test_underflowing_affinity_shifts_by_the_profile_minimum(self, probs, refined):
        # alpha=1: v = 2 * (2000, 4000); exp(-v) is zero and exp(min(v) - v) is (1, 0), so a row whose
        # mass lies only where even the shifted affinity underflows still raises.
        objects = table([[-1999.0, 0.0]], kind=OBJECT, prefix="thing")
        predicates = table([[1.0, 0.0], [2001.0, 0.0]])
        pairs = to_set([self.pair(probs, subj_label=0, obj_label=0)])
        if refined is None:
            with pytest.raises(ValueError, match="^degenerate refinement: all refined scores are zero$"):
                refine_dataset(pairs, objects, predicates, alpha=1.0)
        else:
            np.testing.assert_array_equal(refine_dataset(pairs, objects, predicates, alpha=1.0).probs, [refined])

    def test_empty_prediction_set(self, rng):
        objects = table(rng.normal(size=(2, 2)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(2, 2)))
        empty = to_set([], 2)
        assert refine_dataset(empty, objects, predicates) is empty


def per_pair_refine(probs, w):
    """The per-vector ``refine`` that the row-stacked one replaced."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != w.shape:
        raise ValueError(
            f"length mismatch: distribution {probs.shape} vs refinement {w.shape}"
        )
    scores = probs * w
    total = scores.sum()
    if total <= 0.0:
        raise ValueError("degenerate refinement: all refined scores are zero")
    scores = scores / total
    return int(np.argmax(scores)), scores


def per_pair_refine_dataset(predictions, object_embeddings, predicate_embeddings, alpha=0.35, shifted=False):
    """The per-pair ``refine_dataset`` that the row-stacked one replaced: the differential oracle.

    With ``shifted``, a pair whose refined scores are all zero takes the
    affinity ``exp(min(v) - v)`` of its profile ``v``.
    """
    refined = []
    cache = {}
    for pair in predictions:
        pre_top = int(np.argmax(pair.probs))
        key = (pair.subj_label, pair.obj_label, pre_top)
        v = cache.get(key)
        if v is None:
            v = reference_predictions.refinement_vector(
                object_embeddings.vectors[pair.subj_label],
                object_embeddings.vectors[pair.obj_label],
                predicate_embeddings.vectors[pre_top],
                predicate_embeddings,
                alpha,
            )
            cache[key] = v
        w = np.exp(-v)
        probs = np.asarray(pair.probs, dtype=np.float64)
        if shifted and not (probs * w).any():
            w = np.exp(v.min() - v)
        _, scores = per_pair_refine(probs, w)
        refined.append(replace(pair, probs=scores))
    return refined


def assert_same_pairs(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert (a.image_id, a.subj_id, a.obj_id, a.subj_label, a.obj_label) == (
            e.image_id, e.subj_id, e.obj_id, e.subj_label, e.obj_label
        )
        assert (a.subj_box, a.obj_box, a.subj_score, a.obj_score) == (
            e.subj_box, e.obj_box, e.subj_score, e.obj_score
        )
        assert a.probs.dtype == e.probs.dtype and np.array_equal(a.probs, e.probs)


class TestStackedRefinement:
    """``refine_dataset`` on stacked rows against the per-pair code it replaced, bit for bit."""

    # numpy sums a row of fewer than 8 entries in order, up to 128 in eight
    # interleaved partial sums, and beyond that by recursive halving.
    @pytest.mark.parametrize("alpha", [0.0, 0.35, 1.0])
    def test_equals_per_pair_refinement_for_every_width(self, alpha):
        def check(pairs, objects, predicates):
            refined = refine_dataset(to_set(pairs), objects, predicates, alpha)
            assert_same_pairs(to_pairs(refined), per_pair_refine_dataset(pairs, objects, predicates, alpha))
            # The list-based refine_dataset that the columns replaced gives the same set, bit for bit.
            listed = reference_predictions.refine_dataset(pairs, objects, predicates, alpha)
            assert_same_set(refined, to_set(listed))

        rng, grid_rng = np.random.default_rng(11), np.random.default_rng(12)
        for c_pred in range(1, 131):
            objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
            predicates = table(rng.normal(size=(c_pred, 3)))
            check(awkward_pairs(rng, c_pred), objects, predicates)
            # A table of 9 objects: pairs with labels 0-3 only, then pairs at each corner of the key grid.
            objects = table(grid_rng.normal(size=(9, 3)), kind=OBJECT, prefix="thing")
            check(awkward_pairs(grid_rng, c_pred), objects, predicates)
            pairs = awkward_pairs(grid_rng, c_pred, c_obj=9)
            for i, (s, o, top) in enumerate(itertools.product([0, 8], [0, 8], [0, c_pred - 1])):
                probs = pairs[i].probs.copy()
                probs[top] = probs.max() + 1.0
                pairs[i] = replace(pairs[i], subj_label=s, obj_label=o, probs=probs)
            check(pairs, objects, predicates)

    def test_one_refinement_vector_per_label_triple(self, rng, monkeypatch):
        calls = []
        original = refinement.refinement_vector
        monkeypatch.setattr(
            refinement, "refinement_vector", lambda *args: calls.append(args) or original(*args)
        )
        objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(6, 3)))
        pairs = awkward_pairs(rng, 6, images=5)
        refine_dataset(to_set(pairs), objects, predicates)
        keys = {(p.subj_label, p.obj_label, int(np.argmax(p.probs))) for p in pairs}
        assert len(calls) == len(keys) < len(pairs)

    @pytest.mark.parametrize("low", [-4, 0, 3])
    def test_label_keys_in_the_order_of_the_label_rows(self, rng, monkeypatch, low):
        """One vector per distinct (subject label, object label, top) row, called in ``np.unique(..., axis=0)``'s
        order; negative labels lie outside the space and are refused before any vector."""
        calls = []
        monkeypatch.setattr(refinement, "refinement_vector", lambda *args: calls.append(args) or sum(args))
        objects = table(rng.normal(size=(8, 3)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(5, 3)))
        predictions = to_set(awkward_pairs(rng, 5, images=4))
        labels = rng.integers(low, low + 4, size=(2, len(predictions)))
        predictions = replace(predictions, subj_label=labels[0], obj_label=labels[1])
        if low < 0:
            with pytest.raises(ValueError, match="^invalid entry in coordinates array$"):
                refine_dataset(predictions, objects, predicates)
            assert calls == []
            return
        refine_dataset(predictions, objects, predicates)
        rows = np.stack([labels[0], labels[1], predictions.probs.argmax(axis=1)], axis=1)
        objects_d = distance_vector(objects.vectors, predicates)
        predicates_d = distance_vector(predicates.vectors, predicates)
        expected = [(objects_d[s], objects_d[o], predicates_d[t]) for s, o, t in np.unique(rows, axis=0).tolist()]
        assert len(calls) == len(expected) < len(predictions)
        for got, want in zip(calls, expected):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, strict=True)

    @pytest.mark.parametrize("side", ["subj_label", "obj_label"])
    @pytest.mark.parametrize("label", [-1, 4, 2**62])
    def test_labels_outside_the_spaces_are_refused(self, rng, side, label):
        objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(2, 3)))
        predictions = to_set(awkward_pairs(rng, 2, images=1))
        labels = getattr(predictions, side).copy()
        labels[3] = label
        with pytest.raises(ValueError, match="^invalid entry in coordinates array$"):
            refine_dataset(replace(predictions, **{side: labels}), objects, predicates)

    def test_input_pairs_are_left_as_they_were(self, rng):
        objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(5, 3)))
        predictions = to_set(awkward_pairs(rng, 5))
        before = predictions.probs.copy()
        refined = refine_dataset(predictions, objects, predicates)
        np.testing.assert_array_equal(predictions.probs, before, strict=True)
        assert refined.probs is not predictions.probs

    def test_empty_list(self, rng):
        objects = table(rng.normal(size=(2, 2)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(3, 2)))
        assert len(refine_dataset(to_set([], 3), objects, predicates)) == len(
            per_pair_refine_dataset([], objects, predicates)) == 0

    def test_each_distance_once_per_label(self, rng, monkeypatch):
        calls = []
        original = refinement.distance_vector
        monkeypatch.setattr(
            refinement, "distance_vector", lambda *args: calls.append(args) or original(*args)
        )
        objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(6, 3)))
        refine_dataset(to_set(awkward_pairs(rng, 6, images=5)), objects, predicates)
        assert [(vectors is objects.vectors, vectors is predicates.vectors, table_ is predicates)
                for vectors, table_ in calls] == [(True, False, True), (False, True, True)]
        calls.clear()
        refine_dataset(to_set([], 6), objects, predicates)
        assert calls == []

    @pytest.mark.parametrize("far", [False, True])
    def test_degenerate_row_raises_the_same_error(self, rng, far):
        # An all-zero row raises as the per-pair code did. Rows whose affinities
        # all underflow to zero, because every predicate embedding lies far from
        # the pair's, raised there too; they now refine by the shifted profile.
        objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
        predicates = table(rng.normal(size=(4, 3)) + (1e4 if far else 0.0))
        pairs = awkward_pairs(rng, 4)
        if not far:
            pairs[5].probs = np.zeros(4)
        with pytest.raises(ValueError) as expected:
            per_pair_refine_dataset(pairs, objects, predicates, alpha=1.0)
        assert "degenerate refinement" in str(expected.value)
        if far:
            refined = refine_dataset(to_set(pairs), objects, predicates, alpha=1.0)
            assert_same_pairs(to_pairs(refined), per_pair_refine_dataset(pairs, objects, predicates, 1.0, True))
            return
        with pytest.raises(ValueError) as actual:
            refine_dataset(to_set(pairs), objects, predicates, alpha=1.0)
        assert str(actual.value) == str(expected.value)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 40),
    c_pred=st.integers(1, 130),
    scale=st.floats(1.0, 1e3),
    alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    zero_row=st.booleans(),
)
def test_refine_dataset_equals_the_replaced_code(seed, dim, c_pred, scale, alpha, zero_row):
    """Bit for bit, or the same message, except that a row the replaced code
    refined to all zeros now takes its shifted profile."""
    rng = np.random.default_rng(seed)
    objects = table(rng.normal(size=(4, dim)) * scale, kind=OBJECT, prefix="thing")
    predicates = table(rng.normal(size=(c_pred, dim)) * scale)
    pairs = awkward_pairs(rng, c_pred, images=2)
    if zero_row:
        pairs[int(rng.integers(len(pairs)))].probs = np.zeros(c_pred)
    try:
        expected = per_pair_refine_dataset(pairs, objects, predicates, alpha, shifted=True)
    except ValueError as error:
        with pytest.raises(ValueError) as actual:
            refine_dataset(to_set(pairs), objects, predicates, alpha)
        assert str(actual.value) == str(error)
        return
    refined = to_pairs(refine_dataset(to_set(pairs), objects, predicates, alpha))
    assert_same_pairs(refined, expected)
    # Every row that the replaced code refined keeps its bytes.
    for pair, after in zip(pairs, refined):
        try:
            (before,) = per_pair_refine_dataset([pair], objects, predicates, alpha)
        except ValueError:
            continue
        np.testing.assert_array_equal(after.probs, before.probs, strict=True)


@given(
    seed=st.integers(0, 2**32 - 1),
    c_pred=st.integers(1, 40),
    factor=st.floats(1e-3, 1e3),
)
def test_positive_scaling_of_probs_leaves_refinement_unchanged(seed, c_pred, factor):
    # Scores on a 1/64 grid: scaling keeps every tie a tie and every order an
    # order, so the pre-refinement argmax, and with it the refinement vector, stays.
    rng = np.random.default_rng(seed)
    objects = table(rng.normal(size=(4, 3)), kind=OBJECT, prefix="thing")
    predicates = table(rng.normal(size=(c_pred, 3)))
    pairs = awkward_pairs(rng, c_pred, images=2, objects=3)
    for pair in pairs:
        grid = rng.integers(0, 65, size=c_pred) / 64.0
        grid[rng.integers(c_pred)] = 1.0
        pair.probs = grid
    scaled = [replace(pair, probs=pair.probs * factor) for pair in pairs]
    base = refine_dataset(to_set(pairs), objects, predicates).probs
    rescaled = refine_dataset(to_set(scaled), objects, predicates).probs
    np.testing.assert_array_equal(base.argmax(axis=1), rescaled.argmax(axis=1))
    np.testing.assert_allclose(rescaled, base, rtol=0.0, atol=1e-12)
