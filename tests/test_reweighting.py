import math

import numpy as np
import pytest

from sgrel.reweighting import (
    info_weights,
    total_loss,
    uniform_weights,
    weighted_pred_loss,
)


class TestInfoWeights:
    def test_uniform_counts(self):
        info = info_weights(np.full(4, 25))
        np.testing.assert_allclose(info.bits, 2.0)
        np.testing.assert_allclose(info.weights, 1.0)

    def test_dyadic_hand_values(self):
        # f = (1/2, 1/4, 1/8, 1/8) -> bits (1, 2, 3, 3), mean 2.25.
        info = info_weights(np.array([4, 2, 1, 1]))
        np.testing.assert_allclose(info.bits, [1.0, 2.0, 3.0, 3.0])
        np.testing.assert_allclose(info.weights, [0.4444, 0.8889, 1.3333, 1.3333], atol=1e-4)

    def test_single_predicate_degenerate(self):
        info = info_weights(np.array([17]))
        assert info.frequencies[0] == 1.0
        assert info.bits[0] == 0.0
        assert info.weights[0] == 1.0

    def test_mean_weight_is_one(self, rng):
        for _ in range(50):
            counts = rng.integers(1, 10000, size=int(rng.integers(2, 40)))
            info = info_weights(counts)
            assert abs(info.weights.mean() - 1.0) < 1e-9
            assert (info.weights > 0).all()

    def test_scaling_counts_is_invariant(self, rng):
        counts = rng.integers(1, 500, size=10)
        a = info_weights(counts)
        b = info_weights(counts * 64)
        np.testing.assert_allclose(a.frequencies, b.frequencies)
        np.testing.assert_allclose(a.bits, b.bits)
        np.testing.assert_allclose(a.weights, b.weights)

    def test_zero_count_gets_max_weight(self):
        info = info_weights(np.array([8, 2, 0]))
        observed = info.weights[:2]
        assert info.weights[2] == observed.max()
        assert info.bits[2] == info.bits[:2].max()
        # Mean-1 normalization is over observed predicates only.
        assert abs(observed.mean() - 1.0) < 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            info_weights(np.zeros(3))


class TestWeightedPredLoss:
    def test_hand_value(self):
        from sgrel.reweighting import InfoWeights

        probs = np.array([[0.5, 0.5, 0.0, 0.0]])
        # A gold index carrying weight exactly 2.
        weights = InfoWeights(
            frequencies=np.full(4, 0.25), bits=np.full(4, 2.0), weights=np.array([2.0, 1.0, 1.0, 1.0])
        )
        loss = weighted_pred_loss(probs, np.array([0]), weights)
        assert loss == pytest.approx(2.0 * math.log(2.0), abs=1e-5)

    def test_unit_weights_reduce_to_cross_entropy(self, rng):
        m, c = 64, 7
        probs = rng.dirichlet(np.ones(c), size=m)
        gold = rng.integers(0, c, size=m)
        loss = weighted_pred_loss(probs, gold, uniform_weights(c))
        nll = -np.mean(np.log(probs[np.arange(m), gold]))
        assert abs(loss - nll) < 1e-12

    def test_perfect_prediction_contributes_zero(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        assert weighted_pred_loss(probs, np.array([1]), uniform_weights(3)) == 0.0

    def test_zero_probability_clamped_with_warning(self, caplog):
        probs = np.array([[1.0, 0.0]])
        with caplog.at_level("WARNING"):
            loss = weighted_pred_loss(probs, np.array([1]), uniform_weights(2))
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))
        assert any("clamped" in m for m in caplog.messages)

    def test_non_negative_and_zero_iff_perfect(self, rng):
        c = 5
        for _ in range(100):
            m = int(rng.integers(1, 20))
            probs = rng.dirichlet(np.ones(c), size=m)
            gold = rng.integers(0, c, size=m)
            assert weighted_pred_loss(probs, gold, uniform_weights(c)) >= 0.0
        perfect = np.zeros((3, c))
        gold = np.array([0, 2, 4])
        perfect[np.arange(3), gold] = 1.0
        assert weighted_pred_loss(perfect, gold, uniform_weights(c)) == 0.0

    def test_empty_batch(self):
        assert weighted_pred_loss(np.zeros((0, 4)), np.zeros(0, dtype=int), uniform_weights(4)) == 0.0


class TestTotalLoss:
    def test_hand_value_exact(self):
        assert total_loss(0.0, 0.0, 0.3, 1.0, mu=1.2) == 1.5

    def test_mu_zero_drops_predicate_term(self):
        assert total_loss(0.25, 0.5, 0.125, 99.0, mu=0.0) == 0.875

    def test_all_zero(self):
        assert total_loss(0.0, 0.0, 0.0, 0.0, mu=1.2) == 0.0

    def test_linear_in_each_argument(self, rng):
        base = [float(v) for v in rng.uniform(0.0, 2.0, size=4)]
        mu = 1.2
        for position in range(4):
            bumped = list(base)
            bumped[position] += 1.0
            delta = total_loss(*bumped, mu=mu) - total_loss(*base, mu=mu)
            expected = mu if position == 3 else 1.0
            assert delta == pytest.approx(expected, abs=1e-12)

    def test_adds_left_to_right(self, rng):
        # Float addition is not associative: the total must be this exact expression, bit for bit.
        for box, obj, contrastive, predicate, mu in rng.uniform(0.0, 3.0, size=(200, 5)).tolist():
            assert total_loss(box, obj, contrastive, predicate, mu=mu) == box + obj + contrastive + mu * predicate

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            total_loss(0.0, 0.0, 0.0, 0.0, mu=-0.1)
