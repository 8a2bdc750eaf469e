import dataclasses
import json
import math
import re

import numpy as np
import pytest

import sgrel.alignment as alignment
from sgrel.alignment import (
    RelationModel,
    TrainConfig,
    backward,
    batch_tables,
    contrastive_loss,
    forward_batch,
    load_model,
    pair_geometry,
    pair_inputs,
    predict,
    save_history,
    save_model,
    save_validation,
    train,
)
from reference_annotations import BoundingBox, ObjectInstance, SceneGraphAnnotation, Triple, to_objects
from sgrel.core import AnnotationError
from sgrel.ingest import EmbeddingTable
from sgrel.reweighting import info_weights, total_loss, weighted_pred_loss
from sgrel.synth import SynthConfig, generate

from conftest import make_annotation, make_box, make_dataset, make_spaces


# --- shared toy-batch machinery (also used by the acceptance suite) ---------

def toy_batch(seed, d_roi=5, d_emb=4, c_obj=6, c_pred=3, n_images=2):
    """Small random dataset with a model, embeddings, and info weights."""
    rng = np.random.default_rng(seed)
    spaces = make_spaces(c_obj, c_pred)
    table = EmbeddingTable(space=spaces[0], vectors=rng.normal(size=(c_obj, d_emb)))
    annotations = []
    for i in range(n_images):
        n = int(rng.integers(2, 5))
        objects = []
        for oid in range(n):
            x1, y1 = rng.uniform(0.0, 50.0, 2)
            w, h = rng.uniform(5.0, 30.0, 2)
            objects.append(
                ObjectInstance(
                    object_id=oid,
                    label=int(rng.integers(c_obj)),
                    box=BoundingBox(x1, y1, x1 + w, y1 + h),
                    feature=rng.normal(size=d_roi),
                )
            )
        triples, seen = [], set()
        for _ in range(int(rng.integers(1, 3))):
            s, o = rng.choice(n, size=2, replace=False)
            t = Triple(int(s), int(rng.integers(c_pred)), int(o))
            if t not in seen:
                seen.add(t)
                triples.append(t)
        annotations.append(
            SceneGraphAnnotation(f"img{i}", 100.0, 100.0, tuple(objects), tuple(triples))
        )
    model = RelationModel.init(d_roi, d_emb, c_pred, rng)
    weights = info_weights(rng.integers(1, 50, size=c_pred))
    return model, make_dataset(annotations, spaces, d_roi=d_roi), table, weights


def forward_all(model, data, table):
    """``forward_batch`` over every image of ``data``, with its own ``batch_tables``."""
    return forward_batch(model, batch_tables(data, table))


def batch_objective(model, data, table, weights, mu):
    batch = forward_all(model, data, table)
    return batch.contrastive + mu * weighted_pred_loss(batch.probs, batch.gold, weights)


def finite_difference_gradients(model, data, table, weights, mu, h=1e-5):
    """Central finite differences of the batch objective, parameter by parameter."""
    grads = {}
    for name in ("w_proj", "w_cls", "b_cls"):
        array = getattr(model, name)
        grad = np.zeros_like(array)
        it = np.nditer(array, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = array[idx]
            array[idx] = original + h
            f_plus = batch_objective(model, data, table, weights, mu)
            array[idx] = original - h
            f_minus = batch_objective(model, data, table, weights, mu)
            array[idx] = original
            grad[idx] = (f_plus - f_minus) / (2.0 * h)
            it.iternext()
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in ("w_proj", "w_cls", "b_cls"):
        a = getattr(analytic, name)
        b = numeric[name]
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


# --- contrastive loss --------------------------------------------------------

class TestContrastiveLoss:
    def test_single_element_is_zero(self):
        assert contrastive_loss([[3.7]])[2] == 0.0

    def test_identity_two_by_two(self):
        _, _, l_c = contrastive_loss([[1.0, 0.0], [0.0, 1.0]])
        assert l_c == pytest.approx(0.31326, abs=1e-5)
        assert l_c == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_uniform_similarities_give_log_n_exactly(self, n):
        sims = np.full((n, n), 0.37)
        assert contrastive_loss(sims)[2] == math.log(n)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            contrastive_loss(np.zeros((2, 3)))

    def test_directional_losses_average(self, rng):
        sims = rng.normal(size=(4, 4))
        i2t, t2i, combined = contrastive_loss(sims)
        assert combined == pytest.approx(0.5 * (i2t + t2i), abs=1e-15)

    def test_non_negative(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            assert contrastive_loss(rng.normal(size=(n, n)) * 5.0)[2] >= 0.0

    def test_permutation_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sims = rng.normal(size=(n, n))
            perm = rng.permutation(n)
            permuted = sims[np.ix_(perm, perm)]
            assert contrastive_loss(permuted)[2] == pytest.approx(
                contrastive_loss(sims)[2], abs=1e-12
            )

    def test_near_diagonal_dominance_approaches_zero(self):
        sims = np.full((3, 3), -50.0)
        np.fill_diagonal(sims, 50.0)
        assert contrastive_loss(sims)[2] == pytest.approx(0.0, abs=1e-12)


# --- geometry features -------------------------------------------------------

def geometry(a, b, width=100.0, height=100.0):
    """pair_geometry of one box pair."""
    boxes = np.array([[a.x1, a.y1, a.x2, a.y2], [b.x1, b.y1, b.x2, b.y2]])
    return pair_geometry(boxes[:1], boxes[1:], np.array([[width, height]]))[0]


class TestPairGeometry:
    def test_shape_and_finiteness(self, rng):
        for _ in range(50):
            x1, y1 = rng.uniform(0, 50, 2)
            a = BoundingBox(x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 40))
            x1, y1 = rng.uniform(0, 50, 2)
            b = BoundingBox(x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 40))
            g = geometry(a, b)
            assert g.shape == (8,)
            assert np.all(np.isfinite(g))

    def test_identical_boxes(self):
        box = make_box(10, 10, 30, 30)
        g = geometry(box, box)
        np.testing.assert_allclose(g[:5], 0.0)  # offsets and log ratios vanish
        assert g[5] == 1.0  # IoU

    def test_overlap_features_match_direct_box_arithmetic(self, rng):
        for _ in range(200):
            x1, y1 = rng.uniform(0, 50, 2)
            a = BoundingBox(x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 40))
            x1, y1 = rng.uniform(0, 50, 2)
            b = BoundingBox(x1, y1, x1 + rng.uniform(1, 40), y1 + rng.uniform(1, 40))
            ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
            iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
            union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - ix * iy
            g = geometry(a, b)
            assert g[5] == ix * iy / union  # IoU, bit for bit
            assert g[6] == union / (100.0 * 100.0)


# --- forward -----------------------------------------------------------------

def straight_line_forward(model, annotation, table):
    """Independent loop-and-math reimplementation of the image loss."""
    objs = annotation.objects
    n = len(objs)
    proj = [[sum(o.feature[d] * model.w_proj[d][e] for d in range(model.d_roi))
             for e in range(model.d_emb)] for o in objs]
    emb = [table.vectors[o.label] for o in objs]

    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    sims = [[cos(proj[i], emb[j]) for j in range(n)] for i in range(n)]
    l_r2e = -sum(
        math.log(math.exp(sims[i][i]) / sum(math.exp(sims[i][j]) for j in range(n)))
        for i in range(n)
    ) / n
    l_e2r = -sum(
        math.log(math.exp(sims[i][i]) / sum(math.exp(sims[j][i]) for j in range(n)))
        for i in range(n)
    ) / n
    return 0.5 * (l_r2e + l_e2r)


class TestForward:
    def test_matches_straight_line_reimplementation(self):
        model, data, table, _ = toy_batch(42, n_images=1)
        # Seed-42 toy image: compare against the independent recomputation.
        batch = forward_all(model, data, table)
        reference = straight_line_forward(model, to_objects(data).annotations[0], table)
        assert batch.contrastive == pytest.approx(reference, abs=1e-10)
        assert batch.probs.shape[1] == model.c_pred
        np.testing.assert_allclose(batch.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_object_contributes_zero_loss(self, rng):
        model, data, table, _ = toy_batch(0, n_images=1)
        solo = SceneGraphAnnotation(
            "solo", 100.0, 100.0, (to_objects(data).annotations[0].objects[0],), ()
        )
        batch = forward_all(model, make_dataset([solo], d_roi=5), table)
        assert batch.contrastive == 0.0
        assert batch.probs.shape[0] == 0

    def test_empty_image(self):
        model, _, table, _ = toy_batch(0)
        empty = SceneGraphAnnotation("none", 100.0, 100.0, (), ())
        batch = forward_all(model, make_dataset([empty], d_roi=5), table)
        assert batch.contrastive == 0.0
        assert batch.probs.shape[0] == 0

    def test_duplicate_objects_give_uniform_rows(self):
        model, data, table, _ = toy_batch(1, n_images=1)
        base = to_objects(data).annotations[0].objects[0]
        twin = ObjectInstance(1, base.label, base.box, base.feature.copy())
        image = SceneGraphAnnotation("dup", 100.0, 100.0, (base, twin), ())
        batch = forward_all(model, make_dataset([image], d_roi=5), table)
        assert batch.contrastive == pytest.approx(math.log(2.0), abs=1e-12)


# --- backward ----------------------------------------------------------------

class TestBackward:
    def test_gradient_check_small_sample(self):
        worst = 0.0
        for seed in range(10):
            model, data, table, weights = toy_batch(seed)
            batch = forward_all(model, data, table)
            analytic = backward(model, batch, weights, mu=1.2)
            numeric = finite_difference_gradients(model, data, table, weights, mu=1.2)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_mu_zero_decouples_classifier(self):
        model, data, table, weights = toy_batch(5)
        batch = forward_all(model, data, table)
        with_mu = backward(model, batch, weights, mu=1.2)
        without = backward(model, batch, weights, mu=0.0)
        assert np.all(without.w_cls == 0.0)
        assert np.all(without.b_cls == 0.0)
        np.testing.assert_array_equal(without.w_proj, with_mu.w_proj)

    def test_zero_projection_with_symmetric_inputs(self):
        # All-zero W_proj and identical objects: gradients cancel by symmetry.
        model, data, table, weights = toy_batch(3, n_images=1)
        model.w_proj[:] = 0.0
        base = to_objects(data).annotations[0].objects[0]
        twin = ObjectInstance(1, base.label, base.box, base.feature.copy())
        image = SceneGraphAnnotation("sym", 100.0, 100.0, (base, twin), ())
        batch = forward_all(model, make_dataset([image], d_roi=5), table)
        grads = backward(model, batch, weights, mu=1.2)
        np.testing.assert_allclose(grads.w_proj, 0.0, atol=1e-12)


# --- training ----------------------------------------------------------------

def tiny_corpus(seed=0):
    cfg = SynthConfig(images=60, c_obj=8, c_pred=4, d_roi=6, d_emb=4, seed=seed,
                      zero_shot_fraction=0.0, noise_sigma=0.3)
    return generate(cfg)


class TestTrain:
    def test_zero_lr_keeps_parameters(self):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        before = model.copy()
        config = TrainConfig(lr=0.0, iterations=20, batch_size=8, seed=1)
        result = train(model, data.train, data.object_embeddings, config)
        np.testing.assert_array_equal(result.model.w_proj, before.w_proj)
        np.testing.assert_array_equal(result.model.w_cls, before.w_cls)
        np.testing.assert_array_equal(result.model.b_cls, before.b_cls)

    def test_same_seed_bit_identical_histories(self):
        data = tiny_corpus()
        config = TrainConfig(lr=0.01, iterations=30, batch_size=8, seed=7)
        histories = []
        for _ in range(2):
            model = RelationModel.init(6, 4, 4, np.random.default_rng(3))
            result = train(model, data.train, data.object_embeddings, config)
            histories.append(result.history)
        assert histories[0] == histories[1]

    def test_empty_dataset_rejected(self):
        data = tiny_corpus()
        empty = make_dataset([], (data.train.object_space, data.train.predicate_space), d_roi=6)
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            train(model, empty, data.object_embeddings, TrainConfig(iterations=1))

    @pytest.mark.parametrize("key, value, least", [
        ("mu", -0.5, 0), ("lr", -0.5, 0), ("lr", float("nan"), 0), ("iterations", -1, 0), ("eval_every", -1, 0),
        ("batch_size", 0, 1), ("patience", 0, 1),
    ])
    def test_values_that_training_cannot_use_are_refused(self, key, value, least):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        config = dataclasses.replace(TrainConfig(lr=0.01, iterations=5, batch_size=8, seed=1), **{key: value})
        with pytest.raises(ValueError, match=rf"^invalid {key} {value!r}: must be >= {least}$"):
            train(model, data.train, data.object_embeddings, config, val=data.val)

    def test_training_reduces_contrastive_loss(self):
        # Synthetic 200-image corpus: dataset-level contrastive loss must drop.
        cfg = SynthConfig(images=200, c_obj=8, c_pred=4, d_roi=6, d_emb=4, seed=5,
                          zero_shot_fraction=0.0, noise_sigma=0.3)
        data = generate(cfg)
        model = RelationModel.init(6, 4, 4, np.random.default_rng(11))

        def dataset_contrastive(m):
            return forward_all(m, data.train, data.object_embeddings).contrastive

        before = dataset_contrastive(model)
        config = TrainConfig(lr=0.05, iterations=500, batch_size=16, seed=5, mu=1.2)
        result = train(model, data.train, data.object_embeddings, config)
        after = dataset_contrastive(result.model)
        assert after < before

    def test_plateau_decays_learning_rate(self):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        # A vanishing lr cannot move validation recall, so after the first
        # eval sets the best, `patience` stale evals force a 10x decay.
        config = TrainConfig(lr=1e-12, iterations=40, batch_size=8, seed=1,
                             eval_every=5, patience=2)
        result = train(model, data.train, data.object_embeddings, config, val=data.val)
        assert len(result.validation) == 8
        assert result.validation[0][1] == 1e-12
        # Evals 3, 5, and 7 each accumulate `patience` stale results -> 3 decays.
        assert min(lr for _, lr, _ in result.validation) == pytest.approx(1e-12 * 0.1 ** 3, rel=1e-9, abs=0)

    def test_history_csv(self, tmp_path):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        result = train(model, data.train, data.object_embeddings,
                       TrainConfig(lr=0.01, iterations=5, batch_size=4, seed=2))
        path = tmp_path / "history.csv"
        save_history(result.history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,contrastive,weighted_predicate,total"
        assert len(lines) == 6


class TestTrainRecords:
    """``train`` records plain rows: one loss row per iteration, one validation row per evaluation."""

    CONFIG = TrainConfig(lr=0.01, iterations=30, batch_size=8, seed=3, eval_every=7, patience=1,
                         box_loss=0.375, object_loss=0.8125)

    def test_validation_rows_carry_the_rate_their_iteration_trained_with(self, monkeypatch, tmp_path):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        # Scripted recalls: eval 1 (iteration 13) and eval 3 (iteration 27) fail to improve, so each decays.
        recalls = iter([0.5, 0.4, 0.625, 0.625])
        monkeypatch.setattr(alignment, "_validation_mean_recall", lambda model, val: next(recalls))
        # Unit bias gradients: each step lowers every bias by exactly the rate it trained with.
        biases = []

        def unit_backward(model, batch, weights=None, mu=0.0):
            biases.append(model.b_cls[0])
            return RelationModel(np.zeros_like(model.w_proj), np.zeros_like(model.w_cls), np.ones_like(model.b_cls))

        monkeypatch.setattr(alignment, "backward", unit_backward)
        result = train(model, data.train, data.object_embeddings, self.CONFIG, val=data.val)
        biases.append(result.model.b_cls[0])
        trained_with = -np.diff(biases)
        np.testing.assert_allclose(trained_with, [0.01] * 14 + [0.001] * 14 + [0.0001] * 2, rtol=1e-9)

        assert [row[0] for row in result.validation] == [(j + 1) * 7 - 1 for j in range(4)]
        for iteration, lr, _ in result.validation:
            assert lr == pytest.approx(trained_with[iteration], rel=1e-9)
        # The decay eval 1 triggers shows from row 2, not in row 1.
        assert [lr for _, lr, _ in result.validation] == [0.01, 0.01, 0.01 * 0.1, 0.01 * 0.1]
        assert [mr for _, _, mr in result.validation] == [0.5, 0.4, 0.625, 0.625]

        path = tmp_path / "validation.csv"
        save_validation(result, path)
        assert path.read_text().splitlines() == [
            "iteration,lr,val_mean_recall_50", "6,0.01,0.5", "13,0.01,0.4", f"20,{0.01 * 0.1!r},0.625",
            f"27,{0.01 * 0.1!r},0.625",
        ]

    def test_each_total_is_total_loss_of_its_own_terms(self):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        result = train(model, data.train, data.object_embeddings, self.CONFIG, val=data.val)
        assert len(result.history) == 30
        assert [row[0] for row in result.validation] == [6, 13, 20, 27]
        for contrastive, predicate, total in result.history:
            assert total == total_loss(0.375, 0.8125, contrastive, predicate, self.CONFIG.mu)
        # Plain floats, whose repr the CSVs print as a number.
        assert {type(value) for row in result.history for value in row} == {float}
        assert {type(value) for _, *values in result.validation for value in values} == {float}

    def test_no_evaluation_writes_no_rows(self, tmp_path):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        config = TrainConfig(lr=0.01, iterations=10, batch_size=8, seed=3, eval_every=0)
        result = train(model, data.train, data.object_embeddings, config, val=data.val)
        assert result.validation == [] and len(result.history) == 10
        save_validation(result, tmp_path / "validation.csv")
        assert (tmp_path / "validation.csv").read_text() == "iteration,lr,val_mean_recall_50\n"

    def test_zero_rate_is_recorded(self):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        config = TrainConfig(lr=0.0, iterations=14, batch_size=8, seed=3, eval_every=7, patience=1)
        result = train(model, data.train, data.object_embeddings, config, val=data.val)
        assert [(i, lr) for i, lr, _ in result.validation] == [(6, 0.0), (13, 0.0)]
        assert len(result.history) == 14 and len(set(result.history)) > 1  # batches differ while nothing moves


class TestPairInputs:
    def test_dangling_id_raises(self):
        dangling = make_annotation("im", triples=(Triple(subj=0, pred=0, obj=9),))
        with pytest.raises(AnnotationError, match="^image im: dangling object_id 9$"):
            pair_inputs(make_dataset([make_annotation("ok"), dangling]))


class TestPredict:
    def test_all_ordered_pairs_scored(self):
        data = tiny_corpus()
        model = RelationModel.init(6, 4, 4, np.random.default_rng(0))
        predictions = predict(model, data.test)
        counts = np.bincount(predictions.image, minlength=len(predictions.image_ids))
        assert (counts > 0).all()  # exactly the images that have pairs, in image order
        by_image = dict(zip(predictions.image_ids, counts.tolist()))
        for image_id, n in zip(data.test.image_ids, np.diff(data.test.object_offsets).tolist()):
            assert by_image.get(image_id, 0) == n * (n - 1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = RelationModel.init(6, 4, 5, rng)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.w_proj, model.w_proj)
        np.testing.assert_array_equal(loaded.w_cls, model.w_cls)
        np.testing.assert_array_equal(loaded.b_cls, model.b_cls)

    @pytest.mark.parametrize("change, found", [(lambda b: b[:-8], -8), (lambda b: b + bytes(8), 8)])
    def test_rejects_wrong_parameter_byte_count(self, tmp_path, rng, change, found):
        model = RelationModel.init(6, 4, 5, rng)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        expected = 8 * (model.w_proj.size + model.w_cls.size + model.b_cls.size)
        path.write_bytes(change(path.read_bytes()))
        message = f"{path}: expected {expected} parameter bytes after the header, found {expected + found}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_rejects_header_without_arrays(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b'{"format": "sgrel-model", "version": 1}\n' + bytes(16))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint header has no arrays.w_proj")):
            load_model(path)

    @pytest.mark.parametrize("shape", [["x"], [-1], [2.0], [True], 5, None])
    def test_rejects_shape_that_is_not_a_list_of_sizes(self, tmp_path, rng, shape):
        path = tmp_path / "model.ckpt"
        save_model(RelationModel.init(6, 4, 5, rng), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["arrays"]["b_cls"] = shape
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        message = f"{path}: checkpoint header arrays.b_cls is not a list of non-negative integers"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_rejects_header_nested_too_deeply_naming_the_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"[" * 100_000 + b"\n" + bytes(16))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: invalid JSON: nested too deeply$"):
            load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "nope.ckpt"
        for content, message in (
            (b'{"format": "something-else"}\n', ": not a model checkpoint"),
            (b"not json\n", ":1: invalid JSON: Expecting value"),
            (b"\xff\n", ":1: not UTF-8 text: byte 0xff (invalid start byte)"),
        ):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}{message}')}$") as raised:
                load_model(path)
            assert str(raised.value).count(str(path)) == 1
