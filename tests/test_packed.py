"""Differential tests: the packed forward, backward and predict against per-image references.

The references below are the per-image loops that the packed arrays replaced,
kept here as the oracle. Summation order differs between the two, so values
must agree to 1e-12 (relative, for entries above 1) rather than bit for bit.
"""

import dataclasses

import numpy as np
from hypothesis import given, strategies as st

from sgrel.alignment import (
    NORM_EPS,
    RelationModel,
    _softmax_rows,
    backward,
    contrastive_loss,
    forward_batch,
    pair_inputs,
    predict,
)
import reference_annotations
from reference_annotations import BoundingBox, ObjectInstance, SceneGraphAnnotation, Triple, to_objects
from sgrel.ingest import EmbeddingTable
from sgrel.reweighting import info_weights, weighted_pred_loss

import reference_predictions
from conftest import make_dataset, make_spaces
from reference_predictions import assert_same_set, to_set
from reference_ranking import overlap

TOL = 1e-12


# --- per-image reference -------------------------------------------------------

def reference_geometry(subj, obj, width, height):
    cxs, cys = 0.5 * (subj.x1 + subj.x2), 0.5 * (subj.y1 + subj.y2)
    cxo, cyo = 0.5 * (obj.x1 + obj.x2), 0.5 * (obj.y1 + obj.y2)
    ws, hs = subj.x2 - subj.x1, subj.y2 - subj.y1
    wo, ho = obj.x2 - obj.x1, obj.y2 - obj.y1
    dx = (cxo - cxs) / width
    dy = (cyo - cys) / height
    inter, union = overlap(subj, obj)
    return np.array([
        dx, dy,
        np.log(wo / ws), np.log(ho / hs),
        np.log((wo * ho) / (ws * hs)),
        inter / union, union / (width * height), float(np.hypot(dx, dy)),
    ])


def reference_image(model, annotation, table, compute_contrastive=True):
    objs = annotation.objects
    cache = {"sims": None, "contrastive": 0.0}
    if compute_contrastive and len(objs) >= 2:
        features = np.stack([o.feature for o in objs])
        emb = np.stack([table.vectors[o.label] for o in objs])
        proj = features @ model.w_proj
        raw = np.linalg.norm(proj, axis=1)
        norms = np.maximum(raw, NORM_EPS)
        unit_proj = proj / norms[:, None]
        unit_emb = emb / np.linalg.norm(emb, axis=1)[:, None]
        sims = unit_proj @ unit_emb.T
        cache.update(features=features, unit_proj=unit_proj, unit_emb=unit_emb, norms=norms,
                     clamped=raw < NORM_EPS, sims=sims, contrastive=contrastive_loss(sims)[2])
    rows, gold = [], []
    for t in annotation.triples:
        subj, obj = annotation.object_by_id(t.subj), annotation.object_by_id(t.obj)
        geometry = reference_geometry(subj.box, obj.box, annotation.width, annotation.height)
        rows.append(np.concatenate([subj.feature, obj.feature, geometry]))
        gold.append(t.pred)
    inputs = np.stack(rows) if rows else np.zeros((0, model.w_cls.shape[0]))
    cache.update(inputs=inputs, gold=np.asarray(gold, dtype=np.int64),
                 probs=_softmax_rows(inputs @ model.w_cls + model.b_cls))
    return cache


def reference_forward(model, annotations, table, compute_contrastive=True):
    caches = [reference_image(model, a, table, compute_contrastive) for a in annotations]
    contrastive = sum(c["contrastive"] for c in caches) / len(caches) if caches else 0.0
    probs = np.concatenate([c["probs"] for c in caches] + [np.zeros((0, model.c_pred))])
    gold = np.concatenate([c["gold"] for c in caches] + [np.zeros(0, dtype=np.int64)])
    return caches, contrastive, probs, gold


def reference_backward(model, caches, weights, mu):
    g_proj, g_cls, g_b = (np.zeros_like(a) for a in (model.w_proj, model.w_cls, model.b_cls))
    total = sum(c["gold"].shape[0] for c in caches)
    for c in caches:
        if c["sims"] is not None:
            n = c["sims"].shape[0]
            g_s = (_softmax_rows(c["sims"]) + _softmax_rows(c["sims"].T).T - 2.0 * np.eye(n))
            g_s /= 2.0 * n * len(caches)
            gv = g_s @ c["unit_emb"]
            d_proj = gv - (g_s * c["sims"]).sum(axis=1)[:, None] * c["unit_proj"]
            d_proj[c["clamped"]] = gv[c["clamped"]]
            g_proj += c["features"].T @ (d_proj / c["norms"][:, None])
        m = c["gold"].shape[0]
        if m and mu != 0.0:
            d_z = c["probs"].copy()
            d_z[np.arange(m), c["gold"]] -= 1.0
            d_z *= (mu / total) * weights.weights[c["gold"]][:, None]
            g_cls += c["inputs"].T @ d_z
            g_b += d_z.sum(axis=0)
    return g_proj, g_cls, g_b


def reference_predict(model, annotations):
    out = []
    for a in annotations:
        pairs = [(s, o) for s in a.objects for o in a.objects if s.object_id != o.object_id]
        if not pairs:
            continue
        rows = np.stack([np.concatenate([s.feature, o.feature,
                                         reference_geometry(s.box, o.box, a.width, a.height)])
                         for s, o in pairs])
        probs = _softmax_rows(rows @ model.w_cls + model.b_cls)
        out.extend((a.image_id, s, o, p) for (s, o), p in zip(pairs, probs))
    return out


# --- random batches ------------------------------------------------------------

D_ROI, D_EMB, C_OBJ, C_PRED = 5, 4, 6, 3


def random_case(seed, counts, zero_projection=False):
    """Images with the given object counts; some objects duplicate others, some project to ~0."""
    rng = np.random.default_rng(seed)
    spaces = make_spaces(C_OBJ, C_PRED)
    table = EmbeddingTable(space=spaces[0], vectors=rng.normal(size=(C_OBJ, D_EMB)))
    annotations = []
    for i, n in enumerate(counts):
        width, height = rng.uniform(60.0, 200.0, 2)
        objects = []
        for oid in range(n):
            kind = rng.integers(5)
            if kind == 0 and objects:  # duplicate of an earlier object, new id
                src = objects[int(rng.integers(len(objects)))]
                objects.append(ObjectInstance(oid, src.label, src.box, src.feature.copy()))
                continue
            x1, y1 = rng.uniform(0.0, 40.0, 2)
            w, h = rng.uniform(2.0, 20.0, 2)
            # Zero and tiny features give projections at and under the norm guard.
            feature = rng.normal(size=D_ROI) * {1: 0.0, 2: 1e-14}.get(int(kind), 1.0)
            objects.append(ObjectInstance(oid, int(rng.integers(C_OBJ)),
                                          BoundingBox(x1, y1, x1 + w, y1 + h), feature))
        triples = []
        for _ in range(int(rng.integers(0, 4)) if n >= 2 else 0):
            s, o = rng.choice(n, size=2, replace=False)
            triple = Triple(int(s), int(rng.integers(C_PRED)), int(o))
            if triple not in triples:
                triples.append(triple)
        annotations.append(
            SceneGraphAnnotation(f"im{i}", width, height, tuple(objects), tuple(triples))
        )
    model = RelationModel.init(D_ROI, D_EMB, C_PRED, rng)
    if zero_projection:
        model.w_proj[:] = 0.0
    weights = info_weights(rng.integers(1, 50, size=C_PRED))
    return model, make_dataset(annotations, spaces, d_roi=D_ROI), table, weights


def assert_close(a, b):
    """Agreement to TOL, relative to the reference's largest entry once that exceeds 1.

    Zero-norm projections are divided by the 1e-12 guard, which puts their
    gradients near 1e10.
    """
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    if a.size:
        assert np.max(np.abs(a - b)) <= TOL * max(1.0, float(np.max(np.abs(b))))


def check_agreement(seed, counts, zero_projection=False, mu=1.2, compute_contrastive=True):
    model, dataset, table, weights = random_case(seed, counts, zero_projection)
    rng = np.random.default_rng(seed + 1)
    images = rng.permutation(len(counts))[: int(rng.integers(1, len(counts) + 1))]
    objects = to_objects(dataset)
    annotations = objects.annotations
    chosen = [annotations[i] for i in images]

    batch = forward_batch(model, dataset, pair_inputs(dataset), table, images, compute_contrastive)
    caches, contrastive, probs, gold = reference_forward(model, chosen, table, compute_contrastive)
    assert abs(batch.contrastive - contrastive) <= TOL
    assert_close(batch.probs, probs)
    np.testing.assert_array_equal(batch.gold, gold)
    assert abs(weighted_pred_loss(batch.probs, batch.gold, weights)
               - weighted_pred_loss(probs, gold, weights)) <= TOL

    grads = backward(model, batch, weights, mu)
    for got, want in zip((grads.w_proj, grads.w_cls, grads.b_cls),
                         reference_backward(model, caches, weights, mu)):
        assert_close(got, want)

    # The per-pair predict the columns replaced, on the replaced pack holding the columns it reads through to_objects.
    packed = dataclasses.replace(reference_annotations.pack(objects), dataset=dataset)
    predictions = reference_predictions.predict(model, packed)
    assert_same_set(predict(model, dataset), to_set(predictions, model.c_pred))
    expected = reference_predict(model, annotations)
    assert len(predictions) == len(expected)
    for p, (image_id, s, o, probs) in zip(predictions, expected):
        assert (p.image_id, p.subj_id, p.obj_id, p.subj_label, p.obj_label) == (
            image_id, s.object_id, o.object_id, s.label, o.label)
        assert p.subj_box == s.box and p.obj_box == o.box
        assert_close(p.probs, probs)


class TestPackedMatchesPerImage:
    def test_random_batches(self):
        rng = np.random.default_rng(77)
        for seed in range(150):
            counts = [int(c) for c in rng.integers(0, 7, size=int(rng.integers(1, 9)))]
            check_agreement(seed, counts, mu=float(rng.choice([0.0, 1.2])))

    def test_small_images_and_zero_projection(self):
        for seed, counts in enumerate([[0], [1], [0, 1], [1, 1, 2], [2, 0, 5, 1], [3, 3]]):
            check_agreement(seed, counts)
            check_agreement(seed, counts, zero_projection=True)

    def test_contrastive_off(self):
        model, dataset, table, _ = random_case(3, [4, 2, 1])
        batch = forward_batch(model, dataset, pair_inputs(dataset), table, compute_contrastive=False)
        assert batch.contrastive == 0.0 and batch.d_proj is None
        check_agreement(3, [4, 2, 1], compute_contrastive=False)


@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    zero_projection=st.booleans(),
    mu=st.sampled_from([0.0, 0.5, 1.2]),
)
def test_property_packed_agrees_with_per_image(seed, counts, zero_projection, mu):
    check_agreement(seed, counts, zero_projection, mu)
