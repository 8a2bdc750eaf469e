import numpy as np
import pytest
from hypothesis import settings

from sgrel.core import LabelSpace, OBJECT, PREDICATE
from sgrel.ingest import EmbeddingTable
from reference_annotations import BoundingBox, Dataset, ObjectInstance, SceneGraphAnnotation, Triple, to_columns
from reference_predictions import PairPrediction

D_ROI = 5

# Property tests run the same examples every time and keep no example database,
# so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def make_spaces(c_obj=4, c_pred=3):
    objects = LabelSpace(kind=OBJECT, names=tuple(f"thing{i}" for i in range(c_obj)))
    predicates = LabelSpace(kind=PREDICATE, names=tuple(f"rel{i}" for i in range(c_pred)))
    return objects, predicates


def make_box(x1=0.0, y1=0.0, x2=10.0, y2=10.0):
    return BoundingBox(x1, y1, x2, y2)


def make_object(object_id, label=0, feature=None, box=None, d_roi=D_ROI):
    if feature is None:
        feature = np.full(d_roi, float(object_id) + 1.0)
    return ObjectInstance(
        object_id=object_id,
        label=label,
        box=box or make_box(object_id * 5.0, 0.0, object_id * 5.0 + 20.0, 20.0),
        feature=np.asarray(feature, dtype=np.float64),
    )


def make_annotation(image_id="img0", objects=None, triples=None, width=100.0, height=100.0):
    if objects is None:
        objects = (make_object(0, 0), make_object(1, 1))
    if triples is None:
        triples = (Triple(subj=0, pred=0, obj=1),)
    return SceneGraphAnnotation(
        image_id=image_id,
        width=width,
        height=height,
        objects=tuple(objects),
        triples=tuple(triples),
    )


def make_dataset(annotations, spaces=None, split="train", d_roi=D_ROI):
    """The annotations as a columnar ``sgrel.core.Dataset``."""
    objects, predicates = spaces or make_spaces()
    return to_columns(Dataset(
        split=split,
        annotations=tuple(annotations),
        object_space=objects,
        predicate_space=predicates,
        d_roi=d_roi,
    ))


@pytest.fixture
def spaces():
    return make_spaces()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_embeddings(space, dim, rng):
    return EmbeddingTable(space=space, vectors=rng.normal(size=(space.size, dim)))


def awkward_pairs(rng, c_pred, c_obj=4, images=3, objects=4):
    """Every ordered pair of a few images, with score rows that stress vectorized code.

    Rows cycle through five kinds: plain, zero entries, a tie at the maximum,
    a copy of the previous row (equal triple scores), and float32. Plain rows
    carry label scores below one.
    """
    pairs = []
    for image in range(images):
        for subj_id in range(objects):
            for obj_id in range(objects):
                if subj_id == obj_id:
                    continue
                kind = len(pairs) % 5
                probs = rng.dirichlet(np.ones(c_pred))
                if kind == 1 and c_pred > 1:
                    probs[rng.choice(c_pred, size=c_pred // 2, replace=False)] = 0.0
                    probs[rng.integers(c_pred)] += 0.25
                elif kind == 2:
                    probs[rng.integers(c_pred)] = probs.max()
                elif kind == 3 and pairs:
                    probs = pairs[-1].probs.copy()
                elif kind == 4:
                    probs = probs.astype(np.float32)
                x, y = rng.uniform(0, 50, size=2)
                pairs.append(PairPrediction(
                    image_id=f"im{image}",
                    subj_id=subj_id,
                    obj_id=obj_id,
                    subj_label=int(rng.integers(c_obj)),
                    obj_label=int(rng.integers(c_obj)),
                    subj_box=make_box(x, y, x + 10.0, y + 20.0),
                    obj_box=make_box(y, x, y + 30.0, x + 5.0),
                    probs=probs,
                    subj_score=float(rng.uniform(0.1, 1.0)) if kind == 0 else 1.0,
                    obj_score=float(rng.uniform(0.1, 1.0)) if kind == 0 else 1.0,
                ))
    return pairs
