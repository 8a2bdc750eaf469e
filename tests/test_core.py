import numpy as np
import pytest

from sgrel.core import (
    AnnotationError,
    BoundingBox,
    LabelSpace,
    OBJECT,
    Triple,
    triple_signature,
    validate_annotation,
)

from conftest import make_annotation, make_object, D_ROI


class TestLabelSpace:
    def test_basic_indexing(self):
        space = LabelSpace(kind=OBJECT, names=("cat", "dog"))
        assert space.size == 2
        assert space.index_of("dog") == 1

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabelSpace(kind=OBJECT, names=("cat", "cat"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            LabelSpace(kind=OBJECT, names=("cat", ""))

    def test_unknown_label(self):
        space = LabelSpace(kind=OBJECT, names=("cat",))
        with pytest.raises(KeyError, match="unknown object label"):
            space.index_of("dog")


class TestBoundingBox:
    def test_clamp_stays_inside(self):
        box = BoundingBox(-5.0, -1.0, 120.0, 60.0).clamped(100.0, 50.0)
        assert (box.x1, box.y1, box.x2, box.y2) == (0.0, 0.0, 100.0, 50.0)

    def test_clamp_can_degenerate(self):
        assert BoundingBox(150.0, 0.0, 160.0, 10.0).clamped(100.0, 50.0).is_degenerate()

    def test_clamp_matches_clipping_every_coordinate(self, rng):
        """A box already inside the frame comes back as is; that equals clipping each coordinate."""
        values = np.concatenate([rng.uniform(-20.0, 120.0, 4000), [-0.0, 0.0, 50.0, 100.0, np.nan] * 40])
        for x1, y1, x2, y2 in rng.permutation(values).reshape(-1, 4).tolist():
            clipped = tuple(min(max(v, 0.0), size) for v, size in zip((x1, y1, x2, y2), (100.0, 50.0) * 2))
            got = BoundingBox(x1, y1, x2, y2).clamped(100.0, 50.0).xyxy
            assert [repr(v) for v in got] == [repr(v) for v in clipped]  # -0.0 and nan included


class TestValidateAnnotation:
    def test_empty_annotation_is_valid(self, spaces):
        a = make_annotation(objects=(), triples=())
        assert validate_annotation(a, *spaces, D_ROI) == []

    def test_valid_annotation(self, spaces):
        a = make_annotation()
        assert validate_annotation(a, *spaces, D_ROI) == []

    def test_dangling_object_id(self, spaces):
        a = make_annotation(triples=(Triple(subj=0, pred=0, obj=7),))
        violations = validate_annotation(a, *spaces, D_ROI)
        assert any("dangling object_id 7" in v for v in violations)

    def test_feature_dimension_mismatch(self, spaces):
        a = make_annotation(objects=(make_object(0, feature=np.ones(D_ROI - 1)), make_object(1)))
        violations = validate_annotation(a, *spaces, D_ROI)
        assert any("feature dimension mismatch" in v for v in violations)

    def test_label_out_of_range(self, spaces):
        a = make_annotation(objects=(make_object(0, label=99), make_object(1)))
        assert any("label index 99" in v for v in validate_annotation(a, *spaces, D_ROI))

    def test_self_relation(self, spaces):
        a = make_annotation(triples=(Triple(subj=0, pred=0, obj=0),))
        violations = validate_annotation(a, *spaces, D_ROI)
        assert any("same instance" in v for v in violations)

    def test_duplicate_triple(self, spaces):
        t = Triple(subj=0, pred=0, obj=1)
        a = make_annotation(triples=(t, t))
        assert any("duplicate triple" in v for v in validate_annotation(a, *spaces, D_ROI))

    def test_duplicate_object_id(self, spaces):
        a = make_annotation(objects=(make_object(0), make_object(0)), triples=())
        assert any("duplicate object_id 0" in v for v in validate_annotation(a, *spaces, D_ROI))

    def test_degenerate_box(self, spaces):
        bad = make_object(0, box=BoundingBox(10.0, 0.0, 10.0, 5.0))
        a = make_annotation(objects=(bad, make_object(1)))
        assert any("degenerate box" in v for v in validate_annotation(a, *spaces, D_ROI))

    def test_out_of_bounds_box(self, spaces):
        bad = make_object(0, box=BoundingBox(0.0, 0.0, 500.0, 5.0))
        a = make_annotation(objects=(bad, make_object(1)))
        assert any("outside image bounds" in v for v in validate_annotation(a, *spaces, D_ROI))

    def test_predicate_out_of_range(self, spaces):
        a = make_annotation(triples=(Triple(subj=0, pred=42, obj=1),))
        assert any("predicate index 42" in v for v in validate_annotation(a, *spaces, D_ROI))

    def test_valid_annotation_feeds_downstream(self, spaces, rng):
        # Validity implies every downstream consumer accepts the annotation.
        from conftest import make_dataset, random_embeddings
        from sgrel.alignment import RelationModel, forward_batch, pack
        from sgrel.sampling import count_predicates

        a = make_annotation()
        assert validate_annotation(a, *spaces, D_ROI) == []
        dataset = make_dataset([a])
        count_predicates(dataset)
        table = random_embeddings(spaces[0], 4, rng)
        model = RelationModel.init(D_ROI, 4, spaces[1].size, rng)
        forward_batch(model, pack(dataset), table)


class TestTripleSignature:
    def test_label_level_lookup(self):
        a = make_annotation(
            objects=(make_object(0, label=5 % 4), make_object(1, label=3)),
            triples=(Triple(subj=0, pred=2, obj=1),),
        )
        assert triple_signature(a.triples[0], a) == (1, 2, 3)

    def test_instance_pairs_with_same_labels_share_signature(self):
        a = make_annotation(
            objects=(
                make_object(0, label=1),
                make_object(1, label=2),
                make_object(2, label=1),
                make_object(3, label=2),
            ),
            triples=(Triple(0, 0, 1), Triple(2, 0, 3)),
        )
        assert triple_signature(a.triples[0], a) == triple_signature(a.triples[1], a)

    def test_permuting_ids_preserves_signature(self):
        a = make_annotation(
            objects=(make_object(10, label=0), make_object(20, label=1)),
            triples=(Triple(10, 0, 20),),
        )
        b = make_annotation(
            objects=(make_object(99, label=0), make_object(3, label=1)),
            triples=(Triple(99, 0, 3),),
        )
        assert triple_signature(a.triples[0], a) == triple_signature(b.triples[0], b)

    def test_dangling_id_raises(self):
        a = make_annotation()
        with pytest.raises(AnnotationError, match="dangling object_id 9"):
            triple_signature(Triple(subj=0, pred=0, obj=9), a)
