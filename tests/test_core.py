import numpy as np
import pytest

from sgrel.core import AnnotationError, Dataset, LabelSpace, OBJECT, offsets, repeats, validate_annotation

from conftest import make_annotation, make_box, make_dataset, make_object, make_spaces, D_ROI
from reference_annotations import Triple


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


def violations(annotation, feature_sizes=None):
    """``validate_annotation``'s violations of a one-image dataset; empty when it is valid."""
    found = validate_annotation(make_dataset([annotation]), feature_sizes)
    assert found is None or found[0] == 0
    return [] if found is None else found[1]


class TestDataset:
    def columns(self, **changes):
        spaces = make_spaces()
        values = dict(split="val", object_space=spaces[0], predicate_space=spaces[1], d_roi=2, image_ids=["a", "b"],
                      sizes=[[10, 20], [30, 40]], object_offsets=[0, 2, 3], triple_offsets=[0, 1, 1],
                      object_ids=[0, 1, 5], labels=[0, 1, 2], boxes=np.ones((3, 4)), features=np.zeros((3, 2)),
                      triples=[[0, 2, 1]])
        return Dataset(**{**values, **changes})

    def test_columns_take_their_dtypes(self):
        dataset = self.columns()
        assert dataset.image_ids == ("a", "b") and dataset.annotations == ("a", "b")
        assert dataset.sizes.dtype == np.float64 and dataset.triples.dtype == np.int64
        assert dataset.num_triples() == 1

    @pytest.mark.parametrize("change, problem", [
        ({"sizes": [[10, 20]]}, r"sizes has shape \(1, 2\), expected \(2, 2\)"),
        ({"features": np.zeros((3, 3))}, r"features has shape \(3, 3\), expected \(3, 2\)"),
        ({"triples": [[0, 2, 1], [1, 0, 0]]}, r"triples has shape \(2, 3\), expected \(1, 3\)"),
        ({"object_offsets": [0, 4, 3], "object_ids": [0, 1, 5]}, "object_offsets must start at 0 and never decrease"),
        ({"triple_offsets": [1, 1, 1]}, "triple_offsets must start at 0"),
        ({"features": [[0.0, 1.0], [0.0], [1.0, 2.0]]}, "inhomogeneous"),  # ragged features do not stack
    ])
    def test_columns_that_do_not_fit_are_refused(self, change, problem):
        with pytest.raises(ValueError, match=problem):
            self.columns(**change)

    def test_offsets_and_repeats(self):
        np.testing.assert_array_equal(offsets([2, 0, 3]), [0, 2, 2, 5])
        np.testing.assert_array_equal(offsets([]), [0])
        np.testing.assert_array_equal(repeats(np.array([0, 1, 0, 0, 1]), np.array([7, 7, 7, 8, 7])),
                                      [False, False, True, False, True])


class TestValidateAnnotation:
    def test_empty_annotation_is_valid(self):
        assert violations(make_annotation(objects=(), triples=())) == []

    def test_valid_annotation(self):
        assert validate_annotation(make_dataset([make_annotation()])) is None

    def test_dangling_object_id(self):
        a = make_annotation(triples=(Triple(subj=0, pred=0, obj=7),))
        assert violations(a) == ["triple 0: dangling object_id 7"]

    def test_feature_dimension_mismatch(self):
        a = make_annotation()
        assert violations(a, np.array([D_ROI - 1, D_ROI])) == [
            f"object 0: feature dimension mismatch (got {D_ROI - 1}, expected {D_ROI})"]

    def test_label_out_of_range(self):
        a = make_annotation(objects=(make_object(0, label=99), make_object(1)))
        assert violations(a) == ["object 0: label index 99 outside object space of size 4"]

    def test_self_relation(self):
        a = make_annotation(triples=(Triple(subj=0, pred=0, obj=0),))
        assert violations(a) == ["triple 0: subject and object are the same instance"]

    def test_duplicate_triple(self):
        t = Triple(subj=0, pred=0, obj=1)
        assert violations(make_annotation(triples=(t, t))) == ["triple 1: duplicate triple (0, 0, 1)"]

    def test_duplicate_object_id(self):
        a = make_annotation(objects=(make_object(0), make_object(0)), triples=())
        assert violations(a) == ["duplicate object_id 0"]

    def test_degenerate_box(self):
        bad = make_object(0, box=make_box(10.0, 0.0, 10.0, 5.0))
        a = make_annotation(objects=(bad, make_object(1)))
        assert violations(a) == ["object 0: degenerate box (10.0, 0.0, 10.0, 5.0)"]

    def test_out_of_bounds_box(self):
        bad = make_object(0, box=make_box(0.0, 0.0, 500.0, 5.0))
        a = make_annotation(objects=(bad, make_object(1)))
        assert violations(a) == ["object 0: box outside image bounds"]

    def test_predicate_out_of_range(self):
        a = make_annotation(triples=(Triple(subj=0, pred=42, obj=1),))
        assert violations(a) == ["triple 0: predicate index 42 outside predicate space of size 3"]

    @pytest.mark.parametrize("width, problem", [(0.0, "non-positive image size 0.0x100.0"),
                                                (np.nan, "non-positive image size nanx100.0"),
                                                (np.inf, "infinite image size infx100.0")])
    def test_image_size(self, width, problem):
        assert violations(make_annotation(objects=(), triples=(), width=width)) == [problem]

    def test_first_faulty_image_with_every_violation_in_order(self):
        good = make_annotation("good")
        bad = make_annotation(
            "bad", objects=(make_object(3, label=9, box=make_box(5.0, 0.0, 5.0, 1.0)), make_object(3)),
            triples=(Triple(3, 7, 3), Triple(3, 0, 8), Triple(3, 0, 8)), width=-1.0)
        later = make_annotation("later", triples=(Triple(0, 0, 9),))
        found = validate_annotation(make_dataset([good, bad, later]), np.array([D_ROI] * 3 + [1] + [D_ROI] * 2))
        assert found == (1, [
            "non-positive image size -1.0x100.0",
            "object 3: label index 9 outside object space of size 4",
            "object 3: degenerate box (5.0, 0.0, 5.0, 1.0)",
            "duplicate object_id 3",
            "object 3: feature dimension mismatch (got 1, expected 5)",
            "object 3: box outside image bounds",
            "triple 0: subject and object are the same instance",
            "triple 0: predicate index 7 outside predicate space of size 3",
            "triple 1: dangling object_id 8",
            "triple 2: dangling object_id 8",
            "triple 2: duplicate triple (3, 0, 8)",
        ])

    def test_agrees_with_the_per_object_check(self, rng):
        """Random faults, image by image: the first faulty image and its messages are the replaced code's."""
        import reference_annotations as reference

        spaces = make_spaces()
        for trial in range(200):
            annotations = []
            for i in range(int(rng.integers(1, 4))):
                objects = tuple(
                    make_object(int(rng.integers(0, 4)), label=int(rng.integers(-1, 5)),
                                box=make_box(*rng.choice([-1.0, 0.0, 5.0, 20.0, 120.0], size=4)))
                    for _ in range(int(rng.integers(0, 4)))
                )
                triples = tuple(Triple(*map(int, rng.integers([0, -1, 0], [5, 4, 5])))
                                for _ in range(rng.integers(0, 4)))
                annotations.append(make_annotation(f"im{i}", objects, triples, width=float(rng.choice([0.0, 100.0]))))
            dataset = make_dataset(annotations, spaces)
            expected = [(i, v) for i, a in enumerate(annotations)
                        if (v := reference.validate_annotation(a, *spaces, D_ROI))]
            assert validate_annotation(dataset) == (expected[0] if expected else None), trial

    def test_valid_annotation_feeds_downstream(self, spaces, rng):
        # Validity implies every downstream consumer accepts the annotation.
        from conftest import random_embeddings
        from sgrel.alignment import RelationModel, forward_batch, pair_inputs
        from sgrel.sampling import count_predicates

        dataset = make_dataset([make_annotation()])
        assert validate_annotation(dataset) is None
        count_predicates(dataset)
        table = random_embeddings(spaces[0], 4, rng)
        model = RelationModel.init(D_ROI, 4, spaces[1].size, rng)
        forward_batch(model, dataset, pair_inputs(dataset), table)


class TestSignatures:
    def test_label_level_lookup(self):
        a = make_annotation(
            objects=(make_object(0, label=5 % 4), make_object(1, label=3)),
            triples=(Triple(subj=0, pred=2, obj=1),),
        )
        np.testing.assert_array_equal(make_dataset([a]).signatures(), [[1, 2, 3]])

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
        np.testing.assert_array_equal(make_dataset([a]).signatures(), [[1, 0, 2], [1, 0, 2]])

    def test_permuting_ids_preserves_signature(self):
        a = make_annotation(
            objects=(make_object(10, label=0), make_object(20, label=1)),
            triples=(Triple(10, 0, 20),),
        )
        b = make_annotation(
            "other",
            objects=(make_object(99, label=0), make_object(3, label=1)),
            triples=(Triple(99, 0, 3),),
        )
        np.testing.assert_array_equal(make_dataset([a, b]).signatures(), [[0, 0, 1], [0, 0, 1]])

    def test_ends_resolve_within_their_image_to_the_first_object_with_the_id(self):
        first = make_annotation("first", objects=(make_object(4, label=0), make_object(4, label=1), make_object(2)),
                                triples=(Triple(2, 0, 4),))
        second = make_annotation("second", objects=(make_object(2, label=3), make_object(4, label=2)),
                                 triples=(Triple(4, 1, 2),))
        dataset = make_dataset([first, second])
        np.testing.assert_array_equal(dataset.end_rows(), [[2, 0], [4, 3]])
        np.testing.assert_array_equal(dataset.signatures(), [[0, 0, 0], [2, 1, 3]])

    def test_dangling_id_raises(self):
        a = make_annotation("im", triples=(Triple(subj=0, pred=0, obj=1), Triple(subj=0, pred=0, obj=9)))
        with pytest.raises(AnnotationError, match="^image im: dangling object_id 9$"):
            make_dataset([make_annotation("ok"), a]).signatures()
