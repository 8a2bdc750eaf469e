import hashlib
import importlib.util
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgrel import ingest, synth
from sgrel.core import LabelSpace, OBJECT, PREDICATE
import reference_annotations as reference
from reference_annotations import BoundingBox, ObjectInstance, SceneGraphAnnotation, Triple, to_columns, to_objects
from sgrel.metrics import load_predictions
from sgrel.ingest import (
    EmbeddingTable,
    ParseError,
    build_zero_shot_index,
    companion_path,
    decode_json,
    load_annotations,
    load_embeddings,
    load_labels,
    load_recalls,
    number,
    parse_fields,
    read_json,
    save_annotations,
    save_embeddings,
    string,
)

from conftest import make_annotation, make_dataset, make_object, make_spaces


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLabels:
    def test_fifty_line_file(self, tmp_path):
        path = write(tmp_path, "preds.txt", "".join(f"rel{i}\n" for i in range(50)))
        space = load_labels(path, PREDICATE)
        assert space.size == 50
        assert space.index_of("rel7") == 7

    def test_single_entry(self, tmp_path):
        space = load_labels(write(tmp_path, "p.txt", "on\n"), PREDICATE)
        assert space.size == 1
        assert space.index_of("on") == 0

    def test_duplicate_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "p.txt", "on\nunder\non\n")
        with pytest.raises(ParseError, match=r"p.txt:3: duplicate label 'on'"):
            load_labels(path, PREDICATE)

    def test_empty_line_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="empty label"):
            load_labels(write(tmp_path, "p.txt", "on\n\nunder\n"), PREDICATE)

    def test_multi_word_labels_allowed(self, tmp_path):
        space = load_labels(write(tmp_path, "p.txt", "sitting on\non\n"), PREDICATE)
        assert space.index_of("sitting on") == 0

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_label_holding_a_line_separator_is_one_label(self, tmp_path, separator):
        space = load_labels(write(tmp_path, "p.txt", f"sitting{separator}on\nunder\n"), PREDICATE)
        assert space.names == (f"sitting{separator}on", "under")
        with pytest.raises(ParseError, match=r"p.txt:3: duplicate label 'under'"):
            load_labels(write(tmp_path, "p.txt", f"sitting{separator}on\nunder\nunder\n"), PREDICATE)

    def test_crlf_lines(self, tmp_path):
        for text in ("on\r\nunder\r\n", "on\r\nunder"):
            assert load_labels(write(tmp_path, "p.txt", text), PREDICATE).names == ("on", "under")
        with pytest.raises(ParseError, match=r"p.txt:2: empty label line"):
            load_labels(write(tmp_path, "p.txt", "on\r\n\r\nunder\r\n"), PREDICATE)
        with pytest.raises(ParseError, match=r"p.txt:3: duplicate label 'on'"):
            load_labels(write(tmp_path, "p.txt", "on\r\nunder\r\non\r\n"), PREDICATE)


class TestReaders:
    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"on\nund\xe9r\n")
        with pytest.raises(ParseError, match=r"p.txt:2: not UTF-8 text: byte 0xe9"):
            load_labels(path, PREDICATE)

    def test_invalid_json_names_the_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"w.json:2: invalid JSON"):
            read_json(write(tmp_path, "w.json", '{"a": 1,\n}'))

    def test_decode_json_names_the_line_the_error_is_on(self):
        with pytest.raises(ParseError, match=r"^f.json:8: invalid JSON: Expecting value$"):
            decode_json("[1,\n]", "f.json", 7)
        with pytest.raises(ParseError, match=r"^f.json:7: invalid JSON: nested too deeply$"):
            decode_json("[" * 100_000 + "]" * 100_000, "f.json", 7)

    @pytest.mark.parametrize(
        "line, problem", [("", "empty line"), ("  ", "empty line"), ("[1]", "expected a JSON object")]
    )
    def test_jsonl_line_that_is_not_an_object(self, tmp_path, spaces, line, problem):
        path = write(tmp_path, "ann.jsonl", json.dumps(annotation_record()) + "\n" + line + "\n")
        with pytest.raises(ParseError, match=rf"ann.jsonl:2: {problem}"):
            load_annotations(path, *spaces, 5)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_annotation_line_holding_a_line_separator_loads(self, tmp_path, spaces, separator):
        lines = [json.dumps(annotation_record(f"im{i}{separator}"), ensure_ascii=False) for i in range(2)]
        path = write(tmp_path, "ann.jsonl", "".join(line + "\n" for line in lines))
        dataset = load_annotations(path, *spaces, 5)
        assert dataset.image_ids == (f"im0{separator}", f"im1{separator}")
        path = write(tmp_path, "ann.jsonl", "".join(line + "\n" for line in lines) + "{nope\n")
        with pytest.raises(ParseError, match=r"ann.jsonl:3: invalid JSON"):
            load_annotations(path, *spaces, 5)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_prediction_line_holding_a_line_separator_loads(self, tmp_path, spaces, separator):
        object_space, _ = spaces
        record = {"image_id": f"im{separator}0", "subj_id": 0, "obj_id": 1, "subj_label": "thing0",
                  "obj_label": "thing1", "subj_box": [0, 0, 1, 1], "obj_box": [1, 1, 2, 2],
                  "subj_score": 1.0, "obj_score": 1.0, "probs": [0.5, 0.25, 0.25]}
        line = json.dumps(record, ensure_ascii=False) + "\n"
        path = write(tmp_path, "p.jsonl", line + line)
        loaded = load_predictions(path, object_space, 3)
        assert [loaded.image_ids[i] for i in loaded.image] == [f"im{separator}0"] * 2
        path = write(tmp_path, "p.jsonl", line + line + line.replace("0.5", "-0.5"))
        with pytest.raises(ParseError, match=r"p.jsonl:3: bad 'probs'"):
            load_predictions(path, object_space, 3)

    def test_crlf_lines_and_blank_lines(self, tmp_path, spaces):
        line = json.dumps(annotation_record())
        assert len(load_annotations(write(tmp_path, "a.jsonl", line + "\r\n"), *spaces, 5).annotations) == 1
        for text in (line + "\r\n\r\n", line + "\n\n" + line + "\n"):
            with pytest.raises(ParseError, match=r"a.jsonl:2: empty line"):
                load_annotations(write(tmp_path, "a.jsonl", text), *spaces, 5)


class TestParseFields:
    TABLE = (("name", string), ("score", number))

    def test_values_in_table_order(self):
        assert parse_fields({"score": 2, "name": "a", "other": None}, self.TABLE) == ["a", 2.0]

    @pytest.mark.parametrize(
        "record, problem",
        [
            ({"name": "a"}, "row 3: missing key 'score'"),
            ({"name": "a", "score": True}, "row 3: bad 'score': expected a number, got True"),
            ({"name": "a", "score": -1}, "row 3: bad 'score': must be finite and non-negative, got -1"),
            ({"name": 5, "score": 1}, "row 3: bad 'name': expected a string, got 5"),
            (["a", 1], "row 3: expected a JSON object, got ['a', 1]"),
        ],
    )
    def test_refusal_names_the_place_and_the_key(self, record, problem):
        with pytest.raises(ValueError) as err:
            parse_fields(record, self.TABLE, "row 3")
        assert str(err.value) == problem

    def test_probs_are_added_left_to_right(self):
        """The same entries sum finitely in one order and overflow in the other; rows and columns agree."""
        row = [1.7976931348623157e308] + [6e291] * 8  # the running sum stays at the largest float
        parse = ingest.scores(9)
        assert parse(row) == row
        with pytest.raises(ValueError, match="^must be finite and non-negative$"):
            parse(row[::-1])
        with np.errstate(over="ignore"):
            sums = ingest.left_to_right_sum(np.array([row, row[::-1]]).T, np.zeros(2))
        assert sums[0] == ingest.left_to_right_sum(row) == row[0] and math.isinf(sums[1])

    def test_unknown_label_message_is_unquoted(self, spaces):
        with pytest.raises(ValueError) as err:
            parse_fields({"label": "dragon"}, (("label", spaces[0].index_of),))
        assert str(err.value) == "bad 'label': unknown object label 'dragon'"


def annotation_record(image_id="im1", width=100.0, height=100.0):
    return {
        "image_id": image_id,
        "width": width,
        "height": height,
        "objects": [
            {"id": 0, "label": "thing0", "box": [0, 0, 10, 10], "feature": [1.0] * 5},
            {"id": 1, "label": "thing1", "box": [5, 5, 30, 30], "feature": [2.0] * 5},
        ],
        "relations": [{"subj": 0, "pred": "rel0", "obj": 1}],
    }


class TestLoadAnnotations:
    def test_counts_preserved(self, tmp_path, spaces):
        lines = [json.dumps(annotation_record(f"im{i}")) for i in range(2)]
        path = write(tmp_path, "ann.jsonl", "".join(line + "\n" for line in lines))
        dataset = load_annotations(path, *spaces, 5)
        assert len(dataset.annotations) == 2
        assert dataset.num_triples() == 2

    def test_unknown_label_named_in_error(self, tmp_path, spaces):
        record = annotation_record()
        record["objects"][0]["label"] = "dragon"
        path = write(tmp_path, "ann.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="dragon"):
            load_annotations(path, *spaces, 5)

    def test_empty_file_is_valid(self, tmp_path, spaces):
        dataset = load_annotations(write(tmp_path, "ann.jsonl", ""), *spaces, 5)
        assert dataset.annotations == ()

    def test_boxes_clamped_at_ingest(self, tmp_path, spaces):
        record = annotation_record()
        record["objects"][0]["box"] = [-10, -10, 20, 20]
        path = write(tmp_path, "ann.jsonl", json.dumps(record) + "\n")
        dataset = load_annotations(path, *spaces, 5)
        assert dataset.boxes[0].tolist() == [0.0, 0.0, 20.0, 20.0]

    def test_clamp_to_the_frame(self, tmp_path, spaces):
        record = annotation_record(width=100.0, height=50.0)
        record["objects"][0]["box"] = [-5, -1, 120, 60]
        dataset = load_annotations(write(tmp_path, "ann.jsonl", json.dumps(record) + "\n"), *spaces, 5)
        assert dataset.boxes[0].tolist() == [0.0, 0.0, 100.0, 50.0]

    def test_clamp_can_degenerate(self, tmp_path, spaces):
        record = annotation_record(width=100.0, height=50.0)
        record["objects"][0]["box"] = [150, 0, 160, 10]
        path = write(tmp_path, "ann.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=r"^.*ann.jsonl:1: object 0: degenerate box \(100.0, 0.0, 100.0, 10.0\)$"):
            load_annotations(path, *spaces, 5)

    def test_clamp_matches_clipping_every_coordinate(self, tmp_path, spaces, rng):
        """The clamp equals clipping each coordinate, -0.0 included (boxes that clip to nothing left out)."""
        values = np.concatenate([rng.uniform(-20.0, 120.0, 4000), [-0.0, 0.0, 50.0, 100.0] * 40])
        boxes, clipped = [], []
        corners = np.sort(rng.permutation(values).reshape(-1, 2, 2), axis=1)  # x1 <= x2 and y1 <= y2
        for box in corners.reshape(-1, 4).tolist():
            x1, y1, x2, y2 = clip = [min(max(v, 0.0), size) for v, size in zip(box, (100.0, 50.0) * 2)]
            if x1 < x2 and y1 < y2:
                boxes.append(box)
                clipped.append(clip)
        record = annotation_record(width=100.0, height=50.0)
        lines = [json.dumps({**record, "image_id": f"im{i}", "objects": [{**record["objects"][0], "box": box}],
                             "relations": []}) for i, box in enumerate(boxes)]
        loaded = load_annotations(write(tmp_path, "ann.jsonl", "".join(line + "\n" for line in lines)), *spaces, 5)
        assert len(clipped) > 100
        assert [[repr(v) for v in box] for box in loaded.boxes.tolist()] == [[repr(v) for v in box] for box in clipped]

    @pytest.mark.parametrize("refused_first", [True, False])
    def test_earliest_faulty_line_is_reported(self, tmp_path, spaces, refused_first):
        """A refused value and an invariant violation on different lines: the earlier line's fault is raised."""
        refused = annotation_record("refused")
        del refused["objects"][1]["label"]
        violating = annotation_record("violating")
        violating["relations"][0]["obj"] = 7
        faulty = [refused, violating] if refused_first else [violating, refused]
        lines = [annotation_record("good"), *faulty, annotation_record("late")]
        path = write(tmp_path, "ann.jsonl", "".join(json.dumps(r) + "\n" for r in lines))
        problem = r"ann.jsonl:2: objects\[1\]: missing key 'label'$" if refused_first else (
            r"ann.jsonl:2: triple 0: dangling object_id 7$")
        with pytest.raises(ParseError, match=problem):
            load_annotations(path, *spaces, 5)

    def test_duplicate_triples_deduplicated(self, tmp_path, spaces, caplog):
        record = annotation_record()
        record["relations"].append(dict(record["relations"][0]))
        path = write(tmp_path, "ann.jsonl", json.dumps(record) + "\n")
        with caplog.at_level("INFO"):
            dataset = load_annotations(path, *spaces, 5)
        assert dataset.num_triples() == 1
        assert any("duplicate" in message for message in caplog.messages)

    def test_repeated_image_id_names_both_lines(self, tmp_path, spaces):
        lines = [json.dumps(annotation_record(image_id)) for image_id in ("im0", "im1", "im2", "im1")]
        path = write(tmp_path, "ann.jsonl", "".join(line + "\n" for line in lines))
        with pytest.raises(ParseError, match=r"ann.jsonl:4: image_id 'im1' repeats line 2$"):
            load_annotations(path, *spaces, 5)

    def test_dimension_mismatch_aborts_with_line(self, tmp_path, spaces):
        good = json.dumps(annotation_record("im0"))
        bad_record = annotation_record("im1")
        bad_record["objects"][0]["feature"] = [1.0] * 4
        path = write(tmp_path, "ann.jsonl", good + "\n" + json.dumps(bad_record) + "\n")
        with pytest.raises(ParseError, match=r"ann.jsonl:2: .*feature dimension mismatch"):
            load_annotations(path, *spaces, 5)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_box_coordinates_must_be_finite(self, tmp_path, spaces, value):
        record = annotation_record()
        record["objects"][1]["box"][2] = value
        path = write(tmp_path, "ann.jsonl", json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=r"ann.jsonl:1: objects\[1\]: bad 'box': coordinates must be finite"):
            load_annotations(path, *spaces, 5)

    def test_integer_width_and_coordinates_load_as_floats(self, tmp_path, spaces):
        path = write(tmp_path, "ann.jsonl", json.dumps(annotation_record(width=100, height=100)) + "\n")
        dataset = load_annotations(path, *spaces, 5)
        assert dataset.sizes.tolist() == [[100.0, 100.0]] and dataset.boxes[0].tolist() == [0.0, 0.0, 10.0, 10.0]
        save_annotations(dataset, tmp_path / "again.jsonl")
        assert json.loads((tmp_path / "again.jsonl").read_text())["objects"][0]["box"] == [0.0, 0.0, 10.0, 10.0]

    def test_invalid_json_line(self, tmp_path, spaces):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_annotations(write(tmp_path, "ann.jsonl", "{nope\n"), *spaces, 5)

    def test_round_trip(self, tmp_path, spaces):
        rng = np.random.default_rng(0)
        annotations = [
            make_annotation(
                f"im{i}",
                objects=(
                    make_object(0, 0, feature=rng.normal(size=5)),
                    make_object(1, 1, feature=rng.normal(size=5)),
                ),
            )
            for i in range(3)
        ]
        dataset = make_dataset(annotations, spaces)
        first = tmp_path / "a.jsonl"
        save_annotations(dataset, first)
        loaded = load_annotations(first, *spaces, 5)
        second = tmp_path / "b.jsonl"
        save_annotations(loaded, second)
        assert first.read_text() == second.read_text()


class TestLoadEmbeddings:
    def test_direct_parse(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("on",))
        table = load_embeddings(write(tmp_path, "e.txt", "on 1.0 0.0\n"), space)
        assert table.dim == 2
        np.testing.assert_array_equal(table.vectors[0], [1.0, 0.0])

    def test_multi_word_mean_pooling(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("sitting on",))
        path = write(tmp_path, "e.txt", "sitting 1.0 0.0\non 0.0 1.0\n")
        table = load_embeddings(path, space)
        np.testing.assert_allclose(table.vectors[0], [0.5, 0.5])

    def test_pooling_is_idempotent_for_single_tokens(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("on",))
        path = write(tmp_path, "e.txt", "on 0.25 0.75\nunused 1.0 1.0\n")
        np.testing.assert_array_equal(load_embeddings(path, space).vectors[0], [0.25, 0.75])

    def test_pooling_permutation_invariant(self, tmp_path):
        tokens = "a 1.0 2.0\nb 3.0 -1.0\nc 0.5 0.5\n"
        one = LabelSpace(kind=PREDICATE, names=("a b c",))
        other = LabelSpace(kind=PREDICATE, names=("c a b",))
        va = load_embeddings(write(tmp_path, "e1.txt", tokens), one).vectors[0]
        vb = load_embeddings(write(tmp_path, "e2.txt", tokens), other).vectors[0]
        np.testing.assert_allclose(va, vb)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_token_holding_a_line_separator_is_one_token(self, tmp_path, separator):
        space = LabelSpace(kind=PREDICATE, names=("on",))
        lines = f"a{separator}b 1.0 0.0\non 0.0 1.0\n"
        np.testing.assert_array_equal(load_embeddings(write(tmp_path, "e.txt", lines), space).vectors, [[0.0, 1.0]])
        with pytest.raises(ParseError, match=r"e.txt:3: inconsistent dimension"):
            load_embeddings(write(tmp_path, "e.txt", lines + "under 1.0\n"), space)
        with pytest.raises(ParseError, match=r"e.txt:2: duplicate token " + re.escape(repr(f"a{separator}b"))):
            load_embeddings(write(tmp_path, "e.txt", lines.replace("on", f"a{separator}b")), space)

    def test_crlf_lines(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("on", "under"))
        for text in ("on 1.0 0.0\r\nunder 0.0 1.0\r\n", "on 1.0 0.0\r\nunder 0.0 1.0"):
            np.testing.assert_array_equal(load_embeddings(write(tmp_path, "e.txt", text), space).vectors, np.eye(2))
        with pytest.raises(ParseError, match=r"e.txt:2: inconsistent dimension"):
            load_embeddings(write(tmp_path, "e.txt", "on 1.0 0.0\r\nunder 1.0\r\n"), space)
        with pytest.raises(ParseError, match=r"e.txt:2: expected 'token v1 v2 ... vD'"):
            load_embeddings(write(tmp_path, "e.txt", "on 1.0 0.0\r\n\r\nunder 0.0 1.0\r\n"), space)

    def test_inconsistent_dimension(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("on",))
        path = write(tmp_path, "e.txt", "on 1.0 0.0 0.0\nunder 1.0 0.0\n")
        with pytest.raises(ParseError, match="inconsistent dimension"):
            load_embeddings(path, space)

    def test_missing_token(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("under",))
        with pytest.raises(ValueError, match="no embedding for token 'under'"):
            load_embeddings(write(tmp_path, "e.txt", "on 1.0 0.0\n"), space)

    def test_zero_norm_vector_rejected(self, tmp_path):
        space = LabelSpace(kind=PREDICATE, names=("on",))
        with pytest.raises(ValueError, match="zero-norm"):
            load_embeddings(write(tmp_path, "e.txt", "on 0.0 0.0\n"), space)

    def test_save_round_trip(self, tmp_path, rng):
        space = LabelSpace(kind=PREDICATE, names=("on", "under"))
        table = EmbeddingTable(space=space, vectors=rng.normal(size=(2, 3)))
        path = tmp_path / "e.txt"
        save_embeddings(table, path)
        np.testing.assert_array_equal(load_embeddings(path, space).vectors, table.vectors)

    def test_save_round_trip_of_labels_holding_other_whitespace(self, tmp_path, rng):
        """One token rule: only a space separates tokens, in a label as in the file."""
        space = LabelSpace(kind=PREDICATE, names=("sitting\ton", "lying\x85on", "under"))
        table = EmbeddingTable(space=space, vectors=rng.normal(size=(3, 3)))
        path = tmp_path / "e.txt"
        save_embeddings(table, path)
        np.testing.assert_array_equal(load_embeddings(path, space).vectors, table.vectors)


class TestRecalls:
    def test_load(self, tmp_path, spaces):
        _, predicates = spaces
        payload = {name: 0.5 for name in predicates.names}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        recalls = load_recalls(path, predicates)
        assert recalls.dtype == np.float64
        np.testing.assert_array_equal(recalls, [0.5] * predicates.size)

    def test_missing_predicate(self, tmp_path, spaces):
        _, predicates = spaces
        path = tmp_path / "r.json"
        path.write_text(json.dumps({predicates.names[0]: 0.5}))
        with pytest.raises(ValueError, match="missing recall"):
            load_recalls(path, predicates)

    def test_out_of_range_value(self, tmp_path, spaces):
        _, predicates = spaces
        name = predicates.names[-1]
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**{other: 0.5 for other in predicates.names}, name: 1.5}))
        with pytest.raises(ValueError) as err:
            load_recalls(path, predicates)
        assert str(err.value) == f"{path}: bad {name!r}: must be at most 1, got 1.5"


def signature_dataset(signatures, spaces):
    annotations = []
    for i, (s, p, o) in enumerate(signatures):
        annotations.append(
            make_annotation(
                f"im{i}",
                objects=(make_object(0, label=s), make_object(1, label=o)),
                triples=(Triple(0, p, 1),),
            )
        )
    return make_dataset(annotations, spaces)


class TestZeroShotIndex:
    def test_set_difference(self, spaces):
        train = signature_dataset([(0, 0, 1)], spaces)
        test = signature_dataset([(0, 0, 1), (1, 0, 0)], spaces)
        index = build_zero_shot_index(train, test)
        assert index == {(1, 0, 0)}

    def test_subset_gives_empty_index(self, spaces):
        train = signature_dataset([(0, 0, 1), (1, 0, 0)], spaces)
        test = signature_dataset([(0, 0, 1)], spaces)
        assert len(build_zero_shot_index(train, test)) == 0

    def test_disjoint_sets(self, spaces):
        train = signature_dataset([(0, 0, 1)], spaces)
        test = signature_dataset([(1, 1, 2), (2, 2, 3), (3, 0, 0)], spaces)
        assert len(build_zero_shot_index(train, test)) == 3

    def test_self_index_always_empty(self, spaces):
        train = signature_dataset([(0, 0, 1), (2, 1, 3), (1, 2, 0)], spaces)
        assert len(build_zero_shot_index(train, train)) == 0

    def test_mismatched_spaces_rejected(self, spaces):
        other = (
            LabelSpace(kind=OBJECT, names=("alien", "robot")),
            LabelSpace(kind=PREDICATE, names=("rel0",)),
        )
        train = signature_dataset([(0, 0, 1)], other)
        test = signature_dataset([(0, 0, 1)], spaces)
        with pytest.raises(ValueError, match="mismatched label spaces"):
            build_zero_shot_index(train, test)


COLUMNS = ("sizes", "object_offsets", "triple_offsets", "object_ids", "labels", "boxes", "features", "triples")


def annotations_outcome(path, object_space, predicate_space, d_roi):
    """``load_annotations``' dataset, every column with its dtype, shape and bytes, or its error's type and text."""
    try:
        dataset = load_annotations(path, object_space, predicate_space, d_roi, "val")
    except ValueError as err:
        return type(err), str(err)
    return [
        (type(dataset), dataset.split, dataset.object_space, dataset.predicate_space, type(dataset.d_roi),
         dataset.d_roi, type(dataset.image_ids), *((type(i), i) for i in dataset.image_ids)),
        *((name, getattr(dataset, name).dtype, getattr(dataset, name).shape, getattr(dataset, name).tobytes())
          for name in COLUMNS),
    ]


def jsonl_annotations_outcome(path, *args):
    """``annotations_outcome`` with no companion beside ``path`` (the companion, if any, is put back)."""
    companion = companion_path(path)
    kept = companion.read_bytes() if companion.exists() else None
    companion.unlink(missing_ok=True)
    try:
        return annotations_outcome(path, *args)
    finally:
        if kept is not None:
            companion.write_bytes(kept)


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, 0.1])
feature_value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), edge_floats)
image_id = st.one_of(st.text(st.characters(exclude_categories=()), max_size=6),
                     st.sampled_from(['"', "\\", "\n", " ", "\x85", "é", "\ud800", "{}", "img"]))
int64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def annotation_sets(draw, valid=True, c_obj=4, c_pred=3, d_roi=3):
    """Datasets of values that the parser reads, with boxes in the frame and distinct ids and triples. With
    ``valid=False`` a value may also be one that the parser clamps, drops or refuses, or that the companion
    cannot hold (an integer image id), or a label of -1, which the text writes as the last name."""

    def maybe(good, bad):
        return good if valid else st.one_of(good, bad)

    size = maybe(st.one_of(st.floats(1e-300, 1e308), st.integers(1, 2**53), st.sampled_from([5e-324, 1e308])),
                 st.one_of(st.floats(), edge_floats))
    ids = maybe(st.one_of(st.integers(0, 5), int64), st.integers(0, 2))
    label = maybe(st.integers(0, c_obj - 1), st.just(-1))
    feature = maybe(feature_value, st.floats())
    annotations = []
    for image in draw(st.lists(maybe(image_id, st.integers()), max_size=4, unique=valid)):
        width, height = draw(size), draw(size)
        framed = all(0 < v <= 1e308 for v in (width, height))
        objects = []
        for object_id in draw(st.lists(ids, max_size=4, unique=valid)):
            if framed and (valid or draw(st.booleans())):
                corner = [st.one_of(st.floats(0.0, limit), st.sampled_from([0.0, -0.0, 5e-324, limit]))
                          for limit in (width, height)]
                (x1, x2), (y1, y2) = (sorted(draw(st.lists(c, min_size=2, max_size=2, unique=True))) for c in corner)
            else:
                x1, y1, x2, y2 = draw(st.lists(st.one_of(st.floats(), edge_floats, st.integers(-5, 200)),
                                               min_size=4, max_size=4))
            values = draw(st.lists(feature, min_size=d_roi, max_size=d_roi))
            objects.append(ObjectInstance(object_id, draw(label), BoundingBox(x1, y1, x2, y2),
                                          np.array(values, dtype=np.float64)))
        ends = maybe(st.sampled_from([o.object_id for o in objects] or [0]), ids)
        triples = draw(st.lists(st.builds(Triple, ends, st.integers(0, c_pred - 1), ends), max_size=4, unique=valid))
        triples = [t for t in triples if t.subj != t.obj] if valid else triples
        annotations.append(SceneGraphAnnotation(image, width, height, tuple(objects), tuple(triples)))
    return to_columns(reference.Dataset("val", tuple(annotations), *make_spaces(c_obj, c_pred), d_roi))


def awkward_annotations():
    """Escaped and non-ASCII image ids, an image with no objects and one with no relations, -0.0 and
    subnormal coordinates, and -0.0, subnormal and 1e308 features."""
    objects = (
        make_object(0, 1, feature=[-0.0, 5e-324, 1e308, -1e308, 0.1], box=BoundingBox(-0.0, 5e-324, 10.0, 20.0)),
        make_object(7, 3),
        make_object(2**40, 0, box=BoundingBox(50.0, 50.0, 99.5, 100.0)),
    )
    return [
        make_annotation("im é", objects=objects, triples=(Triple(0, 2, 7), Triple(2**40, 0, 0), Triple(7, 2, 0))),
        make_annotation('a"b\\c\n\x85', width=640, height=480.5),
        make_annotation("no relations", objects=objects[:2], triples=()),
        make_annotation("\ud800"),
    ]


def awkward_dataset(spaces):
    return make_dataset(awkward_annotations(), spaces, split="val")


def workload_corpus(name, monkeypatch):
    """The train, val and test splits that the benchmark's set-up draws for workload ``name`` at seed 7."""
    root = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    data = synth.generate(synth.SynthConfig(**{**workloads.WORKLOADS[name].synth, "seed": 7}))
    return data.train, data.val, data.test


def reference_text(dataset):
    """The annotation text the reference writer gives: ``json`` over each image's record, object by object."""
    return reference.annotations_to_jsonl(to_objects(dataset))


def chunked_dataset(spaces, counts, d_roi=512, seed=3):
    """Images of ``counts`` objects each, with signed features of every magnitude, each object related to the next."""
    rng = np.random.default_rng(seed)
    annotations, next_id = [], 0
    for image, count in enumerate(counts):
        ids = range(next_id, next_id + count)
        next_id += count
        objects = [make_object(i, i % 4, feature=rng.normal(0.0, 10.0 ** rng.integers(-3, 3), d_roi), d_roi=d_roi)
                   for i in ids]
        triples = [Triple(a, image % 3, b) for a, b in zip(ids, ids[1:])]
        annotations.append(make_annotation(f"im{image}", objects=objects, triples=triples))
    return make_dataset(annotations, spaces, split="val", d_roi=d_roi)


class TestAnnotationText:
    """The annotation writer gives the bytes that ``json`` gives for each image's record."""

    @given(annotation_sets(valid=False))
    def test_equals_the_json_encoder(self, dataset):
        assert "".join(ingest._annotation_lines(dataset)) == reference_text(dataset)

    @pytest.mark.parametrize("features, box, width, height", [
        ([-0.0, -5e-324, -2.2250738585072014e-308, -0.1, -0.12345678901234567], (-0.0, 5e-324, 10.0, 20.0), 100.0,
         100.0),
        ([1.0, -1.0, 1e16, -1e300, 123.456], (0.5, 1e-300, 10.0, 20.0), 100.0, 100.0),
        ([0.5, math.nan, -0.25, math.inf, -math.inf], (0.0, 0.0, 10.0, 20.0), 100.0, 100.0),
        ([0.5, 0.25, -0.125, 1e-5, -1e-100], (0.0, 0.0, 10.0, 20.0), math.nan, 100.0),
        ([0.5, 0.25, -0.125, 1e-5, -1e-100], (0.0, 0.0, 10.0, 20.0), math.inf, -math.inf),
        ([0.5, 0.25, -0.125, 1e-5, -1e-100], (math.nan, -math.inf, math.inf, -0.0), 100.0, 100.0),
    ], ids=["negative", "at-least-one", "non-finite-features", "nan-size", "infinite-sizes", "non-finite-box"])
    def test_values(self, spaces, features, box, width, height):
        objects = (make_object(0, 1, feature=features, box=BoundingBox(*box)), make_object(1, 2))
        dataset = make_dataset([make_annotation("im", objects=objects, width=width, height=height)], spaces)
        assert "".join(ingest._annotation_lines(dataset)) == reference_text(dataset)

    def test_image_without_objects(self, spaces):
        dataset = make_dataset([make_annotation("none", objects=(), triples=()), make_annotation("two")], spaces)
        assert "".join(ingest._annotation_lines(dataset)) == reference_text(dataset)

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-minus-one", "one-chunk", "chunk-plus-one"])
    def test_splits_around_one_chunk(self, spaces, monkeypatch, extra):
        """Objects are formatted one chunk of at most ``_FEATURE_CHUNK`` features at a time; with one object more
        than a chunk, an image straddles two."""
        rows = ingest._FEATURE_CHUNK // 512
        total = rows + extra
        dataset = chunked_dataset(spaces, [3] * (total // 3) + [total % 3])
        calls = []
        formatter = ingest._float_reprs
        monkeypatch.setattr(ingest, "_float_reprs", lambda x: calls.append(len(x)) or formatter(x))
        assert "".join(ingest._annotation_lines(dataset)) == reference_text(dataset)
        assert calls == [512 * min(rows, total - start) for start in range(0, total, rows)]

    def test_image_straddling_chunks(self, spaces):
        rows = ingest._FEATURE_CHUNK // 512
        dataset = chunked_dataset(spaces, [rows - 1, 3 * rows, 1])  # the second image spans four chunks
        assert "".join(ingest._annotation_lines(dataset)) == reference_text(dataset)


class TestAnnotationCompanion:
    """The annotation companion changes nothing that ``load_annotations`` returns or refuses."""

    @given(annotation_sets())
    def test_round_trip_agrees_bit_for_bit_and_in_type(self, dataset):
        spaces = (dataset.object_space, dataset.predicate_space)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "val.jsonl"
            save_annotations(dataset, path)
            assert companion_path(path).exists()
            expected = jsonl_annotations_outcome(path, *spaces, 3)
            assert annotations_outcome(path, *spaces, 3) == expected
            # The arrays serve exactly the files the parser accepts (nothing here needs a clamp or a drop).
            used = ingest._companion_dataset(path, *spaces, 3, "val") is not None
            assert used == (type(expected) is list)

    @given(annotation_sets(valid=False))
    def test_any_values_give_the_parser_result(self, dataset):
        spaces = (dataset.object_space, dataset.predicate_space)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "val.jsonl"
            save_annotations(dataset, path)
            assert annotations_outcome(path, *spaces, 3) == jsonl_annotations_outcome(path, *spaces, 3)

    @pytest.mark.parametrize("workload", ["ablation", "dense_sggen"])
    def test_workload_corpora(self, tmp_path, monkeypatch, workload):
        for split in workload_corpus(workload, monkeypatch):
            path = tmp_path / f"{split.split}.jsonl"
            save_annotations(split, path)
            args = (split.object_space, split.predicate_space, split.d_roi)
            assert ingest._companion_dataset(path, *args, "val") is not None
            assert annotations_outcome(path, *args) == jsonl_annotations_outcome(path, *args)
            assert path.read_bytes() == reference_text(split).encode("ascii")

    @pytest.fixture
    def written(self, tmp_path, spaces):
        path = tmp_path / "val.jsonl"
        save_annotations(awkward_dataset(spaces), path)
        expected = jsonl_annotations_outcome(path, *spaces, 5)
        assert type(expected) is list and annotations_outcome(path, *spaces, 5) == expected
        assert ingest._companion_dataset(path, *spaces, 5, "val") is not None
        return path, spaces, expected

    def test_every_flipped_header_byte_and_sampled_payload_bytes(self, written):
        path, spaces, expected = written
        companion = companion_path(path)
        data = companion.read_bytes()
        header_end = data.index(b"\n") + 1
        rng = random.Random(3)
        for position in [*range(header_end), *rng.sample(range(header_end, len(data)), 64)]:
            flipped = bytearray(data)
            flipped[position] ^= rng.randrange(1, 256)
            companion.write_bytes(flipped)
            assert annotations_outcome(path, *spaces, 5) == expected, position

    @pytest.mark.parametrize("cut", [1, 8, 100, 10**9])
    def test_truncated_payload(self, written, cut):
        path, spaces, expected = written
        companion = companion_path(path)
        data = companion.read_bytes()
        companion.write_bytes(data[: max(data.index(b"\n") + 1, len(data) - cut)])
        assert annotations_outcome(path, *spaces, 5) == expected

    @pytest.mark.parametrize("header", [b"[" * 100_000, b"{}", b'{"format": "sgrel-annotations"}', b"\xff"],
                             ids=["nested-too-deep", "empty", "format-only", "not-utf8"])
    def test_foreign_header(self, written, header):
        path, spaces, expected = written
        companion = companion_path(path)
        companion.write_bytes(header + b"\n" + companion.read_bytes().split(b"\n", 1)[1])
        assert annotations_outcome(path, *spaces, 5) == expected

    def test_prediction_companion_in_its_place(self, written, tmp_path):
        path, spaces, expected = written
        from sgrel.metrics import save_predictions
        from conftest import awkward_pairs
        from reference_predictions import to_set

        save_predictions(to_set(awkward_pairs(np.random.default_rng(5), 3)), spaces[0], tmp_path / "p.jsonl")
        companion_path(path).write_bytes(companion_path(tmp_path / "p.jsonl").read_bytes())
        assert annotations_outcome(path, *spaces, 5) == expected

    def test_jsonl_edited_after_it_was_written(self, written):
        path, spaces, expected = written
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["objects"][1]["feature"][0] = 0.25
        record["image_id"] = "edited"
        path.write_text("".join([json.dumps(record) + "\n"] + lines[1:]))
        edited = annotations_outcome(path, *spaces, 5)
        assert edited == jsonl_annotations_outcome(path, *spaces, 5) != expected
        assert edited[0][7] == (str, "edited")

    @pytest.mark.parametrize("kind, names", [
        ("object", ("thing1", "thing0", "thing2", "thing3")),
        ("object", ("thing0", "thing1", "thing2", "thing3", "x")),
        ("predicate", ("rel0", "rel2", "rel1")),
        ("predicate", ("rel0", "rel1", "rel2", "x")),
    ])
    def test_another_label_space(self, written, kind, names):
        path, (object_space, predicate_space), _ = written
        spaces = (LabelSpace(kind, names), predicate_space) if kind == "object" else (
            object_space, LabelSpace(kind, names))
        assert annotations_outcome(path, *spaces, 5) == jsonl_annotations_outcome(path, *spaces, 5)
        assert ingest._companion_dataset(path, *spaces, 5, "val") is None

    @pytest.mark.parametrize("d_roi", [4, 6])
    def test_another_d_roi(self, written, d_roi):
        path, spaces, _ = written
        refused = annotations_outcome(path, *spaces, d_roi)
        assert refused == jsonl_annotations_outcome(path, *spaces, d_roi)
        assert refused[0] is ParseError and f"expected {d_roi})" in refused[1]

    def test_missing_companion(self, written):
        path, spaces, expected = written
        companion_path(path).unlink()
        assert annotations_outcome(path, *spaces, 5) == expected

    @pytest.mark.parametrize("change, problem", [
        (lambda a: a[0].objects[1].box.__init__(-1.0, 0.0, 30.0, 20.0), None),  # clamped
        (lambda a: a[0].objects[1].box.__init__(90.0, 0.0, 100.5, 20.0), None),
        (lambda a: a[0].objects[1].box.__init__(90.0, 10.0, 95.0, 120.0), None),
        (lambda a: a.append(make_annotation("dup", triples=(Triple(0, 1, 1), Triple(0, 1, 1)))), None),  # dropped
        (lambda a: a[0].objects[0].feature.__setitem__(2, math.nan), "non-finite feature values"),
        (lambda a: a[1].objects[0].box.__init__(5.0, 0.0, 5.0, 20.0), "degenerate box"),
        (lambda a: a.append(make_annotation("zero", objects=(), triples=(), width=0.0)), "non-positive image size"),
        (lambda a: a.append(make_annotation("-0", objects=(), triples=(), height=-0.0)), "non-positive image size"),
        (lambda a: a.append(make_annotation("huge", height=math.inf)), "bad 'height'"),
        (lambda a: a.append(make_annotation("dangling", triples=(Triple(0, 0, 9),))), "dangling object_id 9"),
        (lambda a: a.append(make_annotation("self", triples=(Triple(1, 0, 1),))), "are the same instance"),
        (lambda a: a.append(make_annotation("twin", objects=(make_object(0), make_object(0)), triples=())),
         "duplicate object_id 0"),
        (lambda a: a.append(make_annotation("im é")), "repeats line 1"),
        (lambda a: a.append(make_annotation(7)), "bad 'image_id'"),
        (lambda a: a.append(make_annotation("wrap", objects=(make_object(0, label=-1),), triples=())), None),
    ], ids=["clamp", "clamp-right", "clamp-bottom", "drop", "nan-feature", "degenerate", "zero-width",
            "negative-zero-height", "infinite-height", "dangling", "self-relation", "duplicate-object",
            "repeated-image", "integer-image-id", "wrapping-label"])
    def test_values_the_parser_changes_or_refuses_are_left_to_it(self, tmp_path, spaces, change, problem):
        annotations = awkward_annotations()
        change(annotations)
        path = tmp_path / "val.jsonl"
        save_annotations(make_dataset(annotations, spaces, split="val"), path)
        assert companion_path(path).exists()
        assert ingest._companion_dataset(path, *spaces, 5, "val") is None
        result = annotations_outcome(path, *spaces, 5)
        assert result == jsonl_annotations_outcome(path, *spaces, 5)
        assert (type(result) is list) if problem is None else (result[0] is ParseError and problem in result[1])

    @pytest.mark.parametrize("forge", [
        lambda c: c["triples"].__setitem__((0, 1), 3),  # a predicate outside the space
        lambda c: c["triples"].__setitem__((0, 1), -1),
        lambda c: c["labels"].__setitem__(1, 4),
        lambda c: c["labels"].__setitem__(1, -1),
        lambda c: c["sizes"].__setitem__((3, 1), 0.0),
        lambda c: c["sizes"].__setitem__((3, 0), math.inf),
        lambda c: c["boxes"].__setitem__((1, 2), 100.5),  # beyond the frame
        lambda c: c["boxes"].__setitem__((1, 3), math.nan),
        lambda c: c["features"].__setitem__((2, 0), math.inf),
        lambda c: c["object_counts"].__setitem__(slice(2, 4), [5, -1]),  # the same total
    ])
    def test_forged_companion_values_are_left_to_the_parser(self, written, forge):
        """Values the writer never stores, under valid digests: the loader's own checks refuse them."""
        path, spaces, expected = written
        dataset = awkward_dataset(spaces)
        columns = dict(zip(ingest._ANNOTATION_COLUMNS, (  # copies: the text keeps the true values
            dataset.sizes.copy(), np.diff(dataset.object_offsets), np.diff(dataset.triple_offsets),
            dataset.object_ids.copy(), dataset.labels.copy(), dataset.boxes.copy(), dataset.features.copy(),
            dataset.triples.copy(),
        )))
        forge(columns)
        header = {**ingest._annotation_header(*spaces, 5), "image_ids": list(dataset.image_ids)}
        ingest.save_with_companion(path, ingest._annotation_lines(dataset), (header, columns))
        assert ingest._companion_dataset(path, *spaces, 5, "val") is None
        assert annotations_outcome(path, *spaces, 5) == expected

    @pytest.mark.parametrize("change, error", [
        (lambda a: a.append(make_annotation("wide", objects=(make_object(2**63),), triples=())), OverflowError),
        (lambda a: a.append(make_annotation("short", objects=(make_object(0, d_roi=4),), triples=())), ValueError),
        (lambda a: a.append(make_annotation("ragged", objects=(make_object(0), make_object(1, d_roi=4)))), ValueError),
    ], ids=["id-outside-int64", "short-feature", "ragged-features"])
    def test_values_the_columns_cannot_hold_are_refused_in_memory(self, spaces, change, error):
        """An id outside int64 or a feature of another length never reaches the writer."""
        annotations = awkward_annotations()
        change(annotations)
        with pytest.raises(error):
            make_dataset(annotations, spaces, split="val")

    def test_failed_write_removes_the_stale_companion(self, written):
        path, spaces, _ = written
        annotations = awkward_annotations()
        annotations.append(make_annotation(b"bytes"))
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_annotations(make_dataset(annotations, spaces, split="val"), path)
        assert not companion_path(path).exists()

    def test_empty_dataset(self, tmp_path, spaces):
        path = tmp_path / "val.jsonl"
        save_annotations(make_dataset([], spaces, split="val"), path)
        assert path.read_bytes() == b""
        assert ingest._companion_dataset(path, *spaces, 5, "val") is not None
        assert annotations_outcome(path, *spaces, 5) == jsonl_annotations_outcome(path, *spaces, 5)

    def test_text_is_written_from_the_stacked_features(self, tmp_path, spaces):
        """The lines equal ``json.dumps`` of each record with a per-value ``float`` of each feature."""
        dataset = awkward_dataset(spaces)
        path = tmp_path / "val.jsonl"
        save_annotations(dataset, path)
        names = (spaces[0].names, spaces[1].names)
        lines = [
            json.dumps({
                "image_id": a.image_id, "width": a.width, "height": a.height,
                "objects": [{"id": o.object_id, "label": names[0][o.label], "box": list(o.box.xyxy),
                             "feature": [float(v) for v in o.feature]} for o in a.objects],
                "relations": [{"subj": t.subj, "pred": names[1][t.pred], "obj": t.obj} for t in a.triples],
            }, separators=(",", ":")) + "\n"
            for a in to_objects(dataset).annotations
        ]
        assert path.read_text() == "".join(lines)


def rewrite_header(path, edit):
    """Rewrite the header of the companion of ``path`` with ``edit`` and a ``header_sha256`` that matches again."""
    companion = companion_path(path)
    line, payload = companion.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    del header["header_sha256"]
    edit(header)
    header["header_sha256"] = ingest._header_sha256(header)
    companion.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


class TestFramedReader:
    """``load_framed`` reads each array straight from the file into its own native, writable buffer, hashing as it
    reads, with the refusals of the reader that sliced one payload: a companion in doubt falls back to its text."""

    DTYPES = {"empty": "<f8", "values": "<i8"}

    def framed(self, tmp_path, change=lambda data: data, empty=(0, 3)):
        path = tmp_path / "framed.bin"
        ingest.save_framed(path, {"format": "test"}, {"empty": np.zeros(empty), "values": np.arange(4) - 2})
        path.write_bytes(change(path.read_bytes()))
        return path

    def load(self, path):
        return ingest.load_framed(path, self.DTYPES, "test", "value", lambda header: None)

    def test_zero_length_array(self, tmp_path):
        header, arrays, digest = self.load(self.framed(tmp_path))
        assert header == {"arrays": {"empty": [0, 3], "values": [4]}, "format": "test"}
        assert [(a.dtype.str, a.shape) for a in arrays.values()] == [("<f8", (0, 3)), ("<i8", (4,))]
        assert arrays["values"].tolist() == [-2, -1, 0, 1]
        assert all(a.flags.writeable and a.flags.owndata and a.flags.c_contiguous for a in arrays.values())
        assert digest == hashlib.sha256((np.arange(4) - 2).astype("<i8").tobytes()).hexdigest()

    @pytest.mark.parametrize("change, found", [(lambda data: data[:-1], 31), (lambda data: data + b"\0", 33),
                                               (lambda data: data[: data.index(b"\n") + 1], 0)])
    def test_payload_of_another_length(self, tmp_path, change, found):
        path = self.framed(tmp_path, change)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected 32 value bytes after the header, "
                                             f"found {found}$"):
            self.load(path)

    def test_shape_larger_than_the_file_is_refused_before_anything_is_allocated(self, tmp_path):
        path = self.framed(tmp_path, empty=(0, 2**40))  # an empty array whose second axis could not be allocated
        path.write_bytes(path.read_bytes().replace(b"[0, 1099511627776]", b"[1099511627776, 1099511627776]"))
        message = f"expected {8 * 2**80 + 32} value bytes after the header, found 32$"
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
            self.load(path)

    def test_the_check_sees_the_header_first(self, tmp_path):
        path = self.framed(tmp_path, lambda data: data[:-1])

        def refuse(header):
            raise ValueError(f"refused {header['format']}")

        with pytest.raises(ValueError, match="^refused test$"):
            ingest.load_framed(path, self.DTYPES, "test", "value", refuse)

    def test_split_without_triples_loads_from_its_companion(self, tmp_path, spaces):
        path = tmp_path / "val.jsonl"
        dataset = make_dataset([make_annotation("a", triples=()), make_annotation("b", triples=())], spaces, "val")
        save_annotations(dataset, path)
        header = json.loads(companion_path(path).read_bytes().split(b"\n", 1)[0])
        assert header["arrays"]["triples"] == [0, 3]
        loaded = ingest._companion_dataset(path, *spaces, dataset.d_roi, "val")
        assert loaded is not None and loaded.triples.shape == (0, 3) and loaded.triples.flags.writeable
        expected = jsonl_annotations_outcome(path, *spaces, dataset.d_roi)
        assert annotations_outcome(path, *spaces, dataset.d_roi) == expected

    @pytest.fixture
    def written(self, tmp_path, spaces):
        path = tmp_path / "val.jsonl"
        save_annotations(awkward_dataset(spaces), path)
        assert ingest._companion_dataset(path, *spaces, 5, "val") is not None
        return path, spaces, jsonl_annotations_outcome(path, *spaces, 5)

    @pytest.mark.parametrize("change", [lambda data: data + b"\0", lambda data: data[:-1] + bytes([data[-1] ^ 1])],
                             ids=["one-byte-long", "last-byte-flipped"])  # TestAnnotationCompanion cuts, flips others
    def test_companion_payload_changes_fall_back_to_the_text(self, written, change):
        path, spaces, expected = written
        companion = companion_path(path)
        companion.write_bytes(change(companion.read_bytes()))
        assert ingest._companion_dataset(path, *spaces, 5, "val") is None
        assert annotations_outcome(path, *spaces, 5) == expected

    @pytest.mark.parametrize("edit", [lambda h: h["arrays"].pop("features"),
                                      lambda h: h["arrays"].update(boxes=[-1, 4]),
                                      lambda h: h["arrays"].update(boxes=[2**40, 4]), lambda h: h.pop("arrays")],
                             ids=["missing-shape", "negative-shape", "shape-beyond-the-file", "no-shapes"])
    def test_companion_shapes_in_doubt_fall_back_to_the_text(self, written, edit):
        path, spaces, expected = written
        rewrite_header(path, edit)
        assert ingest._companion_dataset(path, *spaces, 5, "val") is None
        assert annotations_outcome(path, *spaces, 5) == expected
