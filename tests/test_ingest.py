import json
import re

import numpy as np
import pytest

from sgrel.core import LabelSpace, OBJECT, PREDICATE, Triple
from sgrel.metrics import load_predictions
from sgrel.ingest import (
    EmbeddingTable,
    ParseError,
    RecallTable,
    build_zero_shot_index,
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

from conftest import make_annotation, make_dataset, make_object


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

    @pytest.mark.parametrize("line, problem", [("", "empty line"), ("  ", "empty line"), ("[1]", "expected a JSON object")])
    def test_jsonl_line_that_is_not_an_object(self, tmp_path, spaces, line, problem):
        path = write(tmp_path, "ann.jsonl", json.dumps(annotation_record()) + "\n" + line + "\n")
        with pytest.raises(ParseError, match=rf"ann.jsonl:2: {problem}"):
            load_annotations(path, *spaces, 5)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_annotation_line_holding_a_line_separator_loads(self, tmp_path, spaces, separator):
        lines = [json.dumps(annotation_record(f"im{i}{separator}"), ensure_ascii=False) for i in range(2)]
        path = write(tmp_path, "ann.jsonl", "".join(line + "\n" for line in lines))
        dataset = load_annotations(path, *spaces, 5)
        assert [a.image_id for a in dataset.annotations] == [f"im0{separator}", f"im1{separator}"]
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
        assert [pair.image_id for pair in load_predictions(path, object_space, 3)] == [f"im{separator}0"] * 2
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
        box = dataset.annotations[0].objects[0].box
        assert (box.x1, box.y1) == (0.0, 0.0)

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
        annotation = load_annotations(path, *spaces, 5).annotations[0]
        assert type(annotation.width) is float and type(annotation.objects[0].box.x2) is float

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


class TestRecalls:
    def test_load(self, tmp_path, spaces):
        _, predicates = spaces
        payload = {name: 0.5 for name in predicates.names}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        table = load_recalls(path, predicates)
        np.testing.assert_array_equal(table.values, [0.5] * predicates.size)

    def test_missing_predicate(self, tmp_path, spaces):
        _, predicates = spaces
        path = tmp_path / "r.json"
        path.write_text(json.dumps({predicates.names[0]: 0.5}))
        with pytest.raises(ValueError, match="missing recall"):
            load_recalls(path, predicates)

    def test_out_of_range_value(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RecallTable(values=np.array([0.5, 1.5]))


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
