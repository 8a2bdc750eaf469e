import dataclasses
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgrel import alignment, synth
from sgrel.cli import _CONFIG_PARSERS, RunConfig, _write_json, load_config, main, UsageError
from sgrel.ingest import companion_path


def run(argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, name="run.cfg", **kv):
    path = tmp_path / name
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run(["synth", "--out", out, "--seed", 5]) == 0
    return out


def corpus_flags(out):
    return [
        "--object-labels", out / "object_labels.txt",
        "--predicate-labels", out / "predicate_labels.txt",
    ]


# Every default of the run configuration, as reports and manifests echo it.
DEFAULTS = {
    "seed": 0, "alpha": 0.35, "tau": 1100.0, "beta": 0.3, "mu": 1.2, "lr": 0.001, "iterations": 500, "patience": 3,
    "batch_size": 16, "eval_every": 100, "box_loss": 0.0, "object_loss": 0.0, "use_resampling": False,
    "use_refinement": False, "use_reweighting": False, "use_alignment": False, "subtask": "predcls",
    "ks": (20, 50, 100), "images": 300, "c_obj": 30, "c_pred": 20, "d_roi": 32, "d_emb": 16, "zipf_s": 1.5,
    "zero_shot_fraction": 0.1, "noise_sigma": 0.5, "min_triples": 1, "max_triples": 4, "max_distractors": 2,
    "embedding_scale": 160.0, "intra_cluster_sigma": 1.0,
}


def readme_config_keys():
    """The keys in the first column of README's configuration table, in table order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ")[0] for line in section.splitlines() if line.startswith("| `")]
    return [key for row in rows for key in re.findall(r"`(\w+)`", row)]


class TestConfig:
    def test_defaults_match_reference_setup(self):
        config = RunConfig()
        assert config.alpha == 0.35
        assert config.tau == 1100.0
        assert config.beta == 0.3
        assert config.mu == 1.2
        assert config.lr == 0.001
        assert config.ks == (20, 50, 100)
        # Every key, its value and its type (1100.0 and 1100 are echoed differently).
        assert repr(sorted(dataclasses.asdict(config).items())) == repr(sorted(DEFAULTS.items()))

    def test_readme_table_fields_and_parsers_hold_the_same_keys(self):
        keys = readme_config_keys()
        fields = [field.name for field in dataclasses.fields(RunConfig)]
        assert len(keys) == len(set(keys)) == len(fields) == len(_CONFIG_PARSERS) == 31
        assert set(keys) == set(fields) == set(_CONFIG_PARSERS)

    def test_each_key_is_declared_once(self):
        # RunConfig inherits the corpus and training keys; it restates only use_alignment, to turn it off.
        own = set(RunConfig.__annotations__)
        assert own & (set(synth.SynthConfig.__annotations__) | set(alignment.TrainConfig.__annotations__)) == {
            "use_alignment"
        }
        assert alignment.TrainConfig().use_alignment and not RunConfig().use_alignment

    def test_file_and_overrides(self, tmp_path):
        path = write_config(tmp_path, alpha=0.5, iterations=7, use_refinement="true")
        config = load_config(path, {"alpha": 0.25, "seed": 3})
        assert config.alpha == 0.25  # flag wins
        assert config.iterations == 7
        assert config.use_refinement is True
        assert config.seed == 3

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nmu=2.0\n")
        assert load_config(path, {}).mu == 2.0

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_lines_end_at_newlines_only(self, tmp_path, separator):
        path = tmp_path / "c.cfg"
        path.write_text(f"# comment{separator}mu=oops\r\nmu=2.0\r\n", encoding="utf-8")
        assert load_config(path, {}).mu == 2.0
        path.write_text(f"# comment{separator}mu=oops\nmu=2.0\nmu=soon\n", encoding="utf-8")
        with pytest.raises(UsageError, match=r"c.cfg:3: bad value for mu"):
            load_config(path, {})

    @pytest.mark.parametrize("second", ["30", "20"])
    def test_repeated_key_is_usage_error_naming_both_lines(self, tmp_path, capsys, second):
        path = tmp_path / "run.cfg"
        path.write_text(f"images=20\n# again\nimages={second}\n")
        assert run(["synth", "--out", tmp_path / "out", "--config", path]) == 1
        assert capsys.readouterr().err == f"usage error: {path}:3: config key 'images' repeats line 1\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_key_fails_fast(self, tmp_path):
        path = write_config(tmp_path, nonsense=1)
        with pytest.raises(UsageError, match="invalid config key"):
            load_config(path, {})

    def test_bad_value_fails_fast(self, tmp_path):
        path = write_config(tmp_path, iterations="soon")
        with pytest.raises(UsageError, match="bad value"):
            load_config(path, {})

    def test_bad_subtask(self, tmp_path):
        path = write_config(tmp_path, subtask="segmentation")
        with pytest.raises(UsageError, match="invalid subtask"):
            load_config(path, {})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "1.5"),
            ("ks", "-5"),
            ("ks", "0"),
            ("ks", "20,20"),
            ("batch_size", "0"),
            ("patience", "0"),
            ("tau", "0"),
            ("images", "0"),
            ("c_obj", "2"),
            ("embedding_scale", "0"),
            ("max_distractors", "-1"),
            ("box_loss", "nan"),
            ("object_loss", "-inf"),
            ("zipf_s", "inf"),
            ("seed", "-1"),
            ("seed", str(2**63)),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, **{key: value})
        assert run(["synth", "--out", tmp_path / "out", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_echo_round_trips_through_the_file_format(self, tmp_path):
        path = write_config(
            tmp_path, alpha=0.5, ks="5,10", use_alignment="true", subtask="sggen",
            images=50, zipf_s=0.75, box_loss=0.25,
        )
        config = load_config(path, {"seed": 9})
        echo = dataclasses.asdict(config)
        assert json.loads(json.dumps(echo))["ks"] == [5, 10]
        again = write_config(
            tmp_path, name="echo.cfg",
            **{k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in echo.items()},
        )
        assert load_config(again, {}) == config

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda path: None, "No such file or directory"),
            (lambda path: path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(b"seed=1\nalpha=0.5\xe9\n"), ":2: not UTF-8 text: byte 0xe9"),
        ],
    )
    def test_unreadable_config_file_is_usage_error_naming_the_path(self, tmp_path, capsys, make, problem):
        path = tmp_path / "run.cfg"
        make(path)
        assert run(["synth", "--out", tmp_path / "out", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(path) in err and problem in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_seed_flag_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--out", tmp_path, "--seed", "1.5"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "--seed" in err


    @pytest.mark.parametrize("seed", ["-1", str(2**63), "1180591620717411303424"])
    @pytest.mark.parametrize("stage", ["synth", "train"])
    def test_seed_flag_outside_64_bits_is_usage_error_naming_the_key(self, tmp_path, capsys, stage, seed):
        inputs = {"synth": [], "train": [
            *corpus_flags(tmp_path), "--train", "t", "--val", "v", "--test", "t", "--object-embeddings", "e",
            "--d-roi", 4]}[stage]
        assert run([stage, "--out", tmp_path / "out", "--seed", seed, *inputs]) == 1
        assert capsys.readouterr().err == f"usage error: invalid seed {seed}: must be in [0, 2**63)\n"
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(["train"]) == 1  # missing required flags
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_one(self):
        assert run(["frobnicate", "--out", "x"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "labels.txt"
        bad.write_text("on\non\n")
        code = run(
            ["ingest", "--out", tmp_path, "--object-labels", bad, "--predicate-labels", bad,
             "--annotations", bad, "--d-roi", 4]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_json_writer_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError, match="Out of range float values"):
            _write_json({"mRIC@100": float("nan")}, tmp_path / "report.json")

    def test_log_file_in_a_missing_directory_is_data_error(self, tmp_path, capsys):
        log = tmp_path / "missing" / "run.log"
        assert run(["synth", "--out", tmp_path / "out", "--log-file", log]) == 2
        assert capsys.readouterr().err == f"data error: [Errno 2] No such file or directory: '{log}'\n"
        assert not (tmp_path / "out").exists()

    def test_log_file_receives_the_stage_log_lines(self, tmp_path):
        log = tmp_path / "run.log"
        config = write_config(tmp_path, images=20)
        assert run(["synth", "--out", tmp_path / "out", "--config", config, "--log-file", log]) == 0
        assert f"sgrel.cli INFO synth: 14/2/6 train/val/test images -> {tmp_path / 'out'}\n" in log.read_text()

    def test_missing_file_is_two(self, tmp_path):
        code = run(
            ["ingest", "--out", tmp_path, "--object-labels", tmp_path / "nope.txt",
             "--predicate-labels", tmp_path / "nope.txt", "--annotations", tmp_path / "nope.txt",
             "--d-roi", 4]
        )
        assert code == 2


class TestFailedStagesMakeNoOut:
    """A stage whose checks or loads fail (exit 1 or 2) makes no ``--out`` directory."""

    def test_synth_of_an_infeasible_corpus(self, tmp_path, capsys):
        config = write_config(tmp_path, images=200, zero_shot_fraction=0.95, c_obj=5, c_pred=4)
        assert run(["synth", "--out", tmp_path / "sx", "--config", config]) == 2
        assert capsys.readouterr().err == ("data error: infeasible config: withholding removed every label pair of "
                                           "predicate 0; lower zero_shot_fraction\n")
        assert not (tmp_path / "sx").exists()

    def test_resample_without_recalls(self, corpus, tmp_path, capsys):
        config = write_config(tmp_path, use_resampling="true")
        assert run(["resample", "--out", tmp_path / "rs", "--config", config, *corpus_flags(corpus),
                    "--train", corpus / "train.jsonl", "--d-roi", 32]) == 1
        assert capsys.readouterr().err == "usage error: --recalls is required when use_resampling is on\n"
        assert not (tmp_path / "rs").exists()

    def test_refine_without_embeddings(self, corpus, tmp_path, capsys):
        config = write_config(tmp_path, use_refinement="true")
        predictions = tmp_path / "predictions_test.jsonl"
        save_oracle_predictions(corpus, "test", predictions)
        assert run(["refine", "--out", tmp_path / "rf", "--config", config, *corpus_flags(corpus),
                    "--predictions", predictions]) == 1
        assert capsys.readouterr().err == ("usage error: --object-embeddings and --predicate-embeddings are required "
                                           "when use_refinement is on\n")
        assert not (tmp_path / "rf").exists()

    def test_refine_of_predictions_that_do_not_parse(self, corpus, tmp_path, capsys):
        config = write_config(tmp_path, use_refinement="true")
        predictions = tmp_path / "predictions_test.jsonl"
        predictions.write_text('{"image_id": "img0"}\n')
        assert run(["refine", "--out", tmp_path / "rf", "--config", config, *corpus_flags(corpus),
                    "--predictions", predictions, "--object-embeddings", corpus / "object_embeddings.txt",
                    "--predicate-embeddings", corpus / "predicate_embeddings.txt"]) == 2
        assert capsys.readouterr().err == f"data error: {predictions}:1: missing key 'subj_id'\n"
        assert not (tmp_path / "rf").exists()


def outcome_of(argv, capsys):
    """``main``'s exit status (also from ``SystemExit``, as ``-h`` ends), stdout and stderr."""
    try:
        code = run(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserOfTheInvokedCommand:
    """``main`` builds the parser of the command it runs alone; what it prints and returns is the full parser's."""

    @pytest.mark.parametrize("argv", [
        ["-h"], [], ["train", "-h"], ["eval", "--help"], ["report", "-h"],
        ["train", "--object-labels", "o.txt"], ["synth", "--seed", "x", "--out", "o"],
        ["zsplit", "--out", "o", "--bogus"],
        ["trian", "--out", "o"], ["--out", "o", "train"], ["-h", "train"],
    ], ids=["help", "nothing", "train-help", "eval-help", "report-help", "missing-out", "bad-seed", "unknown-flag",
            "unknown-command", "flag-first", "help-first"])
    def test_output_and_status_equal_the_full_parser(self, argv, capsys, monkeypatch):
        from sgrel import cli

        own = outcome_of(argv, capsys)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
        assert own == outcome_of(argv, capsys)
        assert own[0] in (0, 1) and (own[1] or own[2])

    def test_only_a_known_first_item_narrows_the_parser(self):
        from sgrel.cli import _COMMANDS, build_parser

        def commands(argv):
            (sub,) = [action for action in build_parser(argv)._actions if action.dest == "command"]
            return list(sub.choices)

        assert commands(None) == commands([]) == commands(["-h"]) == commands(["trian"]) == list(_COMMANDS)
        assert len(_COMMANDS) == 9
        for name in _COMMANDS:
            assert commands([name, "--out", "o"]) == [name]
        assert commands(["--out", "o", "train"]) == list(_COMMANDS)


# Every flag but --d-roi of each subcommand that reads annotations; a usage error comes before any file is read.
D_ROI_FLAGS = {
    "ingest": ["--annotations", "a.jsonl"],
    "zsplit": ["--train", "train.jsonl", "--test", "test.jsonl"],
    "resample": ["--train", "train.jsonl"],
    "weights": ["--train", "train.jsonl"],
    "train": ["--train", "train.jsonl", "--val", "val.jsonl", "--test", "test.jsonl",
              "--object-embeddings", "emb.txt"],
    "eval": ["--predictions", "p.jsonl", "--dataset", "test.jsonl"],
}


class TestFeatureDimensionFlag:
    @pytest.mark.parametrize("stage", D_ROI_FLAGS)
    @pytest.mark.parametrize("value", ["-7", "0", "4.5", "x"])
    def test_anything_but_a_positive_integer_is_usage_error(self, tmp_path, capsys, stage, value):
        argv = [stage, "--out", tmp_path / "out", "--object-labels", "o.txt", "--predicate-labels", "p.txt",
                *D_ROI_FLAGS[stage], "--d-roi", value]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"usage error: argument --d-roi: must be an integer >= 1, got '{value}'\n"
        assert not (tmp_path / "out").exists()

    def test_negative_on_an_empty_file_writes_no_summary(self, corpus, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        argv = ["ingest", "--out", tmp_path / "out", *corpus_flags(corpus), "--annotations", empty]
        assert run([*argv, "--d-roi", -7]) == 1
        assert "--d-roi" in capsys.readouterr().err and not (tmp_path / "out").exists()
        assert run([*argv, "--d-roi", 1]) == 0
        assert json.loads((tmp_path / "out" / "ingest_summary.json").read_text())["d_roi"] == 1

    @pytest.mark.parametrize("stage", ["ingest", "zsplit"])
    def test_zero_is_usage_error_not_a_data_error_on_line_one(self, corpus, tmp_path, capsys, stage):
        files = {"ingest": ["--annotations", corpus / "train.jsonl"],
                 "zsplit": ["--train", corpus / "train.jsonl", "--test", corpus / "test.jsonl"]}[stage]
        assert run([stage, "--out", tmp_path, *corpus_flags(corpus), *files, "--d-roi", 0]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --d-roi") and "train.jsonl" not in err


class TestSynthAndIngest:
    def test_synth_emits_ingestible_files(self, corpus, tmp_path):
        out = tmp_path / "ingested"
        code = run(
            ["ingest", "--out", out, *corpus_flags(corpus),
             "--annotations", corpus / "train.jsonl", "--d-roi", 32]
        )
        assert code == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["images"] > 0
        assert summary["d_roi"] == 32

    def test_manifest_echoes_config(self, corpus):
        manifest = json.loads((corpus / "synth_manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert manifest["images"]["train"] > 0


INF = "__overflowing number__"  # written into the file as 1e999, which JSON reads as infinity


def set_in(*keys, value):
    """An edit of an annotation record that sets ``record[k1][k2]...`` to ``value``."""
    def edit(record):
        *path, last = keys
        for key in path:
            record = record[key]
        record[last] = value
    return edit


# One-value annotation edits that were coerced or accepted before every value went
# through the field vocabulary: (edit, position, key).
ANNOTATION_EDITS = [
    (set_in("objects", 0, "id", value=1.7), "objects[0]: ", "id"),
    (set_in("objects", 0, "id", value=True), "objects[0]: ", "id"),
    (set_in("relations", 0, "subj", value=0.9), "relations[0]: ", "subj"),
    (set_in("relations", 0, "obj", value="1"), "relations[0]: ", "obj"),
    (set_in("width", value="1000"), "", "width"),
    (set_in("width", value=INF), "", "width"),
    (set_in("image_id", value=None), "", "image_id"),
    (set_in("objects", 1, "feature", 0, value="1.5"), "objects[1]: ", "feature"),
    (set_in("objects", 1, "feature", 2, value=True), "objects[1]: ", "feature"),
    (set_in("objects", 0, "box", 1, value=True), "objects[0]: ", "box"),
    (set_in("objects", 0, "box", 3, value="3"), "objects[0]: ", "box"),
    (set_in("objects", value={}), "", "objects"),
]


class TestAnnotationValues:
    @pytest.mark.parametrize("stage", ["ingest", "zsplit", "eval"])
    @pytest.mark.parametrize("edit, position, key", ANNOTATION_EDITS)
    def test_mistyped_annotation_value_is_data_error(self, corpus, tmp_path, capsys, stage, edit, position, key):
        lines = (corpus / "test.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record).replace(json.dumps(INF), "1e999")
        path = tmp_path / "test.jsonl"
        path.write_text("\n".join(lines) + "\n")
        save_oracle_predictions(corpus, "test", tmp_path / "predictions.jsonl")
        argv = {
            "ingest": ["--annotations", path],
            "zsplit": ["--train", corpus / "train.jsonl", "--test", path],
            "eval": ["--dataset", path, "--predictions", tmp_path / "predictions.jsonl"],
        }[stage]
        code = run([stage, "--out", tmp_path / "out", *corpus_flags(corpus), *argv, "--d-roi", 32])
        assert code == 2
        assert f"{path}:2: {position}bad {key!r}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["ingest", "zsplit", "eval", "train"])
    def test_repeated_image_id_is_data_error(self, corpus, tmp_path, capsys, stage):
        split = "val" if stage == "train" else "test"
        lines = (corpus / f"{split}.jsonl").read_text().splitlines(keepends=True)
        path = tmp_path / f"{split}.jsonl"
        path.write_text("".join([lines[0], *lines]))
        save_oracle_predictions(corpus, "test", tmp_path / "predictions.jsonl")
        argv = {
            "ingest": ["--annotations", path],
            "zsplit": ["--train", corpus / "train.jsonl", "--test", path],
            "eval": ["--dataset", path, "--predictions", tmp_path / "predictions.jsonl"],
            "train": ["--train", corpus / "train.jsonl", "--val", path, "--test", corpus / "test.jsonl",
                      "--object-embeddings", corpus / "object_embeddings.txt"],
        }[stage]
        code = run([stage, "--out", tmp_path / "out", *corpus_flags(corpus), *argv, "--d-roi", 32])
        assert code == 2
        image_id = json.loads(lines[0])["image_id"]
        assert f"{path}:2: image_id {image_id!r} repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def edit_first_vector(replace):
    """An edit of an embedding file that replaces its first token's values with ``replace(values)``."""
    def edit(text):
        first, *rest = text.splitlines(keepends=True)
        token, *values = first.split()
        return " ".join([token, *replace(values)]) + "\n" + "".join(rest)
    return edit


class TestDataErrorsNameTheFile:
    @pytest.mark.parametrize(
        "edit, problem",
        [
            (edit_first_vector(lambda values: ["nan", *values[1:]]), "embedding table contains non-finite entries"),
            (edit_first_vector(lambda values: ["0.0"] * len(values)), "zero-norm vector for label 'obj00'"),
        ],
    )
    def test_bad_embedding_table(self, corpus, tmp_path, capsys, edit, problem):
        path = tmp_path / "object_embeddings.txt"
        path.write_text(edit((corpus / "object_embeddings.txt").read_text()))
        code = run(["train", "--out", tmp_path / "out", *corpus_flags(corpus), "--train", corpus / "train.jsonl",
                    "--val", corpus / "val.jsonl", "--test", corpus / "test.jsonl",
                    "--object-embeddings", path, "--d-roi", 32])
        assert code == 2
        assert f"{path}: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, problem",
        [("train", "cannot train on an empty dataset"), ("weights", "at least one predicate count must be positive")],
    )
    def test_empty_train_file(self, corpus, tmp_path, capsys, stage, problem):
        path = tmp_path / "train.jsonl"
        path.write_text("")
        extra = ["--val", corpus / "val.jsonl", "--test", corpus / "test.jsonl",
                 "--object-embeddings", corpus / "object_embeddings.txt"] if stage == "train" else []
        code = run([stage, "--out", tmp_path / "out", *corpus_flags(corpus), "--train", path, *extra, "--d-roi", 32])
        assert code == 2
        assert f"{path}: {problem}" in capsys.readouterr().err


DEEP = "[" * 100_000 + "]" * 100_000  # nested far past the JSON decoder's limit


def deep_jsonl_line(source, path, line):
    """A copy of the JSON-lines file ``source`` at ``path``, without a companion, whose line ``line`` holds DEEP."""
    lines = source.read_text().splitlines()
    lines[line - 1] = '{"objects": ' + DEEP + "}"
    path.write_text("".join(row + "\n" for row in lines))


class TestJsonNestedTooDeeply:
    """Every JSON input nested past the decoder's limit is a data error naming the file and line."""

    def argv(self, corpus, tmp_path, name):
        """``(argv, path, line)``: a run whose input ``name`` holds DEEP, at line ``line`` of ``path``."""
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        predictions = tmp_path / "predictions.jsonl"
        save_oracle_predictions(corpus, "test", predictions)
        train = ["train", *corpus_flags(corpus), "--train", corpus / "train.jsonl", "--val", corpus / "val.jsonl",
                 "--test", corpus / "test.jsonl", "--object-embeddings", corpus / "object_embeddings.txt",
                 "--d-roi", 32, "--config", write_config(tmp_path, "train.cfg", use_reweighting="true")]
        evaluate = ["eval", *rescore_flags(corpus, tmp_path, "eval"), "--predictions", predictions]
        if name == "annotations":
            deep_jsonl_line(corpus / "train.jsonl", tmp_path / "train.jsonl", 3)
            return (["ingest", *corpus_flags(corpus), "--annotations", tmp_path / "train.jsonl", "--d-roi", 32],
                    tmp_path / "train.jsonl", 3)
        if name.endswith("-predictions"):
            deep_jsonl_line(predictions, tmp_path / "deep.jsonl", 2)
            stage = name.removesuffix("-predictions")
            return ([stage, *rescore_flags(corpus, tmp_path, stage), "--predictions", tmp_path / "deep.jsonl"],
                    tmp_path / "deep.jsonl", 2)
        if name == "recalls":
            return (["resample", "--config", write_config(tmp_path, use_resampling="true"), *corpus_flags(corpus),
                     "--train", corpus / "train.jsonl", "--d-roi", 32, "--recalls", path], path, 1)
        return {
            "train-weights": ([*train, "--weights", path], path, 1),
            "eval-weights": ([*evaluate, "--weights", path], path, 1),
            "zero-shot": ([*evaluate, "--zero-shot", path], path, 1),
            "report": (["report", "--inputs", path], path, 1),
        }[name]

    @pytest.mark.parametrize("name", ["annotations", "refine-predictions", "eval-predictions", "recalls",
                                      "train-weights", "eval-weights", "zero-shot", "report"])
    def test_is_data_error_naming_the_file_and_line(self, corpus, tmp_path, capsys, name):
        argv, path, line = self.argv(corpus, tmp_path, name)
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"data error: {path}:{line}: invalid JSON: nested too deeply\n"
        assert not (tmp_path / "out").exists()


class TestZsplit:
    def test_zero_shot_file(self, corpus, tmp_path):
        out = tmp_path / "zs"
        code = run(
            ["zsplit", "--out", out, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--test", corpus / "test.jsonl", "--d-roi", 32]
        )
        assert code == 0
        rows = json.loads((out / "zero_shot.json").read_text())
        assert rows and all(len(r) == 3 for r in rows)


class TestResample:
    def test_disabled_copies_input(self, corpus, tmp_path):
        out = tmp_path / "rs"
        code = run(
            ["resample", "--out", out, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--d-roi", 32]
        )
        assert code == 0
        assert (out / "train_resampled.jsonl").read_bytes() == (corpus / "train.jsonl").read_bytes()
        assert json.loads((out / "sampling_plan.json").read_text())["applied"] is False

    def test_disabled_copies_the_companion_or_removes_a_stale_one(self, corpus, tmp_path):
        out = tmp_path / "rs"
        argv = ["resample", "--out", out, *corpus_flags(corpus), "--d-roi", 32]
        assert run([*argv, "--train", corpus / "train.jsonl"]) == 0
        assert (out / "train_resampled.cols").read_bytes() == (corpus / "train.cols").read_bytes()
        alone = tmp_path / "alone" / "train.jsonl"  # as an outside producer writes it: no companion
        alone.parent.mkdir()
        shutil.copyfile(corpus / "train.jsonl", alone)
        assert run([*argv, "--train", alone]) == 0
        assert (out / "train_resampled.jsonl").read_bytes() == alone.read_bytes()
        assert not (out / "train_resampled.cols").exists()

    def test_enabled_downsamples(self, corpus, tmp_path):
        recalls_path = tmp_path / "recalls.json"
        names = (corpus / "predicate_labels.txt").read_text().split()
        recalls_path.write_text(json.dumps({name: 0.9 for name in names}))
        out = tmp_path / "rs2"
        config = write_config(tmp_path, use_resampling="true", tau=30, beta=0.3)
        code = run(
            ["resample", "--out", out, "--config", config, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--recalls", recalls_path, "--d-roi", 32, "--seed", 5]
        )
        assert code == 0
        plan = json.loads((out / "sampling_plan.json").read_text())
        assert plan["applied"] is True
        assert any(row["rate"] < 1.0 for row in plan["predicates"])
        resampled = (out / "train_resampled.jsonl").read_text().splitlines()
        assert len(resampled) == len((corpus / "train.jsonl").read_text().splitlines())

    def test_enabled_requires_recalls(self, corpus, tmp_path, capsys):
        config = write_config(tmp_path, use_resampling="true")
        code = run(
            ["resample", "--out", tmp_path / "rs", "--config", config, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--d-roi", 32]
        )
        assert code == 1
        assert "--recalls" in capsys.readouterr().err


class TestWeights:
    def test_weights_file(self, corpus, tmp_path):
        out = tmp_path / "w"
        code = run(
            ["weights", "--out", out, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--d-roi", 32]
        )
        assert code == 0
        rows = json.loads((out / "info_weights.json").read_text())["predicates"]
        observed = [r["weight"] for r in rows if r["count"] > 0]
        assert abs(np.mean(observed) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda rows: rows.pop(2), "no row for predicates ['{name}']"),
            (lambda rows: rows.append(dict(rows[2])), "predicate '{name}': listed twice"),
            (lambda rows: rows[2].update(bits=float("nan")),
             "predicates[2]: bad 'bits': must be finite and non-negative, got nan"),
            (lambda rows: rows[2].update(weight=-0.5),
             "predicates[2]: bad 'weight': must be finite and non-negative, got -0.5"),
            (lambda rows: rows[2].update(frequency=True),
             "predicates[2]: bad 'frequency': expected a number, got True"),
            (lambda rows: rows[2].update(name="no such predicate"),
             "predicates[2]: bad 'name': unknown predicate label 'no such predicate'"),
        ],
    )
    def test_weights_file_needs_each_predicate_once_with_valid_values(
        self, corpus, tmp_path, capsys, edit, problem
    ):
        assert run(["weights", "--out", tmp_path, *corpus_flags(corpus),
                    "--train", corpus / "train.jsonl", "--d-roi", 32]) == 0
        path = tmp_path / "info_weights.json"
        rows = json.loads(path.read_text())["predicates"]
        name = rows[2]["name"]
        edit(rows)
        path.write_text(json.dumps({"predicates": rows}))
        predictions = tmp_path / "oracle.jsonl"
        save_oracle_predictions(corpus, "test", predictions)
        code = run(["eval", "--out", tmp_path / "ev", *rescore_flags(corpus, tmp_path, "eval"),
                    "--predictions", predictions, "--weights", path])
        assert code == 2
        assert f"{path}: {problem.format(name=name)}" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "report.json").exists()

    def eval_with_bits(self, corpus, tmp_path, bits):
        """``eval`` of oracle predictions with every ``bits`` of a real weights file set to ``bits``."""
        assert run(["weights", "--out", tmp_path, *corpus_flags(corpus),
                    "--train", corpus / "train.jsonl", "--d-roi", 32]) == 0
        path = tmp_path / "info_weights.json"
        rows = json.loads(path.read_text())["predicates"]
        path.write_text(json.dumps({"predicates": [{**row, "bits": bits} for row in rows]}))
        predictions = tmp_path / "oracle.jsonl"
        save_oracle_predictions(corpus, "test", predictions)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning included
            code = run(["eval", "--out", tmp_path / "ev", *rescore_flags(corpus, tmp_path, "eval"),
                        "--predictions", predictions, "--weights", path])
        return code, path

    def test_bits_whose_sum_overflows_are_refused(self, corpus, tmp_path, capsys):
        """Each value is finite, but their sum, which bounds every mRIC, is not."""
        code, path = self.eval_with_bits(corpus, tmp_path, 1e308)
        assert code == 2
        assert f"data error: {path}: bad 'bits': must have a finite sum over predicates, got inf" in (
            capsys.readouterr().err)
        assert not (tmp_path / "ev").exists()

    def test_large_bits_with_a_finite_sum_are_read(self, corpus, tmp_path):
        code, _ = self.eval_with_bits(corpus, tmp_path, 1e300)
        assert code == 0
        mric = json.loads((tmp_path / "ev" / "report.json").read_text())["report"]["metrics"]["mric"]
        recalls = json.loads((tmp_path / "ev" / "recalls.json").read_text())  # 0 where a predicate has no GT
        assert sum(recalls.values()) > 0
        assert mric["100"] == pytest.approx(1e300 * sum(recalls.values()))


def run_pipeline(corpus, out, config_path, extra_train=(), refine_source=None):
    """synth outputs -> train -> refine -> eval; returns the report payload."""
    flags = corpus_flags(corpus)
    assert run(
        ["train", "--out", out, "--config", config_path, *flags,
         "--train", corpus / "train.jsonl", "--val", corpus / "val.jsonl",
         "--test", corpus / "test.jsonl",
         "--object-embeddings", corpus / "object_embeddings.txt", "--d-roi", 32, *extra_train]
    ) == 0
    assert run(
        ["refine", "--out", out, "--config", config_path, *flags,
         "--predictions", refine_source or out / "predictions_test.jsonl",
         "--object-embeddings", corpus / "object_embeddings.txt",
         "--predicate-embeddings", corpus / "predicate_embeddings.txt"]
    ) == 0
    assert run(
        ["eval", "--out", out, "--config", config_path, *flags,
         "--predictions", out / "predictions_refined.jsonl",
         "--dataset", corpus / "test.jsonl", "--d-roi", 32]
    ) == 0
    return json.loads((out / "report.json").read_text())


def save_oracle_predictions(corpus, split, path):
    """Perfect predictions for one split of the corpus, written to ``path``."""
    from sgrel.core import OBJECT, PREDICATE
    from sgrel.ingest import load_annotations, load_labels
    from sgrel.metrics import save_predictions
    from sgrel.synth import load_map, oracle_predictions

    object_space = load_labels(corpus / "object_labels.txt", OBJECT)
    predicate_space = load_labels(corpus / "predicate_labels.txt", PREDICATE)
    dataset = load_annotations(corpus / f"{split}.jsonl", object_space, predicate_space, 32, split)
    predictions = oracle_predictions(dataset, load_map(corpus / "generative_map.json"))
    save_predictions(predictions, object_space, path)
    return predictions


def rescore_flags(corpus, tmp_path, stage):
    """Every flag of a ``refine`` (refinement on) or ``eval`` run except --out and --predictions."""
    extra = {
        "refine": ["--object-embeddings", corpus / "object_embeddings.txt",
                   "--predicate-embeddings", corpus / "predicate_embeddings.txt"],
        "eval": ["--dataset", corpus / "test.jsonl", "--d-roi", 32],
    }[stage]
    return ["--config", write_config(tmp_path, use_refinement="true"), *corpus_flags(corpus), *extra]


def set_prob(index, value):
    def edit(record):
        record["probs"][index] = value
    return edit


class TestTrainRefineEval:
    def test_smoke_pipeline_emits_all_metric_families(self, corpus, tmp_path):
        config = write_config(tmp_path, iterations=40, seed=5, use_refinement="true")
        out = tmp_path / "run"
        payload = run_pipeline(corpus, out, config)
        metrics = payload["report"]["metrics"]
        for family in ("recall", "mean_recall", "zero_shot_recall", "mric"):
            assert set(metrics[family]) == {"20", "50", "100"}
        assert all(v is not None for v in metrics["recall"].values())
        assert payload["config"]["seed"] == 5  # config echo
        # Audit artifacts: per-predicate table and refinement records.
        names = (corpus / "predicate_labels.txt").read_text().split()
        csv_lines = (out / "per_predicate.csv").read_text().splitlines()
        assert len(csv_lines) == len(names) + 1
        record = json.loads((out / "refinement_report.jsonl").read_text().splitlines()[0])
        assert list(record) == ["image_id", "subj_id", "obj_id", "pre_top", "post_top"]

    def test_refine_survives_affinities_that_underflow(self, tmp_path):
        # Embeddings this far apart make exp(-v) underflow to zero for every predicate of some pairs: the
        # replaced refinement stopped there, and the shifted profile refines them.
        from sgrel.core import OBJECT, PREDICATE
        from sgrel.ingest import load_embeddings, load_labels
        from sgrel.metrics import load_predictions
        from reference_predictions import refine_dataset as replaced_refine_dataset, to_pairs

        corpus, out = tmp_path / "corpus", tmp_path / "run"
        config = write_config(tmp_path, images=60, seed=3, embedding_scale=5000, iterations=20,
                              use_refinement="true")
        assert run(["synth", "--out", corpus, "--config", config]) == 0
        run_pipeline(corpus, out, config)
        object_space = load_labels(corpus / "object_labels.txt", OBJECT)
        predicate_space = load_labels(corpus / "predicate_labels.txt", PREDICATE)
        predictions = load_predictions(out / "predictions_test.jsonl", object_space, predicate_space.size)
        refined = load_predictions(out / "predictions_refined.jsonl", object_space, predicate_space.size)
        assert len(refined) == len(predictions) > 0
        embeddings = (load_embeddings(corpus / "object_embeddings.txt", object_space),
                      load_embeddings(corpus / "predicate_embeddings.txt", predicate_space))
        with pytest.raises(ValueError, match="^degenerate refinement: all refined scores are zero$"):
            replaced_refine_dataset(to_pairs(predictions), *embeddings)

    def test_refine_disabled_copies_predictions(self, corpus, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, iterations=10, seed=5, use_refinement="false")
        run_pipeline(corpus, out, config)
        assert (out / "predictions_refined.jsonl").read_bytes() == (
            out / "predictions_test.jsonl"
        ).read_bytes()

    def test_refine_disabled_copies_the_companion_or_removes_a_stale_one(self, corpus, tmp_path):
        source = tmp_path / "in" / "predictions_test.jsonl"
        source.parent.mkdir()
        save_oracle_predictions(corpus, "test", source)
        out = tmp_path / "run"
        argv = ["refine", "--out", out, *corpus_flags(corpus), "--predictions", source]
        assert run(argv) == 0
        assert (out / "predictions_refined.cols").read_bytes() == companion_path(source).read_bytes()
        companion_path(source).unlink()
        assert run(argv) == 0
        assert (out / "predictions_refined.jsonl").read_bytes() == source.read_bytes()
        assert not (out / "predictions_refined.cols").exists()

    def test_reweighting_requires_weights_file(self, corpus, tmp_path, capsys):
        config = write_config(tmp_path, iterations=5, use_reweighting="true")
        code = run(
            ["train", "--out", tmp_path / "x", "--config", config, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--val", corpus / "val.jsonl",
             "--test", corpus / "test.jsonl",
             "--object-embeddings", corpus / "object_embeddings.txt", "--d-roi", 32]
        )
        assert code == 1
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name",
        [("--object-embeddings", "object_embeddings.txt"),
         ("--predicate-embeddings", "predicate_embeddings.txt")],
    )
    def test_refinement_requires_both_embedding_files(self, corpus, tmp_path, capsys, flag, name):
        config = write_config(tmp_path, use_refinement="true")
        predictions = tmp_path / "predictions_test.jsonl"
        predictions.write_text("")
        code = run(
            ["refine", "--out", tmp_path / "x", "--config", config, *corpus_flags(corpus),
             "--predictions", predictions, flag, corpus / name]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--object-embeddings" in err and "--predicate-embeddings" in err

    @pytest.mark.parametrize("empty", [False, True])
    def test_refinement_refuses_embedding_tables_of_different_dimensions(self, corpus, tmp_path, capsys, empty):
        predictions = tmp_path / "predictions_test.jsonl"
        if empty:
            predictions.write_text("")
        else:
            save_oracle_predictions(corpus, "test", predictions)
        cut = tmp_path / "predicate_embeddings.txt"
        lines = (corpus / "predicate_embeddings.txt").read_text().splitlines()
        cut.write_text("".join(" ".join(line.split(" ")[:9]) + "\n" for line in lines))
        out = tmp_path / "x"
        code = run(
            ["refine", "--out", out, "--config", write_config(tmp_path, use_refinement="true"),
             *corpus_flags(corpus), "--predictions", predictions,
             "--object-embeddings", corpus / "object_embeddings.txt", "--predicate-embeddings", cut]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert (f"data error: embedding dimensions differ: {corpus / 'object_embeddings.txt'} has 16, "
                f"{cut} has 8\n") in err
        assert not (out / "predictions_refined.jsonl").exists()

    def test_train_computes_pair_inputs_once_on_the_train_split(self, corpus, tmp_path, monkeypatch):
        from sgrel import alignment

        splits = []
        original = alignment.pair_inputs

        def spy(dataset):
            splits.append(dataset.split)
            return original(dataset)

        monkeypatch.setattr(alignment, "pair_inputs", spy)
        config = write_config(tmp_path, iterations=10, eval_every=5, seed=5)
        assert run(
            ["train", "--out", tmp_path / "run", "--config", config, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--val", corpus / "val.jsonl", "--test", corpus / "test.jsonl",
             "--object-embeddings", corpus / "object_embeddings.txt", "--d-roi", 32]
        ) == 0
        assert splits == ["train"]

    @pytest.mark.parametrize("eval_every", [0, 1])
    def test_diverged_training_is_data_error(self, corpus, tmp_path, capsys, eval_every):
        config = write_config(tmp_path, iterations=3, eval_every=eval_every, lr=1.7e308, mu=1e308)
        out = tmp_path / "run"
        code = run(
            ["train", "--out", out, "--config", config, *corpus_flags(corpus),
             "--train", corpus / "train.jsonl", "--val", corpus / "val.jsonl", "--test", corpus / "test.jsonl",
             "--object-embeddings", corpus / "object_embeddings.txt", "--d-roi", 32]
        )
        assert code == 2
        err = capsys.readouterr().err
        message = "training diverged: parameters not finite after iteration 0"
        assert f"data error: {corpus / 'train.jsonl'}: {message}\n" in err
        assert not out.exists()

    def train_with_weights(self, corpus, tmp_path, weight, lr):
        """``train`` with re-weighting on, every predicate's weight set to ``weight``; warnings raise."""
        assert run(["weights", "--out", tmp_path, *corpus_flags(corpus),
                    "--train", corpus / "train.jsonl", "--d-roi", 32]) == 0
        path = tmp_path / "info_weights.json"
        rows = json.loads(path.read_text())["predicates"]
        path.write_text(json.dumps({"predicates": [{**row, "weight": weight} for row in rows]}))
        config = write_config(tmp_path, iterations=5, lr=lr, eval_every=0, use_reweighting="true")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(
                ["train", "--out", tmp_path / "run", "--config", config, *corpus_flags(corpus),
                 "--train", corpus / "train.jsonl", "--val", corpus / "val.jsonl", "--test", corpus / "test.jsonl",
                 "--object-embeddings", corpus / "object_embeddings.txt", "--d-roi", 32, "--weights", path]
            )

    @pytest.mark.parametrize("lr", [0.05, 0.0])
    def test_training_refuses_a_loss_that_is_not_finite(self, corpus, tmp_path, capsys, lr):
        assert self.train_with_weights(corpus, tmp_path, 1e308, lr) == 2
        message = "training diverged: loss not finite at iteration 0"
        assert f"data error: {corpus / 'train.jsonl'}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_training_with_huge_finite_weights_still_trains(self, corpus, tmp_path):
        assert self.train_with_weights(corpus, tmp_path, 1e300, 0.05) == 0
        rows = [line.split(",") for line in (tmp_path / "run" / "loss_history.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(float(value)) for row in rows for value in row)

    def test_train_writes_validation_history(self, corpus, tmp_path):
        config = write_config(tmp_path, iterations=20, eval_every=5, seed=5)
        out = tmp_path / "run"
        run_pipeline(corpus, out, config)
        lines = (out / "validation.csv").read_text().splitlines()
        assert lines[0] == "iteration,lr,val_mean_recall_50"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [4, 9, 14, 19]
        assert all(float(r[1]) == 0.001 for r in rows)
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)

    def test_eval_rejects_predictions_for_unknown_images(self, corpus, tmp_path, capsys):
        path = tmp_path / "val_predictions.jsonl"
        predictions = save_oracle_predictions(corpus, "val", path)
        code = run(
            ["eval", "--out", tmp_path / "ev", *corpus_flags(corpus), "--predictions", path,
             "--dataset", corpus / "test.jsonl", "--d-roi", 32]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{len(predictions)} predictions" in err
        assert repr(predictions.image_ids[0]) in err

    def test_eval_on_oracle_predictions_is_perfect(self, corpus, tmp_path):
        path = tmp_path / "oracle.jsonl"
        save_oracle_predictions(corpus, "test", path)

        out = tmp_path / "ev"
        code = run(
            ["eval", "--out", out, *corpus_flags(corpus), "--predictions", path,
             "--dataset", corpus / "test.jsonl", "--d-roi", 32]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert all(v == 1.0 for v in payload["report"]["metrics"]["recall"].values())

    @pytest.mark.parametrize("stage", ["refine", "eval"])
    @pytest.mark.parametrize(
        "edit, problem",
        [
            (None, "invalid JSON"),
            (lambda record: record.pop("probs"), "missing key 'probs'"),
            (lambda record: record.update(subj_id="3"), "bad 'subj_id'"),
            (lambda record: record.update(obj_box=["a", 0, 1, 1]), "bad 'obj_box'"),
            (lambda record: record.update(subj_score=float("nan")), "bad 'subj_score': must be finite"),
            (set_prob(0, float("nan")), "bad 'probs': must be finite and non-negative"),
            (set_prob(1, float("inf")), "bad 'probs': must be finite and non-negative"),
            (set_prob(1, -0.25), "bad 'probs': must be finite and non-negative"),
            (lambda record: record.update(subj_id=True), "bad 'subj_id': expected an integer, got True"),
            (lambda record: record.update(obj_id=False), "bad 'obj_id': expected an integer, got False"),
            (lambda record: record.update(obj_score=True), "bad 'obj_score': expected a number, got True"),
            (lambda record: record["subj_box"].__setitem__(2, True), "bad 'subj_box': expected [x1, y1, x2, y2]"),
            (lambda record: record["obj_box"].__setitem__(0, float("nan")),
             "bad 'obj_box': coordinates must be finite"),
            (lambda record: record["subj_box"].__setitem__(3, float("-inf")),
             "bad 'subj_box': coordinates must be finite"),
            (set_prob(2, False), "bad 'probs': expected a list of numbers"),
            (set_prob(0, 10**400), "bad 'probs': int too large to convert to float"),
            (lambda record: record.update(obj_id=2**63), f"bad 'obj_id': {2**63} is outside the 64-bit integer range"),
        ],
    )
    def test_bad_prediction_line_is_data_error(self, corpus, tmp_path, capsys, stage, edit, problem):
        path = tmp_path / "predictions.jsonl"
        save_oracle_predictions(corpus, "test", path)
        lines = path.read_text().splitlines()
        if edit is None:
            lines[1] = lines[1][:-1]
        else:
            record = json.loads(lines[1])
            edit(record)
            lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = run([stage, "--out", tmp_path / "out", *rescore_flags(corpus, tmp_path, stage),
                    "--predictions", path])
        assert code == 2
        assert f"{path}:2: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["refine", "eval"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_probs_of_the_wrong_length_name_the_line(self, corpus, tmp_path, capsys, stage, change):
        path = tmp_path / "predictions.jsonl"
        save_oracle_predictions(corpus, "test", path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        size = len(record["probs"])
        record["probs"] = (record["probs"] + [0.0])[: size + change]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = run([stage, "--out", tmp_path / "out", *rescore_flags(corpus, tmp_path, stage),
                    "--predictions", path])
        assert code == 2
        expected = f"{path}:3: bad 'probs': expected {size} predicate scores, got {size + change}"
        assert expected in capsys.readouterr().err

    def test_non_finite_triple_score_is_data_error(self, corpus, tmp_path, capsys):
        path = tmp_path / "predictions.jsonl"
        save_oracle_predictions(corpus, "test", path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["probs"][0] = 1e308
        record.update(subj_score=1e308, obj_score=0)  # inf * 0 is NaN
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code = run(["eval", "--out", tmp_path / "out", *rescore_flags(corpus, tmp_path, "eval"),
                    "--predictions", path])
        assert code == 2
        pair = (record["subj_id"], record["obj_id"])
        expected = f"image {record['image_id']}: pair {pair} has a non-finite triple score"
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, content, problem",
        [
            ("--weights", "not json\n", ":1: invalid JSON: Expecting value"),
            ("--weights", "{}", ": missing key 'predicates'"),
            ("--weights", '{"predicates": 3}', ": bad 'predicates': expected a list, got 3"),
            ("--zero-shot", "[\n[1,\n", ":3: invalid JSON: Expecting value"),
            ("--zero-shot", '[["a", "b"]]', ": row 1: expected [subject, predicate, object] labels, got ['a', 'b']"),
            ("--zero-shot", '[["a", "b", "c"]]', ": row 1: unknown object label 'a'"),
            ("--zero-shot", '{"a": 1}', ": expected a JSON list of [subject, predicate, object] rows"),
            ("--recalls", "", ":1: invalid JSON: Expecting value"),
            ("--recalls", "[]", ": recalls file must be a JSON object"),
        ],
    )
    def test_bad_side_file_names_the_file(self, corpus, tmp_path, capsys, flag, content, problem):
        side = tmp_path / "side.json"
        side.write_text(content)
        if flag == "--recalls":
            argv = ["resample", "--config", write_config(tmp_path, use_resampling="true"), *corpus_flags(corpus),
                    "--train", corpus / "train.jsonl", "--d-roi", 32]
        else:
            predictions = tmp_path / "oracle.jsonl"
            save_oracle_predictions(corpus, "test", predictions)
            argv = ["eval", *rescore_flags(corpus, tmp_path, "eval"), "--predictions", predictions]
        assert run([*argv, "--out", tmp_path / "out", flag, side]) == 2
        assert f"{side}{problem}" in capsys.readouterr().err

    def test_recall_outside_the_unit_interval_is_data_error(self, corpus, tmp_path, capsys):
        names = (corpus / "predicate_labels.txt").read_text().split()
        recalls = tmp_path / "recalls.json"
        recalls.write_text(json.dumps({name: float("nan") if i == 1 else 0.5 for i, name in enumerate(names)}))
        code = run(["resample", "--out", tmp_path / "out", "--config", write_config(tmp_path, use_resampling="true"),
                    *corpus_flags(corpus), "--train", corpus / "train.jsonl", "--recalls", recalls, "--d-roi", 32])
        assert code == 2
        assert f"{recalls}: bad '{names[1]}': must be finite and non-negative, got nan" in capsys.readouterr().err

    def test_sggen_eval_of_augmenting_paths_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # One image of 34 objects with one label and one box, 1,100 GT triples of one predicate on distinct
        # object pairs, and a prediction for each of those pairs: every prediction may take every GT triple,
        # so the augmenting path from rank r is r + 1 positions long.
        box = [0.0, 0.0, 10.0, 10.0]
        pairs = [(s, o) for s in range(34) for o in range(34) if s != o][:1100]
        objects = [{"id": i, "label": "a", "box": box, "feature": [0.0]} for i in range(34)]
        image = {"image_id": "dense", "width": 100.0, "height": 100.0, "objects": objects,
                 "relations": [{"subj": s, "pred": "p", "obj": o} for s, o in pairs]}
        (tmp_path / "test.jsonl").write_text(json.dumps(image) + "\n")
        (tmp_path / "objects.txt").write_text("a\n")
        (tmp_path / "predicates.txt").write_text("p\nq\n")
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("".join(
            json.dumps({"image_id": "dense", "subj_id": s, "obj_id": o, "subj_label": "a", "obj_label": "a",
                        "subj_box": box, "obj_box": box, "subj_score": 1.0, "obj_score": 1.0, "probs": [0.9, 0.1]})
            + "\n" for s, o in pairs
        ))
        code = run(["eval", "--out", tmp_path / "ev", "--config", write_config(tmp_path, subtask="sggen", ks="20,1000"),
                    "--object-labels", tmp_path / "objects.txt", "--predicate-labels", tmp_path / "predicates.txt",
                    "--predictions", predictions, "--dataset", tmp_path / "test.jsonl", "--d-roi", 1])
        assert code == 0, capsys.readouterr().err
        recall = json.loads((tmp_path / "ev" / "report.json").read_text())["report"]["metrics"]["recall"]
        assert recall == {"20": 20 / 1100, "1000": 1000 / 1100}

    def test_split_without_gt_reports_every_metric_null(self, tmp_path, capsys):
        """A one-image corpus's test split is empty: no predicate has GT, so mRIC is null like R and mR."""
        corpus = tmp_path / "corpus"
        assert run(["synth", "--out", corpus, "--config", write_config(tmp_path, images=1)]) == 0
        assert (corpus / "test.jsonl").read_text() == ""
        assert run(["weights", "--out", corpus, *corpus_flags(corpus), "--train", corpus / "train.jsonl",
                    "--d-roi", 32]) == 0
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("")
        capsys.readouterr()
        assert run(["eval", "--out", tmp_path / "ev", *corpus_flags(corpus), "--predictions", predictions,
                    "--dataset", corpus / "test.jsonl", "--d-roi", 32,
                    "--weights", corpus / "info_weights.json"]) == 0
        headline = json.loads(capsys.readouterr().out)
        assert len(headline) == 12 and set(headline.values()) == {None}
        metrics = json.loads((tmp_path / "ev" / "report.json").read_text())["report"]["metrics"]
        assert metrics["mric"] == {"20": None, "50": None, "100": None}

    def test_empty_predictions_refine_and_evaluate_to_zero_recall(self, corpus, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text("")
        out = tmp_path / "out"
        assert run(["refine", "--out", out, *rescore_flags(corpus, tmp_path, "refine"),
                    "--predictions", path]) == 0
        assert (out / "predictions_refined.jsonl").read_bytes() == b""
        assert (out / "refinement_report.jsonl").read_bytes() == b""
        assert run(["eval", "--out", out, *rescore_flags(corpus, tmp_path, "eval"),
                    "--predictions", out / "predictions_refined.jsonl"]) == 0
        recalls = json.loads((out / "recalls.json").read_text())
        assert recalls and set(recalls.values()) == {0.0}
        metrics = json.loads((out / "report.json").read_text())["report"]["metrics"]
        assert set(metrics["recall"].values()) == set(metrics["mean_recall"].values()) == {0.0}


class TestReport:
    def make_reports(self, corpus, tmp_path, seeds=(5, 5)):
        paths = []
        for i, seed in enumerate(seeds):
            config = write_config(tmp_path, name=f"r{i}.cfg", iterations=10, seed=seed)
            out = tmp_path / f"run{i}"
            run_pipeline(corpus, out, config)
            paths.append(out / "report.json")
        return paths

    def test_grid_assembles(self, corpus, tmp_path, capsys):
        paths = self.make_reports(corpus, tmp_path)
        out = tmp_path / "summary"
        code = run(["report", "--out", out, "--inputs", *paths, "--labels", "a", "b"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "zR@100" in stdout.replace("\t", " ") or "zR@" in stdout
        payload = json.loads((out / "summary.json").read_text())
        assert [row["label"] for row in payload["rows"]] == ["a", "b"]

    def test_more_labels_than_inputs_rejected(self, corpus, tmp_path, capsys):
        (path,) = self.make_reports(corpus, tmp_path, seeds=(5,))
        code = run(["report", "--out", tmp_path / "s", "--inputs", path, "--labels", "a", "b", "c"])
        assert code == 1
        assert "usage error: --labels: 3 labels for 1 inputs" in capsys.readouterr().err
        assert not (tmp_path / "s" / "summary.json").exists()

    def test_seed_conflict_rejected(self, corpus, tmp_path, capsys):
        paths = self.make_reports(corpus, tmp_path, seeds=(5, 6))
        code = run(["report", "--out", tmp_path / "s", "--inputs", *paths])
        assert code == 2
        assert "seed conflict" in capsys.readouterr().err

    def combine_with_variant(self, corpus, tmp_path, edit):
        """Report a real report together with an edited copy of it; returns (code, copy)."""
        (path,) = self.make_reports(corpus, tmp_path, seeds=(5,))
        payload = json.loads(path.read_text())
        edit(payload)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(payload))
        return run(["report", "--out", tmp_path / "s", "--inputs", path, other]), other

    @staticmethod
    def fewer_ks(payload):
        report = payload["report"]
        report["ks"] = [10, 50]
        for family in report["metrics"].values():
            family.pop("100")
            family["10"] = family.pop("20")

    @pytest.mark.parametrize(
        "key, edit",
        [("ks", fewer_ks), ("subtask", lambda payload: payload["report"].update(subtask="sggen"))],
    )
    def test_mismatched_protocol_rejected(self, corpus, tmp_path, capsys, key, edit):
        code, other = self.combine_with_variant(corpus, tmp_path, edit)
        assert code == 2
        err = capsys.readouterr().err
        assert str(other) in err and key in err
        assert not (tmp_path / "s" / "summary.json").exists()

    @pytest.mark.parametrize("value", [[1], True])
    def test_non_numeric_metric_rejected(self, corpus, tmp_path, capsys, value):
        code, other = self.combine_with_variant(
            corpus, tmp_path, lambda p: p["report"]["metrics"]["mric"].update({"20": value})
        )
        assert code == 2
        assert f"{other}: metrics.mric: bad '20': expected a number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "s" / "summary.json").exists()

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda p: p["report"].update(ks=5), "report: bad 'ks': expected a list, got 5"),
            (lambda p: p["config"].update(seed=[1]), "config: bad 'seed': expected an integer, got [1]"),
            (lambda p: p["config"].update(use_refinement="yes"),
             "config: bad 'use_refinement': expected true or false, got 'yes'"),
            (lambda p: p["report"]["metrics"].update(mric=[]), "metrics: bad 'mric': expected a JSON object, got []"),
        ],
    )
    def test_mistyped_section_rejected(self, corpus, tmp_path, capsys, edit, problem):
        code, other = self.combine_with_variant(corpus, tmp_path, edit)
        assert code == 2
        assert f"{other}: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "s" / "summary.json").exists()

    def test_non_json_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("not json\n")
        assert run(["report", "--out", tmp_path / "s", "--inputs", path]) == 2
        assert f"{path}:1: invalid JSON: Expecting value" in capsys.readouterr().err
        assert not (tmp_path / "s" / "summary.json").exists()

    @pytest.mark.parametrize(
        "key, edit",
        [("config", lambda p: p.pop("config")),
         ("report", lambda p: p.pop("report")),
         ("mean_recall", lambda p: p["report"]["metrics"].pop("mean_recall")),
         ("100", lambda p: p["report"]["metrics"]["mric"].pop("100"))],
    )
    def test_missing_section_rejected(self, corpus, tmp_path, capsys, key, edit):
        code, other = self.combine_with_variant(corpus, tmp_path, edit)
        assert code == 2
        err = capsys.readouterr().err
        assert str(other) in err and repr(key) in err
        assert not (tmp_path / "s" / "summary.json").exists()


class TestDeterminism:
    def test_identical_runs_byte_identical_reports(self, corpus, tmp_path):
        config = write_config(tmp_path, iterations=25, seed=5, use_refinement="true")
        first = run_pipeline(corpus, tmp_path / "a", config)
        second = run_pipeline(corpus, tmp_path / "b", config)
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        assert first == second
