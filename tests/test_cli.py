import json

import numpy as np
import pytest

from sgrel.cli import RunConfig, _write_json, config_echo, load_config, main, UsageError


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


class TestConfig:
    def test_defaults_match_reference_setup(self):
        config = RunConfig()
        assert config.alpha == 0.35
        assert config.tau == 1100.0
        assert config.beta == 0.3
        assert config.mu == 1.2
        assert config.lr == 0.001
        assert config.ks == (20, 50, 100)

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
        echo = config_echo(config)
        assert json.loads(json.dumps(echo))["ks"] == [5, 10]
        again = write_config(
            tmp_path, name="echo.cfg",
            **{k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in echo.items()},
        )
        assert load_config(again, {}) == config

    def test_non_integer_seed_flag_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--out", tmp_path, "--seed", "1.5"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert "--seed" in err


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

    def test_missing_file_is_two(self, tmp_path):
        code = run(
            ["ingest", "--out", tmp_path, "--object-labels", tmp_path / "nope.txt",
             "--predicate-labels", tmp_path / "nope.txt", "--annotations", tmp_path / "nope.txt",
             "--d-roi", 4]
        )
        assert code == 2


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
             "predicate '{name}': bits must be a finite, non-negative number, got nan"),
            (lambda rows: rows[2].update(weight=-0.5),
             "predicate '{name}': weight must be a finite, non-negative number, got -0.5"),
            (lambda rows: rows[2].update(frequency=True),
             "predicate '{name}': frequency must be a finite, non-negative number, got True"),
            (lambda rows: rows[2].update(name="no such predicate"), "predicate 'no such predicate': not a predicate label"),
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
        assert {"image_id", "subj_id", "obj_id", "pre_top", "post_top", "scores"} <= set(record)

    def test_refine_disabled_copies_predictions(self, corpus, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, iterations=10, seed=5, use_refinement="false")
        run_pipeline(corpus, out, config)
        assert (out / "predictions_refined.jsonl").read_bytes() == (
            out / "predictions_test.jsonl"
        ).read_bytes()

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
        assert repr(predictions[0].image_id) in err

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
            ("--weights", '{"predicates": 3}', ": 'predicates' must be a list"),
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
        assert f"{recalls}: recall of '{names[1]}' must be a number in [0, 1], got nan" in capsys.readouterr().err

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

    def test_non_numeric_metric_rejected(self, corpus, tmp_path, capsys):
        code, other = self.combine_with_variant(
            corpus, tmp_path, lambda p: p["report"]["metrics"]["mric"].update({"20": [1]})
        )
        assert code == 2
        assert f"{other} metrics.mric: 20 is not a number" in capsys.readouterr().err
        assert not (tmp_path / "s" / "summary.json").exists()

    def test_non_json_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("not json\n")
        assert run(["report", "--out", tmp_path / "s", "--inputs", path]) == 2
        assert f"{path}: not a JSON report" in capsys.readouterr().err
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
