"""Seeded single-mutation fuzz of every input of zsplit, weights, resample, train, refine and eval.

Each case copies one input file of one stage, applies one mutation to the
copy, and runs the stage in-process through ``sgrel.cli.main`` on a tiny
corpus with every mechanism on (so that resample and refine read their inputs
instead of copying them). Every case must end in exit 0, 1 or 2 without an
exception; an exit-2 message must name one of the stage's input files; a
changed JSON type in an annotation or prediction file must exit 2; and no JSON
output may hold ``NaN`` or ``Infinity``.
"""

import random
import re
import shutil

import pytest

from sgrel.cli import main
from sgrel.ingest import companion_path

SEED = 7
TINY_CORPUS = {
    "seed": 3, "images": 16, "c_obj": 5, "c_pred": 4, "d_roi": 4, "d_emb": 3,
    "min_triples": 1, "max_triples": 3, "max_distractors": 1,
}
STAGE_CONFIG = {
    "seed": 3, "iterations": 2, "eval_every": 1, "batch_size": 4, "tau": 1, "lr": 0.05, "ks": "5,10",
    "use_alignment": "true", "use_refinement": "true", "use_resampling": "true", "use_reweighting": "true",
}

# A JSON (or embedding-file) number token, not the digits inside a name such as "obj03".
NUMBER = re.compile(r'(?<![\w.\-"])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w."])')
NON_FINITE = re.compile(r"\bNaN\b|Infinity")
LOG_TIME = re.compile(r"^\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3} ", re.MULTILINE)


def run(argv):
    return main([str(a) for a in argv])


def write_config(path, values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def replace_number(data, rng, replacement, integers_only=False, positive_only=False):
    """``data`` with one number token, drawn by ``rng``, replaced; None when there is none."""
    text = data.decode("utf-8")
    tokens = [
        m for m in NUMBER.finditer(text)
        if not (integers_only and re.search(r"[.eE]", m.group()))
        and not (positive_only and m.group().startswith("-"))
    ]
    if not tokens:
        return None
    m = rng.choice(tokens)
    return (text[:m.start()] + replacement(m.group()) + text[m.end():]).encode("utf-8")


def edit_lines(data, rng, edit):
    lines = data.splitlines(keepends=True)
    if not lines:
        return None
    i = rng.randrange(len(lines))
    return b"".join(lines[:i] + edit(lines[i]) + lines[i + 1:])


def flip_byte(data, rng):
    if not data:
        return None
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


MUTATIONS = {
    "flip_byte": flip_byte,
    "truncate": lambda data, rng: data[: rng.randrange(len(data))] if data else None,
    "delete_line": lambda data, rng: edit_lines(data, rng, lambda line: []),
    "duplicate_line": lambda data, rng: edit_lines(data, rng, lambda line: [line, line]),
    "nan": lambda data, rng: replace_number(data, rng, lambda token: "NaN"),
    "overflow": lambda data, rng: replace_number(data, rng, lambda token: "1e999"),
    "negative": lambda data, rng: replace_number(data, rng, lambda token: "-" + token, positive_only=True),
    "int_to_float": lambda data, rng: replace_number(data, rng, lambda token: "0.7", integers_only=True),
    "number_to_bool": lambda data, rng: replace_number(data, rng, lambda token: "true"),
    "number_to_string": lambda data, rng: replace_number(data, rng, lambda token: '"1"'),
}
TYPE_CHANGES = ("int_to_float", "number_to_bool", "number_to_string")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny corpus plus every file a stage reads, and each stage's argv (input files as paths)."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert run(["synth", "--out", corpus, "--config", write_config(root / "synth.cfg", TINY_CORPUS)]) == 0
    config = write_config(root / "stages.cfg", STAGE_CONFIG)
    labels = {"--object-labels": corpus / "object_labels.txt", "--predicate-labels": corpus / "predicate_labels.txt"}
    recalls = root / "recalls.json"
    names = (corpus / "predicate_labels.txt").read_text().split()
    recalls.write_text("{" + ", ".join(f'"{name}": {i % 2}' for i, name in enumerate(names)) + "}\n")
    inputs = {
        "zsplit": {"--train": corpus / "train.jsonl", "--test": corpus / "test.jsonl"},
        "weights": {"--train": corpus / "train.jsonl"},
        "resample": {"--train": corpus / "train.jsonl", "--recalls": recalls},
        "train": {"--train": corpus / "train.jsonl", "--val": corpus / "val.jsonl", "--test": corpus / "test.jsonl",
                  "--object-embeddings": corpus / "object_embeddings.txt",
                  "--weights": root / "weights" / "info_weights.json"},
        "refine": {"--predictions": root / "train" / "predictions_test.jsonl",
                   "--object-embeddings": corpus / "object_embeddings.txt",
                   "--predicate-embeddings": corpus / "predicate_embeddings.txt"},
        "eval": {"--predictions": root / "train" / "predictions_test.jsonl", "--dataset": corpus / "test.jsonl",
                 "--zero-shot": root / "zsplit" / "zero_shot.json",
                 "--weights": root / "weights" / "info_weights.json"},
    }
    extra = {stage: [] if stage in ("refine",) else ["--d-roi", TINY_CORPUS["d_roi"]] for stage in inputs}
    for stage in ("zsplit", "weights", "train"):  # the files later stages read
        argv = [stage, "--out", root / stage, "--config", config, *flat({**labels, **inputs[stage]}), *extra[stage]]
        assert run(argv) == 0
    return {stage: ({**labels, **files}, [*extra[stage], "--config", config]) for stage, files in inputs.items()}


def flat(flags):
    return [part for flag, path in flags.items() for part in (flag, path)]


def cases():
    rng = random.Random(SEED)
    stages = {
        "zsplit": ("--train", "--test"),
        "weights": ("--train",),
        "resample": ("--train", "--recalls"),
        "train": ("--train", "--val", "--test", "--object-embeddings", "--weights"),
        "refine": ("--predictions", "--object-embeddings", "--predicate-embeddings"),
        "eval": ("--predictions", "--dataset", "--zero-shot", "--weights"),
    }
    for stage, flags in stages.items():
        for flag in ("--object-labels", "--predicate-labels", *flags):
            if flag in ("--object-labels", "--predicate-labels", "--zero-shot"):
                mutations = list(MUTATIONS)[:4]  # label names only: no number to change
            else:  # embedding files hold no integer
                mutations = [m for m in MUTATIONS if not (m == "int_to_float" and flag.endswith("embeddings"))]
            for mutation in mutations:
                yield stage, flag, mutation, rng.randrange(2**32)


@pytest.mark.parametrize("stage, flag, mutation, seed", list(cases()))
def test_single_mutation_exits_cleanly(tiny, tmp_path, capsys, stage, flag, mutation, seed):
    flags, extra = tiny[stage]
    original = flags[flag]
    mutated = MUTATIONS[mutation](original.read_bytes(), random.Random(seed))
    assert mutated is not None, f"{original.name} has nothing to mutate by {mutation}"
    target = tmp_path / "in" / original.name
    target.parent.mkdir()
    target.write_bytes(mutated)
    flags = {**flags, flag: target}
    out = tmp_path / "out"
    capsys.readouterr()

    code = run([stage, "--out", out, *flat(flags), *extra])

    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 2:
        (message,) = [line for line in err.splitlines() if line.startswith("data error: ")]
        assert any(str(path) in message for path in flags.values()), message
    typed_field = original.suffix == ".jsonl"  # annotation and prediction files
    if typed_field and mutation in TYPE_CHANGES:
        assert code == 2, f"{mutation} of {original.name} was accepted"
    for path in out.rglob("*.json*") if out.exists() else ():
        assert not NON_FINITE.search(path.read_text()), f"{path.name} holds a non-finite number"


# Twins of the cases above for the binary companion ``train`` writes beside each
# prediction file: whatever its state, refine and eval act as if it were absent.
def stage_result(capsys, stage, flags, extra, out):
    """Exit code, standard error without log times, and every output file's bytes of one stage run."""
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = run([stage, "--out", out, *flat(flags), *extra])
    err = LOG_TIME.sub("", capsys.readouterr().err)
    return code, err, {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def prediction_cases(seed, mutations=tuple(MUTATIONS)):
    rng = random.Random(seed)
    for stage in ("refine", "eval"):
        for mutation in mutations:
            yield stage, mutation, rng.randrange(2**32)


@pytest.mark.parametrize("stage, mutation, seed", list(prediction_cases(SEED + 1)))
def test_companion_beside_a_mutated_prediction_file_changes_nothing(tiny, tmp_path, capsys, stage, mutation, seed):
    flags, extra = tiny[stage]
    original = flags["--predictions"]
    target = tmp_path / "in" / original.name
    target.parent.mkdir()
    target.write_bytes(MUTATIONS[mutation](original.read_bytes(), random.Random(seed)))
    flags = {**flags, "--predictions": target}
    alone = stage_result(capsys, stage, flags, extra, tmp_path / "out")
    shutil.copyfile(companion_path(original), companion_path(target))
    assert stage_result(capsys, stage, flags, extra, tmp_path / "out") == alone


@pytest.mark.parametrize(
    "stage, mutation, seed", list(prediction_cases(SEED + 2, ("flip_byte",) * 6 + ("truncate",) * 4))
)
def test_damaged_companion_of_an_untouched_prediction_file_changes_nothing(
    tiny, tmp_path, capsys, stage, mutation, seed
):
    flags, extra = tiny[stage]
    original = flags["--predictions"]
    target = tmp_path / "in" / original.name
    target.parent.mkdir()
    shutil.copyfile(original, target)
    flags = {**flags, "--predictions": target}
    alone = stage_result(capsys, stage, flags, extra, tmp_path / "out")
    assert alone[0] == 0, alone[1]
    shutil.copyfile(companion_path(original), companion_path(target))
    assert stage_result(capsys, stage, flags, extra, tmp_path / "out") == alone
    damaged = MUTATIONS[mutation](companion_path(original).read_bytes(), random.Random(seed))
    companion_path(target).write_bytes(damaged)
    assert stage_result(capsys, stage, flags, extra, tmp_path / "out") == alone


# Twins for the companion ``synth`` and ``resample`` write beside each annotation file: whatever its state,
# every stage that reads the file acts as if it were absent.
ANNOTATION_FLAGS = {"zsplit": ("--train", "--test"), "weights": ("--train",), "resample": ("--train",),
                    "train": ("--train", "--val", "--test"), "eval": ("--dataset",)}


def annotation_cases(seed, mutations=tuple(MUTATIONS)):
    rng = random.Random(seed)
    for stage, flags in ANNOTATION_FLAGS.items():
        for flag in flags:
            for mutation in mutations:
                yield stage, flag, mutation, rng.randrange(2**32)


@pytest.mark.parametrize("stage, flag, mutation, seed", list(annotation_cases(SEED + 3)))
def test_companion_beside_a_mutated_annotation_file_changes_nothing(
    tiny, tmp_path, capsys, stage, flag, mutation, seed
):
    flags, extra = tiny[stage]
    original = flags[flag]
    target = tmp_path / "in" / original.name
    target.parent.mkdir()
    target.write_bytes(MUTATIONS[mutation](original.read_bytes(), random.Random(seed)))
    flags = {**flags, flag: target}
    alone = stage_result(capsys, stage, flags, extra, tmp_path / "out")
    shutil.copyfile(companion_path(original), companion_path(target))
    assert stage_result(capsys, stage, flags, extra, tmp_path / "out") == alone


@pytest.mark.parametrize(
    "stage, flag, mutation, seed", list(annotation_cases(SEED + 4, ("flip_byte", "flip_byte", "truncate")))
)
def test_damaged_companion_of_an_untouched_annotation_file_changes_nothing(
    tiny, tmp_path, capsys, stage, flag, mutation, seed
):
    flags, extra = tiny[stage]
    original = flags[flag]
    target = tmp_path / "in" / original.name
    target.parent.mkdir()
    shutil.copyfile(original, target)
    flags = {**flags, flag: target}
    alone = stage_result(capsys, stage, flags, extra, tmp_path / "out")
    assert alone[0] == 0, alone[1]
    shutil.copyfile(companion_path(original), companion_path(target))
    assert stage_result(capsys, stage, flags, extra, tmp_path / "out") == alone
    damaged = MUTATIONS[mutation](companion_path(original).read_bytes(), random.Random(seed))
    companion_path(target).write_bytes(damaged)
    assert stage_result(capsys, stage, flags, extra, tmp_path / "out") == alone
