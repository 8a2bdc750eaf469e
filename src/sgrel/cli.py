"""Command-line pipeline: synth, ingest, zsplit, resample, weights, train, refine, eval, report.

Every stage reads files its predecessor produced and can also run standalone on
compatible inputs. Configuration is a flat key=value file with CLI-flag
overrides (flags win); all randomness flows from one seed through named
substreams, and reports embed the fully resolved config that produced them.
Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import shutil
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignment, ingest, metrics, refinement, sampling, synth
from .core import AnnotationError, LabelSpace, OBJECT, PREDICATE
from .ingest import ParseError, build_zero_shot_index, load_annotations, load_embeddings, load_labels
from .reweighting import DEFAULT_MU, InfoWeights, info_weights, uniform_weights
from .sampling import PredicateStats, build_sampling_plan, count_predicates, resample
from .seeding import substream

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation or configuration; exits with status 1."""


@dataclass
class RunConfig:
    """Fully resolved pipeline configuration; the one declaration of every config key.

    Defaults come from the module that owns each knob. Only ``use_alignment``
    differs from its owner: it is off on the CLI and on in ``TrainConfig``.
    """

    seed: int = alignment.TrainConfig.seed
    alpha: float = refinement.DEFAULT_ALPHA
    tau: float = sampling.DEFAULT_TAU
    beta: float = sampling.DEFAULT_BETA
    mu: float = DEFAULT_MU
    lr: float = alignment.TrainConfig.lr
    iterations: int = alignment.TrainConfig.iterations
    patience: int = alignment.TrainConfig.patience
    batch_size: int = alignment.TrainConfig.batch_size
    eval_every: int = alignment.TrainConfig.eval_every
    box_loss: float = alignment.TrainConfig.box_loss
    object_loss: float = alignment.TrainConfig.object_loss
    use_resampling: bool = False
    use_refinement: bool = False
    use_reweighting: bool = False
    use_alignment: bool = False
    subtask: str = metrics.PREDCLS
    ks: tuple[int, ...] = metrics.DEFAULT_KS
    # Synthetic-corpus knobs.
    images: int = synth.SynthConfig.images
    c_obj: int = synth.SynthConfig.c_obj
    c_pred: int = synth.SynthConfig.c_pred
    d_roi: int = synth.SynthConfig.d_roi
    d_emb: int = synth.SynthConfig.d_emb
    zipf_s: float = synth.SynthConfig.zipf_s
    zero_shot_fraction: float = synth.SynthConfig.zero_shot_fraction
    noise_sigma: float = synth.SynthConfig.noise_sigma
    min_triples: int = synth.SynthConfig.min_triples
    max_triples: int = synth.SynthConfig.max_triples
    max_distractors: int = synth.SynthConfig.max_distractors
    embedding_scale: float = synth.SynthConfig.embedding_scale
    intra_cluster_sigma: float = synth.SynthConfig.intra_cluster_sigma


# Config keys that also have a --flag; a flag wins over the config file.
_OVERRIDE_KEYS = ("seed", "alpha", "tau", "beta", "mu", "lr")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


_TYPE_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, tuple[int, ...]: _parse_ints}
_CONFIG_PARSERS = {
    key: _TYPE_PARSERS[kind] for key, kind in typing.get_type_hints(RunConfig).items()
}


def _sub_config(cls: type, config: RunConfig):
    """A ``cls`` instance built from the fields it shares with ``config`` by name."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in dataclasses.asdict(config).items() if key in names})


def _check_ranges(config: RunConfig) -> None:
    """Reject out-of-range values, naming the key; synth keys go through SynthConfig."""
    c = config
    rules = {
        "alpha": (0.0 <= c.alpha <= 1.0, "in [0, 1]"),
        "tau": (c.tau > 0.0, "> 0"),
        "beta": (c.beta > 0.0, "> 0"),
        "mu": (c.mu >= 0.0, ">= 0"),
        "lr": (c.lr >= 0.0, ">= 0"),
        "iterations": (c.iterations >= 0, ">= 0"),
        "eval_every": (c.eval_every >= 0, ">= 0"),
        "batch_size": (c.batch_size >= 1, ">= 1"),
        "patience": (c.patience >= 1, ">= 1"),
        "ks": (
            len(c.ks) == len(set(c.ks)) >= 1 and min(c.ks) >= 1,
            "a non-empty list of distinct cutoffs >= 1",
        ),
        "subtask": (c.subtask in metrics.PROTOCOLS, f"one of {', '.join(metrics.PROTOCOLS)}"),
    }
    for key, (ok, allowed) in rules.items():
        if not ok:
            raise UsageError(f"invalid {key} {getattr(c, key)!r}: must be {allowed}")
    try:
        _sub_config(synth.SynthConfig, c).validate()
    except ValueError as err:
        raise UsageError(f"invalid synth config: {err}") from err


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Read a key=value config file, apply CLI overrides on top, then check ranges."""
    values: dict = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise UsageError(f"{path}:{lineno}: invalid config key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value.strip())
            except ValueError as err:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    config = RunConfig(**values)
    _check_ranges(config)
    return config


# JSON writes the ks tuple as a list.
config_echo = dataclasses.asdict


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_spaces(args: argparse.Namespace) -> tuple[LabelSpace, LabelSpace]:
    return (
        load_labels(args.object_labels, OBJECT),
        load_labels(args.predicate_labels, PREDICATE),
    )


def save_weights(info: InfoWeights, counts: np.ndarray, space: LabelSpace, path: Path) -> None:
    rows = [
        {
            "name": space.names[j],
            "count": int(counts[j]),
            "frequency": float(info.frequencies[j]),
            "bits": float(info.bits[j]),
            "weight": float(info.weights[j]),
        }
        for j in range(space.size)
    ]
    _write_json({"predicates": rows}, path)


def load_weights(path: str | Path, space: LabelSpace) -> InfoWeights:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    frequencies = np.zeros(space.size)
    bits = np.zeros(space.size)
    weights = np.zeros(space.size)
    for row in payload["predicates"]:
        j = space.index_of(row["name"])
        frequencies[j] = row["frequency"]
        bits[j] = row["bits"]
        weights[j] = row["weight"]
    return InfoWeights(frequencies=frequencies, bits=bits, weights=weights)


def cmd_synth(args: argparse.Namespace, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = synth.generate(_sub_config(synth.SynthConfig, config))
    (out / "object_labels.txt").write_text(
        "".join(n + "\n" for n in data.train.object_space.names), encoding="utf-8"
    )
    (out / "predicate_labels.txt").write_text(
        "".join(n + "\n" for n in data.train.predicate_space.names), encoding="utf-8"
    )
    ingest.save_embeddings(data.object_embeddings, out / "object_embeddings.txt")
    ingest.save_embeddings(data.predicate_embeddings, out / "predicate_embeddings.txt")
    ingest.save_annotations(data.train, out / "train.jsonl")
    ingest.save_annotations(data.val, out / "val.jsonl")
    ingest.save_annotations(data.test, out / "test.jsonl")
    synth.save_map(data.map, out / "generative_map.json")
    _write_json(
        {
            "config": config_echo(config),
            "images": {
                "train": len(data.train.annotations),
                "val": len(data.val.annotations),
                "test": len(data.test.annotations),
            },
            "triples": {
                "train": data.train.num_triples(),
                "val": data.val.num_triples(),
                "test": data.test.num_triples(),
            },
        },
        out / "synth_manifest.json",
    )
    logger.info(
        "synth: %d/%d/%d train/val/test images -> %s",
        len(data.train.annotations),
        len(data.val.annotations),
        len(data.test.annotations),
        out,
    )
    return 0


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    dataset = load_annotations(
        args.annotations, object_space, predicate_space, args.d_roi, split=args.split
    )
    summary = {
        "config": config_echo(config),
        "split": dataset.split,
        "images": len(dataset.annotations),
        "triples": dataset.num_triples(),
        "objects": sum(len(a.objects) for a in dataset.annotations),
        "object_labels": object_space.size,
        "predicate_labels": predicate_space.size,
        "d_roi": dataset.d_roi,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(summary, out / "ingest_summary.json")
    print(json.dumps({"images": summary["images"], "triples": summary["triples"]}, sort_keys=True))
    return 0


def cmd_zsplit(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    train = load_annotations(args.train, object_space, predicate_space, args.d_roi, "train")
    test = load_annotations(args.test, object_space, predicate_space, args.d_roi, "test")
    index = build_zero_shot_index(train, test)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.save_zero_shot_index(index, object_space, predicate_space, out / "zero_shot.json")
    logger.info("zsplit: %d novel signatures -> %s", len(index), out / "zero_shot.json")
    return 0


def cmd_resample(args: argparse.Namespace, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "train_resampled.jsonl"
    if not config.use_resampling:
        shutil.copyfile(args.train, target)
        _write_json({"applied": False, "config": config_echo(config)}, out / "sampling_plan.json")
        logger.info("resample: disabled, copied input unchanged")
        return 0
    if not args.recalls:
        raise UsageError("--recalls is required when use_resampling is on")
    object_space, predicate_space = _load_spaces(args)
    train = load_annotations(args.train, object_space, predicate_space, args.d_roi, "train")
    recalls = ingest.load_recalls(args.recalls, predicate_space)
    counts = count_predicates(train)
    plan = build_sampling_plan(
        PredicateStats(counts=counts, recalls=recalls),
        tau=config.tau,
        beta=config.beta,
        seed=config.seed,
    )
    resampled = resample(train, plan)
    ingest.save_annotations(resampled, target)
    _write_json(
        {
            "applied": True,
            "config": config_echo(config),
            "seed": plan.seed,
            "tau": plan.tau,
            "beta": plan.beta,
            "predicates": [
                {
                    "name": predicate_space.names[j],
                    "count": int(plan.counts[j]),
                    "recall": float(recalls.values[j]),
                    "rate": float(plan.rates[j]),
                    "target": int(plan.targets[j]),
                }
                for j in range(predicate_space.size)
            ],
        },
        out / "sampling_plan.json",
    )
    logger.info(
        "resample: %d -> %d triples", train.num_triples(), resampled.num_triples()
    )
    return 0


def cmd_weights(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    train = load_annotations(args.train, object_space, predicate_space, args.d_roi, "train")
    counts = count_predicates(train)
    info = info_weights(counts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(info, counts, predicate_space, out / "info_weights.json")
    logger.info("weights: wrote %s", out / "info_weights.json")
    return 0


def cmd_train(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    train_set = load_annotations(args.train, object_space, predicate_space, args.d_roi, "train")
    val_set = load_annotations(args.val, object_space, predicate_space, args.d_roi, "val")
    test_set = load_annotations(args.test, object_space, predicate_space, args.d_roi, "test")
    embeddings = load_embeddings(args.object_embeddings, object_space)

    if config.use_reweighting:
        if not args.weights:
            raise UsageError("--weights is required when use_reweighting is on")
        weights = load_weights(args.weights, predicate_space)
    else:
        weights = uniform_weights(predicate_space.size)

    model = alignment.RelationModel.init(
        train_set.d_roi, embeddings.dim, predicate_space.size, substream(config.seed, "alignment.init")
    )
    train_config = _sub_config(alignment.TrainConfig, config)
    result = alignment.train(model, train_set, embeddings, train_config, val_set, weights)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    alignment.save_model(result.model, out / "model.ckpt")
    alignment.save_history(result.history, out / "loss_history.csv")
    alignment.save_validation(result, train_config.eval_every, out / "validation.csv")
    for name, split in (("val", val_set), ("test", test_set)):
        metrics.save_predictions(
            alignment.predict(result.model, alignment.pack(split)),
            object_space,
            out / f"predictions_{name}.jsonl",
        )
    logger.info(
        "train: %d iterations, final total loss %.5f",
        len(result.history),
        result.history[-1].total if result.history else float("nan"),
    )
    return 0


def cmd_refine(args: argparse.Namespace, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "predictions_refined.jsonl"
    report_path = out / "refinement_report.jsonl"
    if not config.use_refinement:
        shutil.copyfile(args.predictions, target)
        report_path.write_text("", encoding="utf-8")
        logger.info("refine: disabled, copied predictions unchanged")
        return 0
    if not (args.object_embeddings and args.predicate_embeddings):
        raise UsageError(
            "--object-embeddings and --predicate-embeddings are required when use_refinement is on"
        )
    object_space, predicate_space = _load_spaces(args)
    predictions = metrics.load_predictions(args.predictions, object_space, predicate_space.size)
    object_embeddings = load_embeddings(args.object_embeddings, object_space)
    predicate_embeddings = load_embeddings(args.predicate_embeddings, predicate_space)
    refined = refinement.refine_dataset(
        predictions, object_embeddings, predicate_embeddings, config.alpha
    )
    scores_text = metrics.save_predictions(refined, object_space, target)
    pre_top, post_top = (
        metrics.stack_probs(pairs).argmax(axis=1) if pairs else np.zeros(0, dtype=int)
        for pairs in (predictions, refined)
    )
    flipped = int(np.count_nonzero(pre_top != post_top))
    names = predicate_space.names
    lines = (
        metrics.json_line(
            {
                "image_id": pair.image_id,
                "subj_id": pair.subj_id,
                "obj_id": pair.obj_id,
                "pre_top": names[before],
                "post_top": names[after],
            },
            "scores",
            text,
        )
        for pair, before, after, text in zip(predictions, pre_top.tolist(), post_top.tolist(), scores_text)
    )
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    logger.info("refine: %d/%d pairs flipped", flipped, len(predictions))
    return 0


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    dataset = load_annotations(args.dataset, object_space, predicate_space, args.d_roi, args.split)
    predictions = metrics.load_predictions(args.predictions, object_space, predicate_space.size)
    zero_shot = (
        ingest.load_zero_shot_index(args.zero_shot, object_space, predicate_space)
        if args.zero_shot
        else None
    )
    info = load_weights(args.weights, predicate_space) if args.weights else None
    report = metrics.evaluate(
        predictions, dataset, zero_shot, info, ks=config.ks, protocol=config.subtask
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        {"config": config_echo(config), "report": report.to_dict(predicate_space)},
        out / "report.json",
    )
    metrics.per_predicate_csv(report, predicate_space, out / "per_predicate.csv")
    max_k = max(config.ks)
    recalls = {
        name: (
            0.0
            if np.isnan(report.per_predicate_recall[max_k][j])
            else float(report.per_predicate_recall[max_k][j])
        )
        for j, name in enumerate(predicate_space.names)
    }
    _write_json(recalls, out / "recalls.json")
    headline = {
        f"{family}@{k}": value
        for family, values in (
            ("R", report.recall),
            ("mR", report.mean_recall),
            ("zR", report.zero_shot_recall),
            ("mRIC", report.mric),
        )
        for k, value in values.items()
    }
    print(json.dumps(headline, sort_keys=True))
    return 0


def _key(mapping: object, key: str, where: str) -> object:
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{where}: missing key {key!r}")
    return mapping[key]


def cmd_report(args: argparse.Namespace, config: RunConfig) -> int:
    rows = []
    table = []  # printed cells per report, read before summary.json is written
    seeds = set()
    first: dict = {}  # ks and subtask of the first report; every other must match
    for idx, path in enumerate(args.inputs):
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not a JSON report: {err}") from None
        cfg = _key(payload, "config", path)
        report = _key(payload, "report", path)
        for key in ("ks", "subtask"):
            value = _key(report, key, path)
            first.setdefault(key, (value, path))
            if value != first[key][0]:
                raise ValueError(
                    f"{path}: {key} {value} differs from {first[key][0]} in {first[key][1]}"
                )
        seeds.add(_key(cfg, "seed", path))
        toggles = {
            key: _key(cfg, key, path)
            for key in ("use_alignment", "use_refinement", "use_resampling", "use_reweighting")
        }
        label = args.labels[idx] if args.labels and idx < len(args.labels) else None
        if label is None:
            enabled = [key.removeprefix("use_") for key, on in toggles.items() if on]
            label = "+".join(enabled) if enabled else "baseline"
        families = _key(report, "metrics", path)
        cells = [label]
        for family in ("recall", "mean_recall", "zero_shot_recall", "mric"):
            values = _key(families, family, f"{path} metrics")
            for k in first["ks"][0]:
                value = _key(values, str(k), f"{path} metrics.{family}")
                if value is not None and not isinstance(value, (int, float)):
                    raise ValueError(f"{path} metrics.{family}: {k!r} is not a number")
                cells.append("-" if value is None else f"{value:.4f}")
        rows.append({"label": label, "toggles": toggles, "metrics": families})
        table.append(cells)
    if len(seeds) > 1:
        raise ValueError(f"seed conflict across reports: {sorted(seeds)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"config": config_echo(config), "seed": sorted(seeds)[0] if seeds else None, "rows": rows}
    _write_json(payload, out / "summary.json")

    ks = first["ks"][0] if rows else []
    print("\t".join(["run"] + [f"{fam}@{k}" for fam in ("R", "mR", "zR", "mRIC") for k in ks]))
    for cells in table:
        print("\t".join(cells))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgrel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, labels: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        for key in _OVERRIDE_KEYS:
            p.add_argument(f"--{key}", type=_CONFIG_PARSERS[key], default=None)
        p.add_argument("--log-file", default=None, help="sidecar log with timestamps")
        if labels:
            p.add_argument("--object-labels", required=True)
            p.add_argument("--predicate-labels", required=True)
        p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "generate a synthetic corpus", labels=False)

    p = command("ingest", cmd_ingest, "load and validate an annotation file")
    p.add_argument("--annotations", required=True)
    p.add_argument("--d-roi", type=int, required=True)
    p.add_argument("--split", default="train")

    p = command("zsplit", cmd_zsplit, "build the zero-shot signature index")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--d-roi", type=int, required=True)

    p = command("resample", cmd_resample, "recall-guided down-sampling of the train set")
    p.add_argument("--train", required=True)
    p.add_argument(
        "--recalls", default=None, help="JSON map predicate -> recall (required with use_resampling)"
    )
    p.add_argument("--d-roi", type=int, required=True)

    p = command("weights", cmd_weights, "information-content loss weights from train counts")
    p.add_argument("--train", required=True)
    p.add_argument("--d-roi", type=int, required=True)

    p = command("train", cmd_train, "train the relation model and emit predictions")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--object-embeddings", required=True)
    p.add_argument("--weights", default=None, help="info_weights.json (required with use_reweighting)")
    p.add_argument("--d-roi", type=int, required=True)

    p = command("refine", cmd_refine, "refine predictions with label-embedding distances")
    p.add_argument("--predictions", required=True)
    p.add_argument("--object-embeddings", default=None, help="required with use_refinement")
    p.add_argument("--predicate-embeddings", default=None, help="required with use_refinement")

    p = command("eval", cmd_eval, "metric report for a prediction file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--d-roi", type=int, required=True)
    p.add_argument("--zero-shot", default=None)
    p.add_argument("--weights", default=None)

    p = command(
        "report", cmd_report, "combine eval reports into one document / ablation grid", labels=False
    )
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--labels", nargs="*", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1

    handlers: list[logging.Handler] = [logging.StreamHandler(sys.stderr)]
    if getattr(args, "log_file", None):
        handlers.append(logging.FileHandler(args.log_file))
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        handlers=handlers,
        force=True,
    )

    try:
        config = load_config(args.config, {key: getattr(args, key) for key in _OVERRIDE_KEYS})
        return args.func(args, config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ParseError, AnnotationError, ValueError, KeyError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
