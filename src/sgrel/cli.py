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
import math
import sys
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import alignment, ingest, metrics, refinement, sampling, synth
from .core import AnnotationError, LabelSpace, OBJECT, PREDICATE
from .ingest import ParseError, build_zero_shot_index, load_annotations, load_embeddings, load_labels, parse_fields
from .ingest import boolean, integer, json_list, json_object, number, string
from .reweighting import InfoWeights, info_weights, uniform_weights
from .sampling import build_sampling_plan, count_predicates, resample
from .seeding import substream

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation or configuration; exits with status 1."""


@dataclass(frozen=True)
class RunConfig(synth.SynthConfig, alignment.TrainConfig):
    """Fully resolved pipeline configuration: the corpus and training keys of its two bases, plus its own.

    Defaults come from the module that owns each knob. Only ``use_alignment``
    differs from its owner: it is off on the CLI and on in ``TrainConfig``.
    """

    alpha: float = refinement.DEFAULT_ALPHA
    tau: float = sampling.DEFAULT_TAU
    beta: float = sampling.DEFAULT_BETA
    use_resampling: bool = False
    use_refinement: bool = False
    use_reweighting: bool = False
    use_alignment: bool = False
    subtask: str = metrics.PREDCLS
    ks: tuple[int, ...] = metrics.DEFAULT_KS


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
_CONFIG_PARSERS = {key: _TYPE_PARSERS[kind] for key, kind in typing.get_type_hints(RunConfig).items()}


def _check_ranges(config: RunConfig) -> None:
    """Reject out-of-range values, naming the key; synth keys go through the inherited ``validate``."""
    c = config
    for key, value in dataclasses.asdict(c).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"invalid {key} {value!r}: must be finite")
    rules = {
        "seed": (0 <= c.seed < 2**63, "in [0, 2**63)"),
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
        c.validate()
    except ValueError as err:
        raise UsageError(f"invalid synth config: {err}") from err


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Read a key=value config file, apply CLI overrides on top, then check ranges."""
    values: dict = {}
    if path is not None:
        try:
            lines = ingest.read_lines(path)
        except (OSError, ParseError) as err:
            raise UsageError(f"cannot read config: {err}") from None
        for lineno, raw in enumerate(lines, 1):
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


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _naming(path: str | Path, func, *args):
    """``func(*args)``; a ``ValueError`` it raises gets ``path`` prefixed to its message."""
    try:
        return func(*args)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _load_spaces(args: argparse.Namespace) -> tuple[LabelSpace, LabelSpace]:
    return load_labels(args.object_labels, OBJECT), load_labels(args.predicate_labels, PREDICATE)


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
    """Read ``save_weights``' file: each predicate once, with finite, non-negative values and a finite sum of bits."""
    (rows,) = parse_fields(ingest.read_json(path), (("predicates", json_list),), str(path))
    table = (("name", space.index_of), ("frequency", number), ("bits", number), ("weight", number))
    values = np.zeros((3, space.size))  # frequency, bits and weight per predicate
    seen: set[int] = set()
    for i, row in enumerate(rows):
        j, *row_values = parse_fields(row, table, f"{path}: predicates[{i}]")
        if j in seen:
            raise ValueError(f"{path}: predicate {space.names[j]!r}: listed twice")
        seen.add(j)
        values[:, j] = row_values
    missing = [name for j, name in enumerate(space.names) if j not in seen]
    if missing:
        raise ValueError(f"{path}: no row for predicates {missing}")
    with np.errstate(over="ignore"):
        total_bits = float(values[1].sum())  # bounds every mRIC, as recall is at most 1
    if not math.isfinite(total_bits):
        raise ValueError(f"{path}: bad 'bits': must have a finite sum over predicates, got {total_bits!r}")
    return InfoWeights(*values)


def cmd_synth(args: argparse.Namespace, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = synth.generate(config)
    for kind, embeddings in ((OBJECT, data.object_embeddings), (PREDICATE, data.predicate_embeddings)):
        labels = "".join(name + "\n" for name in embeddings.space.names)
        (out / f"{kind}_labels.txt").write_text(labels, encoding="utf-8")
        ingest.save_embeddings(embeddings, out / f"{kind}_embeddings.txt")
    splits = {"train": data.train, "val": data.val, "test": data.test}
    for name, split in splits.items():
        ingest.save_annotations(split, out / f"{name}.jsonl")
    synth.save_map(data.map, out / "generative_map.json")
    images = {name: len(split.image_ids) for name, split in splits.items()}
    triples = {name: split.num_triples() for name, split in splits.items()}
    manifest = {"config": dataclasses.asdict(config), "images": images, "triples": triples}
    _write_json(manifest, out / "synth_manifest.json")
    logger.info("synth: %d/%d/%d train/val/test images -> %s", *images.values(), out)
    return 0


def cmd_ingest(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    dataset = load_annotations(args.annotations, object_space, predicate_space, args.d_roi, args.split)
    summary = {
        "config": dataclasses.asdict(config),
        "split": dataset.split,
        "images": len(dataset.image_ids),
        "triples": dataset.num_triples(),
        "objects": len(dataset.object_ids),
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
        ingest.copy_with_companion(args.train, target)
        _write_json({"applied": False, "config": dataclasses.asdict(config)}, out / "sampling_plan.json")
        logger.info("resample: disabled, copied input unchanged")
        return 0
    if not args.recalls:
        raise UsageError("--recalls is required when use_resampling is on")
    object_space, predicate_space = _load_spaces(args)
    train = load_annotations(args.train, object_space, predicate_space, args.d_roi, "train")
    recalls = ingest.load_recalls(args.recalls, predicate_space)
    counts = count_predicates(train)
    plan = build_sampling_plan(counts, recalls, tau=config.tau, beta=config.beta, seed=config.seed)
    resampled = resample(train, plan)
    ingest.save_annotations(resampled, target)
    _write_json(
        {
            "applied": True,
            "config": dataclasses.asdict(config),
            "seed": plan.seed,
            "tau": plan.tau,
            "beta": plan.beta,
            "predicates": [
                {
                    "name": predicate_space.names[j],
                    "count": int(plan.counts[j]),
                    "recall": float(recalls[j]),
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
    info = _naming(args.train, info_weights, counts)
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
    result = _naming(args.train, alignment.train, model, train_set, embeddings, config, val_set, weights)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    alignment.save_model(result.model, out / "model.ckpt")
    alignment.save_history(result.history, out / "loss_history.csv")
    alignment.save_validation(result, config.eval_every, out / "validation.csv")
    for name, split in (("val", val_set), ("test", test_set)):
        metrics.save_predictions(
            alignment.predict(result.model, split), object_space, out / f"predictions_{name}.jsonl"
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
        ingest.copy_with_companion(args.predictions, target)
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
    if object_embeddings.dim != predicate_embeddings.dim:
        raise ValueError(
            f"embedding dimensions differ: {args.object_embeddings} has {object_embeddings.dim}, "
            f"{args.predicate_embeddings} has {predicate_embeddings.dim}"
        )
    refined = _naming(args.predictions, refinement.refine_dataset,
                      predictions, object_embeddings, predicate_embeddings, config.alpha)
    metrics.save_predictions(refined, object_space, target)
    pre_top, post_top = predictions.probs.argmax(axis=1), refined.probs.argmax(axis=1)
    flipped = int(np.count_nonzero(pre_top != post_top))
    # The JSON lines json.dumps(..., separators=(",", ":")) writes, each id and name escaped once.
    image_text = metrics.line_prefixes(predictions.image_ids)
    top_text = list(map(encode_basestring_ascii, predicate_space.names))
    lines = (
        f'{image_text[i]}{s},"obj_id":{o},"pre_top":{top_text[before]},"post_top":{top_text[after]}}}\n'
        for i, s, o, before, after in zip(predictions.image.tolist(), predictions.subj_id.tolist(),
                                          predictions.obj_id.tolist(), pre_top.tolist(), post_top.tolist())
    )
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    logger.info("refine: %d/%d pairs flipped", flipped, len(predictions))
    return 0


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    object_space, predicate_space = _load_spaces(args)
    dataset = load_annotations(args.dataset, object_space, predicate_space, args.d_roi, args.split)
    predictions = metrics.load_predictions(args.predictions, object_space, predicate_space.size)
    zero_shot = ingest.load_zero_shot_index(args.zero_shot, object_space, predicate_space) if args.zero_shot else None
    info = load_weights(args.weights, predicate_space) if args.weights else None
    report = _naming(args.predictions, metrics.evaluate,
                     predictions, dataset, zero_shot, info, config.ks, config.subtask)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        {"config": dataclasses.asdict(config), "report": report.to_dict(predicate_space)},
        out / "report.json",
    )
    metrics.per_predicate_csv(report, predicate_space, out / "per_predicate.csv")
    recalls = np.nan_to_num(report.per_predicate_recall[max(config.ks)], nan=0.0)  # 0 where no GT
    _write_json(dict(zip(predicate_space.names, recalls.tolist())), out / "recalls.json")
    headline = {
        f"{short}@{k}": value
        for family, short in metrics.FAMILIES.items()
        for k, value in getattr(report, family).items()
    }
    print(json.dumps(headline, sort_keys=True))
    return 0


_TOGGLES = tuple(sorted(key for key in _CONFIG_PARSERS if key.startswith("use_")))
_REPORT_FIELDS = (("config", json_object), ("report", json_object))
_CONFIG_FIELDS = (("seed", integer), *((key, boolean) for key in _TOGGLES))
_PROTOCOL_FIELDS = (("ks", json_list), ("subtask", string), ("metrics", json_object))
_FAMILY_FIELDS = tuple((family, json_object) for family in metrics.FAMILIES)


def _metric(value: object) -> float | None:
    return None if value is None else number(value)


def cmd_report(args: argparse.Namespace, config: RunConfig) -> int:
    if args.labels and len(args.labels) > len(args.inputs):
        raise UsageError(f"--labels: {len(args.labels)} labels for {len(args.inputs)} inputs")
    rows = []
    table = []  # printed cells per report, read before summary.json is written
    seeds = set()
    first: dict = {}  # ks and subtask of the first report; every other must match
    for idx, path in enumerate(args.inputs):
        cfg, report = parse_fields(ingest.read_json(path), _REPORT_FIELDS, str(path))
        seed, *switches = parse_fields(cfg, _CONFIG_FIELDS, f"{path}: config")
        ks, subtask, families = parse_fields(report, _PROTOCOL_FIELDS, f"{path}: report")
        for key, value in (("ks", ks), ("subtask", subtask)):
            first.setdefault(key, (value, path))
            if value != first[key][0]:
                raise ValueError(f"{path}: {key} {value} differs from {first[key][0]} in {first[key][1]}")
        seeds.add(seed)
        toggles = dict(zip(_TOGGLES, switches))
        label = args.labels[idx] if args.labels and idx < len(args.labels) else None
        if label is None:
            enabled = [key.removeprefix("use_") for key, on in toggles.items() if on]
            label = "+".join(enabled) if enabled else "baseline"
        cells = [label]
        value_fields = tuple((str(k), _metric) for k in first["ks"][0])
        for family, values in zip(metrics.FAMILIES, parse_fields(families, _FAMILY_FIELDS, f"{path}: metrics")):
            values = parse_fields(values, value_fields, f"{path}: metrics.{family}")
            cells += ["-" if value is None else f"{value:.4f}" for value in values]
        rows.append({"label": label, "toggles": toggles, "metrics": families})
        table.append(cells)
    if len(seeds) > 1:
        raise ValueError(f"seed conflict across reports: {sorted(seeds)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"config": dataclasses.asdict(config), "seed": sorted(seeds)[0] if seeds else None, "rows": rows}
    _write_json(payload, out / "summary.json")

    ks = first["ks"][0] if rows else []
    print("\t".join(["run"] + [f"{short}@{k}" for short in metrics.FAMILIES.values() for k in ks]))
    for cells in table:
        print("\t".join(cells))
    return 0


def _feature_dimension(raw: str) -> int:
    """``--d-roi``: the length of every region feature, an integer >= 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


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
    p.add_argument("--d-roi", type=_feature_dimension, required=True)
    p.add_argument("--split", default="train")

    p = command("zsplit", cmd_zsplit, "build the zero-shot signature index")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--d-roi", type=_feature_dimension, required=True)

    p = command("resample", cmd_resample, "recall-guided down-sampling of the train set")
    p.add_argument("--train", required=True)
    p.add_argument(
        "--recalls", default=None, help="JSON map predicate -> recall (required with use_resampling)"
    )
    p.add_argument("--d-roi", type=_feature_dimension, required=True)

    p = command("weights", cmd_weights, "information-content loss weights from train counts")
    p.add_argument("--train", required=True)
    p.add_argument("--d-roi", type=_feature_dimension, required=True)

    p = command("train", cmd_train, "train the relation model and emit predictions")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--object-embeddings", required=True)
    p.add_argument("--weights", default=None, help="info_weights.json (required with use_reweighting)")
    p.add_argument("--d-roi", type=_feature_dimension, required=True)

    p = command("refine", cmd_refine, "refine predictions with label-embedding distances")
    p.add_argument("--predictions", required=True)
    p.add_argument("--object-embeddings", default=None, help="required with use_refinement")
    p.add_argument("--predicate-embeddings", default=None, help="required with use_refinement")

    p = command("eval", cmd_eval, "metric report for a prediction file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--d-roi", type=_feature_dimension, required=True)
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
