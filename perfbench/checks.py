"""Correctness checks on a pipeline's outputs; each returns (name, passed, detail).

Every check is counted in the benchmark's ``attempted``/``failed`` totals, so a
faster but wrong program shows up as failed operations, not as a gain.
"""

from __future__ import annotations

import json
from pathlib import Path

FAMILIES = ("recall", "mean_recall", "zero_shot_recall", "mric")


def test_split_counts(test_jsonl: Path) -> tuple[int, int]:
    """(GT triples after ingest's duplicate drop, ordered pairs over images with >= 2 objects)."""
    triples = pairs = 0
    with open(test_jsonl, encoding="utf-8") as handle:
        for raw in handle:
            record = json.loads(raw)
            triples += len({(r["subj"], r["pred"], r["obj"]) for r in record["relations"]})
            n = len(record["objects"])
            if n >= 2:
                pairs += n * (n - 1)
    return triples, pairs


def _line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def report_checks(report: dict, ks: list[int], gt_triples: int) -> list[tuple[str, bool, str]]:
    """Each metric family is present and non-decreasing in K; the GT count matches the split."""
    results = []
    metrics = report["report"]["metrics"]
    for family in FAMILIES:
        values = [metrics[family][str(k)] for k in sorted(ks)]
        ok = all(v is not None for v in values) and all(a <= b for a, b in zip(values, values[1:]))
        results.append((f"{family} non-decreasing in K", ok, str(values)))
    got = report["report"]["num_gt_triples"]
    results.append(("num_gt_triples equals test split", got == gt_triples, f"{got} vs {gt_triples}"))
    return results


def prediction_checks(out: Path, expected_pairs: int) -> list[tuple[str, bool, str]]:
    """One prediction line per ordered pair of every test image with >= 2 objects."""
    results = []
    for name in ("predictions_test.jsonl", "predictions_refined.jsonl"):
        got = _line_count(out / name)
        results.append((f"{name} has one line per ordered pair", got == expected_pairs,
                        f"{got} vs {expected_pairs}"))
    return results


def oracle_check(corpus: Path, d_roi: int, ks: list[int], protocol: str) -> tuple[str, bool, str]:
    """Perfect predictions from the generative map score R@K = mR@K = 1 under ``protocol``."""
    from sgrel.core import OBJECT, PREDICATE
    from sgrel.ingest import load_annotations, load_labels
    from sgrel.metrics import evaluate
    from sgrel.synth import load_map, oracle_predictions

    objects = load_labels(corpus / "object_labels.txt", OBJECT)
    predicates = load_labels(corpus / "predicate_labels.txt", PREDICATE)
    test = load_annotations(corpus / "test.jsonl", objects, predicates, d_roi, "test")
    predictions = oracle_predictions(test, load_map(corpus / "generative_map.json"))
    report = evaluate(predictions, test, ks=tuple(ks), protocol=protocol)
    values = [report.recall[k] for k in ks] + [report.mean_recall[k] for k in ks]
    return ("oracle predictions score R@K = mR@K = 1", all(v == 1.0 for v in values), str(values))


def same_files(first: Path, other: Path) -> tuple[str, bool, str]:
    """Two set-ups from one seed wrote byte-identical inputs."""
    names = sorted(p.name for p in first.iterdir() if p.is_file())
    differ = [n for n in names if (first / n).read_bytes() != (other / n).read_bytes()]
    return ("set-up inputs identical for one seed", not differ, ", ".join(differ) or f"{len(names)} files")
