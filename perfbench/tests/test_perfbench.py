"""Tests of the benchmark itself: set-up determinism, span arithmetic, tiny end-to-end runs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, corpus_seeds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"images": 60, "iterations": 20, "eval_every": 10}


def _tiny(name):
    return WORKLOADS[name].scaled(**TINY)


def _set_up(tmp_path, seed, tag):
    job = {"seed": seed, **_tiny("ablation").resolved(seed), "corpus": str(tmp_path / tag)}
    assert pipeline.run_setup(job, None)["exit_codes"] == {"synth": 0}
    return {p.name: p.read_bytes() for p in sorted((tmp_path / tag).iterdir())}


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    first = _set_up(tmp_path, 5, "a")
    assert _set_up(tmp_path, 5, "b") == first
    other = _set_up(tmp_path, 6, "c")
    assert other.keys() == first.keys()
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "recalls.json", "object_embeddings.txt"):
        assert other[name] != first[name], name


def test_corpus_seeds_start_at_the_seed_and_never_overlap():
    assert corpus_seeds(7)[0] == 7
    assert len(set(corpus_seeds(7))) == len(corpus_seeds(7))
    assert set(corpus_seeds(7)).isdisjoint(corpus_seeds(8))


def _tree():
    return [
        Span("cli.train", 0.0, 10.0),
        Span("alignment.train", 1.0, 7.0, parent=0),
        Span("alignment.forward_batch", 2.0, 3.0, parent=1),
        Span("alignment.backward", 3.0, 4.5, parent=1),
        Span("alignment.validation", 5.0, 6.0, parent=1),
        Span("alignment.predict", 5.25, 5.75, parent=4, counts={"pairs": 40}),
        Span("ingest.load_annotations", 8.0, 9.0, parent=0, counts={"images": 12}),
    ]


def test_self_time_is_duration_minus_children():
    assert tracing.self_times(_tree()) == pytest.approx([3.0, 2.5, 1.0, 1.5, 0.5, 0.5, 1.0])
    assert tracing.stage_residual(_tree()) == pytest.approx(0.0)


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("cli.eval", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),
        Span("c", 9.0, 12.0, parent=0),
    ]
    # Covered: [1, 6] and [9, 10] -> 6 s, so 4 s of self time.
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)
    # Children that overlap or overhang are not a proper nesting: the check sees it.
    assert tracing.stage_residual(spans) == pytest.approx(3.0)


def test_layer_metrics_of_a_hand_built_tree():
    layers = tracing.layer_metrics(_tree())
    assert layers["cli.train_s"] == pytest.approx(10.0)
    assert layers["alignment.train_self_s"] == pytest.approx(2.5)
    assert layers["alignment.forward_batch_calls"] == 1
    assert layers["alignment.pairs_predicted"] == 40
    assert layers["ingest.images_loaded"] == 12
    assert layers["cli.refine_s"] == 0.0
    assert layers["refinement.vector_cache_hit_ratio"] == 0.0


def test_wrapper_records_nesting_and_counts():
    tracer = tracing.Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap("inner", lambda n: [n] * n, lambda args, result: {"n": len(result)})
    outer = tracer.wrap("outer", lambda n: inner(n))
    assert outer(3) == [3, 3, 3]
    assert [(s.name, s.start, s.end, s.parent, s.counts) for s in tracer.spans] == [
        ("outer", 0, 3, -1, None),
        ("inner", 1, 2, 0, {"n": 3}),
    ]


def test_install_patches_every_target_and_restores_it():
    import sgrel.cli
    import sgrel.metrics

    originals = (sgrel.cli.load_annotations, sgrel.metrics.match_triples)
    restore = tracing.install(tracing.Tracer())
    try:
        assert sgrel.cli.load_annotations is not originals[0]
        assert sgrel.cli.load_annotations.__wrapped__ is originals[0]
    finally:
        restore()
    assert (sgrel.cli.load_annotations, sgrel.metrics.match_triples) == originals


def _tiny_run(monkeypatch, capsys, tmp_path, name, trace):
    monkeypatch.setitem(run.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["correct"] and payload["failed"] == 0, out
    assert payload["attempted"] > 0
    return payload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(monkeypatch, capsys, tmp_path, name):
    metrics = _tiny_run(monkeypatch, capsys, tmp_path, name, 0)["metrics"]
    assert {m: (v["unit"]) for m, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for m in ("setup_s", "model_s", "rescore_s", "pipeline_s", "peak_rss_mb"):
        assert metrics[m]["value"] > 0


def test_tiny_traced_run_reports_every_layer(monkeypatch, capsys, tmp_path):
    metrics = _tiny_run(monkeypatch, capsys, tmp_path, "ablation", 1)["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    stages = sum(metrics[f"cli.{s}_s"]["value"] for s in tracing.STAGES)
    assert stages == pytest.approx(metrics["trace.pipeline_s"]["value"], rel=0.05)
    assert metrics["ingest.load_annotations_calls"]["value"] == 8
    assert 0 < metrics["refinement.vector_cache_hit_ratio"]["value"] < 1


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ablation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
