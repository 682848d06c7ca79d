"""Self-tests of the benchmark.

    python -m pytest -q bench/test_bench.py

They check that a smoke-size run of each workload emits every metric in
BENCHMARK.json with its unit, that the correctness gate trips on a
perturbed amplitude, and the self-time arithmetic on a synthetic span set.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "design_grid", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def design_record():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    w = workloads.DesignGrid(ROOT, seed=3, smoke=True)
    w.setup()
    args = w.prepare(0)
    rec = w.record(0, args, w.run(args))
    rec["op"] = 0
    assert rec["checked"]
    return w, rec


def test_correctness_gate_passes_unperturbed_output(design_record):
    w, rec = design_record
    da, errors = w.check(rec)
    assert errors == []
    assert da <= 1e-6


def test_correctness_gate_trips_on_perturbed_amplitude(design_record):
    w, rec = design_record
    bad = json.loads(json.dumps(rec))
    bad["checked"][0]["amplitudes"][2][0] += 2e-6
    da, errors = w.check(bad)
    assert da > 1e-6
    assert any("max |da|" in e for e in errors)


def test_correctness_gate_trips_on_broken_invariants(design_record):
    w, rec = design_record
    bad = json.loads(json.dumps(rec))
    bad["checked"][0]["fractions"][1] += 1e-6
    bad["checked"][0]["phase"] = 0.1
    _, errors = w.check(bad)
    assert any("sum to" in e for e in errors)
    assert any("output phase" in e for e in errors)


# Two operations. Op 1: grid_search [0, 10] holds evaluate_candidate [1, 4]
# and [5, 9]; the second holds sweep_wavelength [6, 8], which holds a
# propagate [6.5, 7]. Op 2: a lone propagate [11, 12]. A repeat span
# (op "repeat1") must drop out of the per-operation figures.
SPANS = [
    ("design.grid_search", 0.0, 10.0, -1, "1"),
    ("design.evaluate_candidate", 1.0, 4.0, 0, "1"),
    ("design.evaluate_candidate", 5.0, 9.0, 0, "1"),
    ("spectral.sweep_wavelength", 6.0, 8.0, 2, "1"),
    ("propagator.propagate", 6.5, 7.0, 3, "1"),
    ("propagator.propagate", 11.0, 12.0, -1, "2"),
    ("design.grid_search", 20.0, 30.0, -1, "repeat1"),
]


def test_self_time_of_nested_spans():
    assert tracer.self_times(SPANS) == [3.0, 3.0, 2.0, 1.5, 0.5, 1.0, 10.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [("a", 0.0, 10.0, -1, "1"), ("b", 2.0, 6.0, 0, "1"),
             ("c", 4.0, 12.0, 0, "1")]
    assert tracer.self_times(spans)[0] == 2.0


def test_summary_is_per_operation_and_skips_other_ops():
    kept = tracer.select(SPANS, lambda op: not op.startswith("repeat"))
    assert [s[3] for s in kept] == [-1, 0, 0, 2, 3, -1]
    m = tracer.summarize(kept, {}, n_ops=2)
    assert m["design.grid_search.calls"] == 0.5
    assert m["design.grid_search.s"] == 5.0
    assert m["design.grid_search.self_s"] == 1.5
    assert m["design.evaluate_candidate.calls"] == 1.0
    assert m["design.evaluate_candidate.s"] == 3.5
    assert m["design.evaluate_candidate.self_s"] == 2.5
    assert m["spectral.sweep_wavelength.self_s"] == 0.75
    assert m["propagator.propagate.s"] == 0.75


def test_merge_offsets_parent_indices():
    one = {"spans": SPANS[:2], "counts": {"1": {"propagator.n_steps": 3}}}
    two = {"spans": SPANS[:2], "counts": {"2": {"propagator.n_steps": 4}}}
    spans, counts = tracer.merge([one, two])
    assert [s[3] for s in spans] == [-1, 0, -1, 2]
    assert set(counts) == {"1", "2"}
