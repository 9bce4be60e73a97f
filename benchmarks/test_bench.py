"""Tests of the benchmark itself: its output checks, the repeatability of its
counted layer metrics, and the names it prints against BENCHMARK.json.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import youngconv  # noqa: E402
import youngconv.verify  # noqa: E402,F401

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTED = (
    "convolution.calls", "convolution.fft_calls", "estimator.ls_tries",
    "chain.functionals_calls",
)


def _traced_layers(workload):
    build, check = WORKLOADS[workload]
    tracer = Tracer()
    tracer.install()
    try:
        checks = Checks()
        check(build(youngconv, 42, short=True)(), checks, None)
    finally:
        tracer.uninstall()
    assert checks.failed == 0
    return tracer.layer_metrics()


def test_corrupted_reference_bound_gives_nonzero_error_rate():
    build, check = WORKLOADS["line_ladder"]
    outputs = build(youngconv, 42, short=True)()
    reference = {rep.group: float(rep.lower_bound) for rep in outputs[0]}
    good = Checks()
    check(outputs, good, reference)
    assert good.attempted > 0 and good.failed == 0
    corrupted = {group: value * (1.0 + 1e-9) for group, value in reference.items()}
    bad = Checks()
    check(outputs, bad, corrupted)
    assert bad.failed / bad.attempted > 0


def test_counted_metrics_repeat_across_traced_runs():
    runs = {w: (_traced_layers(w), _traced_layers(w)) for w in WORKLOADS}
    for first, second in runs.values():
        assert {m: first[m] for m in COUNTED} == {m: second[m] for m in COUNTED}
    affine, line, battery = (runs[w][0] for w in WORKLOADS)
    assert affine["convolution.affine_grid.fft_calls"] > 0
    assert line["convolution.calls"] > 0 and line["estimator.ls_tries"] > 0
    assert line["convolution.fft_calls"] == 0
    assert battery["chain.functionals_calls"] > 0
    assert battery["estimator.iterations"] == 0


def test_tracer_restores_every_binding():
    conv = sys.modules["youngconv.convolution"]
    est = sys.modules["youngconv.estimator"]
    before = (conv._convolve, est._convolve, conv.LinePWL.lp_norm)
    tracer = Tracer()
    tracer.install()
    assert est._convolve is conv._convolve is not before[0]
    tracer.uninstall()
    assert (conv._convolve, est._convolve, conv.LinePWL.lp_norm) == before


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["youngconv.convolution"], "fftconvolve")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["convolution.fftconvolve"]


def test_first_job_of_a_run_uses_the_run_seed():
    # the seed-42 reference check applies to job 0 of a --seed 42 run
    seeds = [run.job_seed(42, j) for j in range(4)]
    assert seeds[0] == 42 and len(set(seeds)) == 4
    assert seeds == [run.job_seed(42, j) for j in range(4)]


def test_printed_names_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.per_layer_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    traced = set(_traced_layers("line_ladder"))
    reported_by_run = {"estimator.bound_gap", *run.IMPORTS, "trace.overhead_s"}
    assert traced | reported_by_run == set(run.per_layer_units())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "line_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
