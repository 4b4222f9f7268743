"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 -m pytest -q perfbench

Checks that every metric in BENCHMARK.json is printed with its unit,
that every per-layer metric has a written prediction, that the traced
run's wrappers are gone afterwards, and that the correctness checks
fail when an expected value is deliberately wrong.
"""

import importlib
import json
import re

import numpy.fft
import pytest

import run

assert run.load_package(), "psyslab sources not found"

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_wave(**kwargs):
    # n=256 is the smallest grid at which the wave meets its acceptance
    # thresholds (n=128 misses the 5% gap and the drift bound)
    return workloads.Wave(n=256, curves=2, drift_seeds=2, spotcheck_seeds=2,
                          **kwargs)


def tiny_simulate(tmp_path):
    return workloads.Simulate(n=64, t_max=0.5, scratch=tmp_path)


def wrapped_attributes():
    names = [(importlib.import_module(m), a) for m, a, _ in tracing.SPANS]
    names += [(importlib.import_module(m), a) for m, a in tracing.RIEMANN]
    names += [(numpy.fft, a) for a in tracing.FFTS]
    return {(mod.__name__, a): getattr(mod, a) for mod, a in names}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, trace, section):
    assert run.run_workload(tiny_wave(), "wave", 0, 0.0, trace) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        pattern = rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$"
        assert any(re.match(pattern, line) for line in lines), name


def test_every_per_layer_metric_has_a_prediction():
    predictions = json.loads((run.BENCH / "predictions.json").read_text())
    predicted = [m for layer in predictions["layers"].values()
                 for m in layer["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(predictions["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_tracer_removes_its_wrappers(tmp_path):
    before = wrapped_attributes()
    workload = tiny_simulate(tmp_path)
    inputs = workload.prepare(0)
    with tracing.Tracer() as tracer:
        during = wrapped_attributes()
        workload.check(workload.run(inputs))
    after = wrapped_attributes()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "solver.run", "verify.simple_wave_state"} <= names
    assert tracer.layer_metrics(1)["solver.ffts_per_step"] > 0


def test_layer_metrics_survive_a_run_that_raised():
    import psyslab.solver

    with tracing.Tracer() as tracer:
        with pytest.raises(Exception):
            psyslab.solver.run(None, None, 0.0, None)
    metrics = tracer.layer_metrics(1)
    assert metrics["solver.runs"] == 1 and metrics["solver.steps"] == 0


def test_wave_check_fails_on_wrong_expected_value():
    workload = tiny_wave()
    report = workload.run(workload.prepare(0))
    assert workload.check(report) == (1, [])
    attempted, problems = tiny_wave(drift_max=0.0).check(report)
    assert attempted == 1 and len(problems) == 1


def test_sweep_check_fails_on_wrong_expected_status():
    workload = workloads.Sweep(n=64, seeds=2, spotcheck_seeds=2)
    outcomes = workload.run(workload.prepare(3))
    assert [s for s, _, _ in outcomes] == [6, 7]
    assert workload.check(outcomes) == (2, [])
    workload.TERMINAL = (workloads.RunStatus.completed,)
    attempted, problems = workload.check(outcomes)
    assert attempted == 2 and len(problems) == 2


def test_simulate_check_fails_on_wrong_expected_hash(tmp_path):
    workload = tiny_simulate(tmp_path)
    inputs = workload.prepare(0)
    assert workload.check(workload.run(inputs)) == (1, [])
    assert workload.bytes_written > 0
    workload.expected_sha256 = "0" * 64
    attempted, problems = workload.check(workload.run(inputs))
    assert attempted == 1 and len(problems) == 1
    assert not list(tmp_path.iterdir())
