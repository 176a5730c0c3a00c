"""Self-test of the benchmark harness on tiny worlds.

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that a corrupted output byte or a failed scenario makes a run count as
failed, that timings are scaled by the calibration loop's speed, that a
layer with no calls is reported as unmeasured, and that
the projection oracle accepts another random stream but rejects a wrong
life table.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

from mortkit import config as mk_config, pipeline, project  # noqa: E402
from mortkit.errors import ConvergenceError  # noqa: E402

TINY = {
    "name": "tiny",
    "why": "self-test",
    "jobs": 1,
    "fixture": {
        "countries": ["AAA", "BBB"],
        "years": {"first": 2000, "last": 2012},
        "n_paths": 100,
        "report_ages": [65],
        "cohort_ages": [65],
        "method": {"kind": "WEIGHTED_LIKELIHOOD", "grid": [1.0, 0.0]},
        "weekly": [{"country": "AAA", "year": 2012, "shapes": ["STMF", "EUROW"]}],
    },
}

NO_WEEKLY = {**TINY, "fixture": {**TINY["fixture"], "weekly": []}}


def inprocess_child(fault=None):
    """A stand-in for run.run_child that runs the pipeline in this process;
    `fault(n)` may return a context manager applied to the n-th call."""
    calls = []

    def child(src, config, out, jobs, trace, result):
        shutil.rmtree(out, ignore_errors=True)
        calls.append(trace)
        cfg = mk_config.load_run_config(config).with_overrides(output_dir=out)
        start = time.perf_counter()
        with (fault(len(calls)) if fault else nullcontext()):
            pipeline.run_pipeline(cfg, jobs=jobs)
        return {"run_s": time.perf_counter() - start, "setup_s": 0.5,
                "calibration_s": run.CAL_REF_S, "peak_rss_mb": 100.0}, []
    return child


@pytest.fixture
def tiny_run(tmp_path):
    """One tiny world run in process, with its recorded reference."""
    cfg_path = run.make_world(TINY, 5, tmp_path / "world")
    out = tmp_path / "out"
    cfg = mk_config.load_run_config(cfg_path).with_overrides(output_dir=out)
    pipeline.run_pipeline(cfg, jobs=1)
    return cfg_path, out, checks.record_reference(out)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["name"] in run.WORKLOADS
        world = run.load_world(workload["name"])
        assert world["why"] == workload["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(tmp_path, trace):
    record = run.run_set(TINY, 3, 0.1, bool(trace), SRC, tmp_path / "work")
    line = run.result_line(record)
    units = run.per_layer_units() if trace else dict(run.END_TO_END)
    assert line["correct"], record["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1 + run.MIN_REPS
    assert {name: m["unit"] for name, m in line["metrics"].items()} == units
    measured = {name: m["value"] for name, m in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in measured.values()), measured
    if not trace:
        assert measured["ok_ratio"] == 1.0
        assert measured["run_s"] > 0 and measured["setup_s"] > 0
    else:
        assert measured["pipeline.run.calls"] == 1
        assert measured["project.expectancy.self_s"] > 0
    summary = "\n".join(run.summary_lines(record, line))
    assert "nproc=" in summary and "numpy=" in summary


def test_corrupted_byte_fails_the_run(tiny_run):
    _, out, reference = tiny_run
    assert checks.check_run(out, reference) == []
    fan = next(out.glob("fanchart_*.csv"))
    data = bytearray(fan.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    fan.write_bytes(bytes(data))
    problems = checks.check_run(out, reference)
    assert any("does not match its reported hash" in p for p in problems)

    report = json.loads((out / "report.json").read_text())
    for scenario in report["scenarios"]:
        if scenario["files"]["fanchart"] == fan.name:
            scenario["hashes"][fan.name] = checks.sha256(fan)
    (out / "report.json").write_text(json.dumps(report))
    problems = checks.check_run(out, reference)
    assert any("differs from the reference run" in p for p in problems)


def _failing_scenario(n):
    """On the third repetition the w0 scenario's dynamics fit fails."""
    if n != 3:
        return nullcontext()
    real = pipeline.dynamics.fit_weighted_mle

    def fit(rows, weights=None, **kw):
        if weights is not None and weights[-1] == 0.0:
            raise ConvergenceError("injected failure")
        return real(rows, weights, **kw)
    return mock.patch.object(pipeline.dynamics, "fit_weighted_mle", fit)


def _corrupting_child():
    child = inprocess_child()

    def corrupt(src, config, out, jobs, trace, result):
        timings, problems = child(src, config, out, jobs, trace, result)
        corrupt.calls += 1
        if corrupt.calls == 2:
            fan = next(Path(out).glob("fanchart_*.csv"))
            data = bytearray(fan.read_bytes())
            data[-2] ^= 1
            fan.write_bytes(bytes(data))
        return timings, problems
    corrupt.calls = 0
    return corrupt


@pytest.mark.parametrize("make_child", [
    lambda: inprocess_child(_failing_scenario), _corrupting_child,
], ids=["failed-scenario", "corrupted-byte"])
def test_one_bad_run_counts_in_failed_ratio(tmp_path, make_child):
    record = run.run_set(TINY, 4, 0.1, False, SRC, tmp_path / "work",
                         child=make_child())
    line = run.result_line(record)
    assert record["failed"] == 1, record["problems"]
    assert record["failed_ratio"] == 1 / record["attempted"]
    assert not line["correct"]
    assert line["metrics"]["ok_ratio"]["value"] == 1 - 1 / record["attempted"]


def test_timings_are_scaled_to_the_reference_speed(tmp_path):
    """A repetition whose calibration loop took twice the reference time
    ran on a machine half as fast, so its times count half."""
    child = inprocess_child()

    def slow_machine(*args):
        timings, problems = child(*args)
        return {**timings, "calibration_s": 2 * run.CAL_REF_S}, problems
    record = run.run_set(TINY, 3, 0.1, False, SRC, tmp_path / "work",
                         child=slow_machine)
    assert record["unscaled"]["setup_s"] == 0.5
    assert record["end_to_end"]["setup_s"] == pytest.approx(0.25)
    assert record["end_to_end"]["run_s"] == pytest.approx(record["unscaled"]["run_s"] / 2)


def test_layer_without_calls_is_unmeasured(tmp_path):
    record = run.run_set(NO_WEEKLY, 3, 0.1, True, SRC, tmp_path / "work")
    line = run.result_line(record)
    metrics = line["metrics"]
    assert line["correct"], record["problems"]
    assert metrics["ungroup.calls"]["value"] == 0
    assert metrics["ungroup.self_s"]["value"] is None
    assert metrics["ungroup.aux_fits"]["value"] is None
    assert metrics["data.self_s"]["value"] > 0
    summary = run.summary_lines(record, line)
    assert any(l.startswith("ungroup.self_s") and "unmeasured" in l for l in summary)


def test_layer_metrics_never_report_zero_seconds_for_absent_layers():
    traced = [{"layers": {"pipeline.run": (1, 0.2)}, "run_s": 0.3,
               "counts": {"death_years": 0}}]
    values = run.layer_metrics(traced, [0.25])
    assert values["pipeline.run.self_s"] == 0.2
    for layer in run.LAYERS:
        if layer != "pipeline.run":
            assert values[f"{layer}.calls"] == 0
            assert values[f"{layer}.self_s"] is None
    assert values["project.expectancy.forces_per_s"] is None
    assert values["trace.overhead_s"] == pytest.approx(0.05)


def test_oracle_accepts_another_random_stream(tmp_path):
    cfg_path = run.make_world(TINY, 6, tmp_path / "world")
    out = tmp_path / "out"
    real = project.simulate_period_effects

    def other_stream(fit, spec):
        rng = np.random.default_rng([spec.seed, 99])
        L = np.linalg.cholesky(fit.C)
        eps = rng.standard_normal((spec.n_paths, spec.horizon - spec.jump_off_year, 4))
        return project._recur(spec, fit, eps @ L.T)

    cfg = mk_config.load_run_config(cfg_path).with_overrides(output_dir=out)
    with mock.patch.object(project, "simulate_period_effects", other_stream):
        pipeline.run_pipeline(cfg, jobs=1)
    assert project.simulate_period_effects is real
    assert checks.check_projection(out, cfg_path, 6) == []


def test_oracle_rejects_a_wrong_life_table(tmp_path):
    cfg_path = run.make_world(TINY, 6, tmp_path / "world")
    out = tmp_path / "out"

    def curtate(mu, age):
        # Whole years survived only: drops the fraction lived in the year
        # of death, about half a year too short.
        survival = np.exp(-np.cumsum(mu, axis=-1))
        return survival.sum(axis=-1)

    cfg = mk_config.load_run_config(cfg_path).with_overrides(output_dir=out)
    with mock.patch.object(project, "period_life_expectancy", curtate):
        pipeline.run_pipeline(cfg, jobs=1)
    problems = checks.check_projection(out, cfg_path, 6)
    assert any("quantile rows outside the Monte-Carlo band" in p for p in problems)
    assert any("best rows differ" in p for p in problems)


def test_oracle_rejects_quantiles_of_a_shifted_distribution(tiny_run):
    cfg_path, out, _ = tiny_run
    assert checks.check_projection(out, cfg_path, 5) == []
    fan = next(out.glob("fanchart_*.csv"))
    lines = fan.read_text().splitlines()
    shifted = []
    for line in lines:
        fields = line.split(",")
        if fields[0] == "e_per" and fields[4] == "0.5" and fields[3] == "2013":
            fields[5] = repr(float(fields[5]) + 0.5)
        shifted.append(",".join(fields))
    fan.write_text("\n".join(shifted) + "\n")
    problems = checks.check_projection(out, cfg_path, 5)
    assert any("quantile rows outside" in p for p in problems), problems
