#!/usr/bin/env python3
"""mortkit benchmark: one workload, timed end to end or layer by layer.

    python3 bench/run.py --workload projection --seed 1 --seconds 30 --trace 0

Run from the root of a mortkit checkout; the package is imported from
its `src/`.  The workload's world (bench/worlds/<name>.yaml) is generated
with `mortkit.fixture` from the seed, before anything is timed.  One
untimed run then fills the bytecode and file caches and records the
reference outputs, which the independent oracle in checks.py verifies.
Timed repetitions follow, each in a fresh interpreter (child.py), until
`--seconds` are used; every repetition's outputs are checked.

With `--trace 0` the last stdout line reports the end-to-end metrics:
medians over the repetitions of `run_s`, `setup_s` and `peak_rss_mb`,
and `ok_ratio`, the share of checked runs that passed every check
(1 - failed_ratio).  The speed of a shared host drifts by a third over
minutes, so `run_s` and `setup_s` are given at a fixed machine speed:
each repetition's times are multiplied by CAL_REF_S over the time the
child took for a fixed pure-Python loop (child.calibrate).  The
unscaled medians are printed above the result line and kept in
result.json.  With `--trace 1` traced and untraced repetitions
alternate, and it reports the per-layer metrics of tracer.py: medians of
each layer's calls and self time, the work counts, and
`trace.overhead_s`, the traced minus the untraced median `run_s`.
Everything, with the machine and the per-layer shares, also goes to
`.bench_out/<workload>-<seed>-trace<t>/result.json`.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import yaml

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("projection", "ingest", "nowcast")

#: Fewest timed repetitions per run; with tracing on, this many traced
#: and this many untraced.
MIN_REPS = 3

#: Timed repetitions stop short of MIN_REPS rather than run past this,
#: so that a run with slow repetitions still ends within three minutes.
MAX_LOOP_S = 110

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60

#: Median seconds of one child.calibrate timing at the reference speed:
#: the median over 69 ingest repetitions on the 2-vCPU Xeon machine of
#: README.md.  A repetition whose calibration took longer had a slower
#: machine, and its timings are scaled down by the same factor.
CAL_REF_S = 0.0276

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_ratio", "ratio"))

#: Work counts summed over a traced run, with their units.
COUNTS = (
    ("data.rows", "count"), ("ungroup.cells", "count"),
    ("dynamics.iterations", "count"), ("dynamics.ridged", "count"),
    ("project.simulate.path_years", "count"), ("project.kannisto.rows", "count"),
    ("project.expectancy.forces", "count"), ("project.quantiles.samples", "count"),
    ("pipeline.write.bytes", "B"),
)

#: (rate, count, layer): the count per second of the layer's self time.
RATES = (("data.rows_per_s", "data.rows", "data"),
         ("project.expectancy.forces_per_s", "project.expectancy.forces",
          "project.expectancy"))


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    units.update((rate, f"{count.rsplit('.', 1)[1]}/s") for rate, count, _ in RATES)
    units["ungroup.aux_fits"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def load_world(name) -> dict:
    return yaml.safe_load((BENCH / "worlds" / f"{name}.yaml").read_text())


def machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def make_world(world: dict, seed: int, directory: Path) -> Path:
    """Write the world's fixture bundle for `seed`; returns its config."""
    from mortkit.fixture import fixture_params_from_doc, make_synthetic_fixture
    params = replace(fixture_params_from_doc(world["fixture"]),
                     seed=seed, sim_seed=seed + 1)
    make_synthetic_fixture(params, directory)
    return directory / "config.yaml"


def run_child(src: Path, config: Path, out: Path, jobs: int, trace: bool,
              result: Path) -> tuple:
    """(timings or None, problems) of one fresh-interpreter repetition."""
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(src), str(config),
           str(out), str(jobs), "1" if trace else "0", str(result)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"child killed after {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, [f"child exited with {proc.returncode}: {tail[0]}"]
    return json.loads(result.read_text()), []


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(traced: list, untraced_run_s: list) -> dict:
    """Per-layer metric values from the traced repetitions; None marks a
    layer that no repetition entered (unmeasured, not 0 s)."""
    values = {}
    for layer in LAYERS:
        calls = [rep["layers"].get(layer, (0, 0.0))[0] for rep in traced]
        self_s = [rep["layers"][layer][1] for rep in traced if layer in rep["layers"]]
        values[f"{layer}.calls"] = _median(calls)
        values[f"{layer}.self_s"] = _median(self_s)
    for name, _ in COUNTS:
        values[name] = _median([rep["counts"].get(name, 0) for rep in traced])
    for rate, count, layer in RATES:
        busy = values[f"{layer}.self_s"]
        values[rate] = values[count] / busy if busy else None
    death_years = _median([rep["counts"]["death_years"] for rep in traced])
    values["ungroup.aux_fits"] = (
        _median([rep["counts"].get("aux_fits", 0) for rep in traced]) / death_years
        if death_years else None)
    traced_run_s = _median([rep["run_s"] for rep in traced])
    values["trace.overhead_s"] = (traced_run_s - _median(untraced_run_s)
                                  if traced_run_s is not None and untraced_run_s
                                  else None)
    return values


def layer_shares(values: dict) -> dict:
    """Each layer's share of the summed self time of all layers."""
    busy = {layer: values[f"{layer}.self_s"] or 0.0 for layer in LAYERS}
    total = sum(busy.values())
    return {layer: t / total for layer, t in busy.items()} if total else {}


def run_set(world: dict, seed: int, seconds: float, trace: bool, src: Path,
            work: Path, child=run_child) -> dict:
    """Generate the world, run the reference and the timed repetitions,
    check every run; returns the full record.  `child` runs one
    repetition (tests substitute their own)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = make_world(world, seed, work / "world")
    out, result = work / "out", work / "child.json"
    jobs = world["jobs"]

    reps, problems = [], []
    _, found = child(src, config, out, jobs, False, result)
    reference = {}
    if not found:
        reference = checks.record_reference(out)
        found = checks.check_run(out, reference) \
            + checks.check_projection(out, config, seed)
    problems.append(found)

    need = 2 * MIN_REPS if trace else MIN_REPS
    start = time.perf_counter()
    for attempt in itertools.count():
        tracing = trace and attempt % 2 == 1
        began = time.perf_counter()
        timings, found = child(src, config, out, jobs, tracing, result)
        if timings is not None:
            found = checks.check_run(out, reference)
            reps.append({**timings, "traced": tracing,
                         "wall_s": time.perf_counter() - began})
        problems.append(found)
        elapsed = time.perf_counter() - start
        expected = _median([r["wall_s"] for r in reps]) or 0.0
        if elapsed + expected > seconds and (attempt + 1 >= need
                                             or elapsed + expected > MAX_LOOP_S):
            break

    untraced = [r for r in reps if not r["traced"]]
    attempted = len(problems)
    failed = sum(1 for found in problems if found)
    unscaled = {name: _median([r[name] for r in untraced])
                for name in ("run_s", "setup_s")}
    metrics = {
        name: _median([r[name] * CAL_REF_S / r["calibration_s"] for r in untraced])
        for name in ("run_s", "setup_s")
    }
    metrics.update({
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "ok_ratio": 1.0 - failed / attempted,
    })
    record = {
        "workload": world["name"], "seed": seed, "seconds": seconds,
        "trace": int(trace), "jobs": jobs, "why": world["why"],
        "n_paths": world["fixture"]["n_paths"], "machine": machine(),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": [p for found in problems for p in found],
        "repetitions": reps, "unscaled": unscaled, "end_to_end": metrics,
    }
    if trace:
        values = layer_metrics([r for r in reps if r["traced"]],
                               [r["run_s"] for r in untraced])
        record["per_layer"] = values
        record["layer_shares"] = layer_shares(values)
    return record


def result_line(record: dict) -> dict:
    """The object printed as the last stdout line of a run."""
    if record["trace"]:
        units, values = per_layer_units(), record["per_layer"]
    else:
        units, values = dict(END_TO_END), record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def summary_lines(record: dict, line: dict) -> list:
    m = record["machine"]
    untraced = [r["run_s"] for r in record["repetitions"] if not r["traced"]]
    lines = [
        f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']}",
        f"workload: {record['workload']} seed={record['seed']} "
        f"paths={record['n_paths']} jobs={record['jobs']} "
        f"seconds={record['seconds']} trace={record['trace']}",
        f"run_s samples: {len(untraced)} untraced repetitions, "
        f"{' '.join(f'{t:.3f}' for t in untraced)}",
        f"unscaled medians: run_s {record['unscaled']['run_s']} s, "
        f"setup_s {record['unscaled']['setup_s']} s; calibration medians: "
        + " ".join(f"{r['calibration_s']:.4f}" for r in record["repetitions"]),
        f"failed_ratio: {record['failed_ratio']:g} "
        f"({record['failed']} of {record['attempted']} runs failed)",
    ]
    lines += [f"problem: {p}" for p in record["problems"]]
    for name, metric in line["metrics"].items():
        value = "unmeasured" if metric["value"] is None else f"{metric['value']:.6g}"
        lines.append(f"{name:34s} {value:>14s} {metric['unit']}")
    for layer, share in sorted(record.get("layer_shares", {}).items(),
                               key=lambda item: -item[1]):
        lines.append(f"share of layer time  {layer:20s} {share:6.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated, the run exits through SystemExit, so subprocess.run kills
    # the child it is waiting for and waits until it has ended.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "mortkit" / "__init__.py").is_file():
        print(f"error: no mortkit package under {src}; run from the root of "
              "a mortkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    world = {"name": args.workload, **load_world(args.workload)}
    work = root / ".bench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    record = run_set(world, args.seed, args.seconds, bool(args.trace), src, work)
    line = result_line(record)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(summary_lines(record, line)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
