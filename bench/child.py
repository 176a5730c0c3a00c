"""One benchmark repetition of mortkit in a fresh interpreter.

    python3 bench/child.py SRC CONFIG OUT_DIR JOBS TRACE RESULT_JSON

Imports mortkit from SRC, loads CONFIG with its output directory set to
OUT_DIR, runs the pipeline with JOBS scenario threads and writes the
timings to RESULT_JSON.  `setup_s` is `import mortkit` plus loading the
config, as a command-line user pays it on every run; `run_s` is
`run_pipeline` until `report.json` is on disk.  `calibration_s` is the
median time of a fixed pure-Python loop, timed in this process before
the import and after the run; run.py rescales the timings by it to a
fixed machine speed.  With TRACE 1 the layers are wrapped first (see
tracer.py), and the per-layer self times and work counts are added to
the result.
"""
import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: The calibration loop is timed CAL_SAMPLES times, each of CAL_STEPS steps.
CAL_STEPS = 250_000
CAL_SAMPLES = 7


def calibrate() -> list:
    """Seconds of each of CAL_SAMPLES timings of a fixed loop, as the
    machine runs this process now."""
    samples = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_STEPS):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return samples


def _data_rows(paths) -> int:
    """Data lines of every file a data-layer load parsed, once per load."""
    lines = {}
    for path in set(paths):
        with open(path) as handle:
            lines[path] = sum(1 for line in handle if line.strip()) - 1
    return sum(lines[path] for path in paths)


def main(argv) -> int:
    src, config_path, out_dir, jobs, trace, result_path = argv
    sys.path.insert(0, src)
    calibration = calibrate()
    start = time.perf_counter()
    import mortkit
    if not Path(mortkit.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"mortkit imported from {mortkit.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from mortkit import config, pipeline
    cfg = config.load_run_config(config_path).with_overrides(output_dir=out_dir)
    loaded = time.perf_counter()
    pipeline.run_pipeline(cfg, jobs=int(jobs))
    done = time.perf_counter()
    calibration += calibrate()

    result = {
        "setup_s": loaded - start,
        "run_s": done - loaded,
        "calibration_s": statistics.median(calibration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["counts"] = dict(tracer.counts)
        result["counts"]["data.rows"] = _data_rows(tracer.read_paths)
        result["counts"]["death_years"] = len(tracer.death_years)
        result["counts"]["pipeline.write.bytes"] = sum(
            p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
