"""Command-line entry points.

`mortkit run` executes a full config: exit 0 when every scenario
succeeds, 2 when some fail (partial results are kept), 1 on config or
data errors.  `mortkit fixture` writes a synthetic bundle; `mortkit
diff` prints parameter deltas between two run reports, pairing
scenarios by label or by `--pair A=B`.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_run_config
from .errors import MortkitError, ValidationError
from .fixture import FixtureParams, load_fixture_params, make_synthetic_fixture
from .pipeline import diff_reports, run_pipeline


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortkit",
        description="Multi-population mortality projection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute every scenario in a config")
    run.add_argument("--config", required=True, help="YAML run configuration")
    run.add_argument("--jobs", type=int, default=None,
                     help="scenario worker threads (default: one per scenario)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the simulation seed")
    run.add_argument("--out", default=None, help="override the output directory")

    fixture = sub.add_parser("fixture", help="generate a synthetic data bundle")
    fixture.add_argument("--params", default=None,
                         help="YAML generator parameters (defaults used if omitted)")
    fixture.add_argument("--out", required=True, help="bundle directory")

    diff = sub.add_parser("diff", help="compare two run reports")
    diff.add_argument("report_a", help="first report.json")
    diff.add_argument("report_b", help="second report.json")
    diff.add_argument("--pair", action="append", type=_pair, default=[],
                      metavar="A=B",
                      help="compare scenario A of the first report with scenario "
                           "B of the second (repeatable); other labels pair by name")
    return parser


def _pair(text):
    label_a, sep, label_b = text.partition("=")
    if not (sep and label_a and label_b):
        raise argparse.ArgumentTypeError(f"expected A=B, got {text!r}")
    return label_a, label_b


def _cmd_run(args) -> int:
    config = load_run_config(args.config)
    config = config.with_overrides(seed=args.seed, output_dir=args.out)
    report = run_pipeline(config, jobs=args.jobs)
    for scenario in report.scenarios:
        if scenario.status == "ok":
            print(f"{scenario.label}: ok ({scenario.elapsed:.2f}s)")
        else:
            print(f"{scenario.label}: FAILED ({scenario.error})")
    print(f"report: {config.output_dir / 'report.json'}")
    return 0 if report.all_ok else 2


def _cmd_fixture(args) -> int:
    params = load_fixture_params(args.params) if args.params else FixtureParams()
    manifest = make_synthetic_fixture(params, args.out)
    print(json.dumps(manifest, indent=2))
    return 0


def _read_report(path) -> dict:
    """The run report at `path`, refused naming the file unless it is a
    JSON object whose scenarios hold numbers wherever `diff` subtracts."""
    try:
        report = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"{path}: not JSON: {exc}") from exc
    scenarios = report.get("scenarios", []) if isinstance(report, dict) else None
    if not (isinstance(scenarios, list) and all(isinstance(s, dict) for s in scenarios)):
        raise ValidationError(f"{path}: not a run report")
    for scenario in scenarios:
        params = scenario.get("ts_params") or {}
        if not (isinstance(params, dict) and all(
                isinstance(value, (int, float))
                for value in (scenario.get("loglik", 0.0), *params.values()))):
            raise ValidationError(f"{path}: scenario {scenario.get('label')!r} "
                                  f"has a non-numeric loglik or ts_params value")
    return report


def _cmd_diff(args) -> int:
    a, b = _read_report(args.report_a), _read_report(args.report_b)
    print(json.dumps(diff_reports(a, b, dict(args.pair)), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "fixture": _cmd_fixture, "diff": _cmd_diff}
    try:
        return handlers[args.command](args)
    except MortkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
