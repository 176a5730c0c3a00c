"""Span recorder that times mortkit's layers from outside the package.

`install` replaces the public callees that `mortkit.pipeline` calls, and
`run_pipeline`, `assemble_dataset` and `run_scenario` themselves, by
timing wrappers.  Each is replaced under the name its caller looks it up
by: a name `mortkit.pipeline` imported from another module is patched in
the pipeline's namespace, a `module.function` lookup is patched on the
module, and a data-container method is patched on its class.  No file of
the package changes.

Spans keep per-thread stacks.  A span opened on a worker thread with an
empty stack belongs to the span open on the main thread at that moment,
so `run_pipeline` is the parent of the scenarios its thread pool runs.
A layer's self time is its span's duration minus the union of the
intervals its child spans cover; self times of one layer add up across
threads.  A call into a layer from inside the same layer opens no span.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

#: Layers in report order.  `fixture` only makes inputs and is never timed.
LAYERS = (
    "config", "data", "ungroup", "lilee", "dynamics",
    "project.simulate", "project.force", "project.kannisto",
    "project.expectancy", "project.quantiles",
    "pipeline.assemble", "pipeline.scenario", "pipeline.run",
)


class Span:
    __slots__ = ("layer", "parent", "start", "end")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Spans and work counts of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.read_paths = []
        self.death_years = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, layer, fn, count=None):
        """`fn` timed as `layer`; `count(tracer, args, kwargs, result)` runs
        after the span closes, so counting costs no layer time."""
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = Span(layer, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} for every layer with a span."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        calls = Counter()
        self_s = defaultdict(float)
        for span in self.spans:
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children[id(span)]
            )
            calls[span.layer] += 1
            self_s[span.layer] += (span.end - span.start) - covered
        return {layer: (calls[layer], self_s[layer]) for layer in calls}


def _union_length(intervals) -> float:
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


# -- work counts, taken from arguments and return values ---------------------

def _count_read(tracer, args, kwargs, result):
    with tracer._lock:
        tracer.read_paths.append(str(args[0]))


def _count_ungrouped(tracer, args, kwargs, result):
    tracer.add("ungroup.cells", result.values.size)


def _count_death_year(tracer, args, kwargs, result):
    _count_ungrouped(tracer, args, kwargs, result)
    aux, _gender, year = args[:3]
    with tracer._lock:
        tracer.death_years.add((aux.country, int(year)))


def _count_aux_fit(tracer, args, kwargs, result):
    tracer.add("aux_fits")


def _count_dynamics_fit(tracer, args, kwargs, result):
    tracer.add("dynamics.iterations", int(result.iterations))
    tracer.add("dynamics.ridged", int(bool(result.ridged)))


def _count_paths(tracer, args, kwargs, result):
    tracer.add("project.simulate.path_years", result.K["M"].size)


def _count_kannisto_rows(tracer, args, kwargs, result):
    tracer.add("project.kannisto.rows", result[..., 0].size)


def _count_forces(tracer, args, kwargs, result):
    tracer.add("project.expectancy.forces", args[0].size)


def _count_samples(tracer, args, kwargs, result):
    tracer.add("project.quantiles.samples", args[0].size)


def install(tracer: Tracer):
    """Wrap every layer boundary of the imported mortkit package."""
    from mortkit import config, data, dynamics, lilee, pipeline, project

    def patch(owner, name, layer, count=None):
        setattr(owner, name, tracer.wrap(layer, getattr(owner, name), count))

    patch(config, "load_run_config", "config")
    patch(config.RunConfig, "with_overrides", "config")
    patch(pipeline, "aux_start_for", "config")

    patch(pipeline, "load_individual_age_csv", "data", _count_read)
    patch(pipeline, "load_weekly_csv", "data", _count_read)
    for name in ("aggregate_uk", "annualize_weekly_deaths",
                 "annualize_weekly_exposure", "check_eurostat_stmf_consistency",
                 "MortalitySurface", "MultiPopulationDataset",
                 "SurfaceFragment", "YearRange"):
        patch(pipeline, name, "data")
    for name in ("restrict", "update", "deaths_tail"):
        patch(data.SurfaceFragment, name, "data")
    patch(data.MortalitySurface, "virtual_cell_count", "data")
    patch(data.MultiPopulationDataset, "aggregate", "data")
    patch(data.MultiPopulationDataset, "surface", "data")

    patch(pipeline, "fit_auxiliary_projection_model", "ungroup", _count_aux_fit)
    patch(pipeline, "ungroup_exposures", "ungroup", _count_ungrouped)
    patch(pipeline, "ungroup_deaths", "ungroup", _count_death_year)

    for name in ("calibrate", "fit_adjusted_lee_miller", "export_params_csv"):
        patch(lilee, name, "lilee")

    patch(dynamics, "fit_weighted_mle", "dynamics", _count_dynamics_fit)
    for name in ("PeriodEffectSeries", "build_design", "export_fit_csv"):
        patch(dynamics, name, "dynamics")

    patch(project, "ScenarioSpec", "project.simulate")
    patch(project, "simulate_period_effects", "project.simulate", _count_paths)
    patch(project, "central_period_effects", "project.simulate", _count_paths)
    patch(project, "force_paths", "project.force")
    patch(project, "kannisto_close", "project.kannisto", _count_kannisto_rows)
    patch(project, "period_life_expectancy", "project.expectancy", _count_forces)
    patch(project, "quantile_summary", "project.quantiles", _count_samples)

    patch(pipeline, "assemble_dataset", "pipeline.assemble")
    patch(pipeline, "run_scenario", "pipeline.scenario")
    patch(pipeline, "run_pipeline", "pipeline.run")
