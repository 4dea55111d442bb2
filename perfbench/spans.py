"""Spans, call counts and a per-step clock, installed from outside the package.

``from .x import y`` binds ``y`` in the importing module when it loads, so a
wrapper replaces the name where the caller looks it up: the UKF predict the
loop calls is ``thermobench.harness.predict``, not ``thermobench.ukf.predict``.
Wrappers only pass calls through, so a traced run writes the same files as an
untraced one; the benchmark checks that through the run manifests.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from thermobench import analysis, excitation, harness, monitor, mpc, network, simulator, solver, ukf

# (span name, owner, attribute, call label): the bindings each layer is entered
# through. The label splits one span's calls by call site where a check needs it.
SPAN_SITES = (
    ("harness.run_scenario", harness, "run_scenario", None),
    ("harness.write_report", harness, "write_report", None),
    ("solver.solve", mpc, "solve", "solver.solve.socp"),
    ("solver.solve", excitation, "solve", "solver.solve.lp"),
    ("solver.solve", solver, "solve", "solver.solve.phase1"),
    ("solver.phase1", excitation, "find_strictly_feasible", None),
    ("mpc.mpc_step", harness, "mpc_step", None),
    ("mpc.solve_mpc", mpc, "solve_mpc", None),
    ("mpc.prediction_matrices", mpc, "prediction_matrices", None),
    ("mpc.prediction_matrices", excitation, "prediction_matrices", None),
    ("ukf.predict", harness, "predict", None),
    ("ukf.update", harness, "update", None),
    ("simulator.plant_step", simulator.PlantModel, "step", None),
    ("simulator.measure", harness, "measure", None),
    ("simulator.weather_forecast", harness, "weather_forecast", None),
    ("simulator.weather_forecast", mpc, "weather_forecast", None),
    ("network.discretize", harness, "discretize", None),
    ("network.discretize", simulator, "discretize", None),
    ("network.discretize", excitation, "discretize", None),
    ("excitation.select_optimal", harness, "select_optimal", None),
    ("excitation.select_heuristic", harness, "select_heuristic", None),
    ("excitation.generate_eigen", harness, "generate_eigen", None),
    ("monitor.observe", monitor.Monitor, "observe", None),
    ("thermostat.control", harness, "thermostat_control", None),
    ("analysis.nullspace_trace", harness, "nullspace_trace", None),
    ("analysis.compute_metrics", harness, "compute_metrics", None),
)

# (counter name, owner, attribute): calls counted without a clock read
COUNT_SITES = (
    ("ukf.expm", ukf, "expm"),
    ("network.expm", network, "expm"),
    ("analysis.expm", analysis, "expm"),
    ("solver.cho_factor", solver, "cho_factor"),
    ("simulator.weather_noise", simulator.WeatherModel, "noise"),
    ("monitor.restore", monitor, "restore"),
)

# spans the workload checks count on every run, traced or not
CHECKED_SPANS = ("solver.solve", "solver.phase1", "excitation.select_optimal")


@contextmanager
def patched(sites):
    """Replace ``owner.attr`` by ``wrap(original)`` for each site, restoring on exit."""
    saved = []
    try:
        for owner, attr, wrap in sites:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Probe:
    """Call counts at every installed site, and spans when ``timed``.

    A span is ``[name, parent id, start, end, self seconds]``; its id is its
    index in ``spans``. Self time is the duration minus the child spans'.
    ``passes`` counts the passes recorded, which the layer figures divide by.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.passes = 0
        self.calls: Counter = Counter()
        self.spans: list = []
        self.solves: list = []      # (status, iterations) per solver.solve
        self._open: list = []       # [span id, child seconds] per open span

    def sites(self):
        spans = SPAN_SITES if self.timed else [s for s in SPAN_SITES if s[0] in CHECKED_SPANS]
        wrap = self._span if self.timed else self._count
        out = [(owner, attr, wrap(name, label)) for name, owner, attr, label in spans]
        if self.timed:
            out += [(owner, attr, self._count(name, None)) for name, owner, attr in COUNT_SITES]
        return out

    def _count(self, name, label):
        calls = self.calls

        def wrap(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                if label:
                    calls[label] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _span(self, name, label):
        calls, spans, opened = self.calls, self.spans, self._open
        is_solve = name == "solver.solve"

        def wrap(fn):
            def spanned(*args, **kwargs):
                calls[name] += 1
                if label:
                    calls[label] += 1
                span_id = len(spans)
                spans.append(None)
                parent = opened[-1][0] if opened else -1
                opened.append([span_id, 0.0])
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    _, child = opened.pop()
                    if opened:
                        opened[-1][1] += end - start
                    spans[span_id] = [name, parent, start, end, end - start - child]
                if is_solve:
                    self.solves.append((result.status, result.iterations))
                return result
            return spanned
        return wrap

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for i, (name, parent, start, end, own) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{own!r}\n")

    def layer_metrics(self, reports) -> dict:
        """Per-layer figures for one pass: counts and self times are totals
        over the recorded passes divided by their number, percentiles pool
        them. ``reports`` are the reports of one traced pass."""
        n = self.passes
        durations = defaultdict(list)
        own = defaultdict(float)
        for name, _, start, end, self_s in self.spans:
            durations[name].append(end - start)
            own[name] += self_s
        out = {}

        def stats(name, *fields):
            d = durations[name]
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = len(d) / n
                elif f == "self_s":
                    out[f"{name}.self_s"] = own[name] / n
                else:   # p50_ms or p90_ms
                    out[f"{name}.{f}"] = float(np.percentile(d, float(f[1:3]))) * 1e3 if d else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        n_solves = len(self.solves)
        stats("solver.solve", "calls", "self_s", "p50_ms", "p90_ms")
        out["solver.iterations_per_solve"] = ratio(sum(it for _, it in self.solves), n_solves)
        out["solver.newton_factorizations"] = self.calls["solver.cho_factor"] / n
        out["solver.optimal_frac"] = ratio(sum(s == "optimal" for s, _ in self.solves), n_solves)
        out["solver.stalled"] = sum(s == "stalled" for s, _ in self.solves) / n
        stats("solver.phase1", "calls", "self_s")

        stats("mpc.mpc_step", "calls", "self_s", "p50_ms", "p90_ms")
        stats("mpc.solve_mpc", "self_s")
        stats("mpc.prediction_matrices", "calls", "self_s", "p50_ms")
        out["mpc.fallbacks"] = sum(1 for r in reports for e in r.events if e.kind == "mpc-failure")

        stats("ukf.predict", "calls", "self_s", "p50_ms")
        stats("ukf.update", "calls", "self_s", "p50_ms")
        out["ukf.expm_calls"] = self.calls["ukf.expm"] / n

        stats("simulator.plant_step", "calls", "self_s", "p50_ms")
        out["simulator.weather_noise_calls"] = self.calls["simulator.weather_noise"] / n
        stats("simulator.measure", "self_s")
        stats("simulator.weather_forecast", "self_s")

        stats("network.discretize", "calls", "self_s")
        out["network.expm_calls"] = self.calls["network.expm"] / n

        stats("excitation.select_optimal", "calls", "self_s", "p50_ms")
        stats("excitation.select_heuristic", "calls", "self_s")
        stats("excitation.generate_eigen", "calls", "self_s")
        experiments = sum(1 for r in reports for e in r.events if e.kind == "experiment")
        out["excitation.experiments"] = experiments
        out["excitation.hit_frac"] = ratio(
            experiments,
            (len(durations["excitation.select_optimal"]) + len(durations["excitation.select_heuristic"])) / n,
        )

        stats("monitor.observe", "calls", "self_s")
        out["monitor.restores"] = self.calls["monitor.restore"] / n
        stats("thermostat.control", "calls", "self_s")
        stats("analysis.nullspace_trace", "self_s")
        stats("analysis.compute_metrics", "self_s")
        out["analysis.expm_calls"] = self.calls["analysis.expm"] / n

        out["harness.glue_s"] = own["harness.run_scenario"] / n
        stats("harness.write_report", "self_s")
        return out

    def self_total(self) -> float:
        return sum(s[4] for s in self.spans)


class StepClock:
    """One clock read per step boundary.

    ``run_scenario`` calls its ``comfort_bounds`` binding exactly once at the
    top of every step and ``compute_metrics`` once after the last, so marks at
    those two calls bound every step and add nothing else to the loop.
    """

    def __init__(self):
        self.step_s: list[float] = []
        self._marks: list[float] = []

    def take(self) -> list[float]:
        """The step times recorded since the last call."""
        taken, self.step_s = self.step_s, []
        return taken

    def sites(self):
        return [(harness, "comfort_bounds", self._mark), (harness, "compute_metrics", self._close)]

    def _mark(self, fn):
        marks = self._marks

        def marked(*args, **kwargs):
            marks.append(perf_counter())
            return fn(*args, **kwargs)
        return marked

    def _close(self, fn):
        marks = self._marks

        def closed(*args, **kwargs):
            marks.append(perf_counter())
            self.step_s += np.diff(marks).tolist()
            marks.clear()
            return fn(*args, **kwargs)
        return closed
