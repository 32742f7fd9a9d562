"""Span tracing for the benchmark's traced run, from outside the package.

The package imports names directly (`from .exact import ...`), so a
function is wrapped at the module attribute where its callers look it up,
and methods are wrapped on their classes. Each span records its name,
start, end, parent span and op id, plus a few counts taken from the
arguments or result. Spans stay in memory and are written out at the end.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import time

import numpy as np

# (owner, attribute, span name); owner is a monoculture submodule, or
# "module.Class" for methods
BOUNDARIES = (
    ("core.CandidateDistribution", "sample_matrix", "core.sample_matrix"),
    ("models.NoiseSpec", "sample", "models.noise_sample"),
    ("models.NoiseSpec", "pdf", "models.noise_density"),
    ("models.NoiseSpec", "cdf", "models.noise_density"),
    ("models", "perm_space", "permspace.perm_space"),
    ("exact", "perm_space", "permspace.perm_space"),
    ("permspace.PermSpace", "top_of_available", "permspace.top_of_available"),
    ("permspace.PermSpace", "first_choice", "permspace.first_choice"),
    ("permspace.PermSpace", "rows_of", "permspace.rows_of"),
    ("solver", "exact_utility_table", "exact.utility_table"),
    ("exact", "permutation_probabilities", "exact.permutation_probabilities"),
    ("estimators", "exact_selection_pmf", "exact.selection_pmf"),
    ("solver", "exact_sequential_utilities", "exact.sequential_utilities"),
    ("exact.SequentialState", "hire", "exact.hire"),
    ("exact.SequentialState", "utility_of_next", "exact.utility_of_next"),
    ("estimators", "sample_rankings", "estimators.sample_rankings"),
    ("estimators", "mc_utility_trials", "estimators.mc_utility_trials"),
    ("estimators", "check_pref_first_position", "estimators.check_pref_first_position"),
    ("estimators", "check_pref_weaker_competition", "estimators.check_pref_weaker_competition"),
    ("estimators", "_mc_selection_mean", "estimators.mc_selection_mean"),
    ("estimators", "check_monotonicity", "estimators.check_monotonicity"),
    ("solver", "sweep_plane", "solver.sweep_plane"),
    ("solver", "classify_equilibrium", "solver.classify_equilibrium"),
    ("solver", "find_theta_star", "solver.find_theta_star"),
    ("solver", "sequential_optimal_sequence", "solver.sequential_optimal_sequence"),
    ("solver", "kfirm_braess_check", "solver.kfirm_braess_check"),
    ("solver", "binary_counter_scan", "solver.binary_counter_scan"),
)
OP_SPAN = "bench.op"
# entry points of the Monte Carlo estimators: picks, reductions, accumulation
MC_ENTRIES = (
    "estimators.mc_utility_trials",
    "estimators.check_pref_first_position",
    "estimators.check_pref_weaker_competition",
    "estimators.mc_selection_mean",
)
SEQUENTIAL = (
    "solver.sequential_optimal_sequence",
    "solver.kfirm_braess_check",
    "solver.binary_counter_scan",
    "exact.sequential_utilities",
)
FAMILIES = ("mallows", "rum", "plackett_luce")


# Counts read from a call: (tag, a, b) stored on the span.
def _rows(bound, result):
    return None, bound.arguments["size"], 0


def _rankings(bound, result):
    rows, n = bound.arguments["pools"].shape
    return bound.arguments["spec"].kind, rows, rows * n


def _trials(bound, result):
    return None, bound.arguments["n_samples"], 0


def _fallback(bound, result):
    return ("exact" if result.detail["exact"] else "fallback"), 0, 0


def _cells(bound, result):
    return None, len(result), sum(cell.error is not None for cell in result)


COUNTS = {
    "core.sample_matrix": _rows,
    "estimators.sample_rankings": _rankings,
    "estimators.check_monotonicity": _fallback,
    "solver.sweep_plane": _cells,
    **{name: _trials for name in MC_ENTRIES},
}

# per-layer metric name -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "core.sample_matrix.calls": "count",
    "core.sample_matrix.rows": "count",
    "core.sample_matrix.self_s": "s",
    "models.noise_sample.calls": "count",
    "models.noise_sample.self_s": "s",
    "models.noise_density.calls": "count",
    "models.noise_density.self_s": "s",
    "permspace.perm_space.self_s": "s",
    "permspace.top_of_available.calls": "count",
    "permspace.top_of_available.self_s": "s",
    "permspace.first_choice.calls": "count",
    "permspace.first_choice.self_s": "s",
    "permspace.rows_of.calls": "count",
    "permspace.rows_of.self_s": "s",
    "exact.utility_table.calls": "count",
    "exact.utility_table.self_s": "s",
    "exact.permutation_probabilities.calls": "count",
    "exact.permutation_probabilities.self_s": "s",
    "exact.selection_pmf.calls": "count",
    "exact.selection_pmf.errors": "count",
    "exact.selection_pmf.self_s": "s",
    "exact.sequential_utilities.calls": "count",
    "exact.sequential_utilities.self_s": "s",
    "exact.hire.calls": "count",
    "exact.hire.self_s": "s",
    "exact.utility_of_next.calls": "count",
    "exact.utility_of_next.self_s": "s",
    "estimators.sample_rankings.calls": "count",
    "estimators.sample_rankings.rows": "count",
    "estimators.sample_rankings.self_s": "s",
    "estimators.sample_rankings.mallows.rows_per_s": "1/s",
    "estimators.sample_rankings.rum.rows_per_s": "1/s",
    "estimators.sample_rankings.plackett_luce.rows_per_s": "1/s",
    "estimators.sample_rankings.computed_mb": "MB",
    "estimators.mc.trials": "count",
    "estimators.mc.trials_per_s": "1/s",
    "estimators.mc.self_s": "s",
    "estimators.monotonicity.exact_fallbacks": "count",
    "estimators.threads2_speedup": "ratio",
    "solver.sweep_plane.cells": "count",
    "solver.sweep_plane.failed_cells": "count",
    "solver.sweep_plane.self_s": "s",
    "solver.classify_equilibrium.calls": "count",
    "solver.classify_equilibrium.self_s": "s",
    "solver.find_theta_star.calls": "count",
    "solver.find_theta_star.table_calls": "count",
    "solver.find_theta_star.self_s": "s",
    "solver.sequential_optimal_sequence.calls": "count",
    "solver.sequential_optimal_sequence.hires_per_call": "count",
    "solver.sequential_optimal_sequence.self_s": "s",
    "solver.kfirm_braess_check.calls": "count",
    "solver.kfirm_braess_check.hires_per_call": "count",
    "solver.kfirm_braess_check.sequential_calls": "count",
    "solver.kfirm_braess_check.self_s": "s",
    "solver.binary_counter_scan.calls": "count",
    "solver.binary_counter_scan.self_s": "s",
    "share.sampling": "ratio",
    "share.exact_utility_table": "ratio",
    "share.sequential": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


class Tracer:
    """Installs span-recording wrappers on a monoculture package."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span = [name id, start, end, parent index, op id, tag id, a, b, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        for owner_path, attr, name in BOUNDARIES:
            owner = self.package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counts = COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self._op, -1, 0, 0, False]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                span[8] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if counts is not None and not span[8]:
                    tag, span[6], span[7] = counts(signature.bind(*args, **kwargs), result)
                    if tag is not None:
                        span[5] = self._id(tag)

        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([self._id(OP_SPAN), time.perf_counter(), 0.0, -1, op, -1, 0, 0, False])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = -1

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Spans [lo, hi) as columns; parents outside the range become -1."""
        rows = self.spans[lo:hi]
        cols = list(zip(*rows)) if rows else [()] * 9
        parent = np.array(cols[3], dtype=np.int64) - lo
        return {
            "name": np.array(cols[0], dtype=np.int32),
            "start": np.array(cols[1], dtype=float),
            "end": np.array(cols[2], dtype=float),
            "parent": np.where(parent >= 0, parent, -1),
            "op": np.array(cols[4], dtype=np.int32),
            "tag": np.array(cols[5], dtype=np.int32),
            "a": np.array(cols[6], dtype=np.int64),
            "b": np.array(cols[7], dtype=np.int64),
            "raised": np.array(cols[8], dtype=bool),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals over one phase's spans."""

    def __init__(self, tracer: Tracer, cols: dict[str, np.ndarray]):
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.c = cols
        self.dur = cols["end"] - cols["start"]
        child = cols["parent"] >= 0
        inner = np.bincount(cols["parent"][child], weights=self.dur[child], minlength=len(self.dur))
        self.self_time = self.dur - inner

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.c["name"], ids)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, values: np.ndarray, *names: str) -> float:
        return float(values[self.mask(*names)].sum())

    def under(self, child: str, ancestor: str) -> int:
        """Spans named child with a span named ancestor above them."""
        if ancestor not in self.ids:
            return 0
        target, parent = self.ids[ancestor], self.c["parent"]
        idx = np.flatnonzero(self.mask(child))
        found = np.zeros(len(idx), dtype=bool)
        cur = parent[idx]
        while np.any(cur >= 0):
            live = cur >= 0
            found[live] |= self.c["name"][cur[live]] == target
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        return int(found.sum())

    def outermost(self, names) -> float:
        """Inclusive time of spans in names that no other such span encloses."""
        ids = [self.ids[n] for n in names if n in self.ids]
        inside = np.isin(self.c["name"], ids)
        parent, covered = self.c["parent"], np.zeros(len(inside), dtype=bool)
        cur = parent.copy()
        while np.any(cur >= 0):
            live = cur >= 0
            covered[live] |= inside[cur[live]]
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        return float(self.dur[inside & ~covered].sum())


def layer_metrics(setup: SpanTable, timed: SpanTable, traced_times: list[float],
                  untraced_times: list[float], threads2_speedup: float) -> dict:
    """Per-pass layer metrics of the traced passes. perm_space's self time
    is taken from warm-up, where the permutation tables are built."""
    t, out, passes = timed, {}, len(traced_times)

    def per_pass(v):
        return v / passes

    calls = {
        "core.sample_matrix", "models.noise_sample", "models.noise_density",
        "permspace.top_of_available", "permspace.first_choice", "permspace.rows_of",
        "exact.utility_table", "exact.permutation_probabilities", "exact.selection_pmf",
        "exact.sequential_utilities", "exact.hire", "exact.utility_of_next",
        "estimators.sample_rankings", "solver.classify_equilibrium", "solver.find_theta_star",
        "solver.sequential_optimal_sequence", "solver.kfirm_braess_check",
        "solver.binary_counter_scan",
    }
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "calls" and layer in calls:
            out[metric] = per_pass(t.count(layer))
        elif field == "self_s" and layer in calls | {"solver.sweep_plane"}:
            out[metric] = per_pass(t.total(t.self_time, layer))
    out["permspace.perm_space.self_s"] = setup.total(setup.self_time, "permspace.perm_space")
    out["core.sample_matrix.rows"] = per_pass(t.total(t.c["a"], "core.sample_matrix"))
    out["exact.selection_pmf.errors"] = per_pass(
        float((t.mask("exact.selection_pmf") & t.c["raised"]).sum()))

    ranks = t.mask("estimators.sample_rankings")
    out["estimators.sample_rankings.rows"] = per_pass(float(t.c["a"][ranks].sum()))
    out["estimators.sample_rankings.computed_mb"] = per_pass(float(t.c["b"][ranks].sum()) * 8 / 1e6)
    for family in FAMILIES:
        fam = ranks & (t.c["tag"] == t.ids.get(family, -2))
        secs = float(t.dur[fam].sum())
        out[f"estimators.sample_rankings.{family}.rows_per_s"] = (
            float(t.c["a"][fam].sum()) / secs if secs > 0 else 0.0)
    mc = t.mask(*MC_ENTRIES)
    trials, mc_secs = float(t.c["a"][mc].sum()), float(t.dur[mc].sum())
    out["estimators.mc.trials"] = per_pass(trials)
    out["estimators.mc.trials_per_s"] = trials / mc_secs if mc_secs > 0 else 0.0
    out["estimators.mc.self_s"] = per_pass(float(t.self_time[mc].sum()))
    out["estimators.monotonicity.exact_fallbacks"] = per_pass(float(
        (t.mask("estimators.check_monotonicity") & (t.c["tag"] == t.ids.get("fallback", -2))).sum()))
    out["estimators.threads2_speedup"] = threads2_speedup

    sweeps = t.mask("solver.sweep_plane")
    out["solver.sweep_plane.cells"] = per_pass(float(t.c["a"][sweeps].sum()))
    out["solver.sweep_plane.failed_cells"] = per_pass(float(t.c["b"][sweeps].sum()))
    out["solver.find_theta_star.table_calls"] = per_pass(
        t.under("exact.utility_table", "solver.find_theta_star"))
    for solver_fn in ("solver.sequential_optimal_sequence", "solver.kfirm_braess_check"):
        n = t.count(solver_fn)
        out[f"{solver_fn}.hires_per_call"] = t.under("exact.hire", solver_fn) / n if n else 0.0
    out["solver.kfirm_braess_check.sequential_calls"] = per_pass(
        t.under("exact.sequential_utilities", "solver.kfirm_braess_check"))

    wall = sum(traced_times)
    out["share.sampling"] = t.outermost(MC_ENTRIES) / wall
    out["share.exact_utility_table"] = t.outermost(["exact.utility_table"]) / wall
    out["share.sequential"] = t.outermost(SEQUENTIAL) / wall
    out["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(untraced_times)
    out["trace.coverage"] = t.total(t.dur, OP_SPAN) / wall
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER.items()}
