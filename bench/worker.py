"""One benchmark process: import, warm up, time the workload's passes, check.

run.py starts this script from the repository root. It prints READY once
set-up (import plus warm-up) is over; a --setup-only process exits there.
The main process then runs whole passes over the workload's calls until
--seconds have gone by (at least MIN_PASSES), checks the first pass's
results against the oracles, and prints one RESULT line of JSON.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
THREADS2_SAMPLES = 1 << 17
MAX_REASONS = 20  # failure reasons carried into the result


class TableCapture:
    """Keeps the utility table behind each classified sweep cell, so the
    checks can compare all six entries; sweep cells carry only the verdict."""

    def __init__(self, solver):
        self.tables: list = []
        classify = solver.classify_equilibrium

        def capturing(table, *args, **kwargs):
            self.tables.append(table)
            return classify(table, *args, **kwargs)

        solver.classify_equilibrium = capturing


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import monoculture

    where = Path(monoculture.__file__).resolve().parent
    if where != (src / "monoculture").resolve():
        raise SystemExit(f"monoculture imported from {where}, not from {src}")
    return monoculture


def run_pass(calls, capture, tracer=None) -> tuple[float, list, list[float]]:
    """Run every call once; returns the pass time, (result, tables, error)
    per call, and the time of each call."""
    out, clock = [], time.perf_counter
    ends = [clock()]
    for i, call in enumerate(calls):
        capture.tables = []
        if tracer:
            tracer.begin_op(i)
        try:
            out.append((call.run(), capture.tables, None))
        except Exception as exc:  # a raising op is a failed op, the run goes on
            out.append((None, capture.tables, f"{type(exc).__name__}: {exc}"))
        finally:
            if tracer:
                tracer.end_op()
            ends.append(clock())
    return ends[-1] - ends[0], out, [b - a for a, b in zip(ends, ends[1:])]


class Passes:
    """Pass times, the first pass's results, and how later passes compared."""

    def __init__(self, calls):
        self.calls = calls
        self.times: list[float] = []
        self.first: list | None = None
        self.prints: list[str] = []
        self.diverged = [0] * len(calls)  # later passes that raised or differed
        self.class_times: dict[str, list[float]] = {}  # per pass, summed over the class

    def run(self, capture, seconds: float, min_passes: int, tracer=None) -> list[float]:
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < min_passes or time.perf_counter() < deadline:
            elapsed, results, call_times = run_pass(self.calls, capture, tracer)
            times.append(elapsed)
            self._record(results)
            if tracer is None:
                per_class: dict[str, float] = {}
                for call, t in zip(self.calls, call_times):
                    per_class[call.cls] = per_class.get(call.cls, 0.0) + t
                for cls, t in per_class.items():
                    self.class_times.setdefault(cls, []).append(t)
        self.times += times
        return times

    def _record(self, results) -> None:
        prints = [repr(r[0]) for r in results]
        if self.first is None:
            self.first, self.prints = results, prints
            return
        for i, (res, p) in enumerate(zip(results, prints)):
            # a later pass must repeat the first exactly: same inputs, same seeds
            if res[2] is not None or p != self.prints[i]:
                self.diverged[i] += 1

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons) over every pass. The oracles judge the
        first pass; a later pass that repeats it inherits its verdicts, and
        one that raised or differed fails all of the call's ops."""
        failed, reasons = 0, []
        for i, (call, (result, tables, error)) in enumerate(zip(self.calls, self.first)):
            if error is not None:
                verdicts = [error] * call.ops
            else:
                try:
                    verdicts = call.check(result, tables)
                except Exception as exc:  # a malformed result fails its ops
                    verdicts = [f"check raised {type(exc).__name__}: {exc}"] * call.ops
            if len(verdicts) != call.ops:
                verdicts = [f"{len(verdicts)} results for {call.ops} ops"] * call.ops
            bad = [v for v in verdicts if v is not None]
            if self.diverged[i]:
                bad_passes = f"{self.diverged[i]} later passes raised or differed from the first"
                reasons.append(f"{call.cls} #{i}: {bad_passes}")
            repeated = len(self.times) - self.diverged[i]
            failed += len(bad) * repeated + call.ops * self.diverged[i]
            reasons += [f"{call.cls} #{i}: {v}" for v in bad]
        attempted = sum(c.ops for c in self.calls) * len(self.times)
        return attempted, failed, reasons[:MAX_REASONS]


def warm_up(calls) -> None:
    """One op of each class: builds permutation tables, fills the caches."""
    seen = set()
    for call in calls:
        if call.cls not in seen:
            seen.add(call.cls)
            (call.warm or call.run)()


def threads2_speedup(M) -> float:
    """Time one Monte Carlo table at threads=2 against threads=1."""
    spec = M.models.RankingModelSpec.mallows(2.0)
    pool = M.core.CandidatePool((1.0, 0.8, 0.5, 0.3, 0.0))
    times = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            start = time.perf_counter()
            M.estimators.mc_utility_table(1.2, 1.0, spec, pool, THREADS2_SAMPLES, 7, threads=threads)
            times[threads].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    M = import_package()
    import numpy
    import scipy

    import tracing
    import workloads

    wl = workloads.build(args.workload, args.seed, M, tiny=args.tiny)
    capture = TableCapture(M.solver)
    tracer = tracing.Tracer(M) if args.trace else None
    if tracer:
        tracer.install()
    warm_up(wl.calls)
    if tracer:
        setup_end = len(tracer.spans)
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = Passes(wl.calls)
    if tracer:
        # untraced passes first, as the base of the overhead ratio
        untraced = passes.run(capture, args.seconds / 2, 1)
        tracer.install()
        timed_start = len(tracer.spans)
        traced = passes.run(capture, args.seconds / 2, 1, tracer)
        tracer.uninstall()
    else:
        passes.run(capture, args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "passes": len(passes.times),
        "pass_times": passes.times,
        "wall_s": statistics.median(passes.times),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_pass": sum(c.ops for c in wl.calls),
        "ops_per_class": wl.ops_per_class(),
        "class_seconds": {c: statistics.median(t) for c, t in passes.class_times.items()},
        "trials_per_mc_op": wl.trials_per_mc_op(),
        "input_digest": wl.digest,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        speedup = threads2_speedup(M)
        setup = tracing.SpanTable(tracer, tracer.arrays(0, setup_end))
        timed = tracing.SpanTable(tracer, tracer.arrays(timed_start))
        result["layers"] = tracing.layer_metrics(setup, timed, traced, untraced, speedup)
        if args.spans:
            tracer.save(args.spans)
    result["attempted"], result["failed"], result["failures"] = passes.check()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
