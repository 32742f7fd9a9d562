"""Benchmark of the monoculture engine: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload exact-plane --seed 1 --seconds 20 --trace 0

Workloads: mc-two-firm, exact-plane, survivors (see bench/README.md).
The package is imported from ./src. A single caller runs every op with
threads=1. With --trace 0 the last line of output is a JSON object whose
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
--trace 1 they are the per-layer ones from a traced run. A run record goes
to .bench_out/. Exits non-zero, printing no result, when the package
source or a worker is missing or broken.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc-two-firm", "exact-plane", "survivors")
SETUP_RUNS = 5  # set-up is timed in this many processes; setup_s is their median
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # one caller, one thread: no BLAS pools competing for the two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool, spans: Path | None) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with its set-up time (start to READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish_setup_only(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("set-up worker did not exit") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited {proc.returncode}")


def finish_worker(proc: subprocess.Popen, timeout: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline") from None
    results = [ln[len("RESULT "):] for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        raise BenchError(f"worker exited {proc.returncode} without a result")
    return json.loads(results[-1])


def read_file(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_sha() -> str:
    """HEAD of the checkout if it is a git repository, read without git."""
    head = read_file(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = read_file(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in (read_file(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu = "unknown"
    for line in (read_file(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_file(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "monoculture" / "__init__.py").is_file():
        print(f"error: no monoculture package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            proc, setup = start_worker(args, True, None)
            finish_setup_only(proc)
            setups.append(setup)
        spans = OUT / f"{stem}-spans.npz" if args.trace else None
        proc, setup = start_worker(args, False, spans)
        setups.append(setup)
        result = finish_worker(proc, DEADLINE_S - (time.perf_counter() - begin))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    e2e = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    failed_ratio = failed / attempted
    metrics = result["layers"] if args.trace else e2e
    record = {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": {**machine(), **result["versions"]},
        "setup_runs_s": setups,
        "failed_ratio": failed_ratio,
        "metrics": metrics,
        **{k: v for k, v in result.items() if k not in ("layers", "versions")},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {result['passes']} passes of "
          f"{result['ops_per_pass']} ops, inputs {result['input_digest'][:12]}")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    if not args.trace:
        print(f"{'failed_ratio':<56} {failed_ratio:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name:<56} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
