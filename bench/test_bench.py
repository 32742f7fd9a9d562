"""Fast tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest bench
"""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import oracles as ref
import workloads
import worker

ROOT = Path(__file__).resolve().parent.parent
M = worker.import_package()


@pytest.fixture(scope="module")
def first_pass():
    """Each tiny workload's calls with their first-pass results."""
    original = M.solver.classify_equilibrium
    capture = worker.TableCapture(M.solver)
    out = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 5, M, tiny=True)
            worker.warm_up(wl.calls)
            passes = worker.Passes(wl.calls)
            passes.run(capture, 0.0, 1)
            out[name] = (wl, passes)
    finally:
        M.solver.classify_equilibrium = original
    return out


def results(first_pass, name, prefix):
    wl, passes = first_pass[name]
    found = [(c, r) for c, r in zip(wl.calls, passes.first) if c.cls.startswith(prefix)]
    assert found, f"no {prefix} call in {name}"
    return found


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_passes_its_checks(first_pass, name):
    attempted, failed, reasons = first_pass[name][1].check()
    assert attempted > 0
    assert (failed, reasons) == (0, [])


@pytest.mark.parametrize("prefix", [
    "table/mallows", "table/plackett_luce", "table/atoms3", "table/atoms4", "table/gaussian",
])
def test_exact_table_oracle_rejects_one_shifted_entry(first_pass, prefix):
    for call, (cells, tables, _) in results(first_pass, "exact-plane", prefix):
        assert call.check(cells, tables) == [None] * call.ops
        for entry in ref.ENTRIES:
            shifted = [replace(tables[0], **{entry: getattr(tables[0], entry) + 1e-6})] + tables[1:]
            assert call.check(cells, shifted)[0] is not None, entry


@pytest.mark.parametrize("prefix", ["mc_table/mallows", "mc_table/plackett_luce"])
def test_sampled_table_oracle_rejects_ten_stderr_shift(first_pass, prefix):
    for call, (cells, tables, _) in results(first_pass, "mc-two-firm", prefix):
        for entry in ref.ENTRIES:
            t = tables[0]
            moved = getattr(t, entry) + 10 * getattr(t, "stderr_" + entry)
            assert call.check(cells, [replace(t, **{entry: moved})] + tables[1:])[0] is not None


def test_sampled_estimates_need_a_positive_stderr(first_pass):
    (call, (cells, tables, _)), = results(first_pass, "mc-two-firm", "mc_table/gaussian")
    assert call.check(cells, tables)[0] is None
    assert call.check(cells, [replace(tables[0], stderr_u_aa=0.0)] + tables[1:])[0] is not None
    for call, (rep, _, _) in results(first_pass, "mc-two-firm", "weaker_competition"):
        flat = replace(rep, estimate=replace(rep.estimate, stderr=0.0))
        assert call.check(flat, []) != [None]


def test_gaussian_first_position_sign(first_pass):
    for call, (rep, _, _) in results(first_pass, "mc-two-firm", "first_position/gaussian"):
        assert call.check(rep, []) == [None]
        flipped = replace(rep, estimate=replace(rep.estimate, mean=-rep.estimate.mean))
        assert call.check(flipped, []) != [None]


def test_theta_star_oracle_rejects_a_shifted_crossing(first_pass):
    for call, (res, _, _) in results(first_pass, "exact-plane", "theta_star"):
        assert call.check(res, []) == [None]
        moved = replace(res, theta_star=res.theta_star + 1e-6)
        assert call.check(moved, []) != [None], call.cls


def test_shared_ranking_oracle_rejects_shifted_utilities(first_pass):
    for call, (rep, _, _) in results(first_pass, "survivors", "kfirm"):
        shifted = (rep.all_a_utilities[0] + 1e-6,) + rep.all_a_utilities[1:]
        assert call.check(replace(rep, all_a_utilities=shifted), []) != [None]
    for call, (seq, _, _) in results(first_pass, "survivors", "sequential"):
        assert seq.choices[0] == "A"
        utilities = (seq.utilities[0] + 1e-6,) + seq.utilities[1:]
        assert call.check(replace(seq, utilities=utilities), []) != [None]


@pytest.mark.parametrize("prefix,shift", [
    ("monotonicity/mallows/n8", lambda mean, se: 1e-6),
    ("monotonicity/mallows/n10", lambda mean, se: 10 * se),
])
def test_removed_set_oracle_rejects_a_shifted_mean(first_pass, prefix, shift):
    for call, (rep, _, _) in results(first_pass, "survivors", prefix):
        means, stderrs = rep.detail["means"], rep.detail["stderrs"]
        moved = (means[0] + shift(means[0], stderrs[0]),) + means[1:]
        assert call.check(replace(rep, detail={**rep.detail, "means": moved}), []) != [None]


def test_inputs_follow_the_seed():
    a, b = (workloads.build("survivors", s, M, tiny=True) for s in (3, 3))
    c = workloads.build("survivors", 4, M, tiny=True)
    assert a.digest == b.digest != c.digest
    assert a.inputs[0]["pool"] != c.inputs[0]["pool"]


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "9", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json_and_counts_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = bench("survivors", 0)
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(plain["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])

    first, second = bench("survivors", 1), bench("survivors", 1)
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(first["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    counts = [n for n, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts and all(first["metrics"][n] == second["metrics"][n] for n in counts)
