"""Command-line interface: exit codes, output formats, and reproducibility."""

import argparse
import csv
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from monoculture import CandidatePool, NoiseSpec, RankingModelSpec, exact_utility_table
from monoculture import cli, estimators
from monoculture.cli import build_parser, main, parse_axis, parse_grid

POOL = "1,0.5,0"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects unknown flags on its own path
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


# ---------------------------------------------------------------- parsing


def test_axis_parsing_is_inclusive():
    assert parse_axis("1.0:2.0:0.5") == [1.0, 1.5, 2.0]
    assert parse_axis("0.4:3.2:0.05")[-1] == pytest.approx(3.2)
    assert len(parse_axis("1:1:1")) == 1


def test_axis_parsing_errors():
    with pytest.raises(ValueError):
        parse_axis("1:2")
    with pytest.raises(ValueError):
        parse_axis("2:1:0.5")
    with pytest.raises(ValueError):
        parse_axis("1:2:0")


@pytest.mark.parametrize("argv", [
    ("sweep", "--pool", POOL, "--grid"),
    ("conditions", "--check", "monotonicity", "--pool", POOL, "--grid"),
], ids=["sweep", "monotonicity"])
@pytest.mark.parametrize("axis", [
    f"{lo}:{hi}:{step}"
    for bad in ("inf", "nan")
    for lo, hi, step in ((bad, "2", "0.5"), ("0.5", bad, "0.5"), ("0.5", "2", bad))
])
def test_non_finite_grid_axes_exit_one(capsys, argv, axis):
    grid = axis + "x1:2:1" if argv[0] == "sweep" else axis
    code, out, err = run(capsys, *argv, grid)
    assert code == 1
    assert out == ""
    assert axis in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--pool", POOL, "--grid"),
    ("conditions", "--check", "monotonicity", "--family", "rum", "--noise", "gaussian",
     "--pool", POOL, "--grid"),
], ids=["sweep", "monotonicity"])
@pytest.mark.parametrize("axis", ["0:1e308:1e-10", "0:1e5:1"], ids=["overflow", "over-cap"])
def test_oversized_grid_axes_exit_one(capsys, argv, axis):
    # the first point count overflows to inf; the second is finite but
    # above the per-axis cap
    grid = axis + "x1:2:1" if argv[0] == "sweep" else axis
    code, out, err = run(capsys, *argv, grid)
    assert code == 1
    assert out == ""
    assert axis in err and str(cli.MAX_AXIS_POINTS) in err
    assert "Traceback" not in err


def test_axis_cap_is_checked_before_the_points_are_built():
    # a million floats take tens of MiB; the refusal must take none of it
    tracemalloc.start()
    with pytest.raises(cli.UsageError):
        parse_axis("0:1e6:1")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    assert len(parse_axis(f"1:{cli.MAX_AXIS_POINTS}:1")) == cli.MAX_AXIS_POINTS


def test_grid_accepts_three_separators():
    for sep in ("x", "X", "×"):
        rows, cols = parse_grid(f"1:2:1{sep}3:4:1")
        assert rows == [1.0, 2.0]
        assert cols == [3.0, 4.0]


# ---------------------------------------------------------------- utilities


def test_utilities_exact_matches_the_engine(capsys):
    code, out, _ = run(
        capsys, "utilities", "--theta-h", "1.0", "--theta-a", "1.5", "--pool", POOL
    )
    assert code == 0
    (row,) = rows_of(out)
    table = exact_utility_table(1.5, 1.0, RankingModelSpec.mallows(2.0),
                                CandidatePool((1.0, 0.5, 0.0)))
    assert row["family"] == "mallows"
    assert row["engine"] == "exact"
    for name in ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh"):
        # 17 significant digits round-trip doubles exactly
        assert float(row[name]) == getattr(table, name)
        assert float(row["stderr_" + name]) == 0.0
    assert row["n_samples"] == "0"


def test_utilities_exact_continuous_noise_past_three_candidates(capsys):
    code, out, _ = run(
        capsys, "utilities", "--theta-h", "1", "--theta-a", "2", "--family", "rum",
        "--noise", "gaussian", "--pool", "1,0.7,0.3,0",
    )
    assert code == 0
    (row,) = rows_of(out)
    table = exact_utility_table(2.0, 1.0, RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0),
                                CandidatePool((1.0, 0.7, 0.3, 0.0)))
    assert row["engine"] == "exact"
    for name in ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh"):
        assert float(row[name]) == getattr(table, name)


@pytest.mark.parametrize("argv", [
    ("utilities", "--theta-h", "1.0", "--theta-a", "1.5", "--pool", POOL,
     "--engine", "mc", "--samples", "70000", "--seed", "17"),
    ("sweep", "--grid", "1:1:1x0.8:1.4:0.6", "--pool", POOL, "--engine", "mc",
     "--samples", "70000", "--seed", "17"),
    ("conditions", "--check", "monotonicity", "--family", "rum", "--noise", "gaussian",
     "--grid", "0.5:1:0.5", "--pool", "1,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1",
     "--samples", "70000", "--seed", "17"),
    ("reproduce", "four-percent", "--samples", "70000"),
    ("verify", "conditions", "--samples", "70000"),
], ids=["utilities", "sweep", "monotonicity", "four-percent", "verify-conditions"])
def test_mc_output_does_not_depend_on_the_worker_count(capsys, monkeypatch, pool_sizes, argv):
    results, pools = [], []
    for workers in (1, 4):
        monkeypatch.setattr(estimators, "_cores", lambda: workers)
        start = len(pool_sizes)
        results.append(run(capsys, *argv)[:2])
        pools.append(pool_sizes[start:])
    assert results[0] == results[1]
    assert results[0][1]
    # one core runs everything inline; four must really spread the work
    assert pools[0] == []
    assert pools[1] and min(pools[1]) > 1


def test_utilities_dat_output(tmp_path, capsys):
    target = tmp_path / "table.dat"
    code, out, _ = run(
        capsys, "utilities", "--theta-h", "1.0", "--theta-a", "1.5",
        "--pool", POOL, "--out", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text == out
    lines = text.splitlines()
    assert lines[0].startswith("# family noise engine")
    fields = lines[1].split()
    assert fields[0] == "mallows"
    assert fields[1] == "-"  # no noise on the distance family


def test_dat_rows_keep_the_headers_field_count(tmp_path, capsys):
    # the theta_h = 0 cell is an error whose message holds spaces
    grid = ("--pool", POOL, "--grid", "0:0.5:0.5x0.5:0.5:1")
    target = tmp_path / "e.dat"
    assert run(capsys, "sweep", *grid, "--out", str(target))[0] == 0
    header, *lines = target.read_text().splitlines()
    names = header.removeprefix("# ").split()
    assert len(names) == 10 and len(lines) == 2
    assert all(len(line.split()) == len(names) for line in lines)
    assert lines[0].split()[-1].startswith("UnsupportedModelError:_need_theta_>_0")
    # CSV keeps the message as it is
    code, out, _ = run(capsys, "sweep", *grid, "--out", str(tmp_path / "e.csv"))
    assert code == 0 and rows_of(out)[0]["error"].startswith("UnsupportedModelError: need theta > 0")


OUT_COMMANDS = [
    ("utilities", "--pool", POOL, "--theta-h", "1", "--theta-a", "2"),
    ("reproduce", "counterexample-b1"),
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=["utilities", "reproduce"])
@pytest.mark.parametrize("where", ["missing-directory", "under-a-file", "read-only-directory",
                                   "a-directory"])
def test_an_unwritable_out_fails_before_any_work(capsys, tmp_path, monkeypatch, argv, where):
    out = tmp_path / "missing_dir" / "x.csv" if where == "missing-directory" else tmp_path
    if where == "under-a-file":
        (tmp_path / "f.txt").write_text("")
        out = tmp_path / "f.txt" / "x.csv"
    if where == "read-only-directory":
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (1, "")  # no table, no PASS line
    assert err.startswith("monoculture: error: --out ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=["utilities", "reproduce"])
def test_an_out_write_error_exits_one_in_one_line(capsys, tmp_path, monkeypatch, argv):
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert (code, err) == (1, "monoculture: error: [Errno 28] No space left on device\n")


def test_utilities_requires_both_accuracies(capsys):
    code, _, err = run(capsys, "utilities", "--theta-h", "1.0", "--pool", POOL)
    assert code == 1
    assert "theta" in err


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_one(capsys):
    cases = [
        ("utilities", "--theta-h", "1", "--theta-a", "2"),  # no pool
        ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", "0,0.5,1"),  # increasing
        ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL,
         "--engine", "turbo"),
        ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL,
         "--family", "rum"),  # rum needs noise
        ("conditions", "--pool", POOL, "--check", "sideways"),
        # library ValueErrors and overflow become usage errors, not tracebacks
        ("utilities", "--theta-h", "1", "--theta-a", "abc", "--pool", POOL),
        # a non-finite accuracy is refused, not carried into NaN utilities
        ("utilities", "--theta-h", "1", "--theta-a", "inf", "--pool", POOL, "--family", "pl"),
        ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL, "--seed", "x"),
        ("sweep", "--grid", "1:2:1x1:2:1", "--pool", POOL, "--firms", "two"),
        ("conditions", "--check", "monotonicity", "--grid", "1:2:0.5", "--pool", POOL,
         "--removed", "7"),
        ("conditions", "--check", "weaker-competition", "--theta-a", "1", "--theta-h", "2",
         "--pool", POOL, "--samples", "100"),
        ("braess-search", "--theta-h", "-1", "--pool", POOL),
        ("sweep", "--grid", "1:2:1x1:2:1", "--pool", POOL, "--firms", "1"),
        ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL,
         "--engine", "mc", "--samples", "1e400"),
        # a count that is not whole is refused, not truncated to 2 trials
        ("utilities", "--theta-h", "1", "--theta-a", "1.5", "--pool", POOL,
         "--engine", "mc", "--samples", "2.7"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.strip()


@pytest.mark.parametrize("text, count", [("1e6", 1_000_000), ("3e5", 300_000), ("70000", 70_000)])
def test_a_whole_trial_count_may_be_written_as_a_float(text, count):
    assert cli.FLAGS["samples"][0](text) == count


UTILITIES = ("utilities", "--theta-h", "1", "--theta-a", "1")
FIRST_POSITION = ("conditions", "--family", "rum", "--noise", "gaussian", "--check",
                  "first-position", "--theta-h", "1", "--samples", "100")


@pytest.mark.parametrize("argv, message", [
    ((*UTILITIES, "--pool", "inf,0"), "bad pool"),
    ((*UTILITIES, "--dist", "uniform:0:inf:3"), "bad distribution"),
    (("sweep", "--engine", "mc", "--grid", "1:1:1x1:2:1", "--pool", POOL, "--samples", "1000",
      "--seed", "-1"), "non-negative"),
    ((*UTILITIES, "--pool", "1,a,0"), "expected comma-separated numbers, got '1,a,0'"),
    (("sweep", "--pool", POOL, "--grid", "1:2"), "grid must be two axes joined by 'x'"),
    (("sweep", "--pool", POOL, "--grid", "a:2:1x1:2:1"), "non-numeric grid axis 'a:2:1'"),
    ((*UTILITIES, "--pool", POOL, "--family", "rum", "--noise", "discrete:1"),
     "atom must be value:prob, got '1'"),
    ((*UTILITIES, "--dist", "normal:0:1:3"), "distribution must be uniform:lo:hi:n"),
    ((*UTILITIES, "--pool", POOL, "--dist", "uniform:0:1:3"),
     "--pool and --dist are mutually exclusive"),
    (("sweep", "--pool", POOL), "sweep needs --grid"),
    (("sequential", "--pool", POOL, "--phi-a", "2", "--phi-h", "1.5"), "sequential needs --firms"),
    (("sequential", "--pool", POOL, "--firms", "2"),
     "need --phi-a/--phi-h (or --theta-a/--theta-h)"),
    (("conditions", "--check", "first-position", "--pool", POOL), "first-position needs --theta-h"),
    (("conditions", "--check", "weaker-competition", "--theta-h", "1", "--pool", POOL),
     "weaker-competition needs --theta-a"),
    (("conditions", "--check", "monotonicity", "--pool", POOL), "monotonicity needs --grid"),
    (("braess-search", "--pool", POOL), "braess-search needs --theta-h"),
    ((*UTILITIES, "--pool", POOL, "--config", "{tmp}/no-equals.cfg"),
     "expected key=value, got 'seed 3'"),
    ((*UTILITIES, "--pool", POOL, "--config", "{tmp}/missing.cfg"), "cannot read config"),
    # pool intervals that cannot be sampled: hi - lo overflows; n distinct draws
    # cannot exist, or over exactly n = 16 doubles, come once in about 1e6 rows
    *(((*FIRST_POSITION, "--dist", dist), "bad distribution")
      for dist in ("uniform:-1e308:1e308:3", "uniform:1:1.0000000000000002:3",
                   "uniform:1:1.0000000000000033:16")),
], ids=["infinite_pool", "infinite_distribution", "negative_sweep_seed", "non_numeric_pool",
        "one_axis_grid", "non_numeric_grid", "atom_without_prob", "unknown_distribution",
        "pool_and_dist", "sweep_without_grid", "sequential_without_firms",
        "sequential_without_accuracies", "first_position_without_theta_h",
        "weaker_competition_without_theta_a", "monotonicity_without_grid",
        "braess_search_without_theta_h", "config_line_without_equals", "unreadable_config",
        "overflowing_distribution", "distribution_of_two_doubles",
        "distribution_of_exactly_n_doubles"])
def test_non_finite_pools_and_bad_sweep_seeds_exit_one(capsys, tmp_path, argv, message):
    (tmp_path / "no-equals.cfg").write_text("seed 3\n")
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("atoms", ["nan:0.5,1:0.5", "inf:0.5,1:0.5", "-inf:0.5,1:0.5",
                                   "0:nan,1:0.5", "0:inf,1:0.5", "0:-inf,1:0.5"])
def test_non_finite_noise_atoms_exit_one(capsys, atoms):
    code, out, err = run(capsys, "utilities", "--family", "rum", "--noise", f"discrete:{atoms}",
                         "--pool", POOL, "--theta-a", "1", "--theta-h", "1")
    assert code == 1 and out == ""
    assert "must be finite" in err


def test_each_subcommand_accepts_only_the_flags_it_reads():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    pairs = [
        (name, option)
        for name, sub in subs.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]
    assert len(pairs) == 61


@pytest.mark.parametrize("argv, flag", [
    (("sequential", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75", "--pool", POOL,
      "--family", "plackett-luce"), "--family"),
    (("conditions", "--check", "monotonicity", "--grid", "0.5:2.0:0.5", "--pool", POOL,
      "--engine", "mc"), "--engine"),
    (("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL, "--firms", "3"),
     "--firms"),
    (("sweep", "--grid", "1:2:1x1:2:1", "--pool", POOL, "--removed", "1"), "--removed"),
    (("braess-search", "--theta-h", "1", "--pool", POOL, "--seed", "1"), "--seed"),
    (("reproduce", "kfirm-braess", "--theta-a", "2"), "--theta-a"),
    (("verify", "appendix-c", "--threads", "2"), "--threads"),
])
def test_unread_flags_exit_one_and_name_themselves(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL, "--samples", "5"),
     "--samples"),
    (("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL, "--seed", "3"), "--seed"),
    (("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL, "--engine", "exact",
      "--threads", "4"), "--threads"),
    (("conditions", "--check", "first-position", "--theta-h", "1", "--pool", POOL,
      "--grid", "1:2:1"), "--grid"),
    (("conditions", "--check", "weaker-competition", "--theta-a", "2", "--theta-h", "1",
      "--pool", POOL, "--removed", "1"), "--removed"),
    (("conditions", "--check", "first-position", "--theta-h", "1", "--theta-a", "2",
      "--pool", POOL), "--theta-a"),
    (("conditions", "--check", "monotonicity", "--grid", "0.5:2.0:0.5", "--pool", POOL,
      "--theta-h", "1"), "--theta-h"),
    (("conditions", "--check", "monotonicity", "--grid", "0.5:2.0:0.5", "--pool", POOL,
      "--theta-a", "1"), "--theta-a"),
    (("braess-search", "--firms", "1", "--theta-h", "1", "--pool", POOL),
     "needs --firms >= 2"),
    (("braess-search", "--firms", "0", "--theta-h", "1", "--pool", POOL),
     "needs --firms >= 2"),
    (("braess-search", "--theta-h", "1", "--pool", POOL, "--theta-a", "5"), "--theta-a"),
    (("braess-search", "--theta-h", "1", "--pool", POOL, "--phi-a", "9"), "--phi-a"),
    (("braess-search", "--firms", "2", "--theta-h", "1", "--pool", POOL, "--phi-h", "3"),
     "--phi-h"),
    (("sequential", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75", "--theta-a", "9",
      "--dist", "uniform:0:1:4"), "--phi-a or --theta-a"),
    (("sequential", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75", "--theta-h", "9",
      "--dist", "uniform:0:1:4"), "--phi-h or --theta-h"),
    (("braess-search", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75", "--theta-a", "9",
      "--dist", "uniform:0:1:4"), "--phi-a or --theta-a"),
    (("braess-search", "--firms", "3", "--theta-a", "1", "--phi-h", "1.75", "--theta-h", "9",
      "--dist", "uniform:0:1:4"), "--phi-h or --theta-h"),
    (("sweep", "--grid", "0.75:0.75:1x0.5:1:0.5", "--pool", "1,0.7,0.3,0", "--firms", "3",
      "--samples", "7"), "--samples"),
    (("sweep", "--grid", "0.75:0.75:1x0.5:1:0.5", "--pool", "1,0.7,0.3,0", "--firms", "3",
      "--seed", "4"), "--seed"),
    (("sweep", "--grid", "0.75:0.75:1x0.5:1:0.5", "--pool", "1,0.7,0.3,0", "--firms", "3",
      "--family", "pl"), "k-firm sweeps support the distance-based family only"),
])
def test_flags_the_chosen_path_does_not_read_exit_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ("utilities", "--engine", "mc", "--theta-h", "1", "--theta-a", "2", "--pool", POOL),
    ("sweep", "--engine", "mc", "--grid", "1:1:1x1:1:1", "--pool", POOL),
    ("conditions", "--check", "first-position", "--theta-h", "1", "--pool", POOL),
], ids=["utilities", "sweep", "conditions"])
def test_a_single_trial_exits_one(capsys, argv):
    # one trial gives no stderr, so its estimate would pass for exact
    code, out, err = run(capsys, *argv, "--samples", "1")
    assert code == 1
    assert out == ""
    assert "--samples" in err


def test_flags_from_config_count_as_given(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    code, out, err = run(capsys, "utilities", "--config", str(cfg), "--theta-h", "1",
                         "--theta-a", "2", "--pool", POOL)
    assert code == 1
    assert "--seed" in err


def test_config_rejects_keys_the_subcommand_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phi-a = 2\nphi-h = 1.75\nfirms = 3\nengine = mc\n")
    code, out, err = run(capsys, "sequential", "--config", str(cfg), "--pool", POOL)
    assert code == 1
    assert out == ""
    assert "engine" in err


@pytest.mark.parametrize("argv", [
    ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL, "--engine", "mc"),
    ("sweep", "--grid", "1:1:1x1:1:1", "--pool", POOL, "--engine", "mc"),
    ("conditions", "--check", "first-position", "--theta-h", "1", "--pool", POOL),
], ids=["utilities", "sweep", "conditions"])
def test_config_threads_key_exits_one(tmp_path, capsys, argv):
    # the worker count is the process's core count, never a setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "threads" in err


def test_braess_search_k_firm_rejects_other_families(capsys):
    code, out, err = run(
        capsys, "braess-search", "--firms", "3", "--family", "rum", "--noise", "gaussian",
        "--phi-a", "2.0", "--phi-h", "1.75", "--dist", "uniform:0:1:4",
    )
    assert code == 1
    assert out == ""
    assert "distance-based" in err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_unknown_reproduce_target_exits_one(capsys):
    code, _, err = run(capsys, "reproduce", "figure99")
    assert code == 1


def test_numerical_failures_exit_three(capsys):
    # softmax sharing is free, so no dominance crossing exists to bracket
    code, _, err = run(
        capsys, "braess-search", "--family", "pl", "--theta-h", "1.0", "--pool", POOL
    )
    assert code == 3
    assert "numerical" in err
    # coarse two-atom noise ties candidates 1 and 2 almost immediately
    code, _, err = run(
        capsys, "utilities", "--theta-h", "1", "--theta-a", "1",
        "--family", "rum", "--noise", "discrete:-0.5:0.5,0.5:0.5",
        "--pool", "1,0", "--engine", "mc", "--samples", "5000",
    )
    assert code == 3


# ---------------------------------------------------------------- config


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta-h = 1.0\ntheta_a = 1.5\npool = 1,0.5,0\n")
    code, out_cfg, _ = run(capsys, "utilities", "--config", str(cfg))
    assert code == 0
    code, out_flag, _ = run(
        capsys, "utilities", "--config", str(cfg), "--theta-a", "2.0"
    )
    assert code == 0
    assert rows_of(out_cfg)[0]["theta_a"] == "1.5"
    assert rows_of(out_flag)[0]["theta_a"] == "2"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta-q = 1.0\n")
    code, _, err = run(capsys, "utilities", "--config", str(cfg))
    assert code == 1
    assert "theta_q" in err


# ---------------------------------------------------------------- sweeps


def test_sweep_emits_one_row_per_cell(capsys):
    code, out, _ = run(
        capsys, "sweep", "--grid", "1.0:1.0:1.0x0.5:1.5:0.5", "--pool", POOL
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 3
    assert [r["label"] for r in rows] == ["HH", "HH", "AA"]
    assert all(r["error"] == "" for r in rows)


def test_sweep_k_firm_rows_carry_sequences(capsys):
    code, out, _ = run(
        capsys, "sweep", "--grid", "0.75:0.75:1x0.5:4.0:3.5",
        "--pool", "1,0.7,0.3,0", "--firms", "3",
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2
    assert rows[0]["sequence"] == "HHH"
    assert rows[0]["binary_value"] == "0"
    assert rows[1]["sequence"] != "HHH"
    assert rows[0]["label"] == ""


# ---------------------------------------------------------------- commands


def test_sequential_rows(capsys):
    code, out, _ = run(
        capsys, "sequential", "--phi-a", "2.0", "--phi-h", "1.5",
        "--firms", "3", "--pool", "1,0.7,0.3,0",
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 3
    assert [r["position"] for r in rows] == ["1", "2", "3"]
    seq = rows[0]["sequence"]
    assert "".join(r["choice"] for r in rows) == seq


POOL9 = "1,0.9,0.8,0.65,0.5,0.4,0.25,0.1,0"


@pytest.mark.parametrize("command", ["sequential", "braess-search"])
def test_k_firm_commands_take_pools_past_seven_candidates(capsys, command):
    code, out, err = run(
        capsys, command, "--phi-a", "2.0", "--phi-h", "1.5", "--firms", "3", "--pool", POOL9,
    )
    assert code == 0, err
    assert len(rows_of(out)) == (3 if command == "sequential" else 1)


def test_sequential_past_the_state_bound_exits_one(capsys):
    pool = ",".join(str(v) for v in range(40, 0, -1))
    code, out, err = run(
        capsys, "sequential", "--phi-a", "2.0", "--phi-h", "1.5", "--firms", "20", "--pool", pool,
    )
    assert code == 1
    assert out == ""
    assert "20 firms hiring from 40 candidates need" in err and "over the bound" in err


def test_conditions_first_position(capsys):
    code, out, _ = run(
        capsys, "conditions", "--check", "first-position", "--theta-h", "1.0",
        "--pool", POOL, "--samples", "200000", "--seed", "8",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["condition"] == "pref_first_position"
    assert row["verdict"] == "holds"
    assert float(row["z_score"]) > 3


def test_conditions_weaker_competition(capsys):
    code, out, _ = run(
        capsys, "conditions", "--check", "weaker-competition", "--family", "rum",
        "--noise", "gaussian", "--theta-a", "1.5", "--theta-h", "1", "--pool", POOL,
        "--samples", "20000", "--seed", "3",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["condition"] == "pref_weaker_competition"
    assert row["verdict"] == "holds"
    assert (row["n_samples"], row["params"]) == ("20000", "theta1=1.5;theta2=1")


def test_conditions_monotonicity_exact(capsys):
    code, out, _ = run(
        capsys, "conditions", "--check", "monotonicity", "--grid", "0.5:2.0:0.5",
        "--pool", POOL,
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["verdict"] == "holds"
    # an exact difference has no stderr, so it has no z either
    assert row["z_score"] == "nan"


SAMPLING_FLAGS = ("--samples", "1000", "--seed", "9")


def test_conditions_monotonicity_exact_rejects_sampling_flags(capsys):
    code, out, err = run(
        capsys, "conditions", "--check", "monotonicity", "--grid", "0.5:2.0:0.5",
        "--pool", POOL, *SAMPLING_FLAGS,
    )
    assert code == 1
    assert out == ""
    assert all(flag in err for flag in SAMPLING_FLAGS[::2])


GAUSSIAN_MONOTONICITY = ("conditions", "--check", "monotonicity", "--family", "rum",
                         "--noise", "gaussian", "--grid", "0.5:1:0.5", "--pool", "1,0.8,0.5,0.3,0")


def test_conditions_monotonicity_gaussian_five_values_is_exact(capsys):
    code, out, _ = run(capsys, *GAUSSIAN_MONOTONICITY)
    assert code == 0
    (row,) = rows_of(out)
    assert row["z_score"] == "nan"
    assert row["n_samples"] == "0"
    code, out, err = run(capsys, *GAUSSIAN_MONOTONICITY, *SAMPLING_FLAGS)
    assert code == 1
    assert out == ""
    assert all(flag in err for flag in SAMPLING_FLAGS[::2])


def test_conditions_monotonicity_sampled_reads_sampling_flags(capsys):
    # gaussian noise over ten candidates is past the exact pmf, so this samples
    code, out, _ = run(
        capsys, "conditions", "--check", "monotonicity", "--family", "rum",
        "--noise", "gaussian", "--grid", "0.5:1:0.5",
        "--pool", "1,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1", *SAMPLING_FLAGS,
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["n_samples"] == "1000"


def test_braess_search_two_firm_row(capsys):
    code, out, _ = run(
        capsys, "braess-search", "--theta-h", "1.0", "--pool", POOL
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["braess_found"] == "true"
    assert float(row["theta_star"]) > 1.0
    assert abs(float(row["crossing_residual"])) < 1e-12
    assert float(row["welfare_gap"]) > 0


def test_braess_search_k_firm_row(capsys):
    code, out, _ = run(
        capsys, "braess-search", "--firms", "3", "--phi-a", "2.0", "--phi-h", "1.75",
        "--dist", "uniform:0:1:4",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["braess"] == "true"
    assert float(row["all_a_average"]) == pytest.approx(0.5511111111111111)
    assert float(row["all_h_average"]) == pytest.approx(0.5523079332838666)


# ---------------------------------------------------------------- suites


def test_verify_mallows_lemmas_passes(capsys):
    code, out, _ = run(capsys, "verify", "mallows-lemmas")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_verify_unknown_suite_exits_one(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1


@pytest.mark.parametrize("target", ["b1", "b2"])
def test_reproduce_counterexample_passes(capsys, target):
    code, out, _ = run(capsys, "reproduce", f"counterexample-{target}")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines), out


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "monoculture", "reproduce", "counterexample-b1"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout


def assert_golden(capsys, tmp_path, name, *argv):
    """stdout, exit code and --out table equal the record tests/golden/<name>.*;
    each record prints the same bytes under the SkylakeX, Haswell and Prescott
    BLAS kernels, so any diff is a change of the program's output."""
    out = tmp_path / "out.csv"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    golden = GOLDEN / name
    assert code == int(golden.with_suffix(".exit").read_text())
    assert stdout == golden.with_suffix(".stdout").read_text()
    assert out.read_text() == golden.with_suffix(".csv").read_text()


@pytest.mark.parametrize("target", ["figure4", "kfirm-braess", "theta-star", "figure3"])
def test_reproduce_output_matches_its_golden_record(capsys, tmp_path, target):
    assert_golden(capsys, tmp_path, f"reproduce-{target}", "reproduce", target)


@pytest.mark.parametrize("suite", ["mallows-lemmas", "appendix-c"])
def test_verify_output_matches_its_golden_record(capsys, tmp_path, suite):
    assert_golden(capsys, tmp_path, f"verify-{suite}", "verify", suite)


@pytest.mark.parametrize("name, flags", [
    ("sweep-mallows-exact", ()),  # 25 cells read from one exact lattice
    ("sweep-mallows-mc", ("--engine", "mc")),
    ("sweep-gaussian-mc", ("--engine", "mc", "--family", "rum", "--noise", "gaussian")),
], ids=["mallows-exact", "mallows-mc", "gaussian-mc"])
def test_sweep_output_matches_its_golden_record(capsys, tmp_path, name, flags):
    assert_golden(capsys, tmp_path, name,
                  "sweep", "--pool", POOL, "--grid", "0.5:2.5:0.5x0.5:2.5:0.5", *flags)


@pytest.mark.parametrize("name, argv", [
    ("sequential-firms3", ("sequential", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75",
                           "--dist", "uniform:0:1:4")),
    ("braess-search-firms3", ("braess-search", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75",
                              "--pool", "1,0.7,0.3,0")),
    ("sweep-firms3", ("sweep", "--firms", "3", "--pool", "1,0.7,0.3,0",
                      "--grid", "0.5:1.5:0.5x0.5:1.5:0.5")),
], ids=["sequential", "braess-search", "sweep"])
def test_kfirm_output_matches_its_golden_record(capsys, tmp_path, name, argv):
    assert_golden(capsys, tmp_path, name, *argv)


# ---------------------------------------------------------------- assembly


TABLE_COMMANDS = [
    ("utilities", "--theta-h", "1", "--theta-a", "2", "--pool", POOL),
    ("sweep", "--grid", "0.5:1:0.5x0.5:1:0.5", "--pool", POOL),
    ("sequential", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75", "--pool", "1,0.7,0.3,0"),
    ("conditions", "--check", "monotonicity", "--grid", "0.5:2.0:0.5", "--pool", POOL),
    ("braess-search", "--theta-h", "1", "--pool", POOL),
    ("braess-search", "--firms", "3", "--phi-a", "2", "--phi-h", "1.75", "--pool", "1,0.7,0.3,0"),
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=[
    "utilities", "sweep", "sequential", "conditions", "braess-two-firm", "braess-k-firm"])
def test_table_handlers_return_their_table_and_main_writes_it_once(capsys, monkeypatch, argv):
    args = build_parser().parse_args(list(argv))
    cli.resolve_flags(args)
    header, rows = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert all(isinstance(name, str) for name in header)
    assert rows and all(len(row) == len(header) for row in rows)
    written, emit = [], cli.emit
    monkeypatch.setattr(cli, "emit", lambda *table: written.append(table) or emit(*table))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert written == [(header, rows, None)]
    assert out == cli.render(header, rows)


# every target and suite that takes no Monte Carlo trials
UNSAMPLED_RUNNERS = [("reproduce", target) for target in (
    "counterexample-b1", "counterexample-b2", "kfirm-braess", "theta-star", "figure3", "figure4")
] + [("verify", "mallows-lemmas"), ("verify", "appendix-c")]


def test_only_figure2_four_percent_and_verify_conditions_take_trials():
    runners = {(command, name) for command, (_, named) in cli.GRADED.items() for name in named}
    assert runners - set(UNSAMPLED_RUNNERS) == {
        ("reproduce", "figure2"), ("reproduce", "four-percent"), ("verify", "conditions")}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, name", UNSAMPLED_RUNNERS, ids=[n for _, n in UNSAMPLED_RUNNERS])
def test_runners_without_trials_refuse_samples(capsys, tmp_path, source, command, name):
    if source == "flag":
        flags = ("--samples", "5")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 5\n")
        flags = ("--config", str(cfg))
    code, out, err = run(capsys, command, name, *flags)
    assert (code, out) == (1, "")
    assert f"{command} {name} does not read --samples" in err


def test_graded_out_is_csv_whatever_its_suffix(capsys, tmp_path):
    out = tmp_path / "x.dat"
    code, _, _ = run(capsys, "reproduce", "counterexample-b2", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[0] == "check,status,computed,expected"
    assert [row["status"] for row in rows_of(out.read_text())] == ["PASS", "PASS"]
