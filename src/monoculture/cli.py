"""Command-line front end.

Subcommands run utility tables, equilibrium sweeps, sequential solves,
behavioral-condition checks, Braess-window searches, pinned reproduction
targets, and invariant verification suites. Output is CSV on stdout (and
optionally a file); a .dat output path switches to whitespace-separated
columns for plotting tools. Monte Carlo takes the estimators' default
worker count, and identical flags and seed give byte-identical output on
any number of cores. Each subcommand accepts only the flags it reads, on
the command line or in its --config file.

Exit codes: 0 success, 1 usage or configuration error, 2 a reproduction or
verification check failed, 3 numerical failure (no bracket, tied scores).
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .core import CandidateDistribution, CandidatePool, PoolError
from .estimators import (
    check_monotonicity,
    check_pref_first_position,
    check_pref_weaker_competition,
    mc_utility_lattice,
    mc_utility_table,
)
from .exact import exact_utility_table
from .models import (
    NoiseSpec,
    RankingModelSpec,
    TieError,
    conditional_order_probability,
    mallows_perm_probs,
    well_ordered_check,
)
from .permspace import perm_space
from .solver import (
    BracketError,
    binary_counter_scan,
    classify_equilibrium,
    find_theta_star,
    kfirm_braess_check,
    sequential_optimal_sequence,
    sweep_plane,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3
MAX_AXIS_POINTS = 10_000


class UsageError(ValueError):
    """Bad flags, config values, or unsupported engine requests."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def fmt(value) -> str:
    """Stable scalar formatting: floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def parse_axis(text: str) -> list[float]:
    """One grid axis, lo:hi:step inclusive of hi within rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid axis must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"non-numeric grid axis {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"grid axis bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise UsageError(f"need lo <= hi and step > 0 in {text!r}")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_AXIS_POINTS:  # also catches a span that overflows to inf
        raise UsageError(f"grid axis {text!r} has more than {MAX_AXIS_POINTS} points")
    return [lo + i * step for i in range(int(steps) + 1)]


def parse_grid(text: str) -> tuple[list[float], list[float]]:
    for sep in ("×", "x", "X"):
        if sep in text:
            left, right = text.split(sep, 1)
            return parse_axis(left), parse_axis(right)
    raise UsageError(f"grid must be two axes joined by 'x', got {text!r}")


def parse_noise(text: str) -> NoiseSpec:
    """kind or discrete:v:p,v:p,...; NoiseSpec checks the kind and the atoms."""
    kind, _, body = text.partition(":")
    if kind.lower() != "discrete":
        return NoiseSpec(kind.lower())
    atoms = []
    for pair in body.split(",") if body else []:
        v_p = pair.split(":")
        if len(v_p) != 2:
            raise UsageError(f"atom must be value:prob, got {pair!r}")
        atoms.append((float(v_p[0]), float(v_p[1])))
    return NoiseSpec.discrete(tuple(atoms))


def parse_dist(text: str) -> CandidateDistribution:
    parts = text.split(":")
    kind = parts[0].lower()
    try:
        if kind == "uniform" and len(parts) == 4:
            return CandidateDistribution.uniform(float(parts[1]), float(parts[2]), int(parts[3]))
        if kind == "uniform0" and len(parts) == 3:
            return CandidateDistribution.uniform_centered_zero(float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise UsageError(f"bad distribution {text!r}: {exc}") from exc
    raise UsageError(
        f"distribution must be uniform:lo:hi:n or uniform0:halfwidth:n, got {text!r}"
    )


def build_family(args) -> RankingModelSpec:
    """The family at accuracy 1; RankingModelSpec checks the kind and which kinds take noise."""
    kind = {"plackett-luce": "plackett_luce", "pl": "plackett_luce"}.get(args.family, args.family)
    return RankingModelSpec(kind, 1.0, parse_noise(args.noise) if args.noise else None)


def build_pool(args):
    if args.pool and args.dist:
        raise UsageError("--pool and --dist are mutually exclusive")
    if args.pool:
        try:
            return CandidatePool(parse_floats(args.pool))
        except PoolError as exc:
            raise UsageError(f"bad pool: {exc}") from exc
    if args.dist:
        return parse_dist(args.dist)
    raise UsageError("need --pool or --dist")


def render(rows: list[list], header: list[str], dat: bool = False) -> str:
    """CSV text, or whitespace-separated columns under a commented header."""
    buf = io.StringIO()
    if dat:
        buf.write("# " + " ".join(header) + "\n")
        for row in rows:
            buf.write(" ".join(fmt(v) if fmt(v) != "" else "-" for v in row) + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def emit(rows: list[list], header: list[str], out_path: str | None) -> None:
    """Write rows to stdout, and to out_path when given; a .dat path gets
    whitespace-separated columns, anything else CSV."""
    text = render(rows, header, bool(out_path and out_path.endswith(".dat")))
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")


def reject_given(args, names: tuple[str, ...], context: str) -> None:
    """UsageError naming the flags among names that were set but go unread."""
    given = [f"--{name.replace('_', '-')}" for name in names if name in args.given]
    if given:
        raise UsageError(f"{context} does not read {', '.join(given)}")


def cmd_utilities(args) -> int:
    family = build_family(args)
    pool = build_pool(args)
    theta_h, theta_a = args.theta_h, args.theta_a
    if theta_h is None or theta_a is None:
        raise UsageError("utilities needs --theta-h and --theta-a")
    if args.engine == "exact":
        reject_given(args, ("samples", "seed"), "utilities --engine exact")
        table = exact_utility_table(theta_a, theta_h, family, pool)
    else:
        table = mc_utility_table(theta_a, theta_h, family, pool, args.samples, args.seed)
    # the table's fields in declaration order: entries, stderrs, n_samples
    header = ["family", "noise", "engine", "theta_h", "theta_a"] + [
        f.name for f in fields(table)] + ["seed"]
    row = [family.kind, family.noise.kind if family.noise else "", args.engine, theta_h,
           theta_a] + list(astuple(table)) + [args.seed]
    emit([row], header, args.out)
    return EXIT_OK


SWEEP_HEADER = [
    "theta_h",
    "theta_a",
    "label",
    "p_mixed",
    "welfare_aa",
    "welfare_hh",
    "braess",
    "sequence",
    "binary_value",
    "error",
]


def sweep_rows(cells) -> list[list]:
    rows = []
    for cell in cells:
        label = p = waa = whh = braess = seq = binval = None
        if cell.outcome is not None and hasattr(cell.outcome, "label"):
            o = cell.outcome
            label, p, waa, whh, braess = o.label, o.p, o.welfare_aa, o.welfare_hh, o.braess
        elif cell.outcome is not None:
            seq = cell.outcome.as_string()
            binval = cell.outcome.binary_value
        rows.append(
            [cell.theta_h, cell.theta_a, label, p, waa, whh, braess, seq, binval, cell.error]
        )
    return rows


def cmd_sweep(args) -> int:
    family = build_family(args)
    pool = build_pool(args)
    if not args.grid:
        raise UsageError("sweep needs --grid lo:hi:step x lo:hi:step")
    if args.firms > 2:
        reject_given(args, ("samples", "seed"), "sweep --firms > 2")
    theta_h_values, theta_a_values = parse_grid(args.grid)
    cells = sweep_plane(
        theta_h_values,
        theta_a_values,
        family,
        pool,
        engine=args.engine,
        k=args.firms,
        n_samples=args.samples,
        seed=args.seed,
    )
    emit(sweep_rows(cells), SWEEP_HEADER, args.out)
    return EXIT_OK


def _phi_args(args) -> tuple[float, float]:
    """(phi_a, phi_h), each from --phi-x or else as 1 + --theta-x, never both."""
    for side in "ah":
        if {"phi_" + side, "theta_" + side} <= args.given:
            raise UsageError(f"give --phi-{side} or --theta-{side}, not both")
    phi_a = args.phi_a if args.theta_a is None else 1.0 + args.theta_a
    phi_h = args.phi_h if args.theta_h is None else 1.0 + args.theta_h
    if phi_a is None or phi_h is None:
        raise UsageError("need --phi-a/--phi-h (or --theta-a/--theta-h)")
    return phi_a, phi_h


def cmd_sequential(args) -> int:
    pool = build_pool(args)
    phi_a, phi_h = _phi_args(args)
    if args.firms is None:
        raise UsageError("sequential needs --firms")
    seq = sequential_optimal_sequence(args.firms, phi_a, phi_h, pool)
    header = ["position", "choice", "utility", "phi_a", "phi_h", "sequence", "binary_value"]
    rows = [
        [i + 1, seq.choices[i], seq.utilities[i], phi_a, phi_h, seq.as_string(), seq.binary_value]
        for i in range(seq.k)
    ]
    emit(rows, header, args.out)
    return EXIT_OK


def cmd_conditions(args) -> int:
    family = build_family(args)
    pool = build_pool(args)
    samples, seed = args.samples, args.seed
    context = f"conditions --check {args.check}"
    if args.check == "first-position":
        reject_given(args, ("theta_a", "grid", "removed"), context)
        if args.theta_h is None:
            raise UsageError("first-position needs --theta-h")
        report = check_pref_first_position(family, args.theta_h, pool, samples, seed)
        params = f"theta={fmt(args.theta_h)}"
    elif args.check == "weaker-competition":
        reject_given(args, ("grid", "removed"), context)
        if args.theta_a is None or args.theta_h is None:
            raise UsageError("weaker-competition needs --theta-a (stronger) and --theta-h")
        report = check_pref_weaker_competition(
            family, args.theta_a, args.theta_h, pool, samples, seed
        )
        params = f"theta1={fmt(args.theta_a)};theta2={fmt(args.theta_h)}"
    elif args.check == "monotonicity":
        reject_given(args, ("theta_h", "theta_a"), context)
        if not args.grid:
            raise UsageError("monotonicity needs --grid lo:hi:step (one axis)")
        grid = parse_axis(args.grid)
        report = check_monotonicity(family, grid, args.removed, pool, samples, seed)
        # the engine is picked inside the check, so the flags are judged after it
        if report.detail["exact"]:
            reject_given(args, ("samples", "seed"), f"{context} on the exact path")
        params = (
            f"grid={args.grid};removed={','.join(str(c) for c in sorted(args.removed)) or '-'}"
        )
    else:
        raise UsageError(
            "--check must be first-position, weaker-competition, or monotonicity"
        )
    header = ["condition", "estimate", "stderr", "z_score", "verdict", "n_samples", "params"]
    est = report.estimate
    rows = [[report.condition, est.mean, est.stderr, est.z_score_vs_zero,
             report.verdict, est.n_samples, params]]
    emit(rows, header, args.out)
    return EXIT_OK


def cmd_braess_search(args) -> int:
    family = build_family(args)
    pool = build_pool(args)
    if args.firms < 2:
        raise UsageError("braess-search needs --firms >= 2")
    if args.firms > 2:
        if family.kind != "mallows":
            raise UsageError("braess-search with --firms > 2 takes the distance-based family only")
        phi_a, phi_h = _phi_args(args)
        rep = kfirm_braess_check(args.firms, phi_a, phi_h, pool)
        header = [
            "k", "phi_a", "phi_h", "all_a_average", "all_h_average",
            "all_a_equilibrium", "a_strictly_dominant", "braess", "best_sequence",
        ]
        rows = [[rep.k, rep.phi_a, rep.phi_h, rep.all_a_average, rep.all_h_average,
                 rep.all_a_equilibrium, rep.a_strictly_dominant, rep.braess,
                 rep.best_average_sequence.as_string()]]
        emit(rows, header, args.out)
        return EXIT_OK
    reject_given(args, ("theta_a", "phi_a", "phi_h"), "braess-search with two firms")
    if args.theta_h is None:
        raise UsageError("braess-search needs --theta-h")
    res = find_theta_star(args.theta_h, family, pool)
    header = [
        "theta_h", "theta_star", "crossing_residual", "theta_prime", "braess_found",
        "margin_vs_a", "margin_vs_h", "welfare_gap",
    ]
    rows = [[res.theta_h, res.theta_star, res.crossing_residual, res.theta_prime,
             res.braess_found, res.detail.get("margin_vs_a"),
             res.detail.get("margin_vs_h"), res.detail.get("welfare_gap")]]
    emit(rows, header, args.out)
    return EXIT_OK


class CheckLog:
    """Collects pass/fail lines and CSV rows for reproduce and verify."""

    def __init__(self) -> None:
        self.all_pass = True
        self.rows: list[list] = []

    def check(self, name: str, passed: bool, computed, expected: str) -> None:
        self.all_pass &= bool(passed)
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: computed {fmt(computed)} | expected {expected}")
        self.rows.append([name, status, fmt(computed), expected])

    def finish(self, out_path: str | None) -> int:
        if out_path:
            header = ["check", "status", "computed", "expected"]
            Path(out_path).write_text(render(self.rows, header), encoding="utf-8")
        return EXIT_OK if self.all_pass else EXIT_CHECK_FAILED


B1_POOL = CandidatePool((1.75, 0.5, 0.0))
B1_DELTA = 0.1
B1_EXPECTED = -7.61640625e-4
B2_POOL = CandidatePool((3.0, 2.0, 0.0))


def b1_family(delta: float) -> RankingModelSpec:
    atoms = ((-1.0, delta / 2), (0.0, 1.0 - delta), (1.0, delta / 2))
    return RankingModelSpec.rum(NoiseSpec.discrete(atoms), 1.0)


def b1_polynomial(delta: float, x1: float, x2: float) -> float:
    return (delta**2 / 32.0) * (
        delta**3 * x1 - 4 * delta**2 * x1 + 4 * delta * x1
        + 2 * delta**3 * x2 - 14 * delta**2 * x2 + 20 * delta * x2 - 8 * x2
    )


def b2_family(delta: float) -> RankingModelSpec:
    atoms = (
        (-10.0, delta / 2),
        (-1.0, (1.0 - delta) / 2),
        (1.0, (1.0 - delta) / 2),
        (10.0, delta / 2),
    )
    return RankingModelSpec.rum(NoiseSpec.discrete(atoms), 1.0)


def reproduce_counterexample_b1(log: CheckLog, args) -> None:
    table = exact_utility_table(1.0, 1.0, b1_family(B1_DELTA), B1_POOL)
    diff = table.u_ah - table.u_aa
    log.check(
        "three-atom noise makes sharing strictly better (u_ah - u_aa)",
        abs(diff - B1_EXPECTED) <= 1e-7,
        diff,
        f"{B1_EXPECTED} +- 1e-07",
    )
    poly = b1_polynomial(B1_DELTA, 1.75, 0.5)
    log.check(
        "exact table matches the closed-form polynomial",
        abs(diff - poly) <= 1e-12,
        diff - poly,
        "0 +- 1e-12",
    )


def reproduce_counterexample_b2(log: CheckLog, args) -> None:
    for delta in (0.1, 0.05):
        table = exact_utility_table(1.1, 0.9, b2_family(delta), B2_POOL)
        margin = table.u_ah - table.u_hh
        log.check(
            f"four-atom noise favors the stronger rival (delta={delta})",
            margin > 0,
            margin,
            "> 0",
        )


def reproduce_kfirm_braess(log: CheckLog, args) -> None:
    rep = kfirm_braess_check(3, 2.0, 1.75, CandidateDistribution.uniform(0.0, 1.0, 4))
    log.check("three-firm all-A average utility", abs(rep.all_a_average - 0.551) <= 0.002,
              rep.all_a_average, "0.551 +- 0.002")
    log.check("three-firm all-H average utility", abs(rep.all_h_average - 0.552) <= 0.002,
              rep.all_h_average, "0.552 +- 0.002")
    log.check("all-H average strictly larger", rep.all_h_average > rep.all_a_average,
              rep.all_h_average - rep.all_a_average, "> 0")
    log.check("all-A is the random-order equilibrium", rep.all_a_equilibrium,
              rep.all_a_equilibrium, "true")
    log.check("welfare-reducing dominance flag", rep.braess, rep.braess, "true")


THETA_STAR_POOL = CandidatePool((1.0, 0.5, 0.0))


def reproduce_theta_star(log: CheckLog, args) -> None:
    family = RankingModelSpec.mallows(2.0)
    for phi_h in (1.5, 2.0, 3.0):
        theta_h = phi_h - 1.0
        res = find_theta_star(theta_h, family, THETA_STAR_POOL)
        log.check(
            f"phi_h={phi_h}: crossing residual",
            abs(res.crossing_residual) < 1e-12,
            res.crossing_residual,
            "|.| < 1e-12",
        )
        log.check(
            f"phi_h={phi_h}: strict dominance with welfare loss just above the crossing",
            res.braess_found,
            res.theta_prime,
            "window found",
        )
        if res.braess_found:
            gap = res.detail["welfare_gap"]
            log.check(
                f"phi_h={phi_h}: welfare gap at the witness accuracy",
                gap > 0,
                gap,
                "> 0",
            )


FIGURE2_SEED = 20260821


def reproduce_figure2(log: CheckLog, args) -> None:
    samples = args.samples
    halfwidth = math.sqrt(3.0)
    lap = RankingModelSpec.rum(NoiseSpec.laplacian(), 1.0)
    gau = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    d15 = CandidateDistribution.uniform_centered_zero(halfwidth, 15)
    negatives = []
    for theta in (0.25, 0.5, 1.0, 2.0):
        rep = check_pref_first_position(lap, theta, d15, samples, FIGURE2_SEED)
        z = rep.estimate.z_score_vs_zero
        log.rows.append([f"laplacian n=15 theta={theta}", "INFO", fmt(rep.estimate.mean), f"z={z:.1f}"])
        print(f"INFO laplacian n=15 theta={theta}: estimate {fmt(rep.estimate.mean)} z={z:+.1f}")
        if rep.verdict == "fails":
            negatives.append(theta)
    log.check(
        "heavy-tailed noise with 15 candidates turns the top-gap estimand negative somewhere",
        bool(negatives),
        ",".join(str(t) for t in negatives) or "none",
        "some theta with z < -3",
    )
    for n in (3, 5, 15):
        d = CandidateDistribution.uniform_centered_zero(halfwidth, n)
        for theta in (0.5, 1.0, 2.0):
            rep = check_pref_first_position(gau, theta, d, samples, FIGURE2_SEED)
            log.check(
                f"gaussian n={n} theta={theta} positive",
                rep.verdict == "holds",
                rep.estimate.mean,
                "z > 3",
            )


# The anti-coordination band is thin (theta_h < theta_a < roughly
# 1.14 * theta_h here), so the vertical axis needs the finer step.
FIGURE3_GRID = ("0.4:2.0:0.4", "0.4:3.2:0.05")


def reproduce_figure3(log: CheckLog, args) -> None:
    family = RankingModelSpec.mallows(2.0)
    rows_axis = parse_axis(FIGURE3_GRID[0])
    cols_axis = parse_axis(FIGURE3_GRID[1])
    cells = sweep_plane(rows_axis, cols_axis, family, THETA_STAR_POOL, engine="exact")
    labels = {}
    braess_cells = []
    below_diag_ok = True
    for cell in cells:
        if cell.error:
            below_diag_ok = False
            continue
        labels.setdefault(cell.outcome.label, 0)
        labels[cell.outcome.label] += 1
        if cell.outcome.braess:
            braess_cells.append((cell.theta_h, cell.theta_a))
        if cell.theta_a < cell.theta_h - 1e-12 and cell.outcome.label != "HH":
            below_diag_ok = False
    log.check("cells below the diagonal all prefer independent evaluation", below_diag_ok,
              below_diag_ok, "true")
    log.check("shared-ranking region present", labels.get("AA", 0) > 0,
              labels.get("AA", 0), "> 0 cells")
    log.check("anti-coordination band present", labels.get("AH_asymmetric", 0) > 0,
              labels.get("AH_asymmetric", 0), "> 0 cells")
    log.check("welfare-reducing subregion present", len(braess_cells) > 0,
              len(braess_cells), "> 0 cells")


# One pinned draw of six values from uniform [0, 1] (sorted). With five
# firms the thin strategy regions only open up for uneven value spacings;
# equally spaced values provably skip three of the sixteen.
FIGURE4_POOL = CandidatePool((
    0.8802603238735085,
    0.7930895096001102,
    0.4780680736602443,
    0.4717689954978974,
    0.4629054887939623,
    0.04432299121099936,
))
# Vertical slices (phi_h: phi_a lo, hi, step) chosen so that each step is
# finer than the narrowest region known to live on that slice.
FIGURE4_VERTICALS = (
    (1.2, 1.2004, 1.48, 0.0004),
    (2.0, 2.008, 2.80, 0.008),
    (5.0, 5.002, 5.80, 0.002),
    (9.0, 9.0005, 9.95, 0.0005),
    (14.0, 14.01, 15.10, 0.01),
)
FIGURE4_SCAN_LINES = ((1.2, 1.21, 1.50), (2.0, 2.01, 2.80), (5.0, 5.01, 5.80))


def reproduce_figure4(log: CheckLog, args) -> None:
    seen: dict[str, tuple[float, float]] = {}
    for phi_h, lo, hi, step in FIGURE4_VERTICALS:
        grid = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
        for point in binary_counter_scan(phi_h, grid, 5, FIGURE4_POOL).points:
            seen.setdefault(point.sequence.as_string(), (phi_h, point.phi_a))
    a_prefixed = sorted(s for s in seen if s.startswith("A"))
    for s in a_prefixed:
        ph, pa = seen[s]
        log.rows.append([f"sequence {s}", "INFO", f"phi_h={fmt(ph)}", f"phi_a={fmt(pa)}"])
    log.check("distinct A-prefixed strategy sequences on the slices",
              len(a_prefixed) == 16, len(a_prefixed), "16")
    for phi_h, lo, hi in FIGURE4_SCAN_LINES:
        count = int(round((hi - lo) / 0.01)) + 1
        grid = [round(lo + 0.01 * i, 10) for i in range(count)]
        scan = binary_counter_scan(phi_h, grid, 5, FIGURE4_POOL)
        log.check(
            f"binary-counter scan monotone at phi_h={phi_h}",
            scan.monotone_nondecreasing,
            scan.first_violation or "monotone",
            "nondecreasing binary value",
        )


FOUR_PERCENT_SEED = 20260821


def reproduce_four_percent(log: CheckLog, args) -> None:
    samples = args.samples
    family = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    d = CandidateDistribution.uniform_centered_zero(math.sqrt(3.0), 3)
    thetas_a = [0.540 + 0.0025 * j for j in range(11)]
    (tables,) = mc_utility_lattice([0.5], thetas_a, family, d, samples, FOUR_PERCENT_SEED)
    hits = []
    for theta_a, table in zip(thetas_a, tables):  # a positive accuracy never fails
        out = classify_equilibrium(table)
        loss = (out.welfare_hh - out.welfare_aa) / out.welfare_hh
        ok = out.label == "AA" and out.welfare_aa >= 0 and 0.03 <= loss <= 0.05
        print(
            f"INFO theta_a={fmt(theta_a)}: label={out.label} "
            f"welfare_aa={fmt(out.welfare_aa)} relative_loss={loss:.4%} hit={ok}"
        )
        log.rows.append([f"theta_a={fmt(theta_a)}", "INFO", fmt(loss), out.label])
        if ok:
            hits.append((theta_a, loss))
    log.check(
        "a shared-ranking equilibrium with nonnegative welfare loses 3-5 percent",
        len(hits) > 0,
        f"{len(hits)} grid points",
        ">= 1 point in band",
    )


def verify_mallows_lemmas(log: CheckLog, args) -> None:
    for n in range(2, 7):
        space = perm_space(n)
        for phi in (1.1, 2.0, 5.0):
            probs = mallows_perm_probs(phi, n)
            pmf = space.first_choice(probs)
            pmf = pmf / pmf.sum()
            worst = 0.0
            q = 1.0 / phi
            for i in range(1, n + 1):
                closed = (1 - q) * q ** (i - 1) / (1 - q**n)
                worst = max(worst, abs(pmf[i - 1] - closed))
            log.check(f"n={n} phi={phi}: first-choice closed form vs enumeration",
                      worst <= 1e-12, worst, "<= 1e-12")
            worst_ratio = 0.0
            first = space.perms[:, 0]
            second = space.perms[:, 1]
            top_two: dict[tuple[int, int], float] = {}
            for r in range(len(probs)):
                key = (int(first[r]), int(second[r]))
                top_two[key] = top_two.get(key, 0.0) + float(probs[r])
            for i in range(n):
                for j in range(i + 1, n):
                    ratio = top_two[(i, j)] / top_two[(j, i)]
                    worst_ratio = max(worst_ratio, abs(ratio - phi))
            log.check(f"n={n} phi={phi}: adjacent-swap mass ratio equals phi",
                      worst_ratio <= 1e-10, worst_ratio, "<= 1e-10")
            weights = q ** space.inversions.astype(float)
            z_enum = float(weights.sum())
            z_closed = 1.0
            for j in range(1, n + 1):
                z_closed *= (1 - q**j) / (1 - q)
            rel = abs(z_enum - z_closed) / z_closed
            log.check(f"n={n} phi={phi}: normalizer product form",
                      rel <= 1e-10, rel, "<= 1e-10 relative")
            worst_block = 0.0
            for removed_count in range(1, n - 1):
                # the top removed_count candidates are gone: mask bits 0..removed_count-1
                survivors = space.first_choice(probs, (1 << removed_count) - 1)[removed_count:]
                m = n - removed_count
                for rank, got in enumerate(survivors, 1):
                    closed = (1 - q) * q ** (rank - 1) / (1 - q**m)
                    worst_block = max(worst_block, abs(got - closed))
            log.check(f"n={n} phi={phi}: top-block survivors keep the same closed form",
                      worst_block <= 1e-12, worst_block, "<= 1e-12")


def verify_conditions(log: CheckLog, args) -> None:
    pool = THETA_STAR_POOL
    family = RankingModelSpec.mallows(2.0)
    for phi in (1.5, 2.0, 3.0):
        theta = phi - 1.0
        t = exact_utility_table(theta, theta, family, pool)
        log.check(f"distance family phi={phi}: second mover gains from independence",
                  t.u_ah - t.u_aa > 0, t.u_ah - t.u_aa, "> 0")
        t2 = exact_utility_table(1.5 * theta, theta, family, pool)
        log.check(f"distance family phi={phi}: weaker first mover leaves more behind",
                  t2.u_hh - t2.u_ah > 0, t2.u_hh - t2.u_ah, "> 0")
    pl = RankingModelSpec.plackett_luce(1.0)
    for theta in (0.5, 1.0, 2.0):
        t = exact_utility_table(theta, theta, pl, pool)
        log.check(f"softmax family theta={theta}: sharing is neutral",
                  abs(t.u_ah - t.u_aa) < 1e-12, t.u_ah - t.u_aa, "|.| < 1e-12")
    samples = args.samples
    for name, noise in (("gaussian", NoiseSpec.gaussian()), ("laplacian", NoiseSpec.laplacian())):
        fam = RankingModelSpec.rum(noise, 1.0)
        rep = check_pref_first_position(fam, 1.0, pool, samples, 7)
        log.check(f"{name} n=3: first-position preference holds",
                  rep.verdict == "holds", rep.estimate.mean, "z > 3")
        rep2 = check_pref_weaker_competition(fam, 1.5, 1.0, pool, samples, 7)
        log.check(f"{name} n=3: weaker-competition preference holds",
                  rep2.verdict == "holds", rep2.estimate.mean, "z > 3")
    b1 = exact_utility_table(1.0, 1.0, b1_family(B1_DELTA), B1_POOL)
    log.check("three-atom counterexample flips the first-position sign",
              b1.u_ah - b1.u_aa < 0, b1.u_ah - b1.u_aa, "< 0")
    b2 = exact_utility_table(1.1, 0.9, b2_family(0.05), B2_POOL)
    log.check("four-atom counterexample flips the weaker-competition sign",
              b2.u_ah - b2.u_hh > 0, b2.u_ah - b2.u_hh, "> 0")


def verify_appendix_c(log: CheckLog, args) -> None:
    rng = np.random.default_rng(12345)
    for name, noise in (("gaussian", NoiseSpec.gaussian()), ("laplacian", NoiseSpec.laplacian())):
        failures = 0
        for _ in range(10_000):
            a, b = sorted(rng.uniform(-3.0, 3.0, 2))[::-1]
            c, d = sorted(rng.uniform(-3.0, 3.0, 2))[::-1]
            if a == b or c == d:
                continue
            if not well_ordered_check(noise, a, b, c, d):
                failures += 1
        log.check(f"{name}: pairing closer score gaps is never worse (1e4 quadruples)",
                  failures == 0, failures, "0 failures")
    for name, noise in (("gaussian", NoiseSpec.gaussian()), ("laplacian", NoiseSpec.laplacian())):
        xi, xj, theta = 1.0, 0.3, 1.2
        grid = [xj - 2.0 + 0.1 * i for i in range(45)]
        values = [conditional_order_probability(noise, xi, xj, theta, a) for a in grid]
        worst = min(b - a for a, b in zip(values, values[1:]))
        log.check(f"{name}: conditional order probability nondecreasing in the cutoff",
                  worst >= -1e-9, worst, ">= -1e-9")
    lap = NoiseSpec.laplacian()
    vals = [conditional_order_probability(lap, 1.0, 0.3, 1.2, a) for a in (0.3, 0.0, -1.0)]
    worst = max(abs(v - 0.5) for v in vals)
    log.check("laplacian: cutoff at or below the smaller value gives exactly one half",
              worst == 0.0, worst, "= 0.5 exactly")


REPRODUCE_TARGETS = {
    "counterexample-b1": reproduce_counterexample_b1,
    "counterexample-b2": reproduce_counterexample_b2,
    "kfirm-braess": reproduce_kfirm_braess,
    "theta-star": reproduce_theta_star,
    "figure2": reproduce_figure2,
    "figure3": reproduce_figure3,
    "figure4": reproduce_figure4,
    "four-percent": reproduce_four_percent,
}
VERIFY_SUITES = {
    "mallows-lemmas": verify_mallows_lemmas,
    "conditions": verify_conditions,
    "appendix-c": verify_appendix_c,
}
# graded subcommand -> (name of its positional argument, runners by name)
GRADED = {"reproduce": ("target", REPRODUCE_TARGETS), "verify": ("suite", VERIFY_SUITES)}


def cmd_graded(args) -> int:
    """Run one reproduce target or verify suite and grade its checks."""
    noun, runners = GRADED[args.command]
    name = getattr(args, noun)
    if name not in runners:
        print(f"unknown {noun} {name!r}; available: {', '.join(runners)}", file=sys.stderr)
        return EXIT_USAGE
    log = CheckLog()
    runners[name](log, args)
    return log.finish(args.out)


def load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    return values


def _lower_dash(text: str) -> str:
    return text.replace("_", "-").lower()


def _engine(text: str) -> str:
    engine = text.lower()
    if engine not in ("exact", "mc"):
        raise ValueError("engine must be exact or mc")
    return engine


def _trial_count(text: str) -> int:
    n = float(text)  # so 1e6 reads as a count
    if not (n.is_integer() and n >= 2):
        raise ValueError("need a whole number of trials, at least 2 for a stderr")
    return int(n)


# flag -> (converter from its text, value when unset, help)
FLAGS = {
    "family": (_lower_dash, "mallows", "mallows (default), rum, or plackett-luce"),
    "noise": (str, None, "for rum: gaussian, laplacian, gumbel, or discrete:v:p,v:p,..."),
    "theta_h": (float, None, "human-side accuracy"),
    "theta_a": (float, None, "algorithm-side accuracy"),
    "phi_a": (float, None, "algorithm dispersion (1 + theta)"),
    "phi_h": (float, None, "human dispersion (1 + theta)"),
    "grid": (str, None, "lo:hi:step x lo:hi:step (one axis for monotonicity)"),
    "pool": (str, None, "fixed candidate values, e.g. 1,0.5,0"),
    "dist": (str, None, "uniform:lo:hi:n or uniform0:halfwidth:n"),
    "engine": (_engine, "exact", "exact (default) or mc"),
    "samples": (_trial_count, 1_000_000, "Monte Carlo trials (accepts 1e6)"),
    "seed": (int, 0, "base seed for all randomized work"),
    "out": (str, None, "also write output to this path (.dat for whitespace)"),
    "check": (_lower_dash, None, "first-position, weaker-competition, or monotonicity"),
    "removed": (lambda text: frozenset(int(c) for c in text.split(",")), frozenset(),
                "comma-separated candidates removed before selection"),
    "firms": (int, None, "number of firms"),
    "config": (str, None, "key=value file supplying defaults for these flags"),
}
_MODEL_FLAGS = ("family", "noise", "pool", "dist")
# subcommand -> (handler, help, the flags it reads besides --config)
SUBCOMMANDS = {
    "utilities": (cmd_utilities, "one utility table at (theta_a, theta_h)", _MODEL_FLAGS + (
        "theta_h", "theta_a", "engine", "samples", "seed", "out")),
    "sweep": (cmd_sweep, "classify equilibria over an accuracy lattice", _MODEL_FLAGS + (
        "grid", "firms", "engine", "samples", "seed", "out")),
    "sequential": (cmd_sequential, "optimal strategy sequence for firms hiring in order", (
        "pool", "dist", "phi_a", "phi_h", "theta_a", "theta_h", "firms", "out")),
    "conditions": (cmd_conditions, "behavioral-condition checks with z verdicts", _MODEL_FLAGS + (
        "check", "theta_h", "theta_a", "grid", "removed", "samples", "seed", "out")),
    "braess-search": (cmd_braess_search, "find the dominance crossing and welfare-loss window",
                      _MODEL_FLAGS + ("firms", "phi_a", "phi_h", "theta_a", "theta_h", "out")),
    "reproduce": (cmd_graded, "run a pinned headline computation and grade it", ("samples", "out")),
    "verify": (cmd_graded, "run an invariant suite and grade it", ("samples", "out")),
}
# unset values that differ from FLAGS for one subcommand
DEFAULT_OVERRIDES = {
    "sweep": {"samples": 100_000, "firms": 2},
    "braess-search": {"firms": 2},
    "verify": {"samples": 200_000},
}


def resolve_flags(args) -> None:
    """Fill the subcommand's unset flags from the --config file, then convert
    each one's text or take its unset value. Flags win over the file, an
    empty value counts as unset, and a config key the subcommand does not
    read is an error. args.given records the flags set either way."""
    names = SUBCOMMANDS[args.command][2]
    config = load_config(args.config) if args.config else {}
    unread = sorted(set(config) - set(names))
    if unread:
        raise UsageError(f"config keys not read by {args.command}: {', '.join(unread)}")
    overrides = DEFAULT_OVERRIDES.get(args.command, {})
    args.given = set()
    for name in names:
        convert, unset, _ = FLAGS[name]
        text = getattr(args, name) or config.get(name)
        if not text:
            setattr(args, name, overrides.get(name, unset))
            continue
        args.given.add(name)
        try:
            setattr(args, name, convert(text))
        except (ValueError, OverflowError) as exc:
            raise UsageError(f"--{name.replace('_', '-')} {text!r}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(
        prog="monoculture",
        description="Hiring-competition analysis under shared algorithmic rankings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name in GRADED:
            noun, runners = GRADED[name]
            sub.add_argument(noun, help=", ".join(runners))
        for flag in flags + ("config",):
            sub.add_argument("--" + flag.replace("_", "-"), help=FLAGS[flag][2])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_flags(args)
        return args.func(args)
    except (BracketError, TieError) as exc:
        print(f"monoculture: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # UsageError and every library domain error
        print(f"monoculture: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
