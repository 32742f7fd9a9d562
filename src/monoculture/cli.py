"""Command-line front end.

Subcommands run utility tables, equilibrium sweeps, sequential solves,
behavioral-condition checks, Braess-window searches, pinned reproduction
targets, and invariant verification suites. Output is CSV on stdout (and
optionally a file); a .dat output path switches to whitespace-separated
columns for plotting tools. Identical flags and seed give byte-identical
output regardless of --threads.

Exit codes: 0 success, 1 usage or configuration error, 2 a reproduction or
verification check failed, 3 numerical failure (no bracket, tied scores).
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from .core import CandidateDistribution, CandidatePool, PoolError
from .estimators import (
    check_monotonicity,
    check_pref_first_position,
    check_pref_weaker_competition,
    mc_utility_table,
)
from .exact import ENTRY_NAMES, exact_selection_pmf, exact_utility_table, exact_welfare
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
    if step <= 0 or hi < lo:
        raise UsageError(f"need lo <= hi and step > 0 in {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def parse_grid(text: str) -> tuple[list[float], list[float]]:
    for sep in ("×", "x", "X"):
        if sep in text:
            left, right = text.split(sep, 1)
            return parse_axis(left), parse_axis(right)
    raise UsageError(f"grid must be two axes joined by 'x', got {text!r}")


def parse_noise(text: str) -> NoiseSpec:
    kind = text.split(":", 1)[0].lower()
    if kind == "gaussian":
        return NoiseSpec.gaussian()
    if kind == "laplacian":
        return NoiseSpec.laplacian()
    if kind == "gumbel":
        return NoiseSpec.gumbel()
    if kind == "discrete":
        body = text.split(":", 1)
        if len(body) != 2 or not body[1]:
            raise UsageError("discrete noise needs atoms, e.g. discrete:-1:0.5,1:0.5")
        atoms = []
        for pair in body[1].split(","):
            v_p = pair.split(":")
            if len(v_p) != 2:
                raise UsageError(f"atom must be value:prob, got {pair!r}")
            atoms.append((float(v_p[0]), float(v_p[1])))
        return NoiseSpec.discrete(tuple(atoms))
    raise UsageError(f"unknown noise kind {text!r}")


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
    family = (args.family or "mallows").replace("_", "-").lower()
    if family == "mallows":
        if args.noise:
            raise UsageError("the distance-based family takes no --noise")
        return RankingModelSpec.mallows(2.0)
    if family in ("plackett-luce", "pl"):
        if args.noise:
            raise UsageError("--family plackett-luce takes no --noise")
        return RankingModelSpec.plackett_luce(1.0)
    if family == "rum":
        if not args.noise:
            raise UsageError("--family rum needs --noise")
        return RankingModelSpec.rum(parse_noise(args.noise), 1.0)
    raise UsageError(f"unknown family {args.family!r}")


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


def check_engine(engine: str) -> str:
    engine = (engine or "exact").lower()
    if engine not in ("exact", "mc"):
        raise UsageError(f"engine must be exact or mc, got {engine!r}")
    return engine


def get_samples(args, default: int) -> int:
    if args.samples is None:
        return default
    try:
        n = int(float(args.samples))
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad --samples {args.samples!r}") from exc
    if n < 1:
        raise UsageError("--samples must be positive")
    return n


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


def cmd_utilities(args) -> int:
    family = build_family(args)
    pool = build_pool(args)
    if args.theta_h is None or args.theta_a is None:
        raise UsageError("utilities needs --theta-h and --theta-a")
    theta_h = float(args.theta_h)
    theta_a = float(args.theta_a)
    engine = check_engine(args.engine)
    samples = get_samples(args, 1_000_000)
    seed = int(args.seed or 0)
    if engine == "exact":
        table = exact_utility_table(theta_a, theta_h, family, pool)
    else:
        table = mc_utility_table(
            theta_a, theta_h, family, pool, samples, seed, threads=int(args.threads or 1)
        )
    header = (
        ["family", "noise", "engine", "theta_h", "theta_a"]
        + list(ENTRY_NAMES)
        + [f"stderr_{c}" for c in ENTRY_NAMES]
        + ["n_samples", "seed"]
    )
    row = (
        [family.kind, family.noise.kind if family.noise else "", engine, theta_h, theta_a]
        + [table.entry(c) for c in ENTRY_NAMES]
        + [table.stderr(c) for c in ENTRY_NAMES]
        + [table.n_samples, seed]
    )
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
    theta_h_values, theta_a_values = parse_grid(args.grid)
    k = int(args.firms or 2)
    engine = check_engine(args.engine)
    cells = sweep_plane(
        theta_h_values,
        theta_a_values,
        family,
        pool,
        engine=engine,
        k=k,
        n_samples=get_samples(args, 100_000),
        seed=int(args.seed or 0),
        threads=int(args.threads or 1),
    )
    emit(sweep_rows(cells), SWEEP_HEADER, args.out)
    return EXIT_OK


def _phi_args(args) -> tuple[float, float]:
    phi_a = args.phi_a
    phi_h = args.phi_h
    if phi_a is None and args.theta_a is not None:
        phi_a = 1.0 + float(args.theta_a)
    if phi_h is None and args.theta_h is not None:
        phi_h = 1.0 + float(args.theta_h)
    if phi_a is None or phi_h is None:
        raise UsageError("need --phi-a/--phi-h (or --theta-a/--theta-h)")
    return float(phi_a), float(phi_h)


def cmd_sequential(args) -> int:
    pool = build_pool(args)
    phi_a, phi_h = _phi_args(args)
    k = int(args.firms or 0)
    if k < 1:
        raise UsageError("sequential needs --firms >= 1")
    seq = sequential_optimal_sequence(k, phi_a, phi_h, pool)
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
    check = (args.check or "").replace("_", "-").lower()
    samples = get_samples(args, 1_000_000)
    seed = int(args.seed or 0)
    threads = int(args.threads or 1)
    if check == "first-position":
        if args.theta_h is None:
            raise UsageError("first-position needs --theta-h")
        report = check_pref_first_position(
            family, float(args.theta_h), pool, samples, seed, threads=threads
        )
        params = f"theta={fmt(float(args.theta_h))}"
    elif check == "weaker-competition":
        if args.theta_a is None or args.theta_h is None:
            raise UsageError("weaker-competition needs --theta-a (stronger) and --theta-h")
        report = check_pref_weaker_competition(
            family, float(args.theta_a), float(args.theta_h), pool, samples, seed,
            threads=threads,
        )
        params = f"theta1={fmt(float(args.theta_a))};theta2={fmt(float(args.theta_h))}"
    elif check == "monotonicity":
        if not args.grid:
            raise UsageError("monotonicity needs --grid lo:hi:step (one axis)")
        grid = parse_axis(args.grid)
        removed = frozenset(int(c) for c in args.removed.split(",")) if args.removed else frozenset()
        report = check_monotonicity(family, grid, removed, pool, samples, seed, threads=threads)
        params = (
            f"grid={args.grid};removed={','.join(str(c) for c in sorted(removed)) or '-'}"
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
    pool = build_pool(args)
    k = int(args.firms or 2)
    if k > 2:
        phi_a, phi_h = _phi_args(args)
        rep = kfirm_braess_check(k, phi_a, phi_h, pool)
        header = [
            "k", "phi_a", "phi_h", "all_a_average", "all_h_average",
            "all_a_equilibrium", "a_strictly_dominant", "braess", "best_sequence",
        ]
        rows = [[rep.k, rep.phi_a, rep.phi_h, rep.all_a_average, rep.all_h_average,
                 rep.all_a_equilibrium, rep.a_strictly_dominant, rep.braess,
                 rep.best_average_sequence.as_string()]]
        emit(rows, header, args.out)
        return EXIT_OK
    family = build_family(args)
    if args.theta_h is None:
        raise UsageError("braess-search needs --theta-h")
    res = find_theta_star(float(args.theta_h), family, pool)
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
        "enumeration matches the closed-form polynomial",
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
            abs(res.crossing_residual) < 1e-6,
            res.crossing_residual,
            "|.| < 1e-06",
        )
        log.check(
            f"phi_h={phi_h}: strict dominance with welfare loss just above the crossing",
            res.braess_found,
            res.theta_prime,
            "window found",
        )
        if res.braess_found:
            t = exact_utility_table(res.theta_prime, theta_h, family, THETA_STAR_POOL)
            gap = exact_welfare(t, "HH") - exact_welfare(t, "AA")
            log.check(
                f"phi_h={phi_h}: welfare gap at the witness accuracy",
                gap > 0,
                gap,
                "> 0",
            )


FIGURE2_SEED = 20260821


def reproduce_figure2(log: CheckLog, args) -> None:
    samples = get_samples(args, 1_000_000)
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
        if z < -3.0:
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
                rep.estimate.z_score_vs_zero > 3.0,
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
        count = int(round((hi - lo) / step)) + 1
        for i in range(count):
            phi_a = lo + i * step
            seq = sequential_optimal_sequence(5, phi_a, phi_h, FIGURE4_POOL).as_string()
            seen.setdefault(seq, (phi_h, phi_a))
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
    samples = get_samples(args, 1_000_000)
    family = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    d = CandidateDistribution.uniform_centered_zero(math.sqrt(3.0), 3)
    theta_h = 0.5
    hits = []
    for j in range(11):
        theta_a = 0.540 + 0.0025 * j
        table = mc_utility_table(theta_a, theta_h, family, d, samples, FOUR_PERCENT_SEED)
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
            pool = CandidatePool(tuple(float(n - i) for i in range(n)))
            spec = RankingModelSpec.mallows(phi)
            pmf = exact_selection_pmf(spec, pool, frozenset())
            worst = 0.0
            q = 1.0 / phi
            for i in range(1, n + 1):
                closed = (1 - q) * q ** (i - 1) / (1 - q**n)
                worst = max(worst, abs(pmf.prob_of(i) - closed))
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
    samples = get_samples(args, 200_000)
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


_CONFIG_KEYS = (
    "family", "noise", "theta_h", "theta_a", "phi_a", "phi_h", "grid", "pool",
    "dist", "engine", "samples", "seed", "threads", "out", "check", "removed",
    "firms",
)


def apply_config(args) -> None:
    """Fill unset flags from the key=value config file; flags win."""
    if not getattr(args, "config", None):
        return
    values = load_config(args.config)
    unknown = set(values) - set(_CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in values.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", help="mallows (default), rum, or plackett-luce")
    sub.add_argument("--noise",
                     help="for rum: gaussian, laplacian, gumbel, or discrete:v:p,v:p,...")
    sub.add_argument("--theta-h", dest="theta_h", help="human-side accuracy")
    sub.add_argument("--theta-a", dest="theta_a", help="algorithm-side accuracy")
    sub.add_argument("--phi-a", dest="phi_a",
                     help="algorithm dispersion (sequential commands; 1 + theta)")
    sub.add_argument("--phi-h", dest="phi_h", help="human dispersion (sequential commands)")
    sub.add_argument("--grid", help="lo:hi:step x lo:hi:step (one axis for monotonicity)")
    sub.add_argument("--pool", help="fixed candidate values, e.g. 1,0.5,0")
    sub.add_argument("--dist", help="uniform:lo:hi:n or uniform0:halfwidth:n")
    sub.add_argument("--engine", help="exact or mc")
    sub.add_argument("--samples", help="Monte Carlo trials (accepts 1e6)")
    sub.add_argument("--seed", help="base seed for all randomized work")
    sub.add_argument("--threads", help="worker bound; results do not depend on it")
    sub.add_argument("--out", help="also write output to this path (.dat for whitespace)")
    sub.add_argument("--config", help="key=value file supplying defaults for these flags")
    sub.add_argument("--check", help="conditions: first-position, weaker-competition, "
                                     "or monotonicity")
    sub.add_argument("--removed", help="comma-separated candidates removed before selection")
    sub.add_argument("--firms", help="number of firms (sweep, sequential, braess-search)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="monoculture",
        description="Hiring-competition analysis under shared algorithmic rankings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("utilities", cmd_utilities, "one utility table at (theta_a, theta_h)"),
        ("sweep", cmd_sweep, "classify equilibria over an accuracy lattice"),
        ("sequential", cmd_sequential, "optimal strategy sequence for firms hiring in order"),
        ("conditions", cmd_conditions, "behavioral-condition checks with z verdicts"),
        ("braess-search", cmd_braess_search,
         "find the dominance crossing and welfare-loss window"),
        ("reproduce", cmd_graded, "run a pinned headline computation and grade it"),
        ("verify", cmd_graded, "run an invariant suite and grade it"),
    )
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        if name in GRADED:
            noun, runners = GRADED[name]
            sub.add_argument(noun, help=", ".join(runners))
        _add_common(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args)
        return args.func(args)
    except (BracketError, TieError) as exc:
        print(f"monoculture: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # UsageError and every library domain error
        print(f"monoculture: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
